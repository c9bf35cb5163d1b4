"""Start-up guards: refkit loads its heavy dependencies only where they run.

`requests` is imported by `RemoteResolver.resolve`, `yaml` by the template
and rule loaders, and `concurrent.futures` by `evaluate_dataset` with more
than one worker. `statistics` (which brings `fractions` and `decimal`) is
not imported at all. Each test runs a fresh interpreter, since this process
has imported all of them already. Nothing here is timed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_DIR

HEAVY = ("requests", "urllib3", "yaml", "concurrent.futures", "statistics")
RAINBOW = str(DATA_DIR / "rainbow.jsonl")
RULES = str(DATA_DIR / "rainbow_rules.yaml")

# Prepended to each script; `loaded()` lists the HEAVY modules present so far.
PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
def loaded():
    return [name for name in HEAVY if name in sys.modules]
"""


def run_fresh(script: str, *args: str, cwd=None) -> list:
    """Run PRELUDE + script in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_DIR / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script, *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COMMANDS_SCRIPT = """
import refkit, refkit.cli
steps = [["import", None, loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([" ".join(argv), refkit.cli.main(argv), loaded()])
print(json.dumps(steps))
"""


def test_commands_load_no_http_yaml_or_thread_pool(tmp_path):
    realtor = str(DATA_DIR / "realtor_screen.jsonl")
    branches = str(DATA_DIR / "branch_clusters.jsonl")
    out = str(tmp_path / "out")
    commands = [
        ["encode", "--input", realtor, "--output", out],
        ["encode", "--input", branches, "--strategy", "cluster", "--output", out],
        ["prompt", "--input", RAINBOW, "--output", out],
        ["prompt", "--input", realtor, "--output", out],
        ["evaluate", "--input", RAINBOW, "--oracle", "--output", out],
        ["evaluate", "--input", realtor, "--oracle", "--output", out],
    ]
    steps = run_fresh(COMMANDS_SCRIPT, json.dumps(commands), cwd=tmp_path)
    assert [step[0] for step in steps[1:]] == [" ".join(argv) for argv in commands]
    for name, code, modules in steps:
        assert modules == [], f"after {name}: {modules} loaded"
        assert code in (None, 0), f"{name} exited {code}"


@pytest.mark.parametrize(
    "call",
    ["load_templates(bundled_template_dir())", f"load_rules({RULES!r})"],
    ids=["templates", "rules"],
)
def test_reading_yaml_brings_in_the_parser(call):
    script = f"""
from refkit import load_rules, load_templates
from refkit.synth_datagen import bundled_template_dir
before = loaded()
{call}
print(json.dumps([before, loaded()]))
"""
    before, after = run_fresh(script)
    assert before == [] and after == ["yaml"]


def test_first_remote_call_maps_a_refused_connection():
    # The first resolve imports requests; its failure must still be a
    # ResolverError, not a NameError from the except clause.
    script = f"""
from refkit import RemoteResolver, ResolverError, load_dataset, prompt_for_datapoint
before = loaded()
[datapoint] = load_dataset({RAINBOW!r})
resolver = RemoteResolver("http://127.0.0.1:1/resolve", timeout=5)
raised = None
try:
    resolver.resolve(prompt_for_datapoint(datapoint), datapoint)
except ResolverError as exc:
    raised = type(exc).__name__
print(json.dumps([before, raised, loaded()]))
"""
    before, raised, after = run_fresh(script)
    assert before == [] and raised == "ResolverError"
    assert "requests" in after


# Four threads reach their first RemoteResolver call together, so all four
# run `import requests` at once; every call must still get through.
CONCURRENT_FIRST_CALLS = """
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from refkit import RemoteResolver, evaluate_dataset, load_dataset

WORKERS = 4


class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"text": "1"}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class Gate:
    # Holds the first WORKERS calls until all of them have arrived.
    def __init__(self, inner):
        self.inner = inner
        self.barrier = threading.Barrier(WORKERS, timeout=30)
        self.lock = threading.Lock()
        self.calls = 0

    def resolve(self, prompt, datapoint):
        with self.lock:
            self.calls += 1
            first = self.calls <= WORKERS
        if first:
            self.barrier.wait()
        return self.inner.resolve(prompt, datapoint)


datapoints = [dp for path in sys.argv[1:] for dp in load_dataset(path)] * 3
server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
try:
    before = loaded()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/resolve"
    gate = Gate(RemoteResolver(endpoint, timeout=30))
    report = evaluate_dataset(datapoints, gate, max_workers=WORKERS)
finally:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
print(json.dumps([before, thread.is_alive(), len(datapoints), gate.calls, report.to_json_dict()]))
"""


def test_concurrent_first_calls_all_resolve():
    paths = [str(DATA_DIR / name) for name in sorted(os.listdir(DATA_DIR)) if name.endswith(".jsonl")]
    before, serving, items, calls, report = run_fresh(CONCURRENT_FIRST_CALLS, *paths)
    assert before == [] and not serving
    assert items >= 4 and calls == items == report["total"]
    assert report["transport_failures"] == 0
