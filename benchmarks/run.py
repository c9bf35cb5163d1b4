"""refkit benchmark: four batch workloads over the generate -> save -> load ->
prompt -> resolve -> score path, measured through refkit's public functions.

    python3 benchmarks/run.py --workload synth-e2e --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from anywhere inside a checkout; refkit is imported from the checkout's
`src/`. A separate process first generates the workload's inputs and
expected outputs from the seed (gen.py); this process then repeats the
workload's whole path in rounds for about --seconds and reports
percentiles and medians over them (see below).
Every round is checked against the expected outputs.

Workloads (each stage calls the functions the matching `refkit` command
calls, in the same order):
- synth-e2e: bundled templates expanded under 16 seeds (~10k rows) ->
  save_dataset -> load_dataset -> prompt_for_datapoint per row -> oracle
  evaluate_dataset with 1 worker. Codec, template expansion,
  textualization, prompts, parsing and scoring; no layout or cluster work.
  The saved rows are checked against the committed digests of the
  generator's runs (synth_digests.json, see gen.py).
- screen-e2e: load_dataset -> prompts -> oracle evaluate on 200 on-screen
  datapoints of 20-200 objects plus a 2% tail at 10^4 objects. Layout
  encoding dominates (each screen is encoded twice); no textualization.
- cluster-encode: load_dataset -> encode_clusters(eps=None) per scene ->
  JSONL, as `refkit encode --strategy cluster`. 16 scenes of 50-200
  objects; in half every surrounding list is a subset of the screen (one
  shared object set per scene), in the other half it is not.
- remote-eval: load_dataset -> evaluate_dataset(max_workers=2) with
  RemoteResolver against a loopback HTTP/1.1 server in its own process on
  the client's CPU: a closed loop of 2 client threads, 2 ms service time, 300
  rows (mostly synthetic), 2% of replies HTTP 503 to exercise the
  ResolverError path. It is not among BENCHMARK.json's workloads: each call
  waits on the host scheduling the machine's CPUs, so on a shared virtual
  machine its figures vary too much from run to run to hold a 25% bound.

End-to-end metrics (--trace 0):
- setup_s: median over fresh interpreters of importing refkit.cli plus the
  workload's one-time loads.
- items_per_s: datapoints (scenes for cluster-encode) through the whole path
  per second, from the 90th percentile of the timed rounds' times.
- item_p50_ms, item_p99_ms: percentiles over items of each item's latency,
  the 75th percentile of its calls in the timed rounds, for the workload's
  per-item call: prompt_for_datapoint (synth-e2e, screen-e2e),
  encode_clusters (cluster-encode), the resolver call as evaluate_dataset
  sees it (remote-eval).

  Why upper percentiles: on the shared 2-vCPU host these figures were taken
  on, a run moves between a contended speed, which every run reaches, and an
  uncontended one up to ~1.7x faster, which comes and goes for seconds to
  minutes. A run's median or mean depends on how much of it fell in the fast
  state: over ten seeds they spread up to 0.28 and 0.23 of their value
  (IQR/median) where the 90th percentile round time spread at most 0.14. An
  item's calls take the 75th percentile, as with 10-20 rounds its 90th falls
  on its slowest calls, where one-off stalls hit a random ~1% of calls.
- peak_rss_mb: peak resident memory of this process.
- success_ratio: 1 - fail_ratio, where fail_ratio counts items whose output
  or outcome differs from the expected one (wrong prompt bytes or cluster
  context, wrong score, invalid output, unexpected transport failure or a
  crash) per item attempted. Injected 503s that are counted as expected are
  not failures.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics (PER_LAYER) from spans recorded around refkit's layers, plus the
tracing overhead; the spans of its last traced round are written to
benchmarks/.traces/<workload>-<seed>.jsonl. The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it records the machine (with the share of CPU time the hypervisor
gave to other machines during the run, which slows every timing) and the
sizes. Exit status: 0 when every gate holds, 1 when one tripped, 2 when
the benchmark could not run.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import loopback_server  # noqa: E402
import reference  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_PROBES = 9
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4
SERVICE_S = 0.002
REMOTE_WORKERS = 2

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "screen_model.save_s": "s",
    "screen_model.load_s": "s",
    "screen_model.records": "count",
    "screen_model.objects": "count",
    "screen_model.bytes": "bytes",
    "synth_datagen.load_templates_s": "s",
    "synth_datagen.generate_s": "s",
    "synth_datagen.rows": "count",
    "entity_textualizer.self_s": "s",
    "entity_textualizer.calls": "count",
    "layout_encoder.self_s": "s",
    "layout_encoder.calls": "count",
    "layout_encoder.objects": "count",
    "layout_encoder.call_p99_ms": "ms",
    "cluster_encoder.self_s": "s",
    "cluster_encoder.dbscan_calls": "count",
    "cluster_encoder.dbscan_objects": "count",
    "cluster_encoder.context_bytes": "bytes",
    "prompt_builder.self_s": "s",
    "prompt_builder.prompts": "count",
    "prompt_builder.prompt_bytes": "bytes",
    "prompt_builder.call_p50_ms": "ms",
    "prompt_builder.call_p99_ms": "ms",
    "eval_harness.evaluate_self_s": "s",
    "eval_harness.parse_score_s": "s",
    "eval_harness.resolve_s": "s",
    "eval_harness.resolve_calls": "count",
    "eval_harness.resolve_p50_ms": "ms",
    "eval_harness.resolve_p99_ms": "ms",
    "eval_harness.transport_failures": "count",
    "eval_harness.invalid": "count",
    "eval_harness.server_s": "s",
    "eval_harness.client_overhead_ms": "ms",
    "eval_harness.connections": "count",
    "eval_harness.requests_per_connection": "ratio",
    "eval_harness.inflight_mean": "calls",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "tracing.untraced_items_per_s": "1/s",
    "tracing.traced_items_per_s": "1/s",
    "tracing.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def _quantile(values, q: int) -> float:
    """The q-th percentile (1..99), interpolated within the values' range
    (statistics.quantiles' inclusive method); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    at = (len(ordered) - 1) * q / 100
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _steal_s() -> float:
    """CPU seconds the hypervisor has given to other machines (0.0 where
    unknown). Slow runs on shared hosts show up here."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def import_refkit(src: Path):
    """Import refkit from `src`, refusing any other copy on the path."""
    if not (src / "refkit" / "__init__.py").is_file():
        raise BenchError(f"no refkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import refkit
    import refkit.cli  # noqa: F401  (the commands' imports, as set-up counts them)

    if not Path(refkit.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported refkit from {refkit.__file__}, not from {src}")
    return refkit


def probe_setup(src: Path, workload: str) -> tuple[float, float]:
    """(import_s, setup_s) of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), workload],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


class TimedResolver:
    """Delegates to a resolver, timing each call as evaluate_dataset sees it."""

    def __init__(self, inner):
        self._call = inner.resolve
        self.latencies: dict[int, float] = {}

    def resolve(self, prompt, datapoint):
        start = perf_counter()
        try:
            return self._call(prompt, datapoint)
        finally:
            # Keyed by datapoint: worker threads finish calls out of order.
            self.latencies[id(datapoint)] = perf_counter() - start


def check_lines(path: Path, expected: dict) -> int:
    """Number of JSONL records in `path` that differ from the expected ones."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() == expected["sha256"]:
        return 0
    lines = data.splitlines(keepends=True)
    want = expected["items"]
    bad = sum(
        1 for i, digest in enumerate(want)
        if i >= len(lines) or reference.line_digest(lines[i]) != digest
    )
    return max(1, bad + max(0, len(lines) - len(want)))


class Bench:
    """One workload's measured process: inputs, refkit, and the rounds."""

    def __init__(self, workload: str, seed: int, work: Path, refkit, spec: dict):
        self.workload = workload
        self.seed = seed
        self.rk = refkit
        self.spec = spec
        self.dataset = work / "dataset.jsonl"
        self.output = work / "output.jsonl"
        self.config = refkit.EncoderConfig(margin=None, inject_markers=True)
        self.registry = refkit.default_registry()
        self.ids: dict[int, int] = {}
        self.rows = 0
        self.spans: list = []
        self.server = None

    # --- stages, each as the matching refkit command runs it ----------------

    def generate(self, tracer) -> None:
        rk = self.rk
        from refkit.synth_datagen import bundled_template_dir
        from refkit.value_bank import pool_entities

        with tracer.span("cli.generate"):
            with tracer.span("synth_datagen.load_templates"):
                pairs = rk.load_templates(bundled_template_dir())
            rows = []
            with tracer.span("synth_datagen.generate"):
                for base in self.spec["generate_seeds"]:
                    for offset, (template, slots) in enumerate(pairs):
                        pool = pool_entities(exclude_types=slots.ground_truth_types)
                        rows.extend(rk.generate_datapoints(
                            template, slots, pool, per_query_negatives=3,
                            seed=base + offset, max_samples=self.spec["max_samples"],
                        ))
            with tracer.span("screen_model.save_dataset"):
                rk.save_dataset(str(self.dataset), rows)
        self.rows = len(rows)

    def load(self, tracer) -> list:
        with tracer.span("screen_model.load_dataset"):
            datapoints = self.rk.load_dataset(str(self.dataset))
        self.ids = {id(dp): i for i, dp in enumerate(datapoints)}
        return datapoints

    def prompt(self, tracer, datapoints: list, traced: bool) -> list[float]:
        from refkit.eval_harness import item_seed

        prompt_for_datapoint = self.rk.prompt_for_datapoint
        latencies = []
        with tracer.span("cli.prompt"), open(self.output, "w", encoding="utf-8") as out:
            for record_id, datapoint in enumerate(datapoints):
                seed = item_seed(self.seed, datapoint)
                start = perf_counter()
                with tracer.span("prompt_builder.prompt_for_datapoint", record_id) as span:
                    prompt = prompt_for_datapoint(
                        datapoint, seed=seed, config=self.config, registry=self.registry
                    )
                latencies.append(perf_counter() - start)
                if traced:
                    span[tracing.COUNTS] = {"bytes": len(prompt.text.encode("utf-8"))}
                record = {"id": record_id, "prompt": prompt.text, "index_map": list(prompt.index_map)}
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
        return latencies

    def encode(self, tracer, datapoints: list) -> list[float]:
        encode_clusters = self.rk.encode_clusters
        latencies = []
        with tracer.span("cli.encode"), open(self.output, "w", encoding="utf-8") as out:
            for record_id, datapoint in enumerate(datapoints):
                if datapoint.kind != "onscreen":
                    continue
                start = perf_counter()
                with tracer.span("cluster_encoder.encode_clusters", record_id):
                    encodings = encode_clusters(datapoint.screen or (), datapoint.entities, eps=None, min_pts=1)
                latencies.append(perf_counter() - start)
                record = {
                    "id": record_id,
                    "entities": [
                        {
                            "index": enc.entity_index,
                            "surrounding_objects": list(enc.surrounding_prompt),
                            "distance_from_top": enc.distance_from_top,
                            "distance_from_left": enc.distance_from_left,
                        }
                        for enc in encodings
                    ],
                }
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
        return latencies

    def evaluate(self, tracer, datapoints: list, resolver, workers: int, traced: bool):
        timed = TimedResolver(resolver)
        if traced:
            tracer.wrap(timed, "_call", "eval_harness.resolve", item_of=lambda args: self.ids.get(id(args[1])))
        with tracer.span("cli.evaluate"), tracer.span("eval_harness.evaluate_dataset"):
            report = self.rk.evaluate_dataset(
                datapoints, timed, config=self.config, seed=self.seed,
                dataset_name=self.workload, registry=self.registry, max_workers=workers,
            )
        return report, [timed.latencies[id(dp)] for dp in datapoints if id(dp) in timed.latencies]

    # --- one round ----------------------------------------------------------

    def install_wrappers(self, tracer: tracing.Tracer) -> None:
        import refkit.cluster_encoder as cluster_encoder
        import refkit.eval_harness as eval_harness
        import refkit.prompt_builder as prompt_builder

        def screen_objects(args, result):
            screen, entities = args[0], args[1]
            surrounding = sum(len(e.placement.surrounding) for e in entities if e.placement)
            return {"objects": len(screen) + len(entities) + surrounding}

        tracer.wrap(prompt_builder, "encode_screen", "layout_encoder.encode_screen", count=screen_objects)
        tracer.wrap(prompt_builder, "textualize_entity", "entity_textualizer.textualize_entity")
        tracer.wrap(
            eval_harness, "prompt_for_datapoint", "prompt_builder.prompt_for_datapoint",
            item_of=lambda args: self.ids.get(id(args[0])),
            count=lambda args, prompt: {"bytes": len(prompt.text.encode("utf-8"))},
        )
        tracer.wrap(eval_harness, "parse_prediction", "eval_harness.parse_prediction")
        tracer.wrap(eval_harness, "score", "eval_harness.score")
        tracer.wrap(
            cluster_encoder, "dbscan_cluster", "cluster_encoder.dbscan_cluster",
            count=lambda args, result: {"objects": len(args[0])},
        )

    def round(self, traced: bool) -> dict:
        """Run the workload's whole path once; returns timings and checks."""
        tracer = tracing.Tracer() if traced else tracing.NullTracer()
        if traced:
            self.install_wrappers(tracer)
        spec = self.spec
        report = None
        try:
            start = perf_counter()
            if self.workload == "synth-e2e":
                self.generate(tracer)
            datapoints = self.load(tracer)
            if self.workload in ("synth-e2e", "screen-e2e"):
                latencies = self.prompt(tracer, datapoints, traced)
                report, _ = self.evaluate(tracer, datapoints, self.rk.OracleResolver(seed=self.seed), 1, traced)
            elif self.workload == "cluster-encode":
                latencies = self.encode(tracer, datapoints)
            else:
                resolver = self.rk.RemoteResolver(f"http://127.0.0.1:{self.server['port']}/resolve")
                report, latencies = self.evaluate(tracer, datapoints, resolver, REMOTE_WORKERS, traced)
            seconds = perf_counter() - start
        finally:
            if traced:
                tracer.unwrap()
        items = len(datapoints)
        del datapoints

        problems = []
        bad_output = 0
        expected_output = spec.get("prompts") or spec.get("contexts")
        if expected_output is not None:
            bad_output = check_lines(self.output, expected_output)
            if bad_output:
                problems.append(f"{bad_output} output record(s) differ from the expected ones")
        bad_outcome = 0
        if report is not None:
            expected_failures = spec.get("expected_failures", 0)
            bad_outcome = (
                abs(report.correct - spec["expected_correct"])
                + report.invalid
                + abs(report.transport_failures - expected_failures)
            )
            if bad_outcome:
                problems.append(
                    f"report: {report.correct} correct (expected {spec['expected_correct']}), "
                    f"{report.invalid} invalid (expected 0), {report.transport_failures} "
                    f"transport failures (expected {expected_failures})"
                )
        if "synth_digests" in spec:
            bad_rows = gen.bad_synth_rows(self.dataset.read_bytes(), spec["synth_digests"])
            if bad_rows:
                bad_output += bad_rows
                problems.append(f"{bad_rows} generated row(s) differ from the committed synth_digests.json")
        if items != spec["items"]:
            problems.append(f"{items} items processed, expected {spec['items']}")
        result = {
            "traced": traced,
            "items": spec["items"],
            "seconds": seconds,
            "latencies": latencies,
            "failed": min(spec["items"], max(bad_output + bad_outcome, abs(items - spec["items"]))),
            "problems": problems,
        }
        if self.server is not None:
            self.server["conn"].send("stats")
            result["server"] = self.server["conn"].recv()
        if traced:
            self.spans = tracer.take()
            result["layers"] = self.layer_metrics(self.spans, report, result)
        return result

    def layer_metrics(self, spans: list, report, result: dict) -> dict:
        own = tracing.self_times(spans)

        def total(name: str) -> float:
            return sum(tracing.durations(spans, name))

        def calls(name: str) -> int:
            return len(tracing.durations(spans, name))

        def ms(name: str, q: int) -> float:
            return 1000 * _quantile(tracing.durations(spans, name), q)

        prompt_span = "prompt_builder.prompt_for_datapoint"
        resolve = tracing.durations(spans, "eval_harness.resolve")
        evaluate_wall = total("eval_harness.evaluate_dataset")
        server = result.get("server") or {"connections": 0, "requests": 0, "service_s": []}
        service = server["service_s"]
        metrics = {
            "screen_model.save_s": total("screen_model.save_dataset"),
            "screen_model.load_s": total("screen_model.load_dataset"),
            "screen_model.records": result["items"],
            "screen_model.objects": self.spec["objects"],
            "screen_model.bytes": self.dataset.stat().st_size,
            "synth_datagen.load_templates_s": total("synth_datagen.load_templates"),
            "synth_datagen.generate_s": total("synth_datagen.generate"),
            "synth_datagen.rows": self.rows,
            "entity_textualizer.self_s": own.get("entity_textualizer.textualize_entity", 0.0),
            "entity_textualizer.calls": calls("entity_textualizer.textualize_entity"),
            "layout_encoder.self_s": own.get("layout_encoder.encode_screen", 0.0),
            "layout_encoder.calls": calls("layout_encoder.encode_screen"),
            "layout_encoder.objects": tracing.count_sum(spans, "layout_encoder.encode_screen", "objects"),
            "layout_encoder.call_p99_ms": ms("layout_encoder.encode_screen", 99),
            "cluster_encoder.self_s": own.get("cluster_encoder.encode_clusters", 0.0)
            + own.get("cluster_encoder.dbscan_cluster", 0.0),
            "cluster_encoder.dbscan_calls": calls("cluster_encoder.dbscan_cluster"),
            "cluster_encoder.dbscan_objects": tracing.count_sum(spans, "cluster_encoder.dbscan_cluster", "objects"),
            "cluster_encoder.context_bytes": self.output.stat().st_size if self.workload == "cluster-encode" else 0,
            "prompt_builder.self_s": own.get(prompt_span, 0.0),
            "prompt_builder.prompts": calls(prompt_span),
            "prompt_builder.prompt_bytes": tracing.count_sum(spans, prompt_span, "bytes"),
            "prompt_builder.call_p50_ms": ms(prompt_span, 50),
            "prompt_builder.call_p99_ms": ms(prompt_span, 99),
            "eval_harness.evaluate_self_s": own.get("eval_harness.evaluate_dataset", 0.0),
            "eval_harness.parse_score_s": total("eval_harness.parse_prediction") + total("eval_harness.score"),
            "eval_harness.resolve_s": sum(resolve),
            "eval_harness.resolve_calls": len(resolve),
            "eval_harness.resolve_p50_ms": 1000 * _quantile(resolve, 50),
            "eval_harness.resolve_p99_ms": 1000 * _quantile(resolve, 99),
            "eval_harness.transport_failures": report.transport_failures if report else 0,
            "eval_harness.invalid": report.invalid if report else 0,
            "eval_harness.server_s": sum(service),
            "eval_harness.client_overhead_ms": 1000 * (statistics.median(resolve) - statistics.median(service))
            if service else 0.0,
            "eval_harness.connections": server["connections"],
            "eval_harness.requests_per_connection": server["requests"] / server["connections"]
            if server["connections"] else 0.0,
            "eval_harness.inflight_mean": sum(resolve) / evaluate_wall if evaluate_wall else 0.0,
            "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        }
        return metrics

    def measure(self, seconds: float, trace: bool, probe) -> tuple[list[dict], list[tuple[float, float]]]:
        """Rounds until the next one would pass `seconds`, with a minimum
        count, and set-up probes between them, so both sample the whole run.

        The first round only warms up (lazy imports, first connections) and
        is checked but not timed; with `trace`, untraced and traced rounds
        alternate after it.
        """
        rounds: list[dict] = []
        probes: list[tuple[float, float]] = []
        began = perf_counter()
        walls: list[float] = []
        while True:
            gc.collect()
            wall = perf_counter()
            warmup = not rounds
            traced = trace and not warmup and len(rounds) % 2 == 0
            try:
                result = self.round(traced)
            except Exception:
                traceback.print_exc()
                rounds.append({
                    "traced": traced, "warmup": warmup, "items": self.spec["items"],
                    "seconds": 0.0, "latencies": [], "failed": self.spec["items"],
                    "problems": ["round crashed"],
                })
                break
            walls.append(perf_counter() - wall)
            result["warmup"] = warmup
            rounds.append(result)
            probes.append(probe())
            elapsed = perf_counter() - began
            timed = len(rounds) - 1
            if timed >= (MIN_TRACE_ROUNDS if trace else MIN_ROUNDS) and elapsed + statistics.median(walls) > seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(probe())
        return rounds, probes


def start_server(answers: Path) -> dict:
    """Start the loopback server, with it and this process (the client) kept
    to one CPU.

    On a virtual machine with other tenants, a run spread over two CPUs
    also waits for the host to schedule the second one: with the server on
    a CPU of its own, items_per_s varied about twice as much from run to run
    as with one CPU for both.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    context = multiprocessing.get_context("spawn")
    conn, child = context.Pipe()
    process = context.Process(target=loopback_server.serve, args=(str(answers), SERVICE_S, child))
    process.start()
    child.close()
    server = {"process": process, "conn": conn, "cpus": cpus}
    if not conn.poll(60):
        stop_server(server)
        raise BenchError("loopback server did not start")
    server["port"] = conn.recv()
    return server


def stop_server(server: dict) -> None:
    try:
        server["conn"].send("stop")
    except OSError:
        pass
    server["conn"].close()
    server["process"].join(15)
    if server["process"].is_alive():
        server["process"].terminate()
        server["process"].join(15)
    os.sched_setaffinity(0, server["cpus"])


def summarize(rounds: list[dict], probes: list[tuple[float, float]], trace: bool) -> dict:
    """Metric values: rates from the timed rounds' 90th percentile time,
    medians of the set-up probes and of the traced rounds' layer metrics,
    and latency percentiles over items of each item's 75th percentile."""
    plain = [r for r in rounds if not r["traced"] and not r["warmup"] and r["seconds"]]

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def rate(timed: list[dict]) -> float:
        seconds = _quantile([r["seconds"] for r in timed], 90)
        return timed[0]["items"] / seconds if seconds else 0.0

    rate_plain = rate(plain)
    if trace:
        traced = [r for r in rounds if r["traced"] and not r["warmup"] and "layers" in r]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for name in traced[0]["layers"] if traced else ():
            metrics[name] = median(r["layers"][name] for r in traced)
        traced_rate = rate(traced)
        metrics["cli.import_s"] = median(p[0] for p in probes)
        metrics["tracing.untraced_items_per_s"] = rate_plain
        metrics["tracing.traced_items_per_s"] = traced_rate
        metrics["tracing.overhead_pct"] = 100 * (1 - traced_rate / rate_plain) if rate_plain else 0.0
        return metrics
    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # Every round calls the items in the same order.
    latencies = [_quantile(calls, 75) for calls in zip(*(r["latencies"] for r in plain))]
    return {
        "setup_s": median(p[1] for p in probes),
        "items_per_s": rate_plain,
        "item_p50_ms": 1000 * _quantile(latencies, 50),
        "item_p99_ms": 1000 * _quantile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (attempted - failed) / attempted,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Generate, set up, measure and check one workload; returns (info, result)."""
    src = BENCH_DIR.parent / "src"
    # Importing here also writes the bytecode cache the set-up probes read.
    refkit = import_refkit(src)
    work = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = None
    try:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload, "--seed", str(seed),
             "--size", size, "--src", str(src), "--out", str(work)],
            timeout=300, check=True,
        )
        spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
        bench = Bench(workload, seed, work, refkit, spec)
        if workload == "remote-eval":
            bench.server = start_server(work / "answers.json")
        began, steal = perf_counter(), _steal_s()
        rounds, probes = bench.measure(seconds, trace, lambda: probe_setup(src, workload))
        steal_pct = 100 * (_steal_s() - steal) / ((perf_counter() - began) * os.cpu_count())
        if bench.spans:
            traces = BENCH_DIR / ".traces"
            traces.mkdir(exist_ok=True)
            tracing.write_jsonl(bench.spans, traces / f"{workload}-{seed}.jsonl")
    finally:
        if bench is not None and bench.server is not None:
            stop_server(bench.server)
        shutil.rmtree(work, ignore_errors=True)

    values = summarize(rounds, probes, trace)
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "items": spec["items"],
        "objects": spec["objects"],
        "bytes": spec.get("bytes", 0),
        "rounds": len(rounds),
        "round_s": [round(r["seconds"], 4) for r in rounds],
        "steal_pct": round(steal_pct, 2),
        "latency_items": len(rounds[0]["latencies"]),
        "latency_samples": sum(len(r["latencies"]) for r in rounds if not r["traced"] and not r["warmup"]),
        "client_workers": REMOTE_WORKERS if workload == "remote-eval" else 1,
        "service_ms": 1000 * SERVICE_S if workload == "remote-eval" else None,
        "injected_faults": spec.get("expected_failures", 0),
        "fail_ratio": failed / attempted,
        "problems": problems[:10],
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="refkit benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, so each peak_rss_mb is that workload's own.
        status = 0
        for workload in gen.WORKLOADS:
            command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(command).returncode)
        return status
    try:
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>14}  {name:<36} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    for problem in info["problems"]:
        print(f"{args.workload:>14}  GATE: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
