"""Smoke test for the benchmark itself, at tiny input sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every workload runs, emits every named metric with its unit,
and that a defect in refkit's output or a wrong resolver trips the gates.
Kept out of the repository's test suite, which only collects `tests/`.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SRC = run.BENCH_DIR.parent / "src"


def tiny(workload: str, trace: bool = False) -> dict:
    _, result = run.run_workload(workload, seed=7, seconds=0.2, trace=trace, size="tiny")
    return result


@pytest.fixture
def refkit():
    return run.import_refkit(SRC)


@pytest.mark.parametrize("workload", run.gen.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    result = tiny(workload, trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_prompt_trips_gate(refkit, monkeypatch):
    original = refkit.prompt_for_datapoint

    def corrupted(*args, **kwargs):
        prompt = original(*args, **kwargs)
        return refkit.Prompt(prompt.text + " ", prompt.index_map, prompt.variant)

    monkeypatch.setattr(refkit, "prompt_for_datapoint", corrupted)
    result = tiny("screen-e2e")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_corrupted_cluster_context_trips_gate(refkit, monkeypatch):
    original = refkit.encode_clusters
    monkeypatch.setattr(refkit, "encode_clusters", lambda *a, **k: original(*a, **k)[:-1])
    result = tiny("cluster-encode")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_wrong_generator_output_trips_gate(refkit, monkeypatch):
    # Empty ground truths leave every prompt and oracle score as it was, so
    # only the committed digests of the generator's runs can catch them.
    original = refkit.generate_datapoints

    def unlabelled(*args, **kwargs):
        return [dataclasses.replace(dp, ground_truth=frozenset()) for dp in original(*args, **kwargs)]

    monkeypatch.setattr(refkit, "generate_datapoints", unlabelled)
    info, result = run.run_workload("synth-e2e", seed=7, seconds=0.2, trace=False, size="tiny")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert all("synth_digests.json" in problem for problem in info["problems"])


@pytest.mark.parametrize("workload,resolver", [
    ("synth-e2e", "OracleResolver"),
    ("remote-eval", "RemoteResolver"),
])
def test_wrong_resolver_trips_gate(refkit, monkeypatch, workload, resolver):
    monkeypatch.setattr(getattr(refkit, resolver), "resolve", lambda self, prompt, dp: "1")
    result = tiny(workload)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources():
    root = run.BENCH_DIR.parent
    bare = run.BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".work", ".traces", "__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        command = json.loads((root / "BENCHMARK.json").read_text())["command"]
        done = subprocess.run(
            [sys.executable, *command[1:], "--workload", "synth-e2e", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
