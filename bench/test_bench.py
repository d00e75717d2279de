"""Smoke test of the benchmark itself at tiny sizes.

Run from the root of a source checkout::

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7

#: The end-to-end figures every untraced run prints, with their units.
PRINTED = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "membership_queries": "count",
    "equivalence_queries": "count",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def untraced(workload: str) -> tuple[list[str], dict]:
    """Printed lines and result object of an untraced run in this process."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", "0"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv, tiny=True) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_metric_and_fails_nothing(workload):
    lines, result = untraced(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    summary = "\n".join(lines[:-1])
    for name, unit in PRINTED.items():
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}(\s|$)", summary, re.M), name
    doc = json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace0.json").read_text(encoding="utf-8"))
    assert doc["metrics"]["fail_ratio"]["value"] == 0


def traced_in_process(workload: str, hash_seed: int) -> dict:
    """A traced run in a fresh interpreter with its own string-hash seed."""
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", f"import run, sys; sys.exit(run.main({argv!r}, tiny=True))"],
        cwd=run.BENCH,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_their_call_counts(workload):
    first = traced_in_process(workload, 1)
    second = traced_in_process(workload, 2)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def calls(result):
        return {n: m["value"] for n, m in result["metrics"].items() if n.endswith(".calls")}

    assert any(calls(first).values())
    assert calls(first) == calls(second)
