"""Benchmark of montrans: seeded workloads, end to end and per layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload learn-corpus --seed 9001 --seconds 55 --trace 0

Workloads (``BENCHMARK.json`` lists the two it measures and why each is
there; the other two are run by hand, as leaving them out lets those two run
longer, and so steadier, within the time all runs of the benchmark may take):

* ``learn-corpus``    -- 2000 learning runs on targets drawn as the
  acceptance corpus draws them (its 500 first at seed 9001);
* ``learn-large``     -- 20 learning runs on complete 50-state targets, and
  the 200-state point ROADMAP quotes;
* ``minimize-chains`` -- minimize + check_minimal on a size sweep of chains,
  and the unary-250 and reset-16 points ROADMAP quotes;
* ``cli-files``       -- 1000 CLI invocations on seeded machine files.

With ``--trace 0`` the single ROADMAP points run once, and then the other
items run one at a time in whole passes until ``--seconds`` have passed (at
least three passes), with the library untouched.  ``items_per_s`` divides the
items of a pass by the sum of each item's median latency over the passes.
Set-up (building the inputs, without writing files) is repeated and timed on
its own.  With ``--trace 1`` one pass runs untraced and then once more with
every layer wrapped by ``tracer.Tracer``, and the per-layer figures of the
traced pass are reported.

Every output is checked outside the timed region by ``workloads``' own
evaluator.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every figure by name with its unit.  The full record (environment,
query totals per pass, per-target query counts, per-size rows) goes to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``, and the kept spans
of a traced run to a ``.spans.jsonl`` file next to it.

Exit code 0 means a result was printed; 2 means the sources were not found
or the arguments were wrong, and nothing was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

WORKLOADS = ("learn-corpus", "learn-large", "minimize-chains", "cli-files")
#: Set-up is repeated at least this many times per run, and until this many
#: seconds have passed; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
#: Every item of a pass runs at least this many times per run, so that
#: ``items_per_s`` rests on a median latency of each item.
MIN_PASSES = 3


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": cpus,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Checks every output: the first output of an item in full, a repeat by
    its digest against the first."""

    def __init__(self, items):
        self.items = items
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, index: int, output) -> None:
        item = self.items[index]
        self.attempted += 1
        if isinstance(output, Exception):
            reason = f"raised {type(output).__name__}: {output}"
        elif index not in self.first:
            self.first[index] = output
            reason = item.check(output)
        elif item.digest(output) != item.digest(self.first[index]):
            reason = "output differs from the item's first run"
        else:
            reason = None
        if reason is not None:
            self.failures.append((item.label, reason))

    def stats(self) -> list[tuple[int, dict]]:
        """Learner query counts of every item that ran right and has them."""
        bad = {label for label, _ in self.failures}
        return [
            (i, self.items[i].stats(out))
            for i, out in sorted(self.first.items())
            if self.items[i].stats is not None and self.items[i].label not in bad
        ]


def run_item(item):
    try:
        return item.run()
    except Exception as exc:  # a failed item is counted, the run goes on
        return exc


def query_totals(outcome: Outcome) -> dict:
    """Learner queries of one pass: every item but the single points, once."""
    totals = {"membership_queries": 0, "equivalence_queries": 0}
    for i, stats in outcome.stats():
        if not outcome.items[i].once:
            for key in totals:
                totals[key] += stats[key]
    return totals


def measure(items, seconds: float) -> dict:
    """Each ``once`` item, then whole passes over the other items until
    ``seconds`` have passed since the start (at least ``MIN_PASSES``)."""
    outcome = Outcome(items)
    latencies: list[float] = []
    per_item: dict[int, list[float]] = {}
    pass_times: list[float] = []
    clock = time.perf_counter
    start = clock()

    def timed(index):
        begin = clock()
        output = run_item(items[index])
        elapsed = clock() - begin
        outcome.record(index, output)
        per_item.setdefault(index, []).append(elapsed)
        return elapsed

    for index, item in enumerate(items):
        if item.once:
            timed(index)
    passing = [i for i, item in enumerate(items) if not item.once]
    while len(pass_times) < MIN_PASSES or clock() - start + statistics.median(pass_times) <= seconds:
        times = [timed(index) for index in passing]
        latencies.extend(times)
        pass_times.append(sum(times))
    return {
        "outcome": outcome,
        "latencies": latencies,
        "per_item": per_item,
        "pass_times": pass_times,
        "items_per_pass": len(passing),
        "pass_median_s": sum(statistics.median(per_item[i]) for i in passing),
    }


def size_rows(workload: str, items, measured: dict) -> list[dict]:
    """Median latency per row of items, with ROADMAP's figure beside the
    single points it quotes."""
    groups: dict[str, list[int]] = {}
    for index, item in enumerate(items):
        if item.row is not None:
            groups.setdefault(item.row, []).append(index)
    rows = []
    for row, indices in groups.items():
        entry = {
            "row": row,
            "items": len(indices),
            "median_ms": 1000 * statistics.median(
                statistics.median(measured["per_item"][i]) for i in indices
            ),
        }
        done = [measured["outcome"].first[i] for i in indices if i in measured["outcome"].first]
        if workload == "minimize-chains" and done:
            entry["states"] = items[indices[0]].info["states"]
            entry["minimal"] = items[indices[0]].info["minimal"]
            entry["minimize_ms"] = 1000 * statistics.median(out[2] for out in done)
            entry["check_minimal_ms"] = 1000 * statistics.median(out[3] for out in done)
        if items[indices[0]].info.get("roadmap_s") is not None:
            entry["roadmap_s"] = items[indices[0]].info["roadmap_s"]
        rows.append(entry)
    return rows


def end_to_end(args, tiny: bool) -> tuple[dict, dict, Outcome]:
    import workloads

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        items = None  # the previous build is freed before the clock starts
        start = time.perf_counter()
        items = workloads.build(args.workload, args.seed, WORK / args.workload, tiny)
        setups.append(time.perf_counter() - start)
    workloads.write_files(items, WORK / args.workload)
    for item in items[:3]:  # warm-up: first calls, lazy set-up
        run_item(item)
    measured = measure(items, args.seconds)
    outcome, latencies = measured["outcome"], measured["latencies"]
    passes = len(measured["pass_times"])
    totals = query_totals(outcome)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (measured["items_per_pass"] / measured["pass_median_s"], "1/s"),
        "item_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "item_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "membership_queries": (totals["membership_queries"], "count"),
        "equivalence_queries": (totals["equivalence_queries"], "count"),
        "fail_ratio": (len(outcome.failures) / outcome.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {
        "items_per_pass": measured["items_per_pass"],
        "passes": passes,
        "latency_samples": len(latencies),
        "setup_repeats": len(setups),
        "setup_samples_s": setups[:50],
        "pass_seconds": measured["pass_times"],
        "failures": outcome.failures[:50],
        "size_rows": size_rows(args.workload, items, measured),
        "targets": [
            {"label": items[i].label, "states": items[i].info.get("states"), **stats}
            for i, stats in outcome.stats()
        ]
        if args.workload.startswith("learn-")
        else [],
    }
    return metrics, record, outcome


def traced(args, tiny: bool) -> tuple[dict, dict, Outcome, list]:
    import tracer
    import workloads

    built = workloads.build(args.workload, args.seed, WORK / args.workload, tiny)
    workloads.write_files(built, WORK / args.workload)
    items = [item for item in built if not item.once]
    for item in items[:3]:
        run_item(item)
    start = time.perf_counter()
    plain = [run_item(item) for item in items]
    plain_s = time.perf_counter() - start
    untraced = Outcome(items)
    for index, output in enumerate(plain):
        untraced.record(index, output)

    spans = tracer.Tracer()
    outputs = []
    with spans.installed():
        start = time.perf_counter()
        for index, item in enumerate(items):
            spans.item = index
            outputs.append(run_item(item))
        traced_s = time.perf_counter() - start
    outcome = Outcome(items)
    for index, output in enumerate(outputs):
        outcome.record(index, output)
        if not isinstance(output, Exception) and index in untraced.first:
            if items[index].digest(output) != items[index].digest(untraced.first[index]):
                outcome.failures.append((items[index].label, "traced output differs from untraced"))
    plain_totals, traced_totals = query_totals(untraced), query_totals(outcome)
    if plain_totals != traced_totals:
        outcome.failures.append(("*", f"query totals {traced_totals} traced, {plain_totals} untraced"))
    outcome.failures.extend(untraced.failures)
    outcome.attempted += untraced.attempted
    metrics = spans.metrics(traced_s / plain_s)
    record = {
        "items": len(items),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "query_totals": traced_totals,
        "failures": outcome.failures[:50],
        "kept_spans": len(spans.spans),
    }
    return metrics, record, outcome, spans.spans


def print_summary(args, metrics: dict, record: dict, result_file: Path) -> None:
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("item_p50_ms", "item_p90_ms"):
            note = f"  (n={record['latency_samples']})"
        elif name.endswith("_queries"):
            note = "  (per pass)"
        print(f"  {name:<{width}}  {value:.6g} {unit}{note}")
    print(f"  failures: {len(record['failures'])}; result file: {result_file.relative_to(ROOT)}")


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; ``tiny`` shrinks it for the benchmark's smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "montrans" / "__init__.py").is_file():
        print(f"montrans sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    spans = []
    try:
        if args.trace:
            metrics, record, outcome, spans = traced(args, tiny)
        else:
            metrics, record, outcome = end_to_end(args, tiny)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = RESULTS / f"{stem}.json"
    doc = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **record,
    }
    result_file.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    if spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")

    print_summary(args, metrics, record, result_file)
    names = reported_names(args.trace)
    reported = {k: v for k, v in metrics.items() if k in names}
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": outcome.attempted,
                "failed": len(outcome.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


def reported_names(trace: int) -> set[str]:
    """The metric names ``BENCHMARK.json`` lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
