"""Per-layer tracing of montrans from outside the library.

``Tracer.installed()`` replaces the library's public functions and the
monoid classes' methods at their import sites (for example
``montrans.oracle.minimize``, ``montrans.learner.find_defect`` and
``ObservationTable.fill``) by wrappers that open a span, and puts the
originals back on exit.  A span has a name, a start, an end, a parent span
and the id of the benchmark item that caused it.  Each span's self time is
its duration minus the durations of its child spans, summed per name when
the span closes.  Spans of the layer functions are kept in memory as records;
the monoid operations, ``Transducer`` construction and evaluation and the
membership oracle run millions of times and only add to their counts.

Nothing here runs unless the benchmark is started with ``--trace 1``, and
the end-to-end figures are always measured with the originals in place.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

import montrans.cli
import montrans.learner
import montrans.monoid
import montrans.oracle
import montrans.transducer
from montrans.learner import DefectKind, ObservationTable
from montrans.monoid import CommutativeMonoid, CyclicGroup, FreeMonoid, NatAddMonoid, TraceMonoid
from montrans.transducer import Transducer

#: ``montrans.minimize`` names the function the package re-exports, so the
#: module is taken from the import system.
MINIMIZE = importlib.import_module("montrans.minimize")

MONOID_CLASSES = {
    "free": FreeMonoid,
    "trace": TraceMonoid,
    "commutative": CommutativeMonoid,
    "nat-add": NatAddMonoid,
    "cyclic-group": CyclicGroup,
}
MONOID_METHODS = ("mul", "lgcd2", "left_divide", "canonical")
ROW_FUNCTIONS = ("lgcd_family", "red_row", "rows_equal_up_to_left_invertible")
TRANSDUCER_LAYERS = ("init", "eval", "deserialize", "serialize")
MINIMIZE_STAGES = ("reach", "total", "prefix", "state_lgcds", "observe", "check_minimal")
LEARNER_PHASES = ("fill", "find_defect", "build_hypothesis", "process_counterexample")
DEFECTS = {
    DefectKind.CLOSURE: "closure",
    DefectKind.TOT: "tot",
    DefectKind.INV: "inv",
    DefectKind.INJ: "inj",
}
CLI_COMMANDS = ("eval", "minimize", "learn", "equiv")

#: Span names whose spans are counted but not kept one by one.
UNKEPT = ("monoid.", "transducer.init", "transducer.eval", "oracle.membership")


def _calls_and_self(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


#: Every per-layer metric with its unit, in report order.
PER_LAYER: list[tuple[str, str]] = (
    [
        metric
        for kind in MONOID_CLASSES
        for metric in [(f"monoid.{kind}.{m}.calls", "count") for m in MONOID_METHODS]
        + [(f"monoid.{kind}.self_s", "s")]
    ]
    + [metric for fn in ROW_FUNCTIONS for metric in _calls_and_self(f"monoid.rows.{fn}")]
    + [metric for layer in TRANSDUCER_LAYERS for metric in _calls_and_self(f"transducer.{layer}")]
    + [metric for stage in MINIMIZE_STAGES for metric in _calls_and_self(f"minimize.{stage}")]
    + [(f"minimize.states.{stage}", "count") for stage in ("input", "reach", "total", "minimal")]
    + [metric for phase in LEARNER_PHASES for metric in _calls_and_self(f"learner.{phase}")]
    + [(f"learner.defects.{kind}", "count") for kind in DEFECTS.values()]
    + [
        ("learner.q_updates", "count"),
        ("learner.t_updates", "count"),
        ("learner.hypothesis_accept_ratio", "ratio"),
    ]
    + _calls_and_self("oracle.equivalence")
    + [("oracle.minimize.calls", "count"), ("oracle.minimize_s", "s")]
    + _calls_and_self("oracle.iso_check")
    + [("oracle.iso_accept_ratio", "ratio")]
    + _calls_and_self("oracle.brute_force_diff")
    + _calls_and_self("oracle.membership")
    + [metric for cmd in CLI_COMMANDS for metric in _calls_and_self(f"cli.{cmd}")]
    + [("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Span recorder plus the counters the layer metrics need."""

    def __init__(self):
        #: name -> [calls, self seconds, inclusive seconds]
        self.totals: dict[str, list] = {}
        #: kept spans: (name, start, end, parent span index or -1, item id)
        self.spans: list = []
        self.counters: Counter = Counter()
        #: id of the benchmark item being run; stamped on every kept span
        self.item: Optional[int] = None
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``; ``on_result(result, args)``
        sees every return value."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        keep = not name.startswith(UNKEPT)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index, index if keep else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans[index] = (name, start, end, parent, self.item)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def observe(self, event: str, payload) -> None:
        """The learner's ``observer`` hook."""
        if event == "defect":
            self.counters[f"learner.defects.{DEFECTS[payload.kind]}"] += 1
        elif event == "hypothesis":
            self.counters["learner.hypotheses"] += 1

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner, attr: str, replace: Callable) -> None:
        """Put ``replace(original)`` in place of ``owner.attr``.  An import
        site the library no longer has is skipped, so a refactor that moves
        an import only drops that site's counts."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replace(original))

    def _span(self, owner, attr: str, name: str, on_result=None) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(fn, name, on_result))

    def _factory(self, owner, attr: str, name: str) -> None:
        """Wrap the callables a factory such as ``equivalence_oracle`` returns."""
        self._patch(owner, attr, lambda make: lambda *a, **kw: self.wrap(make(*a, **kw), name))

    def _on_minimize(self, staged, args) -> None:
        c = self.counters
        c["minimize.states.input"] += len(args[0].states)
        c["minimize.states.reach"] += len(staged.reach.states)
        c["minimize.states.total"] += len(staged.total.states)
        c["minimize.states.minimal"] += len(staged.minimal.states)

    def _on_learn(self, result, args) -> None:
        _, stats = result
        self.counters["learner.accepted"] += 1
        self.counters["learner.q_updates"] += stats.q_updates
        self.counters["learner.t_updates"] += stats.t_updates

    def _on_iso(self, pairing, args) -> None:
        self.counters["oracle.iso_accepts"] += pairing is not None

    def _learn_observed(self, learn: Callable) -> Callable:
        """``learn`` with this tracer as its observer unless one is given."""

        def observed(*args, **kwargs):
            if len(args) < 6 and kwargs.get("observer") is None:
                kwargs["observer"] = self.observe
            return learn(*args, **kwargs)

        return self.wrap(observed, "learner.learn", self._on_learn)

    def _install(self) -> None:
        mono, tr, mini = montrans.monoid, montrans.transducer, MINIMIZE
        lrn, orc, cli = montrans.learner, montrans.oracle, montrans.cli
        for kind, cls in MONOID_CLASSES.items():
            for method in MONOID_METHODS:
                self._span(cls, method, f"monoid.{kind}.{method}")
        for module in (mono, lrn, mini):
            for fn in ROW_FUNCTIONS:
                self._span(module, fn, f"monoid.rows.{fn}")
        self._span(Transducer, "__init__", "transducer.init")
        self._span(Transducer, "eval", "transducer.eval")
        self._span(Transducer, "serialize", "transducer.serialize")
        for module in (tr, cli):
            self._span(module, "deserialize", "transducer.deserialize")
        for stage in MINIMIZE_STAGES:
            self._span(mini, stage, f"minimize.{stage}")
        self._span(orc, "check_minimal", "minimize.check_minimal")
        for module in (mini, cli):
            self._span(module, "minimize", "minimize.minimize", self._on_minimize)
        self._span(orc, "minimize", "oracle.minimize", self._on_minimize)
        self._span(ObservationTable, "fill", "learner.fill")
        for phase in LEARNER_PHASES[1:]:
            self._span(lrn, phase, f"learner.{phase}")
        for module in (lrn, cli):
            self._patch(module, "learn", self._learn_observed)
        for module in (orc, cli):
            self._factory(module, "equivalence_oracle", "oracle.equivalence")
            self._span(module, "brute_force_diff", "oracle.brute_force_diff")
        self._factory(orc, "membership_oracle", "oracle.membership")
        self._span(orc, "iso_check", "oracle.iso_check", self._on_iso)
        for cmd in CLI_COMMANDS:
            self._span(cli, f"cmd_{cmd}", f"cli.{cmd}")

    @contextmanager
    def installed(self):
        """Trace every call into the library made inside the block."""
        try:
            self._install()
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every metric of ``PER_LAYER`` as ``name -> (value, unit)``."""
        totals, counters = self.totals, self.counters

        def calls(name):
            return totals.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return totals.get(name, [0, 0.0, 0.0])[1]

        def ratio(part, whole):
            return part / whole if whole else 0.0

        values = dict(counters)
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls(base)
            elif field == "self_s" and base.startswith("monoid.") and base[7:] in MONOID_CLASSES:
                values[name] = sum(self_s(f"{base}.{m}") for m in MONOID_METHODS)
            elif field == "self_s":
                values[name] = self_s(base)
        values["learner.hypothesis_accept_ratio"] = ratio(
            counters["learner.accepted"], counters["learner.hypotheses"]
        )
        values["oracle.minimize_s"] = totals.get("oracle.minimize", [0, 0.0, 0.0])[2]
        values["oracle.iso_accept_ratio"] = ratio(counters["oracle.iso_accepts"], calls("oracle.iso_check"))
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
