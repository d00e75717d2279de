"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they are also written unbuffered so they survive
output capture).  The corpora are seeded and shared between criteria via
session fixtures.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from montrans import (
    BudgetExceeded,
    DefectKind,
    LearnLimits,
    TraceMonoid,
    adversarial_oracle,
    brute_force_diff,
    check_minimal,
    equivalence_oracle,
    iso_check,
    learn,
    lgcd_family,
    minimize,
    mul_partial,
    red_row,
    state_lgcds,
)

from helpers import (
    beta_loop,
    brute_trace_lgcd,
    corpus_targets,
    equivalent_pair,
    learned,
    learning_target,
    load_machine,
)
from workloads import random_element, random_machine, standard_monoids


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {description}", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


# -- shared corpora -----------------------------------------------------------


@pytest.fixture(scope="module")
def learning_corpus():
    """≥ 100 random targets per monoid instance with their learned machines."""
    start = time.monotonic()
    runs = [(target.monoid.kind, target, *learned(target)) for target in corpus_targets()]
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def pair_corpus():
    """≥ 100 equivalent machine pairs built by state splitting and output
    shifting, with their minimized forms, and the pairs as drawn."""
    rng = random.Random(9002)
    pairs, drawn = [], []
    start = time.monotonic()
    for kind, monoid in standard_monoids().items():
        for _ in range(20):
            left, right = equivalent_pair(monoid, rng)
            drawn += [left, right]
            pairs.append((kind, minimize(left).minimal, minimize(right).minimal))
    return pairs, drawn, time.monotonic() - start


# -- criteria -----------------------------------------------------------------


def test_criterion_1_minimization_pipeline():
    with criterion(1, "four-stage pipeline on the b-loop machine (commutative)", budget=1.0):
        staged = minimize(beta_loop("commutative"))
        counts = (4,) + staged.state_counts()
        assert counts == (4, 3, 2, 2, 1), counts
        m = staged.prefix.monoid
        assert staged.prefix.initial == (m.parse("α"), "1")
        minimal = staged.minimal
        assert len(minimal.states) == 1
        (state,) = minimal.states
        assert minimal.initial == (m.parse("α"), state)
        assert minimal.termination[state] == m.unit()
        assert minimal.transitions == {(state, "b"): (m.parse("β"), state)}


def test_criterion_2_worked_learning_run():
    with criterion(2, "deterministic learning run on the three-state target", budget=1.0):
        target = learning_target()
        events = []
        machine, stats = learned(target, observer=lambda kind, payload: events.append((kind, payload)))
        defects = [(d.kind, d.word) for k, d in events if k == "defect"]
        assert defects == [
            (DefectKind.INV, ("a",)),
            (DefectKind.CLOSURE, ("a",)),
            (DefectKind.TOT, ("b",)),
        ], defects
        hypotheses = [p for k, p in events if k == "hypothesis"]
        assert hypotheses[0] == load_machine("first_hypothesis_free.json")
        assert [p for k, p in events if k == "counterexample"] == [("b", "b")]
        assert stats.equivalence_queries == 2
        assert iso_check(minimize(target).minimal, machine) is not None


def test_criterion_3_adversarial_nontermination():
    with criterion(3, "adversarial free-monoid run capped, trace-monoid run converges", budget=5.0):
        free_answers = adversarial_oracle()

        def never(_hypothesis):
            raise AssertionError("equivalence query during the adversarial run")

        from montrans import FreeMonoid

        with pytest.raises(BudgetExceeded) as info:
            learn(FreeMonoid(("α", "β", "γ")), ("a",), free_answers, never, LearnLimits(max_q=25))
        exc = info.value
        assert exc.stats.equivalence_queries == 0
        table = exc.table
        assert len(table.prefixes) == 26
        assert table.suffixes == [(), ("a",)]
        for q in table.prefixes:
            assert table.lam[q] == ("α",) * len(q)

        trace = TraceMonoid(("α", "β", "γ"), [("α", "β")])

        def trace_answers(word):
            return trace.canonical(free_answers(word))

        from montrans import Transducer

        reference = Transducer(
            monoid=trace,
            alphabet=("a",),
            states=("s",),
            initial=(trace.unit(), "s"),
            termination={"s": trace.parse("γ")},
            transitions={("s", "a"): (trace.parse("α·β"), "s")},
        )
        machine, _ = learn(trace, ("a",), trace_answers, equivalence_oracle(reference))
        assert machine.states == ("e",)
        assert machine.initial == (trace.unit(), "e")
        assert machine.transitions[("e", "a")] == (trace.parse("α·β"), "e")
        assert machine.termination["e"] == trace.parse("γ")


def test_criterion_4_monoid_law_suite():
    with criterion(4, "monoid law suite, 200 cases per law per instance + trace lgcd oracle"):
        failures = []
        for index, (kind, m) in enumerate(standard_monoids().items()):
            rng = random.Random(4000 + index)

            def row():
                r = tuple(random_element(m, rng) if rng.random() < 0.7 else None for _ in range(4))
                return r if any(v is not None for v in r) else r[:-1] + (random_element(m, rng),)

            for case in range(200):
                x, y, z, u = (random_element(m, rng) for _ in range(4))
                lam = row()
                scaled = tuple(None if v is None else m.mul(u, v) for v in lam)
                checks = {
                    "associativity": m.mul(x, m.mul(y, z)) == m.mul(m.mul(x, y), z),
                    "factorization": tuple(
                        mul_partial(m, lgcd_family(m, lam), v) for v in red_row(m, lam)
                    )
                    == lam,
                    "lgcd-equivariance": lgcd_family(m, scaled) == m.mul(u, lgcd_family(m, lam)),
                    "red-invariance": red_row(m, scaled) == red_row(m, lam),
                    "red-idempotence": red_row(m, red_row(m, lam)) == red_row(m, lam)
                    and m.is_invertible(lgcd_family(m, red_row(m, lam))),
                    "divide-round-trip": m.left_divide(x, m.mul(x, y)) == y,
                    "lgcd-divides": all(
                        m.divides(lgcd_family(m, lam), v) for v in lam if v is not None
                    ),
                }
                failures.extend((kind, case, law) for law, ok in checks.items() if not ok)
        assert not failures, failures[:10]

        trace = TraceMonoid(("α", "β", "γ"), [("α", "β")])
        words = [()]
        for w in words:
            if len(w) < 6:
                words.extend(w + (g,) for g in trace.generators)
        traces = sorted({trace.canonical(w) for w in words})
        for x in traces:
            for y in traces:
                assert trace.lgcd2(x, y) == brute_trace_lgcd(trace, x, y), (x, y)


def test_criterion_5_learner_cross_validation(learning_corpus):
    runs, learn_elapsed = learning_corpus
    with criterion(5, "≥100 random targets per instance: learned machines exact and minimal"):
        start = time.monotonic()
        assert len(runs) == 500
        for kind, target, machine, _ in runs:
            assert check_minimal(machine), kind
            assert brute_force_diff(machine, target, 8) is None, kind
        total = learn_elapsed + time.monotonic() - start
        assert total < 60.0, f"learning plus validation took {total:.1f}s"


def test_criterion_6_canonical_minimality(pair_corpus):
    pairs, _, build_elapsed = pair_corpus
    with criterion(6, "≥100 equivalent machine pairs minimize to isomorphic results"):
        start = time.monotonic()
        assert len(pairs) == 100
        for kind, left, right in pairs:
            assert iso_check(left, right) is not None, kind
        total = build_elapsed + time.monotonic() - start
        assert total < 60.0, f"pair building plus checks took {total:.1f}s"


def test_criterion_7_query_bounds(learning_corpus):
    """Query-update bounds from the complexity theorem, under the literal
    reading of the machine rank.

    Every state of a minimal machine recognizes a left-coprime function, so
    the stated rank term is identically zero; the t-side bound is known to be
    violated on this corpus and the violations are reported here as hard
    failures rather than loosened away (see the decisions ledger).
    """
    runs, _ = learning_corpus
    with criterion(7, "q_updates ≤ 3n + rk and t_updates ≤ n + rk on the corpus"):
        violations = []
        for kind, target, _, stats in runs:
            minimal = minimize(target).minimal
            n = len(minimal.states)
            betas = state_lgcds(minimal) if minimal.states else {}
            rk = sum(
                minimal.monoid.rank(b) for b in betas.values() if b is not None
            )
            if stats.q_updates > 3 * n + rk:
                violations.append((kind, "q_updates", stats.q_updates, n, rk))
            if stats.t_updates > n + rk:
                violations.append((kind, "t_updates", stats.t_updates, n, rk))
        assert not violations, (
            f"{len(violations)} query-bound violations under the literal rank reading: "
            f"{violations[:8]}"
        )


def test_criterion_8_oracle_consistency(pair_corpus):
    pairs, _, _ = pair_corpus
    with criterion(8, "iso_check agrees with brute force; counterexamples verify"):
        rng = random.Random(9003)
        checked = list(pairs)
        for kind, monoid in standard_monoids().items():
            for _ in range(20):
                alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
                left = minimize(
                    random_machine(monoid, rng, max_states=6, alphabet=alphabet)
                ).minimal
                right = minimize(
                    random_machine(monoid, rng, max_states=6, alphabet=alphabet)
                ).minimal
                checked.append((kind, left, right))
        assert len(checked) == 200
        for kind, left, right in checked:
            bound = len(left.states) + len(right.states) + 2
            agree = iso_check(left, right) is not None
            assert agree == (brute_force_diff(left, right, bound) is None), kind
            if not agree:
                verdict = equivalence_oracle(left)(right)
                assert verdict is not None
                assert left.eval(verdict.word) == verdict.left_value
                assert right.eval(verdict.word) == verdict.right_value
                assert verdict.left_value != verdict.right_value


#: Per-kind totals of membership queries, equivalence queries, q_updates and
#: t_updates over the 100 targets of each kind in ``learning_corpus``.
CORPUS_QUERY_TOTALS = {
    "free": [1867, 137, 174, 152],
    "trace": [1730, 135, 154, 153],
    "commutative": [1863, 157, 194, 147],
    "nat-add": [1708, 155, 175, 109],
    "cyclic-group": [1386, 160, 159, 83],
}


def test_learner_query_counts_on_corpus(learning_corpus):
    runs, _ = learning_corpus
    totals = {kind: [0, 0, 0, 0] for kind in CORPUS_QUERY_TOTALS}
    for kind, _, _, stats in runs:
        counts = (
            stats.membership_queries,
            stats.equivalence_queries,
            stats.q_updates,
            stats.t_updates,
        )
        totals[kind] = [a + b for a, b in zip(totals[kind], counts)]
    assert totals == CORPUS_QUERY_TOTALS


def _sha256(machines) -> str:
    digest = hashlib.sha256()
    for machine in machines:
        digest.update(machine.serialize().encode())
    return digest.hexdigest()


#: SHA-256 of the serialized machines learned on ``learning_corpus``, in
#: corpus order (measured before the observation table became incremental).
CORPUS_MACHINES_SHA256 = "933f1b83d3410e017e2b33cfdc40cd64ba086d0286f008e7d93651a7675e8d80"


def test_learned_corpus_machines_unchanged(learning_corpus):
    runs, _ = learning_corpus
    assert _sha256(machine for _, _, machine, _ in runs) == CORPUS_MACHINES_SHA256


#: SHA-256 of the serialized inputs of the two corpora, in draw order: the
#: 500 targets of ``learning_corpus`` and the 100 pairs of ``pair_corpus``
#: before minimization.  The generators are the benchmark's own
#: (``bench/workloads.py``), so a changed draw fails here, not silently.
CORPUS_TARGETS_SHA256 = "ab720965b09e84012455c4f9428eb07fd4ebd208c64be5797fca017c16c12f72"
PAIR_INPUTS_SHA256 = "56d6f124f6acca8da78b97a29e11dd283a183a47265b9f333ec8fde0ea2691e8"


def test_corpus_inputs_unchanged(learning_corpus, pair_corpus):
    runs, _ = learning_corpus
    _, drawn, _ = pair_corpus
    assert (len(runs), len(drawn)) == (500, 200)
    assert _sha256(target for _, target, _, _ in runs) == CORPUS_TARGETS_SHA256
    assert _sha256(drawn) == PAIR_INPUTS_SHA256
