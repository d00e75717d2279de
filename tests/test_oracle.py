"""Membership/equivalence oracles, isomorphism checking and the adversary."""

from __future__ import annotations

import importlib
import random
from dataclasses import replace

import pytest

import montrans.oracle
from montrans import (
    CounterExample,
    CyclicGroup,
    NotMinimalInput,
    TraceMonoid,
    Transducer,
    adversarial_oracle,
    brute_force_diff,
    check_minimal,
    equivalence_oracle,
    iso_check,
    membership_oracle,
    minimize,
    mul_partial,
    state_lgcds,
)
from montrans.cli import main
from montrans.errors import UnknownLetter

from helpers import (
    beta_loop,
    chain,
    draws,
    equivalence_certificate_faults,
    equivalent_pair,
    learned,
    learning_target,
    load_machine,
    rank_one,
    state_eval,
    words_up_to,
)
from workloads import random_element, random_machine, standard_monoids


def test_membership_oracle_examples():
    target = learning_target()
    ask = membership_oracle(target)
    p = target.monoid.parse
    assert ask(()) == p("α")
    assert ask(("b", "b")) is None
    loop = beta_loop("free")
    assert membership_oracle(loop)(("b", "b")) == loop.monoid.parse("β·β·α")


def test_brute_force_diff_examples():
    commutative_loop = beta_loop("commutative")
    minimal = load_machine("beta_loop_minimal_commutative.json")
    assert brute_force_diff(commutative_loop, minimal, 6) is None
    target = learning_target()
    hypothesis = load_machine("first_hypothesis_free.json")
    p = target.monoid.parse
    assert brute_force_diff(target, hypothesis, 1) is None  # differs only at length 2
    assert brute_force_diff(target, hypothesis, 2) == CounterExample(("b", "b"), None, p("α·α·α"))
    assert brute_force_diff(target, target, 5) is None


def test_brute_force_diff_rejects_mismatched_machines():
    with pytest.raises(ValueError):
        brute_force_diff(beta_loop("free"), beta_loop("commutative"), 3)
    with pytest.raises(ValueError):
        brute_force_diff(learning_target(), replace(learning_target(), alphabet=("a", "b", "c")), 3)


def _drop_transition(t: Transducer, rng: random.Random) -> Transducer:
    kept = dict(t.transitions)
    if kept:
        del kept[rng.choice(sorted(kept))]
    return replace(t, transitions=kept)


def _conjugated_pair(m, rng: random.Random) -> tuple[Transducer, Transducer]:
    """Two equivalent machines over one random graph: with a random ``h(s)``
    per state, the left one multiplies ``h(target)`` onto the right of each
    output, the right one multiplies ``h(source)`` onto the left."""
    base = random_machine(m, rng, max_states=4, alphabet=("a", "b"))
    h = {s: random_element(m, rng) for s in base.states}
    initial = None if base.initial is None else (m.mul(base.initial[0], h[base.initial[1]]), base.initial[1])
    left = replace(
        base,
        initial=initial,
        transitions={k: (m.mul(out, h[d]), d) for k, (out, d) in base.transitions.items()},
    )
    right = replace(
        base,
        termination={s: mul_partial(m, h[s], v) for s, v in base.termination.items()},
        transitions={(s, a): (m.mul(h[s], out), d) for (s, a), (out, d) in base.transitions.items()},
    )
    return left, right


def test_brute_force_diff_matches_eval():
    """The walk steps configurations with ``Transducer.step``, as the exact
    oracle does; this checks it against plain ``eval``, word by word."""
    rng = random.Random(6011)
    pairs = []
    for monoid in standard_monoids().values():
        for _ in range(6):
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            pairs.append(
                tuple(random_machine(monoid, rng, max_states=4, alphabet=alphabet) for _ in range(2))
            )
        for _ in range(3):
            for left, right in (equivalent_pair(monoid, rng), _conjugated_pair(monoid, rng)):
                pairs += [(left, right), (left, _drop_transition(right, rng))]
        seed = random_machine(monoid, rng, max_states=3, allow_no_initial=False)
        pairs += [(replace(seed, initial=None), seed), (seed, replace(seed, initial=None))]
    assert any(t.initial is None for pair in pairs for t in pair)
    assert any(None in t.termination.values() for pair in pairs for t in pair)
    assert any(
        len(t.transitions) < len(t.states) * len(t.alphabet) for pair in pairs for t in pair
    )
    lengths = set()
    for left, right in pairs:
        for k in (0, 1, 2, 4):
            expected = next(
                (
                    CounterExample(w, left.eval(w), right.eval(w))
                    for w in words_up_to(left.alphabet, k)
                    if left.eval(w) != right.eval(w)
                ),
                None,
            )
            assert brute_force_diff(left, right, k) == expected, (left, right, k)
            lengths.add(None if expected is None else len(expected.word))
    assert {None, 0, 1, 2} <= lengths


def test_equivalence_oracle_examples():
    target = learning_target()
    oracle = equivalence_oracle(target)
    assert oracle(target) is None
    verdict = oracle(load_machine("first_hypothesis_free.json"))
    assert (verdict.word, verdict.left_value) == (("b", "b"), None)
    assert verdict.right_value == target.monoid.parse("α·α·α")
    assert target.eval(verdict.word) != load_machine("first_hypothesis_free.json").eval(
        verdict.word
    )
    loop_oracle = equivalence_oracle(beta_loop("commutative"))
    assert loop_oracle(load_machine("beta_loop_minimal_commutative.json")) is None
    assert loop_oracle(beta_loop("commutative")) is None  # not trim: walked as built


def test_equivalence_oracle_never_minimizes(monkeypatch, tmp_path):
    """A learning run and a CLI equivalence query trim the reference and walk
    it with the other machine; no stage of ``minimize`` runs (``state_lgcds``
    is its pushing stage's fixpoint)."""
    calls = []
    stages = importlib.import_module("montrans.minimize")  # the package exports a same-named function
    real = stages.state_lgcds
    monkeypatch.setattr(stages, "state_lgcds", lambda *args: calls.append(args) or real(*args))
    target = learning_target()
    _, stats = learned(target)
    assert stats.equivalence_queries == 2
    left, right = equivalent_pair(target.monoid, random.Random(7))
    argv = ["equiv"]
    for side, machine in (("left", left), ("right", right)):
        path = tmp_path / f"{side}.json"
        path.write_text(machine.serialize(), encoding="utf-8")
        argv += [f"--{side}", str(path)]
    assert main(argv) == 0
    assert calls == []
    minimize(target)  # the patch does see minimization
    assert calls


def test_equivalence_oracle_makes_no_structural_check(monkeypatch):
    calls = []
    for name in ("iso_check", "check_minimal"):
        real = getattr(montrans.oracle, name)
        monkeypatch.setattr(
            montrans.oracle, name, lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args)
        )
    target = learning_target()
    _, stats = learned(target)
    assert stats.equivalence_queries == 2
    assert calls == []


def test_equivalence_oracle_trims_only_the_reference(monkeypatch):
    """A learning run scans for productive states once, when the oracle trims
    the reference; each hypothesis is walked as built."""
    calls = []
    real = Transducer.productive_states
    monkeypatch.setattr(Transducer, "productive_states", lambda self: calls.append(self) or real(self))
    target = learning_target()
    _, stats = learned(target)
    assert stats.equivalence_queries == 2
    assert len(calls) == 1 and calls[0] is target


def test_equivalence_oracle_matches_brute_force():
    rng = random.Random(5003)
    pairs = [group_scaling_pair(), group_scaling_pair()[::-1]]
    for monoid in standard_monoids().values():
        for _ in range(12):
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            pairs.append(
                tuple(
                    random_machine(monoid, rng, max_states=4, alphabet=alphabet)
                    for _ in range(2)
                )
            )
        for _ in range(4):
            pairs.append(equivalent_pair(monoid, rng))
    verdicts = []
    for left, right in pairs:
        verdict = equivalence_oracle(left)(right)
        if verdict is None:
            min_left, min_right = minimize(left).minimal, minimize(right).minimal
            bound = len(min_left.states) + len(min_right.states) + 2
            assert brute_force_diff(left, right, bound) is None
        else:
            assert brute_force_diff(left, right, len(verdict.word)) == verdict
            assert verdict.left_value == left.eval(verdict.word)
            assert verdict.right_value == right.eval(verdict.word)
        verdicts.append(verdict is None)
    assert verdicts[:2] == [True, True]  # the χ = 2 pair, both directions
    assert verdicts.count(True) > 2 and verdicts.count(False) > 2


def _graft_sink(t: Transducer, rng: random.Random, reroute: bool) -> Transducer:
    """``t`` with a non-productive sink that writes a generator on every
    letter.  Each missing transition of a reachable state goes into the sink,
    which keeps the function; with ``reroute`` one defined transition does
    too, which changes it unless that transition's target recognizes ``⊥``."""
    gen, reachable = rank_one(t.monoid, 0), t.reachable_states()
    into = [(s, a) for s in reachable for a in t.alphabet if (s, a) not in t.transitions]
    defined = sorted(k for k in t.transitions if k[0] in reachable)
    if reroute and defined:
        into.append(rng.choice(defined))
    transitions = {**t.transitions, **{k: (gen, "sink") for k in into}}
    transitions.update({("sink", a): (gen, "sink") for a in t.alphabet})
    return replace(t, states=t.states + ("sink",), transitions=transitions)


def test_equivalence_oracle_walks_non_productive_hypothesis_states():
    """A reachable non-productive state changes no verdict, whether the
    oracle trims it from the reference or walks it in the hypothesis."""
    rng = random.Random(5039)
    verdicts, sinks = [], 0
    for monoid in standard_monoids().values():
        for _ in range(6):
            left, right = equivalent_pair(monoid, rng)
            for grafted in (_graft_sink(right, rng, False), _graft_sink(right, rng, True)):
                sinks += "sink" in grafted.reachable_states()
                for t1, t2 in ((left, grafted), (grafted, left)):
                    verdict = equivalence_oracle(t1)(t2)
                    assert verdict == brute_force_diff(t1, t2, 6), (t1, t2)
                    if verdict is not None:
                        assert verdict.left_value == t1.eval(verdict.word)
                        assert verdict.right_value == t2.eval(verdict.word)
                    verdicts.append(verdict is None)
    assert sinks > 40
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def _trace_order_pair() -> tuple[Transducer, Transducer]:
    """Equivalent trace-monoid machines whose start states' left-gcds are
    built as α·β on the left and as β·α on the right: the left one writes α
    before the loop and β after it, the right one the other way round."""
    trace = standard_monoids()["trace"]
    p = trace.parse

    def machine(first: str, second: str) -> Transducer:
        return Transducer(
            monoid=trace,
            alphabet=("a", "b"),
            states=("p", "q"),
            initial=(p("ε"), "p"),
            termination={"p": None, "q": p(f"{second}·γ")},
            transitions={
                ("p", "a"): (p(first), "q"),
                ("q", "b"): (p(f"{second}·{first}"), "q"),
            },
        )

    return machine("α", "β"), machine("β", "α")


def _verdict_on_minimal(left: Transducer, right: Transducer):
    """The oracle's verdict as walked on the two minimal machines."""
    min_left, min_right = minimize(left).minimal, minimize(right).minimal
    bound = (len(min_left.states) + 1) * (len(min_right.states) + 1)
    verdict = montrans.oracle._walk(min_left, min_right, bound)[0]
    word = None if verdict is None else verdict.word
    return None if word is None else (word, min_left.eval(word), min_right.eval(word))


def test_equivalence_oracle_trimmed_walk_matches_minimal_walk():
    """Walking the trimmed reference instead of its minimization changes no
    verdict, and no equivalent pair runs past the walk's bound."""
    rng = random.Random(5021)
    trace_left, trace_right = _trace_order_pair()
    trace = trace_left.monoid
    assert state_lgcds(trace_left)["p"] == trace.parse("α·β")
    assert state_lgcds(trace_right)["p"] == trace.parse("β·α")
    equivalent = [group_scaling_pair(), (trace_left, trace_right)]
    different = []
    for monoid in standard_monoids().values():
        for _ in range(8):
            equivalent.append(equivalent_pair(monoid, rng))
            equivalent.append(_conjugated_pair(monoid, rng))
        for _ in range(12):
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            different.append(
                tuple(random_machine(monoid, rng, max_states=4, alphabet=alphabet) for _ in range(2))
            )
    equivalent += [pair[::-1] for pair in equivalent]
    unit_free = 0  # references with a non-unit state left-gcd
    for left, right in equivalent:
        assert equivalence_oracle(left)(right) is None
        assert _verdict_on_minimal(left, right) is None
        unit = left.monoid.unit()
        unit_free += any(v not in (None, unit) for v in state_lgcds(left).values())
    assert unit_free > len(equivalent) // 4
    refuted = 0
    for left, right in different:
        verdict = equivalence_oracle(left)(right)
        got = None if verdict is None else (verdict.word, verdict.left_value, verdict.right_value)
        assert got == _verdict_on_minimal(left, right), (left, right)
        refuted += verdict is not None
    assert refuted > len(different) // 2


def test_equivalence_oracle_on_learner_hypotheses_needs_no_minimization():
    """Every learner hypothesis is minimal already, and the oracle's verdict
    on it, walked as built, is the verdict on its minimization."""
    shifted = 0  # cyclic-group hypotheses with a non-unit state left-gcd
    for target in [learning_target(), *draws(37, 20)]:
        hypotheses = []

        def observer(event, payload):
            if event == "hypothesis":
                hypotheses.append(payload)

        learned(target, observer=observer)
        oracle = equivalence_oracle(target)
        min_ref = minimize(target).minimal
        for h in hypotheses:
            assert check_minimal(h)
            min_h = minimize(h).minimal
            bound = (len(min_ref.states) + 1) * (len(min_h.states) + 1)
            walked = montrans.oracle._walk(min_ref, min_h, bound)[0]
            word = None if walked is None else walked.word
            expected = None if word is None else (word, target.eval(word), h.eval(word))
            verdict = oracle(h)
            got = None if verdict is None else (verdict.word, verdict.left_value, verdict.right_value)
            assert got == expected, (target, h)
            if isinstance(h.monoid, CyclicGroup):
                shifted += any(v != 0 for v in state_lgcds(h).values())
    assert shifted > 0


def _bounded_walk(left: Transducer, right: Transducer):
    """The equivalence walk under the equivalence oracle's length bound."""
    return montrans.oracle._walk(left, right, (len(left.states) + 1) * (len(right.states) + 1))


@pytest.mark.parametrize("kind", sorted(standard_monoids()))
@pytest.mark.parametrize("reset", [False, True])
def test_equivalence_walk_keys_are_certificates(kind, reset):
    """On equivalent chains the walk's keys certify equivalence at 1000
    states (200 for trace); without the initial or a later key, or against a
    machine with shifted terminations, they do not."""
    n = 200 if kind == "trace" else 1000
    monoid = standard_monoids()[kind]
    left, right = chain(monoid, n, 1, reset), chain(monoid, n + 5, 6, reset)
    verdict, keys = _bounded_walk(left, right)
    assert verdict is None
    assert equivalence_certificate_faults(left, right, keys) == []
    order = list(keys)
    for dropped in (order[0], order[1], order[-1]):
        assert equivalence_certificate_faults(left, right, set(keys) - {dropped})
    shift = rank_one(monoid, 0)
    shifted = replace(right, termination={s: mul_partial(monoid, v, shift) for s, v in right.termination.items()})
    assert equivalence_certificate_faults(left, shifted, keys)


def test_equivalence_certificate_dead_keys():
    """Trimming drops state 2, which is defined on no word, so the walk pairs
    it with an undefined side; the productive state 4, which trimming also
    drops as unreachable, may not be paired so."""
    machine = beta_loop("free")
    trimmed = minimize(machine).total
    for left, right, dead in ((trimmed, machine, "dead-left"), (machine, trimmed, "dead-right")):
        verdict, keys = _bounded_walk(left, right)
        assert verdict is None and (dead, "2") in keys
        assert equivalence_certificate_faults(left, right, keys) == []
        assert equivalence_certificate_faults(left, right, {*keys, (dead, "4")})


@pytest.mark.parametrize("kind", sorted(standard_monoids()))
def test_equivalence_walk_finds_differences_of_long_chains(kind):
    n = 200 if kind == "trace" else 1000
    monoid = standard_monoids()[kind]
    left, right = chain(monoid, n, 1), chain(monoid, n + 1, 1)
    verdict = _bounded_walk(left, right)[0]
    assert verdict is not None
    assert left.eval(verdict.word) == verdict.left_value != verdict.right_value == right.eval(verdict.word)


def test_equivalence_oracle_rejects_mismatched_machines():
    target = learning_target()
    other = beta_loop("free")
    with pytest.raises(ValueError):
        equivalence_oracle(target)(other)


def test_iso_check_reflexive():
    minimal = minimize(learning_target()).minimal
    pairing = iso_check(minimal, minimal)
    unit = minimal.monoid.unit()
    assert pairing == {s: (s, unit) for s in minimal.states}


def test_iso_check_rejects_non_minimal_inputs():
    loop = beta_loop("free")
    minimal = minimize(loop).minimal
    trimmed = minimize(loop).total  # two equivalent states: not minimal
    assert iso_check(minimal, trimmed) is None  # state counts differ, checked first
    with pytest.raises(NotMinimalInput):
        iso_check(trimmed, trimmed)


def group_scaling_pair() -> tuple[Transducer, Transducer]:
    """The same cyclic-group function produced with shifted initial and
    termination values; the isomorphism's witness is χ = 2."""
    cyclic = CyclicGroup(3)
    left = Transducer(
        monoid=cyclic,
        alphabet=("b",),
        states=("s",),
        initial=(1, "s"),
        termination={"s": 2},
        transitions={("s", "b"): (1, "s")},
    )
    right = Transducer(
        monoid=cyclic,
        alphabet=("b",),
        states=("z",),
        initial=(0, "z"),
        termination={"z": 0},
        transitions={("z", "b"): (1, "z")},
    )
    return left, right


def test_iso_check_group_scaling():
    left, right = group_scaling_pair()
    assert brute_force_diff(left, right, 6) is None
    pairing = iso_check(left, right)
    assert pairing == {"s": ("z", 2)}  # non-unit witness
    back = iso_check(right, left)
    assert back == {"z": ("s", 1)}  # the inverse witness


def test_iso_check_symmetric_and_matches_brute_force():
    rng = random.Random(41)
    for monoid in standard_monoids().values():
        for _ in range(10):
            first = random_machine(monoid, rng, max_states=4, max_letters=2)
            second = random_machine(monoid, rng, max_states=4, alphabet=first.alphabet)
            t1, t2 = minimize(first).minimal, minimize(second).minimal
            forward = iso_check(t1, t2)
            backward = iso_check(t2, t1)
            assert (forward is None) == (backward is None)
            bound = len(t1.states) + len(t2.states) + 2
            assert (forward is not None) == (brute_force_diff(t1, t2, bound) is None)


def test_iso_check_on_equivalent_pairs():
    rng = random.Random(42)
    for monoid in standard_monoids().values():
        for _ in range(6):
            left, right = equivalent_pair(monoid, rng)
            assert iso_check(minimize(left).minimal, minimize(right).minimal) is not None


def test_iso_check_pairing_relates_state_functions():
    """Each ``s₁ ↦ (s₂, χ)`` is a bijection onto the right machine's states
    with ``s₁`` recognizing ``χ ·`` the function of ``s₂``."""
    rng = random.Random(43)
    for monoid in standard_monoids().values():
        for _ in range(6):
            left, right = equivalent_pair(monoid, rng)
            t1, t2 = minimize(left).minimal, minimize(right).minimal
            pairing = iso_check(t1, t2)
            assert set(pairing) == set(t1.states), monoid.kind
            assert sorted(s2 for s2, _ in pairing.values()) == sorted(t2.states), monoid.kind
            for s1, (s2, chi) in pairing.items():
                for w in words_up_to(t1.alphabet, 4):
                    expected = mul_partial(monoid, chi, state_eval(t2, s2, w))
                    assert state_eval(t1, s1, w) == expected, (monoid.kind, s1, s2, w)


def test_iso_check_rejects_each_mismatch():
    """Minimal machines whose initial values agree but which differ on a
    transition's presence, on an output quotient that is not divisible or
    not invertible, or on a state's partner."""
    m = standard_monoids()["free"]
    p = m.parse

    def machine(termination, transitions):
        return Transducer(
            monoid=m,
            alphabet=("a", "b"),
            states=tuple(termination),
            initial=(m.unit(), next(iter(termination))),
            termination={s: p(v) for s, v in termination.items()},
            transitions={k: (p(out), d) for k, (out, d) in transitions.items()},
        )

    def loop(out):
        return machine({"s": "ε"}, {} if out is None else {("s", "a"): (out, "s")})

    fan_in = machine({"p": "α", "q": "ε"}, {("p", "a"): ("ε", "q"), ("p", "b"): ("ε", "q")})
    b_loop = machine({"p": "α", "q": "ε"}, {("p", "a"): ("ε", "q"), ("p", "b"): ("ε", "p")})
    pairs = [
        (loop("α"), loop(None)),  # a transition on one side only
        (loop("α"), loop("β")),  # α does not left-divide β
        (loop("α"), loop("α·α")),  # α\α·α = α is not invertible
        (fan_in, b_loop),  # q is paired with q, then with p
    ]
    for left, right in pairs:
        assert check_minimal(left) and check_minimal(right)
        assert iso_check(left, right) is None
        assert brute_force_diff(left, right, 3) is not None


def test_empty_machines_are_isomorphic():
    m = standard_monoids()["free"]
    empty = Transducer(monoid=m, alphabet=("a",), states=(), initial=None, termination={})
    assert iso_check(empty, empty) == {}


def test_adversarial_oracle_values():
    ask = adversarial_oracle()
    assert ask(()) == ("γ",)
    assert ask(("a",)) == ("α", "β", "γ")
    assert ask(("a", "a")) == ("α", "α", "β", "β", "γ")
    with pytest.raises(UnknownLetter):
        ask(("b",))


def test_adversarial_answers_collapse_in_the_trace_quotient():
    # under α·β = β·α the answer for a^n equals (α·β)^n · γ
    trace = TraceMonoid(("α", "β", "γ"), [("α", "β")])
    ask = adversarial_oracle()
    step = trace.parse("α·β")
    acc = trace.unit()
    for n in range(8):
        assert trace.canonical(ask(("a",) * n)) == trace.mul(acc, trace.parse("γ"))
        acc = trace.mul(acc, step)
