"""Differential tests: minimization, the exact equivalence oracle and learning
against the brute-force comparison, on small partial machines over all five
monoids."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from montrans import (
    DefectKind,
    LearnLimits,
    Transducer,
    brute_force_diff,
    check_minimal,
    equivalence_oracle,
    iso_check,
    learn,
    membership_oracle,
    minimize,
)

from helpers import chain, corpus_targets, learned, rank_one
from workloads import _split_state, random_element, random_machine, standard_monoids

MONOIDS = standard_monoids()

#: Per kind, the unit and a dozen seeded elements of rank at most two.
ELEMENTS = {
    kind: [monoid.unit()] + [random_element(monoid, random.Random(k)) for k in range(12)]
    for kind, monoid in MONOIDS.items()
}


@st.composite
def partial_machines(draw, kind: str) -> Transducer:
    """At most 4 states over at most 2 letters; about half of the
    terminations are ``⊥`` and half of the transitions are missing."""
    elements = st.sampled_from(ELEMENTS[kind])
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 4))))
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]
    steps = st.none() | st.tuples(elements, st.sampled_from(states))
    transitions = {(s, a): draw(steps) for s in states for a in alphabet}
    return Transducer(
        monoid=MONOIDS[kind],
        alphabet=alphabet,
        states=states,
        initial=draw(steps),
        termination={s: draw(st.none() | elements) for s in states},
        transitions={key: step for key, step in transitions.items() if step is not None},
    )


@st.composite
def one_edit(draw, t: Transducer) -> Transducer:
    """``t`` with one termination, transition or the initial pair redrawn."""
    elements = st.sampled_from(ELEMENTS[t.monoid.kind])
    steps = st.none() | st.tuples(elements, st.sampled_from(t.states))
    termination, transitions, initial = dict(t.termination), dict(t.transitions), t.initial
    where = draw(st.sampled_from(("termination", "transition", "initial")))
    if where == "termination":
        termination[draw(st.sampled_from(t.states))] = draw(st.none() | elements)
    elif where == "transition":
        key = draw(st.sampled_from([(s, a) for s in t.states for a in t.alphabet]))
        transitions.pop(key, None)
        step = draw(steps)
        if step is not None:
            transitions[key] = step
    else:
        initial = draw(steps)
    fields = dict(monoid=t.monoid, alphabet=t.alphabet, states=t.states, initial=initial)
    return Transducer(**fields, termination=termination, transitions=transitions)


@pytest.mark.parametrize("kind", MONOIDS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_minimize_and_equivalence_oracle_match_brute_force(kind, data):
    t = data.draw(partial_machines(kind))
    minimal = minimize(t).minimal
    assert brute_force_diff(t, minimal, len(t.states) + 2) is None
    assert check_minimal(minimal)

    mutant = data.draw(one_edit(t))
    verdict = equivalence_oracle(t)(mutant)
    if verdict is None:
        bound = len(minimal.states) + len(minimize(mutant).minimal.states) + 2
        assert brute_force_diff(t, mutant, bound) is None
    else:
        assert brute_force_diff(t, mutant, len(verdict.word)) == verdict


#: Runs on the targets of this file reach at most 8 prefixes and 12 loop
#: iterations, so a defect search that names the wrong suffix fails fast
#: instead of looping.
LIMITS = LearnLimits(max_q=20, max_iterations=50)


@pytest.mark.parametrize("kind", MONOIDS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_learn_matches_brute_force(kind, data):
    t = data.draw(partial_machines(kind))
    learned, _ = learn(t.monoid, t.alphabet, membership_oracle(t), equivalence_oracle(t), LIMITS)
    assert check_minimal(learned)
    assert brute_force_diff(t, learned, len(t.states) + 2) is None
    assert iso_check(minimize(t).minimal, learned) is not None


#: Per kind, the index within its kind of the first acceptance-corpus target
#: whose run makes an INJ defect.
FIRST_INJ_TARGET = {"free": 15, "trace": 21, "commutative": 35, "nat-add": 0, "cyclic-group": 1}


def corpus_target(kind: str, index: int) -> Transducer:
    """Target ``index`` of ``kind`` in the acceptance learning corpus, which
    holds 100 targets per kind, kind after kind."""
    return corpus_targets()[list(MONOIDS).index(kind) * 100 + index]


def learn_counting_defects(t: Transducer) -> tuple[Transducer, Counter]:
    """The machine learned from ``t``, and the count of each defect kind met."""
    kinds: Counter = Counter()

    def observe(event, payload):
        if event == "defect":
            kinds[payload.kind] += 1

    return learned(t, limits=LIMITS, observer=observe)[0], kinds


@pytest.mark.parametrize("kind", MONOIDS)
def test_learn_names_inj_defects(kind):
    t = corpus_target(kind, FIRST_INJ_TARGET[kind])
    learned, kinds = learn_counting_defects(t)
    assert kinds[DefectKind.INJ] >= 1, kinds
    assert check_minimal(learned)
    assert brute_force_diff(t, learned, len(t.states) + 2) is None
    assert iso_check(minimize(t).minimal, learned) is not None


@st.composite
def near_twin_machines(draw, kind: str) -> Transducer:
    """A ``random_machine`` of at most 3 states over at most 2 letters with
    one state split into twins by ``_split_state``, the twin's edge on one
    letter writing one generator more: the twins' rows agree until a suffix
    through that edge tells them apart."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t = _split_state(random_machine(MONOIDS[kind], rng, max_states=3, max_letters=2), rng)
    edges = sorted(key for key in t.transitions if key[0] == t.states[-1])
    if edges:
        key = rng.choice(edges)
        out, to = t.transitions[key]
        out = t.monoid.mul(rank_one(t.monoid, 0), out)
        t = replace(t, transitions={**t.transitions, key: (out, to)})
    return t


@pytest.mark.parametrize("kind", MONOIDS)
def test_learn_on_near_twins_matches_brute_force(kind):
    """Rows of near twins merge and then split on an extension, so runs name
    INJ defects, and each learned machine is still exact and minimal."""
    inj = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        t = data.draw(near_twin_machines(kind))
        machine, kinds = learn_counting_defects(t)
        inj.append(kinds[DefectKind.INJ])
        assert check_minimal(machine)
        assert brute_force_diff(t, machine, len(t.states) + 2) is None
        assert iso_check(minimize(t).minimal, machine) is not None

    check()
    assert sum(map(bool, inj)) >= 5, inj


@pytest.mark.parametrize("reset", [False, True], ids=["plain", "reset"])
@pytest.mark.parametrize("kind", MONOIDS)
def test_chains_match_brute_force(kind, reset):
    """``chain(m, 10, 2)``: an 8-state chain whose last state ``c7`` loops
    through two unrolled twins."""
    t = chain(MONOIDS[kind], 10, 2, reset)
    learned, _ = learn_counting_defects(t)
    for machine in (minimize(t).minimal, learned):
        assert check_minimal(machine)
        assert brute_force_diff(t, machine, 12) is None
    mutant = replace(t, termination={**t.termination, "c7": t.monoid.unit()})
    verdict = equivalence_oracle(t)(mutant)
    assert verdict is not None
    assert verdict == brute_force_diff(t, mutant, 12)
