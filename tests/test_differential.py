"""Differential tests: minimization and the exact equivalence oracle against
the brute-force comparison, on small partial machines over all five monoids."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from montrans import Transducer, brute_force_diff, check_minimal, equivalence_oracle, minimize

from workloads import random_element, standard_monoids

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
