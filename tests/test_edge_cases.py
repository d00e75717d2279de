"""Guard rails: misbehaving instances, bounded searches, odd alphabets."""

from __future__ import annotations

import pytest

from montrans import (
    IterationBudgetExceeded,
    NatAddMonoid,
    SearchBoundExceeded,
    Transducer,
    brute_force_diff,
    check_minimal,
    equivalence_oracle,
    iso_check,
    learn,
    minimize,
    state_lgcds,
)
from montrans.oracle import _walk

from helpers import learning_target
from workloads import standard_monoids


class _NeverStable(NatAddMonoid):
    """A deliberately broken instance: it reports nothing as invertible, so
    the left-gcd fixpoint can never declare two rounds equal."""

    def is_invertible(self, x):
        return False


def test_state_lgcds_iteration_cap_on_misbehaving_instance():
    bad = _NeverStable()
    machine = Transducer(
        monoid=bad,
        alphabet=("a",),
        states=("s",),
        initial=(0, "s"),
        termination={"s": 1},
        transitions={("s", "a"): (1, "s")},
    )
    with pytest.raises(IterationBudgetExceeded):
        state_lgcds(machine)


def test_first_difference_respects_length_bound():
    target = learning_target()
    m = target.monoid
    # agrees with the target up to length 1, differs from length 2 on
    changed = Transducer(
        monoid=m,
        alphabet=target.alphabet,
        states=target.states,
        initial=target.initial,
        termination=target.termination,
        transitions={**target.transitions, ("3", "a"): (m.parse("γ·β·α"), "2")},
    )
    assert brute_force_diff(target, changed, 1) is None
    first = brute_force_diff(target, changed, 4)
    assert (first.word, first.left_value, first.right_value) == (
        ("b", "a"),
        target.eval(("b", "a")),
        changed.eval(("b", "a")),
    )
    with pytest.raises(SearchBoundExceeded):  # a walk cut short is not a verdict
        _walk(target, changed, 1)
    assert _walk(target, changed, 4)[0] == first


def test_learn_with_multi_character_letters():
    free = standard_monoids()["free"]
    p = free.parse
    target = Transducer(
        monoid=free,
        alphabet=("in", "out"),
        states=("0", "1"),
        initial=(p("ε"), "0"),
        termination={"0": p("α"), "1": None},
        transitions={("0", "in"): (p("β"), "1"), ("1", "out"): (p("γ"), "0")},
    )
    machine, _ = learn(free, target.alphabet, target.eval, equivalence_oracle(target))
    assert check_minimal(machine)
    assert brute_force_diff(machine, target, 6) is None
    assert machine.states == ("e", "in")  # word-derived ids use the · join rule


def test_minimize_single_state_no_transitions():
    for monoid in standard_monoids().values():
        t = Transducer(
            monoid=monoid,
            alphabet=("a",),
            states=("s",),
            initial=(monoid.unit(), "s"),
            termination={"s": monoid.unit()},
        )
        staged = minimize(t)
        assert staged.minimal.states == ("s",)
        assert check_minimal(staged.minimal)
        assert iso_check(staged.minimal, t) is not None
