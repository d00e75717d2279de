"""The reach/total/prefix/observe pipeline and the minimality check."""

from __future__ import annotations

import importlib
import random

import pytest

from montrans import (
    CyclicGroup,
    Transducer,
    brute_force_diff,
    check_minimal,
    iso_check,
    minimize,
    observe,
    prefix,
    reach,
    red_row,
    state_lgcds,
    total,
)

from helpers import beta_loop, chain, learning_target, state_eval, words_up_to
from workloads import random_machine, standard_monoids

#: ``montrans.minimize`` names the function the package re-exports.
minimize_module = importlib.import_module("montrans.minimize")


def test_reach_drops_unreachable():
    t = beta_loop("free")
    reached = reach(t)
    assert reached.states == ("1", "2", "3")
    assert reach(reached) == reached
    no_initial = Transducer(
        monoid=t.monoid,
        alphabet=t.alphabet,
        states=t.states,
        initial=None,
        termination=t.termination,
        transitions=t.transitions,
    )
    assert reach(no_initial).states == ()


def test_total_drops_unproductive():
    trimmed = total(reach(beta_loop("free")))
    assert trimmed.states == ("1", "3")
    assert ("1", "a") not in trimmed.transitions
    assert total(trimmed) == trimmed


def test_total_of_dead_machine_is_empty():
    m = standard_monoids()["free"]
    dead = Transducer(
        monoid=m,
        alphabet=("a",),
        states=("x", "y"),
        initial=(m.unit(), "x"),
        termination={"x": None, "y": None},
        transitions={("x", "a"): (m.unit(), "y")},
    )
    emptied = total(dead)
    assert emptied.states == () and emptied.initial is None


def test_state_lgcds_commutative_vs_free():
    commutative = total(reach(beta_loop("commutative")))
    betas = state_lgcds(commutative)
    assert betas == {
        "1": commutative.monoid.parse("α"),
        "3": commutative.monoid.parse("α"),
    }
    free = total(reach(beta_loop("free")))
    assert state_lgcds(free) == {"1": (), "3": ()}


def test_state_lgcds_single_state():
    m = standard_monoids()["free"]
    t = Transducer(
        monoid=m, alphabet=("a",), states=("s",), initial=(m.unit(), "s"),
        termination={"s": m.unit()},
    )
    assert state_lgcds(t) == {"s": ()}


def test_prefix_pushes_common_factor():
    trimmed = total(reach(beta_loop("commutative")))
    pushed = prefix(trimmed)
    m = pushed.monoid
    assert pushed.initial == (m.parse("α"), "1")
    assert pushed.termination == {"1": m.unit(), "3": m.unit()}
    assert pushed.transitions == {
        ("1", "b"): (m.parse("β"), "3"),
        ("3", "b"): (m.parse("β"), "3"),
    }
    # every state is left-coprime afterwards
    assert all(m.is_invertible(v) for v in state_lgcds(pushed).values())


def test_prefix_is_identity_when_already_pushed():
    trimmed = total(reach(beta_loop("free")))
    assert prefix(trimmed) == trimmed
    pushed = prefix(total(reach(beta_loop("commutative"))))
    assert prefix(pushed) == pushed


def test_reach_and_total_return_a_trim_input_itself():
    rng = random.Random(25)
    for monoid in standard_monoids().values():
        for _ in range(6):
            trim = minimize(random_machine(monoid, rng, max_states=5)).total
            staged = minimize(trim)
            assert staged.reach is trim and staged.total is trim, monoid.kind


def test_prefix_requires_trim_machine():
    with pytest.raises(ValueError):
        prefix(beta_loop("free"))  # state 2 recognizes nothing


def test_observe_merges_equivalent_states():
    pushed = prefix(total(reach(beta_loop("commutative"))))
    merged, representatives = observe(pushed)
    m = merged.monoid
    assert merged.states == ("1",)
    assert merged.initial == (m.parse("α"), "1")
    assert merged.termination == {"1": m.unit()}
    assert merged.transitions == {("1", "b"): (m.parse("β"), "1")}
    assert representatives == {"1": "1", "3": "1"}


def test_observe_keeps_distinguishable_states():
    target = learning_target()
    merged, representatives = observe(target)
    assert merged == target
    assert all(rep == s for s, rep in representatives.items())


def test_observe_merges_disconnected_twin_copies():
    # a fork leading into two identical sub-machines; the copies must merge
    # (their languages agree on every word, which the brute-force rows up to
    # length 6 confirm)
    m = standard_monoids()["free"]
    p = m.parse
    t = Transducer(
        monoid=m,
        alphabet=("a", "b"),
        states=("f", "x", "y"),
        initial=(m.unit(), "f"),
        termination={"f": None, "x": p("α"), "y": p("α")},
        transitions={
            ("f", "a"): (p("β"), "x"),
            ("f", "b"): (p("β·β"), "y"),
            ("x", "a"): (p("γ"), "x"),
            ("y", "a"): (p("γ"), "y"),
        },
    )
    rows = {
        s: tuple(state_eval(t, s, w) for w in words_up_to(t.alphabet, 6)) for s in ("x", "y")
    }
    assert rows["x"] == rows["y"]
    merged, representatives = observe(t)
    assert merged.states == ("f", "x")
    assert representatives["y"] == "x"
    assert merged.transitions[("f", "b")] == (p("β·β"), "x")


def test_minimize_stage_counts_commutative():
    staged = minimize(beta_loop("commutative"))
    assert staged.state_counts() == (3, 2, 2, 1)
    minimal = staged.minimal
    m = minimal.monoid
    assert minimal.initial == (m.parse("α"), "1")
    assert minimal.termination == {"1": m.unit()}
    assert minimal.transitions == {("1", "b"): (m.parse("β"), "1")}


def test_minimize_stage_counts_free():
    # over the free monoid the trimmed machine's two states recognize the
    # same function (b^n -> β^n·α from both), so they also merge; only the
    # placement of the α differs from the commutative minimization
    staged = minimize(beta_loop("free"))
    assert staged.state_counts() == (3, 2, 2, 1)
    minimal = staged.minimal
    m = minimal.monoid
    assert minimal.initial == (m.unit(), "1")
    assert minimal.termination == {"1": m.parse("α")}
    assert minimal.transitions == {("1", "b"): (m.parse("β"), "1")}


def test_minimize_empty_language():
    m = standard_monoids()["free"]
    dead = Transducer(
        monoid=m,
        alphabet=("a",),
        states=("x",),
        initial=(m.unit(), "x"),
        termination={"x": None},
    )
    staged = minimize(dead)
    assert staged.minimal.states == ()
    assert staged.minimal.initial is None
    assert check_minimal(staged.minimal)


def test_minimize_preserves_language():
    rng = random.Random(21)
    for monoid in standard_monoids().values():
        for _ in range(12):
            t = random_machine(monoid, rng, max_states=5, max_letters=2)
            staged = minimize(t)
            for stage in (staged.reach, staged.total, staged.prefix, staged.minimal):
                for w in words_up_to(t.alphabet, 5):
                    assert stage.eval(w) == t.eval(w), (monoid.kind, stage, w)


def test_minimize_is_idempotent():
    rng = random.Random(22)
    for monoid in standard_monoids().values():
        for _ in range(8):
            t = random_machine(monoid, rng, max_states=5, max_letters=2)
            once = minimize(t).minimal
            twice = minimize(once).minimal
            assert iso_check(once, twice) is not None


def test_minimize_result_passes_check_minimal():
    rng = random.Random(23)
    for monoid in standard_monoids().values():
        for _ in range(12):
            t = random_machine(monoid, rng, max_states=5)
            assert check_minimal(minimize(t).minimal)


def test_observe_agrees_with_brute_force_rows():
    rng = random.Random(24)
    for monoid in standard_monoids().values():
        for _ in range(10):
            t = random_machine(monoid, rng, max_states=4, max_letters=2)
            pushed = prefix(total(reach(t)))
            _, representatives = observe(pushed)
            words = list(words_up_to(pushed.alphabet, 6))
            rows = {
                s: red_row(monoid, tuple(state_eval(pushed, s, w) for w in words))
                for s in pushed.states
            }
            for s1 in pushed.states:
                for s2 in pushed.states:
                    merged = representatives[s1] == representatives[s2]
                    assert merged == (rows[s1] == rows[s2]), (monoid.kind, s1, s2)


def test_check_minimal_examples():
    assert check_minimal(minimize(beta_loop("commutative")).minimal)
    assert not check_minimal(beta_loop("free"))  # unreachable state
    pushed = prefix(total(reach(beta_loop("commutative"))))
    assert not check_minimal(pushed)  # states 1 and 3 are equivalent
    free_trim = total(reach(beta_loop("free")))
    assert not check_minimal(free_trim)


def test_check_minimal_computes_state_lgcds_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return state_lgcds(t)

    monkeypatch.setattr(minimize_module, "state_lgcds", counted)
    for t in (minimize(beta_loop("commutative")).minimal, prefix(total(reach(beta_loop("commutative"))))):
        calls.clear()
        check_minimal(t)
        assert calls == [t]


def test_check_minimal_flags_non_coprime_state():
    m = standard_monoids()["free"]
    p = m.parse
    t = Transducer(
        monoid=m,
        alphabet=("a",),
        states=("s",),
        initial=(m.unit(), "s"),
        termination={"s": p("α")},
        transitions={("s", "a"): (p("α"), "s")},
    )
    assert not check_minimal(t)  # lgcd of the lone state is α, not ε


def test_canonical_minimality_on_split_machines():
    from helpers import equivalent_pair

    rng = random.Random(25)
    for monoid in standard_monoids().values():
        for _ in range(8):
            left, right = equivalent_pair(monoid, rng)
            assert brute_force_diff(left, right, 5) is None
            assert iso_check(minimize(left).minimal, minimize(right).minimal) is not None


@pytest.mark.parametrize("reset, n", [(False, 120), (True, 24)])
def test_chains_minimize_to_closed_form(reset, n):
    # sizes far past what behaviour vectors over all words up to length n
    # could reach (|A|^n entries per state for the reset chain)
    for monoid in standard_monoids().values():
        for twins in (0, n // 4):
            t = chain(monoid, n, twins, reset)
            minimal = minimize(t).minimal
            assert len(minimal.states) == n - twins, (monoid.kind, twins)
            assert check_minimal(minimal), (monoid.kind, twins)
            assert brute_force_diff(minimal, t, 6) is None, (monoid.kind, twins)


def test_check_minimal_cyclic_group_non_unit_lgcds():
    z3 = CyclicGroup(3)
    # minimal, with state left-gcds 1 and 2
    t = Transducer(
        monoid=z3,
        alphabet=("a",),
        states=("x", "y"),
        initial=(0, "x"),
        termination={"x": 1, "y": 2},
        transitions={("x", "a"): (0, "y"), ("y", "a"): (0, "y")},
    )
    assert state_lgcds(t) == {"x": 1, "y": 2}
    assert check_minimal(t)
    # y recognizes 1 + (x's function): distinct raw outputs, one pushed state
    u = Transducer(
        monoid=z3,
        alphabet=("a",),
        states=("x", "y"),
        initial=(0, "x"),
        termination={"x": 0, "y": 1},
        transitions={("x", "a"): (0, "y"), ("y", "a"): (2, "x")},
    )
    for w in words_up_to(u.alphabet, 6):
        assert state_eval(u, "y", w) == z3.mul(1, state_eval(u, "x", w))
    assert not check_minimal(u)
