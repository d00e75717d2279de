"""Shared machines, corpora and brute-force oracles for the test suite.

The random generators the benchmark times live in ``bench/workloads.py``,
and the tests draw from that one copy: ``standard_monoids``,
``random_element`` and ``random_machine``, the pair-building steps
``_rename``, ``_split_state`` and ``_shift_outputs``, and the configuration
step ``_step``.  One copy means the tests check the machines the
benchmark times, and ``tests/test_acceptance.py`` pins the SHA-256 of the
corpora they draw, so an edit that changes a draw fails a test.
"""

from __future__ import annotations

import random
from pathlib import Path

from montrans import (
    CyclicGroup,
    FreeMonoid,
    Monoid,
    NatAddMonoid,
    NotDivisible,
    TraceMonoid,
    Transducer,
    UnknownLetter,
    deserialize,
    make_monoid,
    mul_partial,
)
from workloads import _rename, _shift_outputs, _split_state, _step, random_machine

DATA = Path(__file__).parent / "data"


def load_machine(name: str) -> Transducer:
    return deserialize((DATA / name).read_text(encoding="utf-8"))


def inverse(monoid: Monoid, x):
    """The inverse of ``x``; raises :class:`NotDivisible` unless ``x`` is
    invertible, that is, unless it left-divides the unit."""
    if not monoid.is_invertible(x):
        raise NotDivisible(f"{monoid.render(x)} does not left-divide the unit in {monoid!r}")
    if isinstance(monoid, CyclicGroup):
        return (-x) % monoid.modulus
    return monoid.unit()


def state_eval(t: Transducer, state: str, word: tuple):
    """Value ``t`` recognizes on ``word`` from ``state`` with a unit initial
    value (``None`` for ``⊥``)."""
    if state not in t.termination:
        raise ValueError(f"unknown state {state!r}")
    for a in word:
        if a not in t.alphabet:
            raise UnknownLetter(f"letter {a!r} is not in the alphabet {list(t.alphabet)}")
    value = t.monoid.unit()
    for a in word:
        step = t.transitions.get((state, a))
        if step is None:
            return None
        out, state = step
        value = t.monoid.mul(value, out)
    return mul_partial(t.monoid, value, t.termination[state])


def beta_loop(kind: str = "free") -> Transducer:
    """Four-state machine recognizing b^n -> β^n·α, with one unreachable and
    one unproductive state."""
    monoid = make_monoid(kind, generators=("α", "β"))
    q = monoid.parse
    return Transducer(
        monoid=monoid,
        alphabet=("a", "b"),
        states=("1", "2", "3", "4"),
        initial=(q("ε"), "1"),
        termination={"1": q("α"), "2": None, "3": q("α"), "4": q("ε")},
        transitions={
            ("1", "a"): (q("ε"), "2"),
            ("1", "b"): (q("β"), "3"),
            ("3", "b"): (q("β"), "3"),
        },
    )


def learning_target(monoid: Monoid | None = None) -> Transducer:
    """Three-state target for the worked learning run.

    Over the free monoid all three states are distinguishable; letting α and β
    commute makes states 1 and 2 recognize the same function.
    """
    monoid = monoid or FreeMonoid(("α", "β", "γ"))
    q = monoid.parse
    return Transducer(
        monoid=monoid,
        alphabet=("a", "b"),
        states=("1", "2", "3"),
        initial=(q("ε"), "1"),
        termination={"1": q("α"), "2": q("α"), "3": q("α")},
        transitions={
            ("1", "a"): (q("γ·α·β"), "2"),
            ("1", "b"): (q("α"), "3"),
            ("2", "a"): (q("γ·β·α"), "2"),
            ("2", "b"): (q("α"), "3"),
            ("3", "a"): (q("γ·α·β"), "2"),
        },
    )


def words_up_to(alphabet: tuple[str, ...], n: int):
    """All words of length at most ``n``, shortest first, then by alphabet
    order."""
    frontier = [()]
    for w in frontier:
        yield w
        if len(w) < n:
            frontier.extend(w + (a,) for a in alphabet)


def rank_one(monoid: Monoid, i: int):
    """The ``i``-th of a fixed cycle of rank-one elements (for a cyclic
    group: of non-unit residues)."""
    if isinstance(monoid, CyclicGroup):
        return 1 + i % (monoid.modulus - 1)
    if isinstance(monoid, NatAddMonoid):
        return 1
    return monoid.parse(monoid.generators[i % len(monoid.generators)])


def chain(monoid: Monoid, n: int, twins: int = 0, reset: bool = False) -> Transducer:
    """An ``n``-state ``a``-chain whose minimal machine has ``n - twins`` states.

    States ``c0 … c(k-1)`` with ``k = n - twins`` form an ``a``-chain whose
    last state alone has a defined termination, so ``a^j`` is defined from
    ``ci`` exactly when ``i + j = k - 1`` (``≥`` with twins) and the chain
    states are pairwise distinct whatever the outputs.  With twins the last
    state loops on ``a``, and the loop is unrolled into ``twins`` tail copies
    with the same outputs, which all merge back into it.  With ``reset`` every
    state also has a ``b`` edge back to ``c0``.
    """
    k = n - twins
    chain_states = [f"c{i}" for i in range(k)]
    tail = chain_states[-1:] + [f"t{j}" for j in range(1, twins + 1)]
    transitions = {}
    for i in range(k - 1):
        transitions[(chain_states[i], "a")] = (rank_one(monoid, i), chain_states[i + 1])
    if twins:
        for here, there in zip(tail, tail[1:] + tail[-1:]):
            transitions[(here, "a")] = (rank_one(monoid, 0), there)
    if reset:
        for i, s in enumerate(chain_states[:-1]):
            transitions[(s, "b")] = (rank_one(monoid, i + 1), chain_states[0])
        for s in tail:
            transitions[(s, "b")] = (rank_one(monoid, 1), chain_states[0])
    states = tuple(chain_states + tail[1:])
    last = rank_one(monoid, 2)
    return Transducer(
        monoid=monoid,
        alphabet=("a", "b") if reset else ("a",),
        states=states,
        initial=(rank_one(monoid, 1), chain_states[0]),
        termination={s: (last if s in tail else None) for s in states},
        transitions=transitions,
    )


def _pair_key(monoid: Monoid, c1, c2):
    """The key of two configurations ``(value, state)``, ``None`` once
    undefined: the states and the values up to their left-gcd."""
    if c1 is None and c2 is None:
        return None
    if c1 is None:
        return ("dead-left", c2[1])
    if c2 is None:
        return ("dead-right", c1[1])
    g = monoid.lgcd2(c1[0], c2[0])
    return (c1[1], c2[1], monoid.left_divide(g, c1[0]), monoid.left_divide(g, c2[0]))


def equivalence_certificate_faults(t1: Transducer, t2: Transducer, keys) -> list[str]:
    """Why ``keys`` does not prove ``t1`` and ``t2`` equivalent.

    ``keys`` holds configuration-pair keys as the equivalence walk returns
    them: ``(s₁, s₂, a, b)`` with ``lgcd(a, b) = 1``, ``("dead-left", s₂)``
    or ``("dead-right", s₁)`` when one side is undefined, and ``None`` when
    both are.  The set must hold the initial pair's key and every successor
    key of its keys (unless both successors are undefined); every pair key
    must have ``a·τ₁(s₁) = b·τ₂(s₂)``, τ the termination, and every dead
    key's live state must be non-productive.  By left cancellativity a set
    without faults proves that every word gets equal values from both.
    """
    m = t1.monoid
    faults = []
    if _pair_key(m, t1.initial, t2.initial) not in keys:
        faults.append("the initial key is missing")
    productive = (set(t1.productive_states()), set(t2.productive_states()))
    for key in keys:
        if key is None:
            continue
        if len(key) == 2:
            side, s = key
            dead_left = side == "dead-left"
            if s in productive[dead_left]:
                faults.append(f"{key!r}: {s!r} is productive")
            live = (m.unit(), s)
            c1, c2 = (None, live) if dead_left else (live, None)
        else:
            s1, s2, a, b = key
            if mul_partial(m, a, t1.termination[s1]) != mul_partial(m, b, t2.termination[s2]):
                faults.append(f"{key!r}: the terminations differ")
            c1, c2 = (a, s1), (b, s2)
        for letter in t1.alphabet:
            n1, n2 = _step(t1, c1, letter), _step(t2, c2, letter)
            if (n1 is not None or n2 is not None) and _pair_key(m, n1, n2) not in keys:
                faults.append(f"{key!r}: the successor on {letter!r} is missing")
    return faults


def equivalent_pair(monoid: Monoid, rng: random.Random) -> tuple[Transducer, Transducer]:
    """Two structurally different machines recognizing the same function,
    built from a common seed by state splitting and output shifting."""
    seed = random_machine(monoid, rng, max_states=4, allow_no_initial=False)
    left = _rename(_shift_outputs(seed, rng), rng)
    right = seed
    for _ in range(rng.randint(1, 2)):
        right = _split_state(right, rng)
    right = _rename(_shift_outputs(right, rng), rng)
    return left, right


def trace_class(monoid: TraceMonoid, word: tuple) -> set:
    """All words equal to ``word`` in the trace monoid, by adjacent swaps."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            if monoid.independent(w[i], w[i + 1]):
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if swapped not in seen:
                    seen.add(swapped)
                    frontier.append(swapped)
    return seen


def brute_trace_lgcd(monoid: TraceMonoid, x: tuple, y: tuple, _cache={}):
    """Independent left-gcd oracle: enumerate every word of each equivalence
    class, collect the canonical left-divisors per length, and take the unique
    common one of maximal length."""

    def divisors(word):
        key = (monoid, word)
        if key not in _cache:
            by_len: dict[int, set] = {}
            for member in trace_class(monoid, word):
                for k in range(len(member) + 1):
                    by_len.setdefault(k, set()).add(monoid.canonical(member[:k]))
            _cache[key] = by_len
        return _cache[key]

    dx, dy = divisors(x), divisors(y)
    best = {()}
    for k in range(1, min(len(x), len(y)) + 1):
        common = dx.get(k, set()) & dy.get(k, set())
        if not common:
            break
        best = common
    assert len(best) == 1, f"expected a unique maximal common divisor, got {best}"
    return next(iter(best))


def trace_normal_form_faults(monoid: TraceMonoid, result: tuple, word: tuple) -> list[str]:
    """Why ``result`` is not the lexicographic normal form of ``word``, checked
    without enumerating the class, so that long words can be checked.

    ``result`` must have no Anisimov-Knuth factor ``b·u·a`` with ``a < b`` and
    ``a`` commuting with every letter of ``b·u``, and, by the projection lemma,
    the same projection as ``word`` onto every dependent pair of generators
    (a generator paired with itself counts its occurrences).
    """
    order = {g: i for i, g in enumerate(monoid.generators)}
    faults = []
    for j, a in enumerate(result):
        for i in range(j - 1, -1, -1):
            if not monoid.independent(a, result[i]):
                break
            if order[result[i]] > order[a]:
                faults.append(f"{a!r} at {j} can move left past {result[i]!r} at {i}")
    for a in monoid.generators:
        for b in monoid.generators[order[a] :]:
            pair = (a, b)
            if not monoid.independent(a, b) and [g for g in result if g in pair] != [
                g for g in word if g in pair
            ]:
                faults.append(f"projections onto {a!r}, {b!r} differ")
    return faults
