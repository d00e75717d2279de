"""Oracles for the learner and for cross-validation.

``membership_oracle`` and ``equivalence_oracle`` wrap a reference machine as
the two query functions the learner needs; the equivalence oracle trims the
reference and walks its configuration pairs with the hypothesis as built,
breadth-first, which both proves equivalence and finds the length-lex-first
counterexample.  Neither machine is minimized: on two equivalent machines a
pair of productive states fixes its configurations' key ``(s₁, s₂, a, b)``,
since ``a·β(s₁) = b·β(s₂)`` with ``β`` a state's left-gcd and
``lgcd(a, b) = 1``, and in these gcd monoids that coprime pair is unique (for
a cyclic group it is ``(0, χ)``).  This is the delay argument of Béal,
Carton, Prieur and Sakarovitch (*Squaring transducers*, 2003).  Only the
first machine need be trim: a non-productive second state then shows a
difference within ``n₁`` letters or is paired with ``⊥``, one key per state.
So the walk meets at most one key per state pair, and on machines that
differ a second key of a state pair, or a one-sided one, shows up within
``n₁·n₂`` letters and a difference within ``max(n₁, n₂)`` more.
``iso_check`` reads its pairing of two minimal machines off the same walk:
they are isomorphic exactly when they are equivalent.  ``brute_force_diff``
is the dumb word-enumeration oracle used to validate everything else: an
unpruned walk over all words.  Both walks carry each machine's configurations,
stepped and valued by the machine itself (``Transducer.step`` and ``value``).
``adversarial_oracle`` answers membership queries with free-monoid
representatives chosen so that a free-monoid learning run never converges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NotMinimalInput, SearchBoundExceeded, UnknownLetter
from .minimize import check_minimal, total
from .monoid import Element, FreeMonoid, PartialValue
from .transducer import Transducer, Word


@dataclass(frozen=True)
class CounterExample:
    """A word on which two machines disagree, with both canonical values."""

    word: Word
    left_value: PartialValue
    right_value: PartialValue


#: Equivalence verdicts are ``None`` (equivalent) or a counterexample.
EquivalenceVerdict = Optional[CounterExample]


def membership_oracle(reference: Transducer) -> Callable[[Word], PartialValue]:
    """The reference machine's recognized function."""
    return reference.eval


def _require_comparable(t1: Transducer, t2: Transducer) -> None:
    """Raise ``ValueError`` unless the two machines share a monoid and an
    input alphabet."""
    if t1.monoid != t2.monoid or t1.alphabet != t2.alphabet:
        raise ValueError("the machines use different monoids or input alphabets")


def brute_force_diff(t1: Transducer, t2: Transducer, max_len: int) -> EquivalenceVerdict:
    """First word (length-lex order) up to ``max_len`` where evaluations
    differ, with both values, or ``None``.  Pure enumeration: every word is
    visited, so it can serve as the independent oracle for the clever paths."""
    _require_comparable(t1, t2)
    frontier: deque[tuple[Word, object, object]] = deque([((), t1.initial, t2.initial)])
    while frontier:
        w, c1, c2 = frontier.popleft()
        v1, v2 = t1.value(c1), t2.value(c2)
        if v1 != v2:
            return CounterExample(w, v1, v2)
        if len(w) < max_len:
            frontier.extend((w + (a,), t1.step(c1, a), t2.step(c2, a)) for a in t1.alphabet)
    return None


def _config_key(m, c1, c2):
    # Future differences only depend on the states and on the two carried
    # values up to a common left factor (the shipped monoids are
    # left-cancellative), so equivalent configuration pairs seen on a later
    # word can be pruned.
    if c1 is None and c2 is None:
        return None
    if c1 is None:
        return ("dead-left", c2[1])
    if c2 is None:
        return ("dead-right", c1[1])
    g = m.lgcd2(c1[0], c2[0])
    return (c1[1], c2[1], m.left_divide(g, c1[0]), m.left_divide(g, c2[0]))


def _walk(t1: Transducer, t2: Transducer, max_len: int) -> tuple[EquivalenceVerdict, dict]:
    """Length-lex-first counterexample, with both values (``None`` when the
    machines are equivalent), and the :func:`_config_key` keys met, in order.

    A breadth-first walk over configuration pairs, pruned up to their keys;
    ``None`` means every pair was explored without a difference.  Raises
    :class:`SearchBoundExceeded` when no difference is found up to length
    ``max_len`` but an unexplored pair lies beyond it.  When ``t1`` is trim,
    the walk on equivalent machines always runs out of pairs.
    """
    m, step1, step2, value1, value2 = t1.monoid, t1.step, t2.step, t1.value, t2.value
    seen = dict.fromkeys([_config_key(m, t1.initial, t2.initial)])
    frontier: deque[tuple[Word, object, object]] = deque([((), t1.initial, t2.initial)])
    truncated = False
    while frontier:
        w, c1, c2 = frontier.popleft()
        v1, v2 = value1(c1), value2(c2)
        if v1 != v2:
            return CounterExample(w, v1, v2), seen
        for a in t1.alphabet:
            n1, n2 = step1(c1, a), step2(c2, a)
            if n1 is None and n2 is None:
                continue
            key = _config_key(m, n1, n2)
            if key in seen:
                continue
            if len(w) >= max_len:
                truncated = True
                continue
            seen[key] = None
            frontier.append((w + (a,), n1, n2))
    if truncated:
        raise SearchBoundExceeded(f"no difference up to length {max_len}, and the walk goes on")
    return None, seen


def equivalence_oracle(reference: Transducer) -> Callable[[Transducer], EquivalenceVerdict]:
    """Exact equivalence with counterexample extraction.

    The reference is trimmed once, when the oracle is built: ``total`` drops
    its non-productive states (and keeps a machine without any as it is).
    Each hypothesis is walked as built by :func:`_walk`; its unreachable
    states never enter the walk, which starts at the initial pair.  The
    hypothesis is accepted when the walk runs out of pairs; otherwise the
    first differing word in length-lex order is returned with both values.

    The walk's bound ``(n₁+1)(n₂+1)`` exceeds the number of state pairs and
    the length at which machines that differ show it (see the module
    docstring).  The first differing word depends only on the two recognized
    functions, so the verdict is the one on the two minimal machines.
    """
    ref = total(reference)

    def oracle(hypothesis: Transducer) -> EquivalenceVerdict:
        _require_comparable(reference, hypothesis)
        bound = (len(ref.states) + 1) * (len(hypothesis.states) + 1)
        return _walk(ref, hypothesis, bound)[0]

    return oracle


def iso_check(t1: Transducer, t2: Transducer) -> Optional[dict[str, tuple[str, Element]]]:
    """State bijection with invertible witnesses between two minimal machines.

    Returns ``{state of t1: (state of t2, χ)}`` where each paired state of
    ``t1`` recognizes ``χ ·`` its partner's function, or ``None`` when no such
    bijection exists.  Differing state counts are rejected before minimality
    is validated; equal-count non-minimal inputs raise
    :class:`NotMinimalInput`.

    The pairing is read off :func:`_walk`: on equivalent minimal machines it
    meets one key ``(s₁, s₂, a, b)`` per state, with ``a·χ = b``.
    """
    _require_comparable(t1, t2)
    if len(t1.states) != len(t2.states):
        return None
    if not check_minimal(t1) or not check_minimal(t2):
        raise NotMinimalInput("iso_check requires minimal machines")
    verdict, seen = _walk(t1, t2, (len(t1.states) + 1) * (len(t2.states) + 1))
    if verdict is not None:
        return None
    m = t1.monoid
    seen.pop(None, None)  # the key of two empty machines
    return {s1: (s2, m.left_divide(a, b)) for s1, s2, a, b in seen}


ADVERSARY_GENERATORS = ("α", "β", "γ")


def adversarial_oracle() -> Callable[[Word], PartialValue]:
    """Membership answers over the free monoid on α, β, γ for the one-letter
    input alphabet {a}: the word ``aⁿ`` is answered with ``αⁿβⁿγ``.

    The answers are chosen representatives of ``(αβ)ⁿγ`` under the commutation
    ``αβ = βα``; a free-monoid learner fed these answers keeps finding closure
    defects forever, while the trace-monoid learner converges.
    """
    monoid = FreeMonoid(ADVERSARY_GENERATORS)

    def oracle(word: Word) -> PartialValue:
        for letter in word:
            if letter != "a":
                raise UnknownLetter(f"adversary answers words over {{'a'}}, got {letter!r}")
        n = len(word)
        return monoid.canonical(("α",) * n + ("β",) * n + ("γ",))

    return oracle
