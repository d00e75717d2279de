"""Four-stage transducer minimization.

``minimize`` composes, in order:

1. ``reach``   -- drop states unreachable from the initial state;
2. ``total``   -- drop states that recognize the nowhere-defined function;
3. ``prefix``  -- push each state's output left-gcd towards the initial value,
   so every state recognizes a left-coprime function;
4. ``observe`` -- merge states recognizing equal functions.  After ``prefix``
   every state's function is canonical, so this is automaton minimization
   over ``(letter, output)`` labels: a merged state recognizes exactly its
   representative's function, with no factor between them.

The result is the minimal machine: all states reachable, recognizing distinct
left-coprime functions.  One state-map restriction, ``_restrict``, builds the
``reach``, ``total`` and ``observe`` stages, and returns its input when no
state goes.  It and ``_push`` (``prefix``) skip the constructor's checks: the
parts come from a checked machine or from canonical monoid operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IterationBudgetExceeded
from .monoid import Element, PartialValue, left_divide_partial, lgcd_family, mul_partial
from .transducer import Transducer, _assemble

DEFAULT_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class StagedMinimization:
    """All four pipeline stages plus the merges of the last one.

    ``representatives`` maps every state that entered the merge stage to the
    state it was merged into, which recognizes the same function.
    """

    reach: Transducer
    total: Transducer
    prefix: Transducer
    minimal: Transducer
    representatives: dict[str, str]

    def state_counts(self) -> tuple[int, int, int, int]:
        return (
            len(self.reach.states),
            len(self.total.states),
            len(self.prefix.states),
            len(self.minimal.states),
        )


def _restrict(t: Transducer, rep: dict[str, str]) -> Transducer:
    """``t`` on the states that ``rep`` maps to themselves, in declaration
    order, with each kept edge and the initial pair redirected to
    ``rep[target]``; an edge or initial pair whose target ``rep`` omits is
    dropped.  ``t`` itself when ``rep`` fixes every state."""
    keep = [s for s in t.states if rep.get(s) == s]
    if len(keep) == len(t.states):
        return t
    initial = t.initial
    if initial is not None:
        initial = (initial[0], rep[initial[1]]) if initial[1] in rep else None
    transitions = {
        (s, a): (out, rep[target])
        for (s, a), (out, target) in t.transitions.items()
        if rep.get(s) == s and target in rep
    }
    termination = {s: t.termination[s] for s in keep}
    return _assemble(t.monoid, t.alphabet, tuple(keep), initial, termination, transitions)


def reach(t: Transducer) -> Transducer:
    """Restriction to the states reachable from the initial state; ``t``
    itself when every state is."""
    return _restrict(t, {s: s for s in t.reachable_states()})


def total(t: Transducer) -> Transducer:
    """Restriction to productive states; clears the initial pair if its state
    recognizes the nowhere-defined function.  ``t`` itself when every state
    is productive."""
    return _restrict(t, {s: s for s in t.productive_states()})


def state_lgcds(t: Transducer) -> dict[str, PartialValue]:
    """Left-gcd of each state's recognized function, by fixpoint iteration.

    Starting from the termination values, each round folds every state's
    termination with ``output · current(target)`` over its transitions.  The
    iteration stops once consecutive rounds differ only by an invertible
    right factor everywhere (for the trivially-invertible monoids: are
    equal).  Right-noetherianity of the shipped monoids bounds the number of
    strictly-decreasing rounds; the cap guards against misbehaving instances.

    States recognizing ``⊥`` everywhere keep the value ``None``.
    """
    m = t.monoid
    current: dict[str, PartialValue] = {s: t.termination[s] for s in t.states}
    for _ in range(DEFAULT_ITERATION_CAP):
        nxt: dict[str, PartialValue] = {}
        for s in t.states:
            row = [t.termination[s]]
            for a in t.alphabet:
                step = t.transitions.get((s, a))
                if step is not None:
                    out, target = step
                    row.append(mul_partial(m, out, current[target]))
            nxt[s] = lgcd_family(m, row)
        # Definedness only grows and, by induction, each value left-divides the last round's.
        if all(
            (current[s] is None) == (nxt[s] is None)
            and (nxt[s] is None or m.is_invertible(m.left_divide(nxt[s], current[s])))
            for s in t.states
        ):
            return nxt
        current = nxt
    raise IterationBudgetExceeded(
        f"state left-gcds did not stabilize within {DEFAULT_ITERATION_CAP} rounds"
    )


def prefix(t: Transducer) -> Transducer:
    """Push every state's left-gcd as early as possible.

    Requires a trim machine (``reach`` and ``total`` applied), so each state
    has a defined left-gcd to divide out.
    """
    beta = state_lgcds(t)
    if any(beta[s] is None for s in t.states):
        raise ValueError("prefix stage requires a trim machine (apply reach and total first)")
    return _push(t, beta)


def _push(t: Transducer, beta: dict[str, Element]) -> Transducer:
    """Divide each state's left-gcd ``beta[s]`` out of its function."""
    m = t.monoid
    transitions = {}
    for (s, a), (out, target) in t.transitions.items():
        transitions[(s, a)] = (m.left_divide(beta[s], m.mul(out, beta[target])), target)
    initial = t.initial
    if initial is not None:
        value, s0 = initial
        initial = (m.mul(value, beta[s0]), s0)
    termination = {s: left_divide_partial(m, beta[s], t.termination[s]) for s in t.states}
    return _assemble(m, t.alphabet, t.states, initial, termination, transitions)


def _moore_blocks(t: Transducer) -> dict[str, int]:
    """Coarsest partition of the states by Moore refinement.

    Two states share a block when they have equal termination values and,
    for each letter, equal ``(output, block of target)`` pairs (``None`` for
    an undefined transition).  Each round refines the previous one, so the
    refinement is stable as soon as the block count stops growing, which
    happens within ``len(t.states)`` rounds.  Block numbers follow the first
    member in declaration order.
    """
    blocks = dict.fromkeys(t.states, 0)
    for _ in t.states:
        ids: dict[tuple, int] = {}
        nxt = {}
        for s in t.states:
            key = [t.termination[s]]
            for a in t.alphabet:
                step = t.transitions.get((s, a))
                key.append(None if step is None else (step[0], blocks[step[1]]))
            nxt[s] = ids.setdefault(tuple(key), len(ids))
        if len(ids) == len(set(blocks.values())):
            break
        blocks = nxt
    return blocks


def observe(t: Transducer) -> tuple[Transducer, dict[str, str]]:
    """Merge the states of a pushed machine that recognize equal functions.

    After ``prefix`` every state recognizes a canonical left-coprime
    function, so "equal up to an invertible left factor" is plain equality
    and this stage is automaton minimization over ``(letter, output)``
    labels (Mohri's push-then-minimize).  Returns the merged machine (``t`` if
    nothing merges) and each state's representative, the first of its block.
    """
    blocks = _moore_blocks(t)
    first: dict[int, str] = {}
    rep = {s: first.setdefault(blocks[s], s) for s in t.states}
    return _restrict(t, rep), rep


def minimize(t: Transducer) -> StagedMinimization:
    """Run the full pipeline and record every stage."""
    reached = reach(t)
    trimmed = total(reached)
    pushed = prefix(trimmed)
    minimal, representatives = observe(pushed)
    return StagedMinimization(
        reach=reached,
        total=trimmed,
        prefix=pushed,
        minimal=minimal,
        representatives=representatives,
    )


def check_minimal(t: Transducer) -> bool:
    """True iff every state is reachable and the states recognize pairwise
    distinct left-coprime functions.

    The machine is pushed before it is refined: a minimal cyclic-group
    machine can carry non-unit (invertible) state left-gcds, and two of its
    states may differ only by such a factor.
    """
    if len(t.reachable_states()) != len(t.states):
        return False
    beta = state_lgcds(t)
    m = t.monoid
    if any(beta[s] is None or not m.is_invertible(beta[s]) for s in t.states):
        return False
    return len(set(_moore_blocks(_push(t, beta)).values())) == len(t.states)
