"""Active learning of the minimal transducer from membership and equivalence
queries.

The learner maintains an observation table over a prefix-closed set ``Q`` and
a suffix-closed set ``T`` of input words.  It keeps one row per word ``w`` of
``Q ∪ Q·A``, with ``A`` the alphabet: the raw row of target values
``f(w·t)`` over ``t`` in ``T`` is factored as ``λ(w) · r(w, ·)`` with
``λ(w)`` the row's left-gcd and ``r(w, ·)`` its left-coprime residual.
A word that is both an extension ``q·a`` and a prefix has a single row.  A
table with no closure or consistency defect assembles into a hypothesis
machine, which an equivalence oracle either accepts or refutes with a
counterexample word whose prefixes are then added to ``Q``.

The factorization is incremental: a refill folds each row's left-gcd over
its new cells and divides only those.  If the left-gcd shrank from ``old``
to ``g``, each old reduced cell ``r`` becomes ``k·r`` with ``k = g\\old``,
which is exact in a left-cancellative monoid.

Residual rows are canonical: two rows that agree up to an invertible left
factor have equal residuals.  So two prefixes have *merged rows*, and stand
for the same hypothesis state, exactly when their reduced rows are equal
tuples.  ``fill`` interns each reduced row it completes to an integer class
id, and defect search and hypothesis construction compare those ids.

Consistency defects come in three kinds, checked in a fixed order:

* ``TOT`` -- a definedness mismatch: a prefix whose row is nowhere defined
  has a defined extension, or two merged rows disagree on whether an
  extension is defined;
* ``INV`` -- a row's left-gcd fails to left-divide one of its extensions;
* ``INJ`` -- two merged rows have defined extensions that break the merge.

Each defect is decided per row from class ids and left-gcd quotients, not
per cell.  TOT compares the class ids of the extensions.  In a gcd monoid
``λ(q)`` divides every value of the ``q·a`` row exactly when it divides
``λ(q·a)``.  Reduced rows have a unit left-gcd, so merged prefixes agree on
``λ(q)\\f(q·a·t)`` for every ``t`` exactly when they agree on ``r(q·a, ·)``
and on ``λ(q)\\λ(q·a)``.  One suffix search then names every consistency
defect from the reduced cells ``r`` of ``q·a``: the first suffix at which
the members disagree on definedness (``r`` is ``⊥``), divisibility
(``λ(q) | λ(q·a)·r``) or quotient (``λ(q)\\(λ(q·a)·r)``).

All scans run in deterministic order (``Q`` insertion order, alphabet order,
``T`` insertion order, closure before consistency) so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .errors import BudgetExceeded, InternalInconsistency
from .monoid import Monoid, PartialRow, PartialValue, left_divide_partial, lgcd_family, mul_partial
from .transducer import Transducer, Word, _assemble, render_word

#: Answers the target function's value on a word (``None`` for undefined).
MembershipFn = Callable[[Word], PartialValue]

#: Returns ``None`` to accept a hypothesis, or an object with a ``word``
#: attribute naming a counterexample.
EquivalenceFn = Callable[[Transducer], Optional[object]]

EMPTY: Word = ()

#: The class id of the nowhere-defined reduced row.
BOTTOM = 0


class DefectKind(Enum):
    CLOSURE = "closure"
    TOT = "consistency-tot"
    INV = "consistency-inv"
    INJ = "consistency-inj"


@dataclass(frozen=True)
class Defect:
    """A table defect: a prefix to add to ``Q`` (closure) or a suffix to add
    to ``T`` (the three consistency kinds)."""

    kind: DefectKind
    word: Word


@dataclass
class LearnStats:
    membership_queries: int = 0
    equivalence_queries: int = 0
    q_updates: int = 0
    t_updates: int = 0
    loop_iterations: int = 0

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass
class LearnLimits:
    max_q: int = 1000
    max_iterations: int = 10_000


class ObservationTable:
    """The learner's working state: ``Q``, ``T`` and the factored rows.

    Membership answers are memoized forever in ``values``; the oracle is
    consulted exactly once per distinct word, so ``len(values)`` counts
    those consultations.  Each word ``w`` of ``Q ∪ Q·A`` has one row: its left-gcd
    ``λ(w)`` in ``lam`` and its reduced row ``r(w, ·)`` as a tuple over
    the first ``len(row)`` suffixes of ``T``.  Only ``fill`` reads
    ``values``.  It gives each row a class id in ``class_ids`` (equal ids
    mean equal reduced rows; ``BOTTOM`` is the ``⊥`` row's), and maps each
    prefix class id to its prefixes, in ``Q`` order, in ``classes``.
    """

    def __init__(self, monoid: Monoid, alphabet: tuple[str, ...]):
        self.monoid = monoid
        self.alphabet = tuple(alphabet)
        self.prefixes: list[Word] = [EMPTY]
        self.suffixes: list[Word] = [EMPTY]
        self.values: dict[Word, PartialValue] = {}
        self.lam: dict[Word, PartialValue] = {}
        self.class_ids: dict[Word, int] = {}
        self.classes: dict[int, list[Word]] = {}
        self._rows: dict[Word, PartialRow] = {}
        #: Each prefix's extensions ``q·a`` in alphabet order, built once.
        self._extensions: dict[Word, tuple[Word, ...]] = {EMPTY: tuple((a,) for a in self.alphabet)}
        #: Reduced rows over the current ``T`` mapped to their class ids.
        self._interned: dict[PartialRow, int] = {(None,): BOTTOM}

    def fill(self, membership: MembershipFn) -> None:
        """Query every missing cell, extend each row's factorization and intern it.

        Rows are visited from the empty word through each prefix's
        extensions ``q·a``, in ``Q`` and alphabet order (every other prefix
        is an extension), and cells in ``T`` order.  ``T`` only grows at its
        end and ``lgcd_family`` is a left fold, so a row's left-gcd is
        extended over its new cells only, and only those are divided by it.
        If it shrank from ``old`` to ``g``, each old reduced cell ``r`` first
        becomes ``k·r`` with ``k = g\\old``, as the monoids are
        left-cancellative; so each raw cell is read once, when it is filled.
        """
        m = self.monoid
        values, suffixes, rows, lam = self.values, self.suffixes, self._rows, self.lam
        class_ids, interned = self.class_ids, self._interned
        for w in (EMPTY, *(qa for q in self.prefixes for qa in self._extensions[q])):
            row = rows.get(w, ())
            if len(row) == len(suffixes):
                continue
            cells = []
            for t in suffixes[len(row) :]:
                wt = w + t
                if wt not in values:
                    values[wt] = membership(wt)
                cells.append(values[wt])
            old = lam.get(w)
            g = lgcd_family(m, (old, *cells))
            if g != old and old is not None:
                k = m.left_divide(g, old)
                row = tuple(None if r is None else m.mul(k, r) for r in row)
            lam[w] = g
            if g is not None:
                cells = [None if v is None else m.left_divide(g, v) for v in cells]
            rows[w] = row = row + tuple(cells)
            class_ids[w] = interned.setdefault(row, len(interned))
        self.classes = {}
        for q in self.prefixes:
            self.classes.setdefault(class_ids[q], []).append(q)

    def row(self, word: Word) -> PartialRow:
        """The reduced row ``r(word, ·)`` over ``T``, as cached by ``fill``."""
        return self._rows[word]

    def add_prefix(self, word: Word) -> int:
        """Add ``word`` and any missing prefixes to ``Q``, and their
        extensions to the rows to fill; returns the count added."""
        added = _append_missing(self.prefixes, (word[:k] for k in range(1, len(word) + 1)))
        for q in self.prefixes[len(self.prefixes) - added :]:
            self._extensions[q] = tuple(q + (a,) for a in self.alphabet)
        return added

    def add_suffix(self, word: Word) -> int:
        """Add ``word`` and any missing suffixes to ``T``; returns the count
        added.  Every row is then refilled, so the class ids start afresh."""
        added = _append_missing(self.suffixes, (word[-k:] for k in range(1, len(word) + 1)))
        if added:
            self._interned = {(None,) * len(self.suffixes): BOTTOM}
        return added


def _append_missing(words: list[Word], candidates: Iterable[Word]) -> int:
    """Append each of the distinct ``candidates`` not yet in ``words``;
    returns the count appended."""
    have = set(words)
    missing = [w for w in candidates if w not in have]
    words.extend(missing)
    return len(missing)


def find_defect(table: ObservationTable) -> Optional[Defect]:
    """First defect in deterministic scan order, or ``None`` if a hypothesis
    can be built."""
    m, alphabet, ext, suffixes = table.monoid, table.alphabet, table._extensions, table.suffixes
    row, lam, cls, classes = table.row, table.lam, table.class_ids, table.classes

    # Closure: a somewhere-defined extension row that matches no prefix row.
    for q in table.prefixes:
        for qa in ext[q]:
            c = cls[qa]
            if c != BOTTOM and c not in classes:
                return Defect(DefectKind.CLOSURE, qa)

    def divisible(q, v):
        return v is None or m.divides(lam[q], v)

    def quotient(q, v):
        return left_divide_partial(m, lam[q], v)

    def suspects():
        """Each ``(kind, members, letter index, keys, padding)`` that the class
        ids and left-gcds show to hold a consistency defect, in scan order;
        ``keys(q, q·a)`` iterates the keys of the ``q·a`` cells in ``T`` order."""
        # TOT: a nowhere-defined class with a defined extension, or merged rows
        # whose extensions differ; a reduced cell is ``⊥`` exactly when its raw cell is.
        for state, members in classes.items():
            bottom = state == BOTTOM
            if not bottom and len(members) == 1:
                continue
            for i in range(len(alphabet)):
                ids = {cls[ext[q][i]] for q in members}
                if len(ids) > 1 or (bottom and ids != {BOTTOM}):
                    pad = (False,) if bottom else ()
                    yield DefectKind.TOT, members, i, lambda q, qa: (v is not None for v in row(qa)), pad
        # INV: the row left-gcd must left-divide the extension's left-gcd.
        for q in table.prefixes:
            for i, qa in enumerate(ext[q]):
                if lam[q] is not None and not divisible(q, lam[qa]):
                    keys = lambda q, qa: (divisible(q, mul_partial(m, lam[qa], r)) for r in row(qa))
                    yield DefectKind.INV, (q,), i, keys, (True,)
        # INJ: merged rows must agree on the extension's class and on the
        # quotient of the two left-gcds.
        for state, members in classes.items():
            if state == BOTTOM or len(members) == 1:
                continue
            for i in range(len(alphabet)):
                if len({(cls[ext[q][i]], quotient(q, lam[ext[q][i]])) for q in members}) > 1:
                    keys = lambda q, qa: (quotient(q, mul_partial(m, lam[qa], r)) for r in row(qa))
                    yield DefectKind.INJ, members, i, keys, ()

    # One suffix search names every consistency defect: the first ``t`` at
    # which the key of the members' cells and the padding take two values.
    for kind, members, i, keys, pad in suspects():
        columns = zip(*(keys(q, ext[q][i]) for q in members))
        for t, column in zip(suffixes, columns):
            if len({*pad, *column}) > 1:
                return Defect(kind, (alphabet[i],) + t)
    return None


def apply_defect(table: ObservationTable, defect: Defect, membership: MembershipFn) -> int:
    """Grow the table along ``defect`` and refill; returns words added."""
    if defect.kind is DefectKind.CLOSURE:
        added = table.add_prefix(defect.word)
    else:
        added = table.add_suffix(defect.word)
    table.fill(membership)
    return added


def _state_ids(words: list[Word], alphabet: tuple[str, ...]) -> dict[Word, str]:
    ids: dict[Word, str] = {}
    used: set[str] = set()
    for w in words:
        base = render_word(w, alphabet) if w else "e"
        while base in used:
            base = f"⟨{base}⟩"
        ids[w] = base
        used.add(base)
    return ids


def build_hypothesis(table: ObservationTable) -> Transducer:
    """Assemble the machine of a defect-free table.

    The states are the first prefix in ``Q`` insertion order of each
    somewhere-defined class.  Each transition goes to the state of the
    extension row's class.
    """
    m, cls, alphabet = table.monoid, table.class_ids, table.alphabet
    reps = {c: qs[0] for c, qs in table.classes.items() if c != BOTTOM}
    states = list(reps.values())
    ids = _state_ids(states, alphabet)
    # ``T`` starts with the empty word, so a state row's first entry is its
    # termination value.
    termination = {ids[s]: table.row(s)[0] for s in states}

    transitions = {}
    for q in states:
        for a, qa in zip(alphabet, table._extensions[q]):
            c = cls[qa]
            if c == BOTTOM:
                continue
            target = reps.get(c)
            if target is None:
                raise InternalInconsistency(
                    f"no state row matches the ({render_word(q, alphabet)}, {a}) row"
                )
            try:
                step = m.left_divide(table.lam[q], table.lam[qa])
            except Exception as exc:  # divisibility is defect-freeness
                raise InternalInconsistency(str(exc)) from exc
            transitions[(ids[q], a)] = (step, ids[target])

    initial = None
    if cls[EMPTY] != BOTTOM:
        initial = (table.lam[EMPTY], ids[EMPTY])
    # Reduced rows, left-gcds and their quotients are canonical.
    return _assemble(m, alphabet, tuple(ids.values()), initial, termination, transitions)


def process_counterexample(table: ObservationTable, word: Word, membership: MembershipFn) -> int:
    """Add the counterexample and its missing prefixes to ``Q`` and refill."""
    added = table.add_prefix(word)
    if added:
        table.fill(membership)
    return added


def learn(
    monoid: Monoid,
    alphabet: tuple[str, ...],
    membership: MembershipFn,
    equivalence: EquivalenceFn,
    limits: Optional[LearnLimits] = None,
    observer: Optional[Callable[[str, object], None]] = None,
) -> tuple[Transducer, LearnStats]:
    """Run the main learning loop until the equivalence oracle accepts.

    Raises :class:`BudgetExceeded` (carrying the statistics and the table)
    when the prefix-count or iteration cap is hit.  ``observer``, when given,
    receives ``("defect", Defect)``, ``("hypothesis", Transducer)`` and
    ``("counterexample", Word)`` events as the run unfolds.
    """
    limits = limits or LearnLimits()
    table = ObservationTable(monoid, alphabet)
    notify = observer or (lambda event, payload: None)
    equivalence_queries = loop_iterations = 0

    def stats() -> LearnStats:
        """The run's counts, with the membership queries and the updates read off the table."""
        q_updates, t_updates = len(table.prefixes) - 1, len(table.suffixes) - 1
        return LearnStats(len(table.values), equivalence_queries, q_updates, t_updates, loop_iterations)

    table.fill(membership)
    while True:
        if len(table.prefixes) > limits.max_q:
            raise BudgetExceeded(f"prefix set grew past the cap of {limits.max_q}", stats(), table)
        loop_iterations += 1
        if loop_iterations > limits.max_iterations:
            raise BudgetExceeded(f"exceeded {limits.max_iterations} loop iterations", stats(), table)
        defect = find_defect(table)
        if defect is not None:
            notify("defect", defect)
            apply_defect(table, defect, membership)
            continue
        hypothesis = build_hypothesis(table)
        notify("hypothesis", hypothesis)
        equivalence_queries += 1
        verdict = equivalence(hypothesis)
        if verdict is None:
            return hypothesis, stats()
        word = tuple(verdict.word)
        notify("counterexample", word)
        process_counterexample(table, word, membership)
