"""Observation tables, defect detection and the main learning loop."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from montrans import (
    BudgetExceeded,
    DefectKind,
    FreeMonoid,
    InternalInconsistency,
    LearnLimits,
    NatAddMonoid,
    ObservationTable,
    TraceMonoid,
    Transducer,
    adversarial_oracle,
    apply_defect,
    brute_force_diff,
    build_hypothesis,
    check_minimal,
    equivalence_oracle,
    find_defect,
    iso_check,
    learn,
    lgcd_family,
    membership_oracle,
    minimize,
    mul_partial,
    process_counterexample,
    red_row,
)
import montrans.learner
from montrans.learner import BOTTOM, EMPTY, Defect

from helpers import chain, learning_target, load_machine
from workloads import random_machine, standard_monoids


@pytest.fixture
def target():
    return learning_target()


def fresh_table(machine):
    table = ObservationTable(machine.monoid, machine.alphabet)
    table.fill(machine.eval)
    return table


# -- fill ---------------------------------------------------------------------


def test_fill_initial_table(target):
    p = target.monoid.parse
    table = fresh_table(target)
    assert table.lam[EMPTY] == p("α")
    assert table.lam[("a",)] == p("γ·α·β·α")
    assert table.row(EMPTY)[table.suffixes.index(EMPTY)] == p("ε")
    assert table.row(("a",))[table.suffixes.index(EMPTY)] == p("ε")


def test_fill_after_suffix_extension(target):
    p = target.monoid.parse
    table = fresh_table(target)
    table.add_suffix(("a",))
    table.fill(target.eval)
    assert table.lam[EMPTY] == p("ε")
    assert table.lam[("a",)] == p("γ·α·β")


def test_fill_queries_each_word_once(target):
    calls = []

    def membership(word):
        calls.append(word)
        return target.eval(word)

    table = ObservationTable(target.monoid, target.alphabet)
    table.fill(membership)
    assert len(calls) == len(set(calls))
    before = len(calls)
    table.fill(membership)
    assert len(calls) == before  # memoized
    assert len(table.values) == before


def test_rows_are_keyed_by_word(monkeypatch):
    """After every ``fill`` the table holds exactly one complete row per word
    of ``Q ∪ Q·A``, so a word that is both an extension and a prefix is
    stored once."""
    fill = ObservationTable.fill
    shared = Counter()

    def checked_fill(table, membership):
        fill(table, membership)
        words = {q + ext for q in table.prefixes for ext in ((), *((a,) for a in table.alphabet))}
        assert set(table._rows) == set(table.lam) == words
        assert all(len(table.row(w)) == len(table.suffixes) for w in words)
        shared[table.monoid.kind] += len(words) < len(table.prefixes) * (1 + len(table.alphabet))

    monkeypatch.setattr(ObservationTable, "fill", checked_fill)
    rng = random.Random(37)
    for monoid in standard_monoids().values():
        for _ in range(10):
            target = random_machine(monoid, rng, max_states=6, max_letters=3)
            learn(monoid, target.alphabet, target.eval, equivalence_oracle(target))
    assert all(shared[kind] > 0 for kind in standard_monoids()), shared


def test_class_ids_match_reduced_rows(monkeypatch):
    """After every ``fill`` each word of ``Q ∪ Q·A`` has a class id, two words
    have equal ids exactly when their reduced rows are equal, and the
    nowhere-defined row has the id ``BOTTOM``."""
    fill = ObservationTable.fill
    widths = Counter()

    def checked_fill(table, membership):
        fill(table, membership)
        words = {q + ext for q in table.prefixes for ext in ((), *((a,) for a in table.alphabet))}
        assert set(table.class_ids) == words
        ids_of_row: dict[tuple, set] = {}
        for w in words:
            ids_of_row.setdefault(table.row(w), set()).add(table.class_ids[w])
        assert all(len(ids) == 1 for ids in ids_of_row.values())
        assert len(set().union(*ids_of_row.values())) == len(ids_of_row)
        for row, ids in ids_of_row.items():
            assert (ids == {BOTTOM}) == all(v is None for v in row)
        widths[len(table.suffixes) > 1] += 1

    monkeypatch.setattr(ObservationTable, "fill", checked_fill)
    rng = random.Random(38)
    targets = [learning_target()] + [
        random_machine(monoid, rng, max_states=6, max_letters=3)
        for monoid in standard_monoids().values()
        for _ in range(20)
    ]
    for target in targets:
        learn(target.monoid, target.alphabet, target.eval, equivalence_oracle(target))
    assert widths[True] > 0 and widths[False] > 0, widths


def test_table_coherence_and_coprimality(target):
    table = fresh_table(target)
    table.add_suffix(("a",))
    table.add_prefix(("a",))
    table.fill(target.eval)
    m = target.monoid
    for q in table.prefixes:
        for w in (q, *(q + (a,) for a in table.alphabet)):
            row = table.row(w)
            for t in table.suffixes:
                value = row[table.suffixes.index(t)]
                assert mul_partial(m, table.lam[w], value) == table.values[w + t]
            if any(v is not None for v in row):
                assert m.is_invertible(lgcd_family(m, row))


def test_incremental_fill_matches_whole_table_refactor(monkeypatch):
    """After every ``fill``, each row's left-gcd and reduced row equal what
    refactoring the whole table from its raw cells gives."""
    fill = ObservationTable.fill
    shrunk = Counter()

    def checked_fill(table, membership):
        before = dict(table.lam)
        fill(table, membership)
        m = table.monoid
        for q in table.prefixes:
            for w in (q, *(q + (a,) for a in table.alphabet)):
                raw = tuple(table.values[w + t] for t in table.suffixes)
                assert table.lam[w] == lgcd_family(m, raw), (m.kind, w)
                assert table.row(w) == red_row(m, raw), (m.kind, w)
        shrunk[m.kind] += sum(g is not None and table.lam[key] != g for key, g in before.items())

    monkeypatch.setattr(ObservationTable, "fill", checked_fill)
    rng = random.Random(35)
    targets = [learning_target()] + [
        random_machine(monoid, rng, max_states=6, max_letters=3)
        for monoid in standard_monoids().values()
        for _ in range(20)
    ]
    for target in targets:
        learn(target.monoid, target.alphabet, target.eval, equivalence_oracle(target))
    # The re-divide branch runs wherever a left-gcd can shrink; the worked
    # free-monoid run shrinks the empty prefix's left-gcd from α to ε.
    assert all(shrunk[kind] > 0 for kind in ("free", "trace", "commutative", "nat-add")), shrunk


def _cell_scan(table: ObservationTable):
    """Every defect kind decided cell by cell from the raw cells alone: rows
    are reduced afresh and grouped by equality, extension cells are compared
    on definedness, every defined extension value is divided by its row's
    left-gcd, and merged rows are compared quotient by quotient."""
    m, values = table.monoid, table.values

    def cells(w):
        return [values[w + t] for t in table.suffixes]

    classes = {}
    for q in table.prefixes:
        classes.setdefault(red_row(m, cells(q)), []).append(q)
    for q in table.prefixes:
        for a in table.alphabet:
            r = red_row(m, cells(q + (a,)))
            if any(v is not None for v in r) and r not in classes:
                return Defect(DefectKind.CLOSURE, q + (a,))
    for r, members in classes.items():
        bottom = all(v is None for v in r)
        for a in table.alphabet:
            for t in table.suffixes:
                defined = {values[q + (a,) + t] is not None for q in members}
                if len(defined) > 1 or (bottom and True in defined):
                    return Defect(DefectKind.TOT, (a,) + t)
    for q in table.prefixes:
        g = lgcd_family(m, cells(q))
        if g is None:
            continue
        for a in table.alphabet:
            for t in table.suffixes:
                v = values[q + (a,) + t]
                if v is not None and not m.divides(g, v):
                    return Defect(DefectKind.INV, (a,) + t)
    for q, *rest in classes.values():
        g = lgcd_family(m, cells(q))
        if g is None or not rest:
            continue
        for a in table.alphabet:
            for t in table.suffixes:
                v1 = values[q + (a,) + t]
                if v1 is None:
                    continue
                d1 = m.left_divide(g, v1)
                for q2 in rest:
                    v2 = values[q2 + (a,) + t]
                    if d1 != m.left_divide(lgcd_family(m, cells(q2)), v2):
                        return Defect(DefectKind.INJ, (a,) + t)
    return None


def test_row_level_defect_search_matches_cell_scan(monkeypatch):
    """On every call, deciding defects from class ids and left-gcds and
    naming them by one suffix search finds the defect, of every kind, that
    the cell by cell scan finds."""
    real = find_defect
    seen = Counter()

    def checked_find_defect(table):
        defect = real(table)
        assert defect == _cell_scan(table), (table.monoid.kind, defect)
        seen[None if defect is None else defect.kind] += 1
        return defect

    monkeypatch.setattr(montrans.learner, "find_defect", checked_find_defect)
    rng = random.Random(36)
    targets = [learning_target()] + [
        random_machine(monoid, rng, max_states=6, max_letters=3)
        for monoid in standard_monoids().values()
        for _ in range(20)
    ]
    for target in targets:
        learn(target.monoid, target.alphabet, target.eval, equivalence_oracle(target))
    assert all(seen[kind] > 0 for kind in DefectKind), seen


def learn_counting_reads(target: Transducer) -> tuple[Counter, Counter, ObservationTable]:
    """Learn ``target`` and count the reads of ``table.values`` made inside
    ``fill``, inside ``find_defect`` and elsewhere (under ``None``); returns
    those counts, the kinds of the defects named and the final table."""
    reads, kinds, tables = Counter(), Counter(), []
    init, fill, real_find_defect = ObservationTable.__init__, ObservationTable.fill, find_defect

    class CountingValues(dict):
        phase = None

        def __getitem__(self, word):
            reads[self.phase] += 1
            return super().__getitem__(word)

        def get(self, word, default=None):
            reads[self.phase] += 1
            return super().get(word, default)

    def counting_init(table, *args):
        init(table, *args)
        table.values = CountingValues()
        tables.append(table)

    def counted(phase, run):
        def run_counted(table, *args):
            table.values.phase = phase
            try:
                return run(table, *args)
            finally:
                table.values.phase = None

        return run_counted

    def observe(event, payload):
        if event == "defect":
            kinds[payload.kind] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ObservationTable, "__init__", counting_init)
        mp.setattr(ObservationTable, "fill", counted("fill", fill))
        mp.setattr(montrans.learner, "find_defect", counted("find_defect", real_find_defect))
        membership = membership_oracle(target)
        learn(target.monoid, target.alphabet, membership, equivalence_oracle(target), observer=observe)
    return reads, kinds, tables[-1]


def assert_defect_search_reads_no_raw_cell(target: Transducer, kind: DefectKind):
    """Learning ``target`` names ``kind`` defects, and ``find_defect`` names
    every defect from the factored table alone, reading ``table.values`` 0
    times."""
    reads, kinds, _ = learn_counting_reads(target)
    assert kinds[kind] > 0, kinds
    assert reads["find_defect"] == 0


@pytest.mark.parametrize("reset", [False, True], ids=["plain", "reset"])
@pytest.mark.parametrize("n", [50, 100])
def test_defect_search_reads_few_cells_on_chains(n, reset):
    """``chain(nat-add, n, n // 4)`` makes TOT defects."""
    target = chain(NatAddMonoid(), n, n // 4, reset)
    assert_defect_search_reads_no_raw_cell(target, DefectKind.TOT)


@pytest.mark.parametrize("reset", [False, True], ids=["plain", "reset"])
@pytest.mark.parametrize("n", [50, 100])
def test_inv_naming_reads_few_cells_on_free_chains(n, reset):
    """``chain(free, n, n // 4)`` makes one INV defect, or two with ``reset``."""
    target = chain(standard_monoids()["free"], n, n // 4, reset)
    assert_defect_search_reads_no_raw_cell(target, DefectKind.INV)


def test_inj_naming_reads_few_cells_on_a_corpus_target():
    """Target 15 of the acceptance learning corpus (seed 9001) is the first
    whose run makes an INJ defect."""
    rng = random.Random(9001)
    free = standard_monoids()["free"]  # the corpus's first 100 targets
    for _ in range(16):
        target = random_machine(free, rng, max_states=6, max_letters=3)
    assert_defect_search_reads_no_raw_cell(target, DefectKind.INJ)


def test_fill_reads_each_raw_cell_once():
    """Over whole runs, ``fill`` reads each cell of the final table once, even
    where a left-gcd shrinks, and nothing else reads ``values``."""
    rng = random.Random(35)  # the draws on which the incremental-fill test sees shrinks
    targets = [learning_target()] + [
        random_machine(monoid, rng, max_states=6, max_letters=3)
        for monoid in standard_monoids().values()
        for _ in range(20)
    ]
    for target in targets:
        reads, _, table = learn_counting_reads(target)
        assert reads == {"fill": len(table.lam) * len(table.suffixes)}, (target.monoid.kind, reads)


# -- the worked learning run ----------------------------------------------------


def test_worked_free_monoid_run(target):
    """The full deterministic narrative: two consistency defects, one closure
    defect, a first wrong hypothesis refuted on bb, and a second accepted."""
    events = []
    machine, stats = learn(
        target.monoid,
        target.alphabet,
        target.eval,
        equivalence_oracle(target),
        observer=lambda kind, payload: events.append((kind, payload)),
    )

    kinds = [(k, p) for k, p in events if k == "defect"]
    assert [(k, (d.kind, d.word)) for k, d in kinds] == [
        ("defect", (DefectKind.INV, ("a",))),
        ("defect", (DefectKind.CLOSURE, ("a",))),
        ("defect", (DefectKind.TOT, ("b",))),
    ]

    hypotheses = [p for k, p in events if k == "hypothesis"]
    assert len(hypotheses) == 2
    assert hypotheses[0] == load_machine("first_hypothesis_free.json")

    counterexamples = [p for k, p in events if k == "counterexample"]
    assert counterexamples == [("b", "b")]

    assert stats.equivalence_queries == 2
    assert machine.states == ("e", "a", "b")
    assert check_minimal(machine)
    assert iso_check(minimize(target).minimal, machine) is not None


def test_worked_run_intermediate_tables(target):
    """Defects found per configuration, matching the step-by-step account."""
    table = fresh_table(target)
    d1 = find_defect(table)
    assert (d1.kind, d1.word) == (DefectKind.INV, ("a",))
    apply_defect(table, d1, target.eval)
    assert table.suffixes == [(), ("a",)]

    d2 = find_defect(table)
    assert (d2.kind, d2.word) == (DefectKind.CLOSURE, ("a",))
    apply_defect(table, d2, target.eval)
    assert table.prefixes == [(), ("a",)]

    assert find_defect(table) is None
    first = build_hypothesis(table)
    assert first == load_machine("first_hypothesis_free.json")

    process_counterexample(table, ("b", "b"), target.eval)
    assert table.prefixes == [(), ("a",), ("b",), ("b", "b")]

    d3 = find_defect(table)
    assert (d3.kind, d3.word) == (DefectKind.TOT, ("b",))
    apply_defect(table, d3, target.eval)
    assert table.suffixes == [(), ("a",), ("b",)]

    assert find_defect(table) is None
    second = build_hypothesis(table)
    assert iso_check(minimize(target).minimal, second) is not None


def test_first_hypothesis_wrong_on_bb(target):
    hypothesis = load_machine("first_hypothesis_free.json")
    verdict = equivalence_oracle(target)(hypothesis)
    assert verdict is not None
    assert verdict.word == ("b", "b")
    assert verdict.left_value is None
    assert verdict.right_value == target.monoid.parse("α·α·α")


def test_trace_monoid_run_merges_states():
    """With α·β = β·α two of the target's states behave identically, so the
    learner lands on a smaller machine."""
    trace = TraceMonoid(("α", "β", "γ"), [("α", "β")])
    target = learning_target(trace)
    machine, stats = learn(trace, target.alphabet, target.eval, equivalence_oracle(target))
    assert len(machine.states) == 2 < len(target.states)
    assert check_minimal(machine)
    assert brute_force_diff(machine, target, 6) is None


# -- defect bookkeeping ----------------------------------------------------------


def test_apply_defect_dedup(target):
    table = fresh_table(target)
    assert table.add_prefix(("a",)) == 1
    assert table.add_prefix(("a",)) == 0
    assert table.add_prefix(("a", "b")) == 1  # prefix a already present
    assert table.add_suffix(("b", "a")) == 2  # adds a then ba
    assert table.suffixes == [(), ("a",), ("b", "a")]


def test_defect_text_tells_the_empty_word_from_letter_e():
    assert str(Defect(DefectKind.CLOSURE, ())) != str(Defect(DefectKind.CLOSURE, ("e",)))


def test_process_counterexample_adds_all_prefixes(target):
    table = fresh_table(target)
    process_counterexample(table, ("b", "b", "a"), target.eval)
    assert table.prefixes == [(), ("b",), ("b", "b"), ("b", "b", "a")]
    assert process_counterexample(table, (), target.eval) == 0
    assert process_counterexample(table, ("b", "b"), target.eval) == 0


def test_closed_table_of_dead_language_builds_empty_machine():
    m = standard_monoids()["free"]
    dead = Transducer(
        monoid=m, alphabet=("a",), states=("x",), initial=None, termination={"x": None}
    )
    table = fresh_table(dead)
    assert find_defect(table) is None
    machine = build_hypothesis(table)
    assert machine.states == ()
    assert machine.initial is None


def test_tot_defect_revives_dead_empty_row():
    # target defined only on words that contain the letter a
    m = standard_monoids()["nat-add"]
    target = Transducer(
        monoid=m,
        alphabet=("a", "b"),
        states=("0", "1"),
        initial=(0, "0"),
        termination={"0": None, "1": 1},
        transitions={
            ("0", "a"): (2, "1"),
            ("0", "b"): (0, "0"),
            ("1", "a"): (0, "1"),
            ("1", "b"): (0, "1"),
        },
    )
    machine, _ = learn(m, target.alphabet, target.eval, equivalence_oracle(target))
    assert brute_force_diff(machine, target, 6) is None
    assert check_minimal(machine)


def test_state_named_e_gets_a_fresh_id():
    """Over the alphabet ``{e}`` the state of the word ``e`` would share the
    empty word's id ``e``; it is named ``⟨e⟩`` instead."""
    m = standard_monoids()["free"]
    p = m.parse
    target = Transducer(
        monoid=m,
        alphabet=("e",),
        states=("s", "t"),
        initial=(m.unit(), "s"),
        termination={"s": p("α"), "t": p("β")},
        transitions={("s", "e"): (m.unit(), "t"), ("t", "e"): (m.unit(), "t")},
    )
    machine, _ = learn(m, target.alphabet, target.eval, equivalence_oracle(target))
    assert machine.states == ("e", "⟨e⟩")
    assert brute_force_diff(machine, target, 4) is None


def test_unclosed_table_error_renders_the_prefix():
    """Over the alphabet ``{e}`` the empty word renders as ``ε``, so the
    message cannot be read as naming the word ``e``."""
    table = ObservationTable(standard_monoids()["nat-add"], ("e",))
    table.add_suffix(("e",))
    table.fill(lambda word: 0 if len(word) % 2 == 0 else None)
    assert find_defect(table) == Defect(DefectKind.CLOSURE, ("e",))
    with pytest.raises(InternalInconsistency, match=r"^no state row matches the \(ε, e\) row$"):
        build_hypothesis(table)


def test_indivisible_step_is_an_internal_inconsistency():
    """``ε ↦ α`` and ``a ↦ β`` reduce to one class under ``T = {ε}``, so the
    table is closed, but ``α`` does not left-divide ``β``: an INV defect, and
    no transition output for a hypothesis built anyway."""
    m = FreeMonoid(("α", "β"))
    answers = {EMPTY: m.parse("α"), ("a",): m.parse("β")}
    table = ObservationTable(m, ("a",))
    table.fill(answers.__getitem__)
    assert table.class_ids[EMPTY] == table.class_ids[("a",)]
    assert find_defect(table) == Defect(DefectKind.INV, ("a",))
    with pytest.raises(InternalInconsistency, match=r"^α does not left-divide β$"):
        build_hypothesis(table)


def test_learn_makes_no_canonical_calls(monkeypatch):
    """The learn path builds every value with canonical-in, canonical-out
    operations and never canonicalizes one again."""
    rng = random.Random(39)
    targets = [learning_target()] + [
        random_machine(monoid, rng, max_states=6, max_letters=3)
        for monoid in standard_monoids().values()
        for _ in range(20)
    ]
    calls = Counter()
    for monoid in standard_monoids().values():
        canonical = type(monoid).canonical

        def counted(self, payload, canonical=canonical):
            calls[self.kind] += 1
            return canonical(self, payload)

        monkeypatch.setattr(type(monoid), "canonical", counted)
    for target in targets:
        learn(target.monoid, target.alphabet, membership_oracle(target), equivalence_oracle(target))
    assert calls == Counter()


def test_learn_stats_monotone_fields(target):
    _, stats = learn(target.monoid, target.alphabet, target.eval, equivalence_oracle(target))
    doc = stats.to_doc()
    assert set(doc) == {
        "membership_queries",
        "equivalence_queries",
        "q_updates",
        "t_updates",
        "loop_iterations",
    }
    assert all(v >= 0 for v in doc.values())
    assert doc["membership_queries"] > 0


def test_table_sets_stay_prefix_and_suffix_closed():
    rng = random.Random(33)
    for monoid in standard_monoids().values():
        target = random_machine(monoid, rng, max_states=4, max_letters=2)
        table = fresh_table(target)
        for _ in range(12):
            defect = find_defect(table)
            if defect is None:
                break
            apply_defect(table, defect, target.eval)
            prefixes, suffixes = set(table.prefixes), set(table.suffixes)
            assert all(q[:k] in prefixes for q in prefixes for k in range(len(q)))
            assert all(t[k:] in suffixes for t in suffixes for k in range(len(t)))
            assert () in prefixes and () in suffixes


# -- budget caps -------------------------------------------------------------------


def test_adversarial_oracle_never_converges():
    free = standard_monoids()["free"]

    def no_equivalence(_hypothesis):
        raise AssertionError("equivalence must never be reached")

    with pytest.raises(BudgetExceeded) as info:
        learn(free, ("a",), adversarial_oracle(), no_equivalence, LearnLimits(max_q=25))
    exc = info.value
    assert exc.stats.equivalence_queries == 0
    table = exc.table
    assert len(table.prefixes) == 26
    assert table.suffixes == [(), ("a",)]
    for q in table.prefixes:
        k = len(q)
        assert table.lam[q] == ("α",) * k
        assert table.row(q)[table.suffixes.index(())] == ("β",) * k + ("γ",)
        assert table.row(q)[table.suffixes.index(("a",))] == ("α",) + ("β",) * (k + 1) + ("γ",)


def test_iteration_cap(target):
    with pytest.raises(BudgetExceeded):
        learn(
            target.monoid,
            target.alphabet,
            target.eval,
            equivalence_oracle(target),
            LearnLimits(max_iterations=1),
        )


# -- random cross-validation (small sample; the acceptance suite runs the corpus) --


def test_learner_agrees_with_random_targets():
    rng = random.Random(31)
    for monoid in standard_monoids().values():
        for _ in range(6):
            target = random_machine(monoid, rng, max_states=4, max_letters=2)
            machine, _ = learn(monoid, target.alphabet, target.eval, equivalence_oracle(target))
            assert check_minimal(machine)
            assert brute_force_diff(machine, target, 7) is None
            assert iso_check(minimize(target).minimal, machine) is not None
