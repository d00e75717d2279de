"""Canonical forms, element text/wire round trips and the algebraic laws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from montrans import (
    CommutativeMonoid,
    CyclicGroup,
    FreeMonoid,
    MalformedElement,
    NatAddMonoid,
    NotDivisible,
    TraceMonoid,
    UnknownGenerator,
    left_divide_partial,
    lgcd_family,
    make_monoid,
    monoid_from_wire,
    mul_partial,
    red_row,
)
from montrans.errors import SchemaError

from helpers import (
    brute_trace_lgcd,
    elements_up_to,
    inverse,
    left_divisors,
    trace_class,
    trace_normal_form_faults,
)
from workloads import random_element, standard_monoids

MONOIDS = standard_monoids()


@pytest.fixture(params=sorted(MONOIDS))
def monoid(request):
    return MONOIDS[request.param]


# -- construction and spec validation ---------------------------------------


def test_make_monoid_rejects_bad_specs():
    with pytest.raises(ValueError):
        make_monoid("free", generators=("α", "α"))
    with pytest.raises(ValueError):
        make_monoid("free", generators=())
    with pytest.raises(ValueError):
        make_monoid("trace", generators=("α",), commutations=[("α", "α")])
    with pytest.raises(ValueError):
        make_monoid("trace", generators=("α", "β"), commutations=[("α", "δ")])
    with pytest.raises(ValueError):
        make_monoid("cyclic-group", modulus=0)
    with pytest.raises(ValueError):
        make_monoid("tropical")
    for name in ("ε", "⊥", "α·β"):
        for make in (FreeMonoid, CommutativeMonoid, lambda gens: TraceMonoid(gens, ())):
            with pytest.raises(ValueError, match="reserved or separator-bearing"):
                make(("α", name))


def test_monoid_wire_round_trip(monoid):
    decoded = monoid_from_wire(monoid.to_wire())
    assert decoded == monoid
    assert hash(decoded) == hash(monoid)


def test_monoid_wire_forms_are_pinned():
    # Key order matters: machine documents write these objects as they are.
    pinned = {
        "free": [("kind", "free"), ("generators", ["α", "β", "γ"])],
        "trace": [("kind", "trace"), ("generators", ["α", "β", "γ"]), ("commutations", [["α", "β"]])],
        "commutative": [("kind", "commutative"), ("generators", ["α", "β"])],
        "nat-add": [("kind", "nat-add")],
        "cyclic-group": [("kind", "cyclic-group"), ("modulus", 3)],
    }
    for name, monoid in MONOIDS.items():
        assert list(monoid.to_wire().items()) == pinned[name]
    two_pairs = TraceMonoid(("α", "β", "γ", "δ"), [("δ", "γ"), ("β", "α")])
    assert list(two_pairs.to_wire().items()) == [
        ("kind", "trace"),
        ("generators", ["α", "β", "γ", "δ"]),
        ("commutations", [["α", "β"], ["γ", "δ"]]),
    ]
    no_pairs = TraceMonoid(("β", "α"), [])
    assert list(no_pairs.to_wire().items()) == [
        ("kind", "trace"),
        ("generators", ["β", "α"]),
        ("commutations", []),
    ]
    with pytest.raises(ValueError, match="unknown monoid kind"):
        make_monoid({"kind": "free"})


def test_trace_monoids_differ_by_commutations():
    commuting = TraceMonoid(("α", "β"), [("α", "β")])
    free = TraceMonoid(("α", "β"), [])
    assert commuting != free
    assert commuting == TraceMonoid(("α", "β"), [("β", "α")])


def test_monoid_equality_table():
    gens = ("α", "β", "γ", "δ")
    equal = [
        (TraceMonoid(gens, [("α", "β"), ("γ", "δ")]), TraceMonoid(gens, [("δ", "γ"), ("β", "α")])),
        (TraceMonoid(gens, [("α", "β")]), TraceMonoid(gens, [("β", "α"), ("α", "β")])),
        (FreeMonoid(("α", "β")), FreeMonoid(["α", "β"])),
        (NatAddMonoid(), NatAddMonoid()),
        (CyclicGroup(3), CyclicGroup(3)),
    ]
    for left, right in equal:
        assert left == right and right == left and not left != right
        assert hash(left) == hash(right)
    unequal = [
        (CyclicGroup(3), CyclicGroup(4)),
        (FreeMonoid(("α", "β")), FreeMonoid(("β", "α"))),
        (TraceMonoid(("α", "β"), []), TraceMonoid(("β", "α"), [])),
        (TraceMonoid(gens, [("α", "β")]), TraceMonoid(gens, [("α", "γ")])),
        (FreeMonoid(("α", "β")), CommutativeMonoid(("α", "β"))),
        (FreeMonoid(("α", "β")), TraceMonoid(("α", "β"), [])),
        (NatAddMonoid(), CyclicGroup(1)),
    ]
    for left, right in unequal:
        assert left != right and right != left and not left == right
    names = list(MONOIDS)
    for a in names:
        for b in names:
            assert (MONOIDS[a] == MONOIDS[b]) == (a == b)
    for monoid in MONOIDS.values():
        for other in (None, monoid.kind, monoid.to_wire(), tuple(monoid.to_wire().values())):
            assert monoid != other and not monoid == other


def test_monoid_from_wire_errors():
    with pytest.raises(SchemaError):
        monoid_from_wire({"kind": "free"})
    with pytest.raises(SchemaError):
        monoid_from_wire({"kind": "nope"})
    with pytest.raises(SchemaError):
        monoid_from_wire({"kind": "nat-add", "modulus": 3})
    with pytest.raises(SchemaError):
        monoid_from_wire([])


# -- units, products, inverses ----------------------------------------------


def test_units():
    assert MONOIDS["free"].unit() == ()
    assert MONOIDS["nat-add"].unit() == 0
    assert CyclicGroup(3).unit() == 0


def test_products():
    free = MONOIDS["free"]
    assert free.mul(free.parse("α"), free.parse("β·α")) == ("α", "β", "α")
    trace = TraceMonoid(("α", "β"), [("α", "β")])
    assert trace.mul(("β",), ("α",)) == ("α", "β")
    assert CyclicGroup(3).mul(2, 2) == 1


def test_invertibility():
    free = MONOIDS["free"]
    assert not free.is_invertible(("α",))
    with pytest.raises(NotDivisible):
        inverse(free, ("α",))
    with pytest.raises(NotDivisible):
        free.left_divide(("α",), free.unit())
    cyclic = CyclicGroup(3)
    assert inverse(cyclic, 2) == 1
    for m in MONOIDS.values():
        assert m.is_invertible(m.unit())
        assert inverse(m, m.unit()) == m.unit()


def test_left_divide_examples():
    free = MONOIDS["free"]
    assert free.left_divide(("α",), ("α", "β", "γ")) == ("β", "γ")
    assert CyclicGroup(3).left_divide(1, 0) == 2
    with pytest.raises(NotDivisible):
        free.left_divide(("β",), ("α", "β"))


def test_rank():
    free = MONOIDS["free"]
    assert free.rank(free.parse("α·β·α")) == 3
    for m in MONOIDS.values():
        assert m.rank(m.unit()) == 0
    assert CyclicGroup(3).rank(2) == 0
    assert MONOIDS["nat-add"].rank(7) == 7
    assert MONOIDS["commutative"].rank(MONOIDS["commutative"].parse("α·β·β")) == 3


# -- canonical forms ---------------------------------------------------------


def test_trace_normal_form():
    trace = MONOIDS["trace"]  # α and β commute, γ commutes with nothing
    assert trace.parse("β·α") == ("α", "β")
    assert trace.render(trace.parse("β·α")) == "α·β"
    assert trace.parse("γ·β·α") == ("γ", "α", "β")
    assert trace.parse("β·γ·α") == ("β", "γ", "α")
    assert trace.canonical(("β", "α", "α")) == ("α", "α", "β")


TRACES = [
    MONOIDS["trace"],
    TraceMonoid(("a", "b", "c", "d"), [("a", "b"), ("c", "a"), ("c", "d"), ("d", "b")]),
]


@pytest.mark.parametrize("trace", TRACES, ids=["standard", "four-letter"])
def test_trace_independent_matches_commutations(trace):
    for a in trace.generators:
        for b in trace.generators:
            assert trace.independent(a, b) == (frozenset((a, b)) in trace.commutations), (a, b)


#: ``(x, y, x·y)`` for normal forms ``x`` and ``y`` whose product moves a
#: letter of ``y`` left past several letters of ``x``.
SEAMS = [
    [
        (("β", "β", "β"), ("α",), ("α", "β", "β", "β")),
        (("γ", "β", "β"), ("α", "γ"), ("γ", "α", "β", "β", "γ")),
    ],
    [
        (("b", "c", "b"), ("a",), ("a", "b", "c", "b")),
        (("b", "d", "d"), ("c", "b"), ("b", "c", "b", "d", "d")),
        (("d", "a", "d"), ("c",), ("c", "d", "a", "d")),
    ],
]


@pytest.mark.parametrize("trace, seams", zip(TRACES, SEAMS), ids=["standard", "four-letter"])
def test_trace_normal_form_is_least_word_of_class(trace, seams):
    rng = random.Random(41)
    order = {g: i for i, g in enumerate(trace.generators)}

    def least(word):
        return min(trace_class(trace, word), key=lambda w: [order[g] for g in w])

    def random_word():
        return tuple(rng.choice(trace.generators) for _ in range(rng.randint(0, 6)))

    for _ in range(300):
        word = random_word()
        assert trace._normalize(word) == least(word), word
    for x, y, product in seams:
        assert trace.mul(x, y) == product
    pairs = [(x, y) for x, y, _ in seams]
    pairs += [(least(random_word()), least(random_word())) for _ in range(300)]
    for x, y in pairs:
        assert least(x) == x and least(y) == y
        product = trace.mul(x, y)
        assert product == least(x + y), (x, y)
        assert trace.left_divide(x, product) == y, (x, y)


@pytest.mark.parametrize("trace", TRACES, ids=["standard", "four-letter"])
def test_trace_divisibility_matches_brute_force(trace):
    rng = random.Random(43)
    outcomes = set()
    for _ in range(400):
        d, x = (
            trace.canonical(tuple(rng.choice(trace.generators) for _ in range(rng.randint(0, k))))
            for k in (4, 6)
        )
        d_class = trace_class(trace, d)
        expected = any(member[: len(d)] in d_class for member in trace_class(trace, x))
        assert trace.divides(d, x) == expected, (d, x)
        if expected:
            assert trace.mul(d, trace.left_divide(d, x)) == x, (d, x)
        else:
            with pytest.raises(NotDivisible):
                trace.left_divide(d, x)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("trace", TRACES, ids=["standard", "four-letter"])
def test_trace_normal_forms_of_long_words(trace):
    rng = random.Random(47)

    def random_word():
        return tuple(rng.choice(trace.generators) for _ in range(rng.randint(30, 60)))

    for _ in range(200):
        word, other = random_word(), random_word()
        x, y = trace.canonical(word), trace.canonical(other)
        assert trace_normal_form_faults(trace, x, word) == [], word
        assert trace_normal_form_faults(trace, trace.mul(x, y), word + other) == [], (x, y)


#: ``(x, y, _peel(x, y))`` by hand: a letter absent from ``y'``, a first
#: occurrence behind a non-commuting letter, and one behind only commuting
#: letters, which leaves ``y'`` while the later occurrence stays.
PEELS = [
    [
        (("γ",), ("α", "β"), ((), ["γ"], ["α", "β"])),
        (("β",), ("γ", "β"), ((), ["β"], ["γ", "β"])),
        (("β",), ("α", "β", "γ", "β"), (("β",), [], ["α", "γ", "β"])),
    ],
    [
        (("d",), ("a", "b"), ((), ["d"], ["a", "b"])),
        (("c",), ("b", "c"), ((), ["c"], ["b", "c"])),
        (("c",), ("a", "c", "b", "c"), (("c",), [], ["a", "b", "c"])),
    ],
]


@pytest.mark.parametrize("trace, peels", zip(TRACES, PEELS), ids=["standard", "four-letter"])
def test_trace_peel_of_long_words(trace, peels):
    """The peel splits long words into their left-gcd and two rests with no
    common front generator, so the left-gcd is the greatest one."""
    for x, y, peeled in peels:
        assert trace.canonical(x) == x and trace.canonical(y) == y
        assert trace._peel(x, y) == peeled, (x, y)
    rng = random.Random(53)

    def random_word(n):
        return tuple(rng.choice(trace.generators) for _ in range(n))

    def to_front(word, g):
        return g in word and all(trace.independent(g, c) for c in word[: word.index(g)])

    for _ in range(300):
        n = rng.randint(0, 300)
        common = random_word(rng.randint(0, n))
        x = trace.canonical(common + random_word(n - len(common)))
        y = trace.canonical(common + random_word(rng.randint(0, 300 - len(common))))
        g, rest_x, rest_y = trace._peel(x, y)
        assert trace.mul(g, trace.canonical(rest_x)) == x, (x, y)
        assert trace.mul(g, trace.canonical(rest_y)) == y, (x, y)
        assert trace_normal_form_faults(trace, g, g) == [], (x, y)
        assert not any(
            to_front(rest_x, c) and to_front(rest_y, c) for c in trace.generators
        ), (x, y)


def test_trace_normal_form_checker_finds_faults():
    trace = TRACES[1]  # a·b, a·c, c·d and b·d commute
    assert trace_normal_form_faults(trace, ("a", "c", "b"), ("c", "b", "a")) == []
    assert trace_normal_form_faults(trace, ("b", "a"), ("a", "b")) == [
        "'a' at 1 can move left past 'b' at 0"
    ]
    assert trace_normal_form_faults(trace, ("a", "d"), ("d", "a")) == [
        "projections onto 'a', 'd' differ"
    ]
    assert trace_normal_form_faults(trace, ("a",), ("a", "a")) == [
        "projections onto 'a', 'a' differ",
        "projections onto 'a', 'd' differ",
    ]


def test_parse_render_round_trip(monoid):
    rng = random.Random(11)
    for _ in range(50):
        x = random_element(monoid, rng, max_rank=4)
        assert monoid.parse(monoid.render(x)) == x
        assert monoid.decode(monoid.encode(x)) == x


def test_parse_errors():
    free = MONOIDS["free"]
    with pytest.raises(UnknownGenerator):
        free.parse("α·δ")
    with pytest.raises(MalformedElement):
        free.parse("α··β")
    with pytest.raises(MalformedElement):
        MONOIDS["nat-add"].parse("-3")
    with pytest.raises(MalformedElement):
        CyclicGroup(3).parse("x")
    with pytest.raises(MalformedElement):
        MONOIDS["commutative"].decode({"α": 0})
    for kind in ("free", "trace"):
        with pytest.raises(UnknownGenerator, match=r"^unknown generator 'δ' \(declared: α, β, γ\)$"):
            MONOIDS[kind].decode(["β", "δ"])


def test_parse_unit_spellings(monoid):
    assert monoid.parse("ε") == monoid.unit()


def test_commutative_wire_form():
    cm = MONOIDS["commutative"]
    assert cm.encode(cm.parse("β·α·β")) == {"α": 1, "β": 2}
    assert cm.render(cm.parse("β·α·β")) == "α·β·β"


# -- partial values and rows --------------------------------------------------


def test_bottom_absorbs(monoid):
    x = monoid.unit()
    assert mul_partial(monoid, None, x) is None
    assert mul_partial(monoid, x, None) is None
    assert left_divide_partial(monoid, x, None) is None
    assert left_divide_partial(monoid, None, None) is None
    with pytest.raises(NotDivisible):
        left_divide_partial(monoid, None, x)
    assert lgcd_family(monoid, (None, None)) is None


def test_lgcd_family_examples():
    free = MONOIDS["free"]
    p = free.parse
    assert lgcd_family(free, (p("α·β·α"), p("α·β·β"), None)) == p("α·β")
    cm = MONOIDS["commutative"]
    assert lgcd_family(cm, (cm.parse("α·α·β"), cm.parse("α·β·β·β"))) == cm.parse("α·β")
    trace = MONOIDS["trace"]
    assert lgcd_family(trace, (trace.parse("α·β·γ"), trace.parse("β·α·α"))) == trace.parse("α·β")
    assert lgcd_family(CyclicGroup(3), (None, 2, 1)) == 2


def test_red_row_examples():
    free = MONOIDS["free"]
    p = free.parse
    assert red_row(free, (p("α·β·α"), p("α·β·β"))) == (p("α"), p("β"))
    assert red_row(free, (None, None)) == (None, None)
    assert red_row(CyclicGroup(3), (1, 2)) == (0, 1)


# -- algebraic law suite -------------------------------------------------------


def random_row(monoid, rng, width=4):
    row = tuple(
        random_element(monoid, rng) if rng.random() < 0.7 else None for _ in range(width)
    )
    if all(v is None for v in row):
        return row[:-1] + (random_element(monoid, rng),)
    return row


def scaled(monoid, u, row):
    return tuple(None if v is None else monoid.mul(u, v) for v in row)


CASES = 200


def test_law_associativity_and_unit(monoid):
    rng = random.Random(101)
    e = monoid.unit()
    for _ in range(CASES):
        x, y, z = (random_element(monoid, rng) for _ in range(3))
        for a, b, c in ((x, y, z), (e, y, z), (x, e, z), (x, y, e), (e, e, e)):
            assert monoid.mul(a, monoid.mul(b, c)) == monoid.mul(monoid.mul(a, b), c)
        assert monoid.canonical(monoid.mul(x, y)) == monoid.mul(x, y)  # canonical out
        assert monoid.mul(monoid.unit(), x) == x
        assert monoid.mul(x, monoid.unit()) == x


def test_law_factorization_soundness(monoid):
    rng = random.Random(102)
    for _ in range(CASES):
        row = random_row(monoid, rng)
        g = lgcd_family(monoid, row)
        reduced = red_row(monoid, row)
        assert tuple(mul_partial(monoid, g, v) for v in reduced) == row


def test_law_lgcd_equivariance(monoid):
    rng = random.Random(103)
    for _ in range(CASES):
        row = random_row(monoid, rng)
        u = random_element(monoid, rng)
        assert lgcd_family(monoid, scaled(monoid, u, row)) == monoid.mul(
            u, lgcd_family(monoid, row)
        )


def test_law_red_invariance(monoid):
    rng = random.Random(104)
    for _ in range(CASES):
        row = random_row(monoid, rng)
        u = random_element(monoid, rng)
        assert red_row(monoid, scaled(monoid, u, row)) == red_row(monoid, row)


def test_law_red_idempotence(monoid):
    rng = random.Random(105)
    for _ in range(CASES):
        row = random_row(monoid, rng)
        reduced = red_row(monoid, row)
        assert red_row(monoid, reduced) == reduced
        assert monoid.is_invertible(lgcd_family(monoid, reduced))


def test_law_divide_round_trip(monoid):
    rng = random.Random(106)
    e = monoid.unit()
    for _ in range(CASES):
        d = random_element(monoid, rng)
        x = random_element(monoid, rng)
        for a, b in ((d, x), (e, x), (d, e), (e, e)):
            assert monoid.left_divide(a, monoid.mul(a, b)) == b


def test_law_lgcd_divides(monoid):
    rng = random.Random(107)
    for _ in range(CASES):
        row = random_row(monoid, rng)
        g = lgcd_family(monoid, row)
        for v in row:
            if v is not None:
                assert monoid.divides(g, v)


def test_law_rank_additivity(monoid):
    rng = random.Random(108)
    for _ in range(CASES):
        x = random_element(monoid, rng)
        y = random_element(monoid, rng)
        total = monoid.rank(monoid.mul(x, y))
        assert total <= monoid.rank(x) + monoid.rank(y)
        if not isinstance(monoid, CyclicGroup):
            assert total == monoid.rank(x) + monoid.rank(y)


# -- the paper's conditions, exhaustively in small scope ------------------------------

#: Every element of rank at most this is checked (every residue for the cyclic group).
SMALL_RANK = 3


def test_small_scope_lgcd_is_the_greatest_common_left_divisor(monoid):
    elements = elements_up_to(monoid, SMALL_RANK)
    divisors = {x: set(left_divisors(monoid, x)) for x in elements}
    for x in elements:
        for y in elements:
            g = monoid.lgcd2(x, y)
            common = divisors[x] & divisors[y]
            assert g in common, (x, y, g)
            assert common <= set(left_divisors(monoid, g)), (x, y, g)


def test_small_scope_division_agrees_with_enumeration(monoid):
    elements = elements_up_to(monoid, SMALL_RANK)
    for x in elements:
        divisors = left_divisors(monoid, x)
        for d in elements:
            assert monoid.divides(d, x) == (d in divisors), (d, x)
            if d in divisors:
                v = monoid.left_divide(d, x)
                assert v in elements and monoid.mul(d, v) == x, (d, x, v)
            else:
                with pytest.raises(NotDivisible):
                    monoid.left_divide(d, x)


def test_small_scope_left_cancellation_and_ranks(monoid):
    elements = elements_up_to(monoid, SMALL_RANK)
    assert len(set(elements)) == len(elements)
    for x in elements:
        assert monoid.rank(x) <= SMALL_RANK and (monoid.rank(x) == 0) == monoid.is_invertible(x)
    for d in elements:
        first = {}
        for x in elements:
            dx = monoid.mul(d, x)
            assert first.setdefault(dx, x) == x, (d, x)  # d·x = d·y only for x = y
            assert monoid.rank(dx) == monoid.rank(d) + monoid.rank(x), (d, x)


# -- hypothesis spot checks ----------------------------------------------------

trace_m = MONOIDS["trace"]
trace_word = st.lists(st.sampled_from(trace_m.generators), max_size=6).map(
    lambda w: trace_m.canonical(tuple(w))
)


@settings(max_examples=200, deadline=None)
@given(trace_word, trace_word)
def test_trace_lgcd_matches_brute_force(x, y):
    assert trace_m.lgcd2(x, y) == brute_trace_lgcd(trace_m, x, y)


@settings(max_examples=200, deadline=None)
@given(trace_word, trace_word)
def test_trace_division_inverts_product(x, y):
    assert trace_m.left_divide(x, trace_m.mul(x, y)) == y


@settings(max_examples=200, deadline=None)
@given(trace_word, trace_word, trace_word)
def test_trace_associativity(x, y, z):
    assert trace_m.mul(x, trace_m.mul(y, z)) == trace_m.mul(trace_m.mul(x, y), z)
