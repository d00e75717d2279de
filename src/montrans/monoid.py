"""Output monoids: canonical element forms and the left-divisibility algebra.

Five monoid families are provided, all right-noetherian so that the fixpoint
computations elsewhere in the package terminate:

* ``FreeMonoid`` -- words over named generators, product is concatenation,
  binary left-gcd is the longest common prefix;
* ``TraceMonoid`` -- a free monoid where declared generator pairs commute;
  elements are kept in lexicographic normal form;
* ``CommutativeMonoid`` -- finite multisets of generators;
* ``NatAddMonoid`` -- natural numbers under addition;
* ``CyclicGroup`` -- integers modulo a fixed modulus (everything invertible).

Partial values model the undefined output ``⊥`` as ``None``: it absorbs
multiplication and left-gcds, and ``left_divide(d, None) is None``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .errors import (
    MalformedElement,
    NotDivisible,
    SchemaError,
    UnknownGenerator,
)

#: A canonical monoid element.  The payload shape depends on the monoid kind:
#: generator tuples for free/trace monoids, ``((gen, count), ...)`` pairs for
#: commutative monoids and plain ints for nat-add / cyclic groups.
Element = Any

#: A possibly-undefined value; ``None`` is the bottom element ``⊥``.
PartialValue = Optional[Element]

#: A row of partial values; the owner of the row keeps the key list.
PartialRow = tuple  # tuple[PartialValue, ...]

UNIT_TEXT = "ε"
BOTTOM_TEXT = "⊥"
SEP = "·"


def _split_letters(text: str, letters: Iterable[str]) -> list[str]:
    """``text`` split on ``·``, or into characters when every one of
    ``letters`` is a single character; otherwise ``[text]``."""
    if SEP in text:
        return text.split(SEP)
    if all(len(g) == 1 for g in letters):
        return list(text)
    return [text]


def _wire(value):
    """JSON form of a field: tuples become lists, frozen sets sorted lists."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, frozenset):
        return sorted(map(_wire, value))
    return value


def _check_generators(generators: Sequence[str]) -> tuple[str, ...]:
    gens = tuple(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    seen = set()
    for g in gens:
        if not isinstance(g, str) or not g:
            raise ValueError(f"generator names must be non-empty strings, got {g!r}")
        if g in (UNIT_TEXT, BOTTOM_TEXT) or SEP in g:
            raise ValueError(f"reserved or separator-bearing generator name: {g!r}")
        if g in seen:
            raise ValueError(f"duplicate generator name: {g!r}")
        seen.add(g)
    return gens


class Monoid:
    """Interface shared by all output monoids.

    Elements are immutable hashable payloads; two elements are equal in the
    monoid if and only if their payloads compare equal.  Subclasses must keep
    every operation canonical-in, canonical-out.
    """

    kind: str = "?"
    #: Wire fields besides ``kind``, in constructor order; each names an attribute.
    fields: tuple[str, ...] = ()

    # -- core algebra ------------------------------------------------------

    def unit(self) -> Element:
        raise NotImplementedError

    def mul(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def lgcd2(self, x: Element, y: Element) -> Element:
        """Canonical binary left-gcd (folded over rows by :func:`lgcd_family`)."""
        raise NotImplementedError

    def left_divide(self, d: Element, x: Element) -> Element:
        """The canonical ``v`` with ``d * v == x``; raises :class:`NotDivisible`."""
        raise NotImplementedError

    def divides(self, d: Element, x: Element) -> bool:
        try:
            self.left_divide(d, x)
            return True
        except NotDivisible:
            return False

    def is_invertible(self, x: Element) -> bool:
        # Trace-like monoids have no non-trivial invertibles; groups override.
        return x == self.unit()

    def rank(self, x: Element) -> int:
        """Number of non-invertible factors in a maximal decomposition of ``x``."""
        raise NotImplementedError

    # -- canonical forms and text -----------------------------------------

    def canonical(self, payload) -> Element:
        """Canonicalize a raw payload, raising :class:`MalformedElement`."""
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        raise NotImplementedError

    def render(self, x: Element) -> str:
        raise NotImplementedError

    # -- wire form ---------------------------------------------------------

    def encode(self, x: Element):
        """JSON-compatible wire value of ``x``."""
        raise NotImplementedError

    def decode(self, value) -> Element:
        """Decode (and canonicalize) a wire value."""
        raise NotImplementedError

    def to_wire(self) -> dict:
        return {"kind": self.kind, **{f: _wire(getattr(self, f)) for f in self.fields}}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Monoid)
            and (self.kind, self.fields) == (other.kind, other.fields)
            and all(getattr(self, f) == getattr(other, f) for f in self.fields)
        )

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_wire()})"


class _GeneratedMonoid(Monoid):
    """Shared plumbing for monoids presented by named generators."""

    fields = ("generators",)

    def __init__(self, generators: Sequence[str]):
        self.generators = _check_generators(generators)
        self._index = {g: i for i, g in enumerate(self.generators)}

    def _check_letter(self, g: str) -> str:
        if g not in self._index:
            raise UnknownGenerator(f"unknown generator {g!r} (declared: {', '.join(self.generators)})")
        return g

    def _split(self, text: str) -> list[str]:
        if text in ("", UNIT_TEXT):
            return []
        parts = _split_letters(text, self.generators)
        if any(not p for p in parts):
            raise MalformedElement(f"malformed element text: {text!r}")
        return [self._check_letter(p) for p in parts]


class _WordMonoid(_GeneratedMonoid):
    """Monoids whose canonical elements are generator tuples (free and trace)."""

    def unit(self) -> Element:
        return ()

    def rank(self, x: Element) -> int:
        return len(x)

    def parse(self, text: str) -> Element:
        return self.canonical(tuple(self._split(text)))

    def render(self, x: Element) -> str:
        return SEP.join(x) if x else UNIT_TEXT

    def encode(self, x: Element):
        return list(x)

    def canonical(self, payload):
        word = tuple(payload)
        for g in word:
            self._check_letter(g)
        return word

    def decode(self, value) -> Element:
        if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
            raise MalformedElement(f"expected an array of generator names, got {value!r}")
        return self.canonical(value)


class FreeMonoid(_WordMonoid):
    kind = "free"

    def mul(self, x, y):
        return x + y

    def lgcd2(self, x, y):
        n = 0
        for a, b in zip(x, y):
            if a != b:
                break
            n += 1
        return x[:n]

    def left_divide(self, d, x):
        if x[: len(d)] != d:
            raise NotDivisible(f"{self.render(d)} does not left-divide {self.render(x)}")
        return x[len(d) :]


class TraceMonoid(_WordMonoid):
    """Free monoid with selected commuting generator pairs.

    Canonical form is the lexicographic normal form for the declared generator
    order: repeatedly emit the least generator that is minimal in the
    dependence order of the remaining trace.
    """

    kind = "trace"
    fields = ("generators", "commutations")

    def __init__(self, generators: Sequence[str], commutations: Iterable[tuple[str, str]]):
        super().__init__(generators)
        pairs = set()
        for a, b in commutations:
            for g in (a, b):
                if g not in self._index:
                    raise ValueError(f"commutation references undeclared generator {g!r}")
            if a == b:
                raise ValueError(f"a generator cannot commute with itself: {a!r}")
            pairs.add(frozenset((a, b)))
        self.commutations = frozenset(pairs)
        #: Each generator mapped to the generators that commute with it.
        self._commuting = {
            g: frozenset(h for pair in pairs if g in pair for h in pair if h != g)
            for g in self.generators
        }

    def independent(self, a: str, b: str) -> bool:
        return b in self._commuting.get(a, ())

    def _normalize(self, seq: Sequence[str], word: Sequence[str] = ()) -> tuple[str, ...]:
        """Lexicographic normal form of ``word·seq``, where ``word`` is normal:
        each letter ``c`` of ``seq`` goes just before the first letter larger
        than ``c`` in the longest suffix of letters commuting with ``c``, or at
        the end.  No factor ``b·u·a`` with ``a < b`` and ``a`` commuting with
        ``b·u`` (Anisimov-Knuth) can then end at ``c``; one starting at ``c``
        or passing over it would already be a factor of the word before."""
        out, index = list(word), self._index
        for c in seq:
            commuting, rank = self._commuting[c], index[c]
            i = at = len(out)
            while i and out[i - 1] in commuting:
                i -= 1
                if index[out[i]] > rank:
                    at = i
            out.insert(at, c)
        return tuple(out)

    def _peel(self, x, y) -> tuple[tuple[str, ...], list[str], list[str]]:
        """``(g, x', y')`` with ``g = lgcd(x, y)``, ``x = g·x'`` and ``y = g·y'``;
        the rests are words of their traces, not necessarily normal.

        One pass over ``x``: a letter joins ``g`` when it commutes with every
        letter left in ``x'`` and can be brought to the front of ``y'``, that
        is, ``ry.index`` finds its first occurrence in ``y'`` and every letter
        before it is in the letter's commuting set; that occurrence leaves
        ``y'``.  A letter left behind never could later: its blocker in ``x'``
        stays, and one in ``y'`` depends on it and follows it in ``x``, so
        stays too.  ``g`` is a downward-closed subsequence of the normal word
        ``x``, so it is normal."""
        # lgcd(p·x, p·y) = p·lgcd(x, y), p the common word prefix.
        n = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))
        out, rx, ry, left = list(x[:n]), [], list(y[n:]), set()
        for c in x[n:]:
            commuting = self._commuting[c]
            j = ry.index(c) if left <= commuting and c in ry else None
            if j is None or not commuting.issuperset(ry[:j]):
                rx.append(c)
                left.add(c)
            else:
                out.append(c)
                del ry[j]
        return tuple(out), rx, ry

    def mul(self, x, y):
        return self._normalize(y, x) if x else y

    def lgcd2(self, x, y):
        return self._peel(x, y)[0]

    def left_divide(self, d, x):
        # Every factor of a normal word is normal, so when ``d`` is a word
        # prefix of ``x`` (the unit always is) the rest of ``x`` is the quotient.
        if x[: len(d)] == d:
            return x[len(d) :]
        _, rest_d, rest_x = self._peel(d, x)
        if rest_d:
            raise NotDivisible(f"{self.render(d)} does not left-divide {self.render(x)}")
        return self._normalize(rest_x)

    def canonical(self, payload):
        return self._normalize(super().canonical(payload))


class CommutativeMonoid(_GeneratedMonoid):
    """Free commutative monoid; elements are ``((gen, count), ...)`` tuples
    with positive counts, ordered by generator declaration."""

    kind = "commutative"

    def unit(self) -> Element:
        return ()

    def mul(self, x, y):
        # Merge the two tuples, both ordered by generator declaration.
        if not x or not y:
            return x or y
        index, out, i, j = self._index, [], 0, 0
        while i < len(x) and j < len(y):
            (g, n), (h, k) = x[i], y[j]
            if g == h:
                out.append((g, n + k))
                i, j = i + 1, j + 1
            elif index[g] < index[h]:
                out.append(x[i])
                i += 1
            else:
                out.append(y[j])
                j += 1
        return (*out, *x[i:], *y[j:])

    def lgcd2(self, x, y):
        dy = dict(y)
        return tuple((g, min(n, dy[g])) for g, n in x if g in dy)

    def left_divide(self, d, x):
        if not d:
            return x
        # A shortfall, or a generator of d that x lacks, stays in ``taken``.
        taken = dict(d)
        out = []
        for g, n in x:
            n -= taken.pop(g, 0)
            if n > 0:
                out.append((g, n))
            elif n < 0:
                taken[g] = -n
        if taken:
            raise NotDivisible(f"{self.render(d)} does not left-divide {self.render(x)}")
        return tuple(out)

    def rank(self, x):
        return sum(n for _, n in x)

    def canonical(self, payload):
        counts: dict[str, int] = {}
        for g, n in tuple(payload):
            self._check_letter(g)
            if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
                raise MalformedElement(f"counts must be positive integers, got {n!r} for {g!r}")
            counts[g] = counts.get(g, 0) + n
        return tuple([(g, counts[g]) for g in self.generators if counts.get(g)])

    def parse(self, text: str) -> Element:
        return self.canonical((g, 1) for g in self._split(text))

    def render(self, x: Element) -> str:
        letters = [g for g, n in x for _ in range(n)]
        return SEP.join(letters) if letters else UNIT_TEXT

    def encode(self, x: Element):
        return {g: n for g, n in sorted(x)}

    def decode(self, value) -> Element:
        if not isinstance(value, dict):
            raise MalformedElement(f"expected an object of generator counts, got {value!r}")
        return self.canonical(value.items())


class _NumberMonoid(Monoid):
    """Text and wire forms of the integer monoids; ``noun`` names an element in errors."""

    def unit(self):
        return 0

    def parse(self, text: str):
        if text == UNIT_TEXT:
            return 0
        try:
            return self.canonical(int(text))
        except (ValueError, MalformedElement):
            raise MalformedElement(f"malformed {self.noun}: {text!r}") from None

    def render(self, x):
        return str(x)

    def encode(self, x):
        return x

    def decode(self, value):
        return self.canonical(value)


class NatAddMonoid(_NumberMonoid):
    """Natural numbers under addition."""

    kind = "nat-add"
    noun = "natural number"

    def mul(self, x, y):
        return x + y

    def lgcd2(self, x, y):
        return min(x, y)

    def left_divide(self, d, x):
        if d > x:
            raise NotDivisible(f"{d} does not left-divide {x}")
        return x - d

    def rank(self, x):
        return x

    def canonical(self, payload):
        if not isinstance(payload, int) or isinstance(payload, bool) or payload < 0:
            raise MalformedElement(f"expected a natural number, got {payload!r}")
        return payload


class CyclicGroup(_NumberMonoid):
    """Integers modulo ``modulus`` under addition; every element invertible."""

    kind = "cyclic-group"
    fields = ("modulus",)
    noun = "residue"

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {modulus!r}")
        self.modulus = modulus

    def mul(self, x, y):
        return (x + y) % self.modulus

    def lgcd2(self, x, y):
        # Any element is a left-gcd in a group; the first entry is the
        # canonical choice, which makes the family fold pick the first
        # defined value and keeps lgcd(u·row) = u + lgcd(row).
        return x

    def left_divide(self, d, x):
        return (x - d) % self.modulus

    def is_invertible(self, x):
        return True

    def rank(self, x):
        return 0

    def canonical(self, payload):
        if not isinstance(payload, int) or isinstance(payload, bool):
            raise MalformedElement(f"expected an integer residue, got {payload!r}")
        return payload % self.modulus


#: Each monoid kind with its class.
CLASSES = {cls.kind: cls for cls in (FreeMonoid, TraceMonoid, CommutativeMonoid, NatAddMonoid, CyclicGroup)}
KINDS = tuple(CLASSES)


def make_monoid(
    kind: str,
    generators: Sequence[str] = (),
    commutations: Iterable[tuple[str, str]] = (),
    modulus: Optional[int] = None,
) -> Monoid:
    """Construct a monoid instance from its description."""
    if kind not in KINDS:  # a tuple test, as a malformed kind may be unhashable
        raise ValueError(f"unknown monoid kind {kind!r} (expected one of {', '.join(KINDS)})")
    if kind == "cyclic-group" and modulus is None:
        raise ValueError("cyclic-group requires a modulus")
    given = {"generators": generators, "commutations": commutations, "modulus": modulus}
    cls = CLASSES[kind]
    return cls(*(given[f] for f in cls.fields))


def monoid_from_wire(doc, path: str = "monoid") -> Monoid:
    """Decode a monoid description, reporting failures as :class:`SchemaError`."""
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {doc!r}")
    kind = doc.get("kind")
    if kind not in KINDS:  # a tuple test, as a malformed kind may be unhashable
        raise SchemaError(f"{path}.kind", f"unknown monoid kind {kind!r}")
    for key in doc:
        if key != "kind" and key not in CLASSES[kind].fields:
            raise SchemaError(f"{path}.{key}", f"unexpected field for kind {kind!r}")
    # A field the kind does not take is absent here, so its default passes.
    generators = doc.get("generators", [])
    if not isinstance(generators, list):
        raise SchemaError(f"{path}.generators", f"expected a list of names, got {generators!r}")
    pairs = doc.get("commutations", [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(g, str) for g in p) for p in pairs
    ):
        raise SchemaError(f"{path}.commutations", "expected a list of generator pairs")
    try:
        return make_monoid(kind, generators, [tuple(p) for p in pairs], doc.get("modulus"))
    except (ValueError, UnknownGenerator) as exc:
        raise SchemaError(path, str(exc)) from None


# -- partial (⊥-aware) operations ------------------------------------------


def mul_partial(monoid: Monoid, x: PartialValue, y: PartialValue) -> PartialValue:
    """Product extended to partial values; ``⊥`` absorbs on both sides."""
    if x is None or y is None:
        return None
    return monoid.mul(x, y)


def left_divide_partial(monoid: Monoid, d: PartialValue, x: PartialValue) -> PartialValue:
    """Left division on partial values: ``left_divide(d, ⊥) = ⊥``."""
    if x is None:
        return None
    if d is None:
        raise NotDivisible("⊥ does not left-divide a defined value")
    return monoid.left_divide(d, x)


def render_partial(monoid: Monoid, x: PartialValue) -> str:
    return BOTTOM_TEXT if x is None else monoid.render(x)


def lgcd_family(monoid: Monoid, row: Sequence[PartialValue]) -> PartialValue:
    """Canonical left-gcd of the defined entries, folded in index order.

    Returns ``⊥`` exactly when the row is nowhere defined.
    """
    acc: PartialValue = None
    for v in row:
        if v is None:
            continue
        acc = v if acc is None else monoid.lgcd2(acc, v)
    return acc


def red_row(monoid: Monoid, row: Sequence[PartialValue]) -> PartialRow:
    """Divide the family left-gcd out of every entry.

    Nowhere-defined rows map to themselves; the result always has an
    invertible family left-gcd.
    """
    g = lgcd_family(monoid, row)
    if g is None:
        return tuple(row)
    return tuple(None if v is None else monoid.left_divide(g, v) for v in row)
