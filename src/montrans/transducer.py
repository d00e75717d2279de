"""Deterministic transducers with monoid outputs: evaluation, reachability,
JSON serialization and DOT export.

Partiality is encoded by absence: the initial pair is optional, transitions
may be missing, and termination values may be ``None`` (the undefined ``⊥``).
Each letter ``step``s a configuration ``(value, state)`` along a transition
(only alphabet letters have one), and its ``value`` is ``value · term(state)``.

``Transducer(...)`` checks every field.  Machines built inside the library
from parts already known to be valid and canonical (hypotheses, minimization
stages, documents ``deserialize`` has checked) skip those checks.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Optional

from .errors import SchemaError, UnknownLetter
from .monoid import (
    Element,
    Monoid,
    PartialValue,
    SEP,
    _split_letters,
    monoid_from_wire,
    mul_partial,
    render_partial,
)

#: Input words are tuples of alphabet letters; the empty tuple is the empty word.
Word = tuple  # tuple[str, ...]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Transducer:
    """An immutable deterministic transducer.

    `termination` has one entry per state (``None`` meaning undefined) and
    `transitions` maps ``(state, letter)`` to an ``(output, target)`` pair.
    State order is declaration order and is used wherever a deterministic
    scan matters.
    """

    monoid: Monoid
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: Optional[tuple[Element, str]]
    termination: dict[str, PartialValue] = field(default_factory=dict)
    transitions: dict[tuple[str, str], tuple[Element, str]] = field(default_factory=dict)

    def __post_init__(self):
        fault = _structural_fault(self.alphabet, self.states, self.initial, self.termination, self.transitions)
        if fault is not None:
            raise ValueError(f"{fault[0]}: {fault[1]}")
        canonical = self.monoid.canonical
        if self.initial is not None and canonical(self.initial[0]) != self.initial[0]:
            raise ValueError("initial.value: non-canonical element")
        for s, v in self.termination.items():
            if v is not None and canonical(v) != v:
                raise ValueError(f"termination.{s}: non-canonical element")
        for i, (out, _) in enumerate(self.transitions.values()):
            if canonical(out) != out:
                raise ValueError(f"transitions[{i}].output: non-canonical element")
        object.__setattr__(self, "termination", {s: self.termination.get(s) for s in self.states})

    # -- evaluation --------------------------------------------------------

    def step(self, config, letter):
        """The configuration one ``letter`` after ``config`` (``None`` once undefined)."""
        nxt = None if config is None else self.transitions.get((config[1], letter))
        return None if nxt is None else (self.monoid.mul(config[0], nxt[0]), nxt[1])

    def value(self, config) -> PartialValue:
        """The value of a word that leads to ``config``: ``value · term(state)``."""
        if config is None:
            return None
        return mul_partial(self.monoid, config[0], self.termination[config[1]])

    def eval(self, word: Word) -> PartialValue:
        """Value on ``word`` (``None`` for ``⊥``): the fold of :meth:`step`, then :meth:`value`."""
        step, config = self.step, self.initial
        for a in word:
            config = step(config, a)
            if config is None:
                break
        if config is None:
            for a in word:
                if a not in self.alphabet:
                    raise UnknownLetter(f"letter {a!r} is not in the alphabet {list(self.alphabet)}")
        return self.value(config)

    # -- structure ---------------------------------------------------------

    def _closure(self, seeds, edges) -> list[str]:
        """States reached from ``seeds`` along ``(from, to)`` pairs, in declaration order."""
        successors: dict[str, list[str]] = {}
        for s, target in edges:
            successors.setdefault(s, []).append(target)
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            for target in successors.get(frontier.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return [s for s in self.states if s in seen]

    def reachable_states(self) -> list[str]:
        """Forward closure from the initial state, in declaration order."""
        seeds = () if self.initial is None else (self.initial[1],)
        return self._closure(seeds, ((s, target) for (s, _), (_, target) in self.transitions.items()))

    def productive_states(self) -> list[str]:
        """Backward closure from states with defined termination, in declaration order."""
        seeds = [s for s in self.states if self.termination[s] is not None]
        return self._closure(seeds, ((target, s) for (s, _), (_, target) in self.transitions.items()))

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        m = self.monoid
        steps = self.transitions
        transitions = [
            {"from": s, "letter": a, "output": m.encode(steps[s, a][0]), "to": steps[s, a][1]}
            for s in self.states
            for a in self.alphabet
            if (s, a) in steps
        ]
        return {
            "format_version": FORMAT_VERSION,
            "monoid": m.to_wire(),
            "alphabet": list(self.alphabet),
            "states": list(self.states),
            "initial": None
            if self.initial is None
            else {"value": m.encode(self.initial[0]), "state": self.initial[1]},
            "termination": {s: None if v is None else m.encode(v) for s, v in self.termination.items()},
            "transitions": transitions,
        }

    def serialize(self) -> str:
        """Canonical JSON text; round-trips byte-identically."""
        return _json_text(self.to_doc()) + "\n"

    def to_dot(self) -> str:
        """Deterministic Graphviz digraph of the machine.

        Termination values appear in node labels (``⊥`` omitted), edges carry
        ``letter / output`` and the initial state gets an entry arrow labeled
        with the initial value, from a point node ``__start__`` (wrapped in
        ``_…_`` until no state has that id).
        """
        m = self.monoid
        lines = ["digraph transducer {", "  rankdir=LR;", '  node [shape=circle];']
        for s in self.states:
            t = self.termination[s]
            label = s if t is None else f"{s} / {m.render(t)}"
            shape = "" if t is None else ", shape=doublecircle"
            lines.append(f"  {_dot_quote(s)} [label={_dot_quote(label)}{shape}];")
        if self.initial is not None:
            value, s0 = self.initial
            entry = "__start__"
            while entry in self.states:
                entry = f"_{entry}_"
            lines.append(f'  {_dot_quote(entry)} [shape=point, label=""];')
            lines.append(f"  {_dot_quote(entry)} -> {_dot_quote(s0)} [label={_dot_quote(m.render(value))}];")
        for s in self.states:
            for a in self.alphabet:
                step = self.transitions.get((s, a))
                if step is not None:
                    out, target = step
                    label = _dot_quote(f"{a} / {m.render(out)}")
                    lines.append(f"  {_dot_quote(s)} -> {_dot_quote(target)} [label={label}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def render_value(self, value: PartialValue) -> str:
        return render_partial(self.monoid, value)

    def __repr__(self):
        return f"Transducer({len(self.states)} states, {self.monoid.kind})"


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for trees of dicts
    with string keys, lists, tuples, strings, ints, bools and ``None``.

    The stdlib runs its pure-Python encoder whenever ``indent`` is set; here
    only the layout is Python.  Strings are encoded by ``json``'s C
    ``encode_basestring``, ints by ``int.__repr__`` as ``json`` does, and
    other scalars by compact ``json.dumps``.  ``indent`` is the line break
    and indentation of the line that ``value`` starts on.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _dot_quote(text: str) -> str:
    """``text`` as a double-quoted Graphviz id, with ``"`` and ``\\`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _structural_fault(alphabet, states, initial, termination, transitions) -> Optional[tuple[str, str]]:
    """The first structural rule the parts of a machine break, as ``(path,
    message)`` with ``path`` in document form, or ``None``.  ``Transducer``
    and ``deserialize`` both check structure here only.  ``initial`` and the
    values of ``transitions`` are pairs that end in a state."""
    for i, a in enumerate(alphabet):
        if not isinstance(a, str) or not a:
            return f"alphabet[{i}]", "letters must be non-empty strings"
        if SEP in a:
            return f"alphabet[{i}]", f"letters must not contain {SEP!r}"
    letters = set(alphabet)
    if len(letters) != len(alphabet):
        return "alphabet", "duplicate letters"
    for i, s in enumerate(states):
        if not isinstance(s, str) or not s:
            return f"states[{i}]", "state ids must be non-empty strings"
    state_set = set(states)
    if len(state_set) != len(states):
        return "states", "duplicate state ids"
    if initial is not None and initial[1] not in state_set:
        return "initial.state", f"unknown state {initial[1]!r}"
    for s in termination:
        if s not in state_set:
            return f"termination.{s}", f"unknown state {s!r}"
    for i, ((s, a), (_, target)) in enumerate(transitions.items()):
        if s not in state_set:
            return f"transitions[{i}].from", f"unknown state {s!r}"
        if a not in letters:
            return f"transitions[{i}].letter", f"unknown letter {a!r}"
        if target not in state_set:
            return f"transitions[{i}].to", f"unknown state {target!r}"
    return None


def _assemble(monoid, alphabet, states, initial, termination, transitions) -> Transducer:
    """``Transducer(...)`` without its checks, for valid canonical parts;
    ``termination`` is still completed to one entry per state."""
    machine = object.__new__(Transducer)
    termination = {s: termination.get(s) for s in states}
    machine.__dict__.update(
        monoid=monoid, alphabet=alphabet, states=states, initial=initial, termination=termination, transitions=transitions
    )
    return machine


def _expect(doc: dict, key: str, kind, path: str):
    try:
        value = doc[key]
    except KeyError:
        raise SchemaError(f"{path}.{key}", "missing field") from None
    # JSON booleans load as ``bool``, a subclass of ``int``.
    if kind is not None and (type(value) is bool or not isinstance(value, kind)):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _decode_element(monoid: Monoid, value, path: str) -> Element:
    try:
        element = monoid.decode(value)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None
    if monoid.encode(element) != value:
        warnings.warn(f"{path}: non-canonical element canonicalized", stacklevel=2)
    return element


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that rejects a key repeated in one JSON object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise SchemaError("$", f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def deserialize(text: str) -> Transducer:
    """Parse and validate a machine document; raises :class:`SchemaError`."""
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # RecursionError, nesting deeper than the recursion limit.
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    version = _expect(doc, "format_version", int, "$")
    if version != FORMAT_VERSION:
        raise SchemaError("$.format_version", f"unsupported version {version}")
    monoid = monoid_from_wire(_expect(doc, "monoid", dict, "$"), "$.monoid")
    alphabet = _expect(doc, "alphabet", list, "$")
    states = _expect(doc, "states", list, "$")
    initial = _expect(doc, "initial", None, "$")
    if initial is not None:
        if not isinstance(initial, dict):
            raise SchemaError("$.initial", "expected null or {value, state}")
        initial = (_expect(initial, "value", None, "$.initial"), _expect(initial, "state", str, "$.initial"))
    termination = _expect(doc, "termination", dict, "$")
    transitions = {}
    for i, entry in enumerate(_expect(doc, "transitions", list, "$")):
        path = f"$.transitions[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        key = (_expect(entry, "from", str, path), _expect(entry, "letter", str, path))
        if key in transitions:
            raise SchemaError(f"{path}.letter", f"duplicate transition on {key!r}")
        transitions[key] = (_expect(entry, "output", None, path), _expect(entry, "to", str, path))
    fault = _structural_fault(alphabet, states, initial, termination, transitions)
    if fault is not None:
        raise SchemaError("$." + fault[0], fault[1])
    # Every field is checked now, and ``decode`` canonicalizes each value.
    if initial is not None:
        initial = (_decode_element(monoid, initial[0], "$.initial.value"), initial[1])
    for s, v in termination.items():
        if v is not None:
            termination[s] = _decode_element(monoid, v, f"$.termination.{s}")
    for i, (key, (out, target)) in enumerate(transitions.items()):
        transitions[key] = (_decode_element(monoid, out, f"$.transitions[{i}].output"), target)
    return _assemble(monoid, tuple(alphabet), tuple(states), initial, termination, transitions)


def parse_word(alphabet: tuple[str, ...], text: str) -> Word:
    """Parse an input word: a single letter, letters joined by ``·``, or a
    bare string when all alphabet letters are single characters.
    ``e``/``ε``/empty denote the empty word unless they are themselves
    letters."""
    if text == "" or (text in ("e", "ε") and text not in alphabet):
        return ()
    if text in alphabet:
        return (text,)
    word = tuple(_split_letters(text, alphabet))
    for a in word:
        if a not in alphabet:
            raise UnknownLetter(f"letter {a!r} is not in the alphabet {list(alphabet)}")
    return word


def render_word(word: Word, alphabet: tuple[str, ...] = ()) -> str:
    """Render an input word so that ``parse_word(alphabet, ·)`` reads it back:
    bare when the word's and the alphabet's letters are all single characters,
    joined by ``·`` otherwise.  The empty word is ``e``, or ``ε`` when ``e`` is
    a letter, or the empty string when ``ε`` is a letter too."""
    if not word:
        return next((text for text in ("e", "ε") if text not in alphabet), "")
    if all(len(a) == 1 for a in (*word, *alphabet)):
        return "".join(word)
    return "·".join(word)
