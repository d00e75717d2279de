"""Machine model: evaluation, reachability, serialization, DOT export."""

from __future__ import annotations

import copy
import importlib
import json
import random
import re
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import montrans.learner
import montrans.transducer
from montrans import (
    SchemaError,
    Transducer,
    UnknownLetter,
    check_minimal,
    deserialize,
    minimize,
    mul_partial,
    parse_word,
    render_word,
)

from montrans.cli import main

from helpers import DATA, beta_loop, chain, draws, learned, load_machine, state_eval, words_up_to
from workloads import random_element, random_machine, standard_monoids


@pytest.fixture
def machine():
    return beta_loop("free")


def test_eval_examples(machine):
    p = machine.monoid.parse
    assert machine.eval(("b", "b")) == p("β·β·α")
    assert machine.eval(("a",)) is None
    assert machine.eval(()) == p("α")
    assert machine.render_value(machine.eval(("b", "b"))) == "β·β·α"
    assert machine.render_value(machine.eval(("a",))) == "⊥"


def test_eval_unknown_letter(machine):
    with pytest.raises(UnknownLetter):
        machine.eval(("z",))
    with pytest.raises(UnknownLetter):
        machine.eval(("a", "z"))  # even though the machine dies after a
    with pytest.raises(UnknownLetter):
        machine.eval(("b", "z"))  # after a defined prefix
    no_initial = replace(machine, initial=None)
    assert no_initial.eval(("b",)) is None
    with pytest.raises(UnknownLetter):
        no_initial.eval(("b", "z"))
    assert machine.step(None, "b") is None
    assert machine.value(None) is None
    assert machine.value(machine.initial) == machine.eval(())


def test_state_eval(machine):
    p = machine.monoid.parse
    assert state_eval(machine, "3", ("b",)) == p("β·α")
    for s in machine.states:
        assert state_eval(machine, s, ()) == machine.termination[s]
    assert state_eval(machine, "4", ("b",)) is None
    assert state_eval(machine, "4", ()) == p("ε")
    with pytest.raises(ValueError):
        state_eval(machine, "9", ())


def test_reachable_states(machine):
    assert machine.reachable_states() == ["1", "2", "3"]
    no_initial = Transducer(
        monoid=machine.monoid,
        alphabet=machine.alphabet,
        states=machine.states,
        initial=None,
        termination=machine.termination,
        transitions=machine.transitions,
    )
    assert no_initial.reachable_states() == []


def test_self_loop_is_reachable():
    monoids = standard_monoids()
    m = monoids["nat-add"]
    t = Transducer(
        monoid=m,
        alphabet=("a",),
        states=("s",),
        initial=(0, "s"),
        termination={"s": 1},
        transitions={("s", "a"): (2, "s")},
    )
    assert t.reachable_states() == ["s"]
    assert t.productive_states() == ["s"]
    assert t.eval(("a", "a")) == 5


def test_productive_states(machine):
    assert machine.productive_states() == ["1", "3", "4"]
    dead = Transducer(
        monoid=machine.monoid,
        alphabet=machine.alphabet,
        states=("x", "y"),
        initial=(machine.monoid.unit(), "x"),
        termination={"x": None, "y": None},
        transitions={("x", "a"): (machine.monoid.unit(), "y")},
    )
    assert dead.productive_states() == []


def test_eval_is_a_monoid_action():
    rng = random.Random(7)
    for monoid in standard_monoids().values():
        for _ in range(20):
            t = random_machine(monoid, rng, max_states=4)
            for _ in range(10):
                n = rng.randint(0, 6)
                word = tuple(rng.choice(t.alphabet) for _ in range(n))
                cut = rng.randint(0, n)
                u, v = word[:cut], word[cut:]
                config = t.initial
                for a in u:
                    if config is None:
                        break
                    step = t.transitions.get((config[1], a))
                    config = None if step is None else (monoid.mul(config[0], step[0]), step[1])
                resumed = None if config is None else mul_partial(
                    monoid, config[0], state_eval(t, config[1], v)
                )
                assert resumed == t.eval(word)


def _led_to(t: Transducer, word: tuple):
    """The state ``word`` leads to from the initial state, or ``None``."""
    state = None if t.initial is None else t.initial[1]
    for a in word:
        step = t.transitions.get((state, a))
        if step is None:
            return None
        state = step[1]
    return state


def _with_unreachable_and_dead(t: Transducer, rng: random.Random) -> Transducer:
    """``t`` plus a state ``u`` that nothing enters and a state ``d`` that
    never terminates and only loops, entered by one of ``t``'s states."""
    m = t.monoid
    states = (*t.states, "u", "d")
    transitions = dict(t.transitions)
    for a in t.alphabet:
        transitions[("u", a)] = (random_element(m, rng), rng.choice(states))
        transitions[("d", a)] = (random_element(m, rng), "d")
    transitions[(rng.choice(t.states), rng.choice(t.alphabet))] = (random_element(m, rng), "d")
    termination = {**t.termination, "u": random_element(m, rng), "d": None}
    return Transducer(m, t.alphabet, states, t.initial, termination, transitions)


def test_reachable_and_productive_are_fixpoints():
    """Both closures are closed under their edges and exact: with ``n``
    states, a state is reachable iff some word shorter than ``n`` leads to
    it, and productive iff it is defined on some word of at most ``n``
    letters."""
    rng = random.Random(8)
    for monoid in standard_monoids().values():
        for _ in range(10):
            drawn = random_machine(monoid, rng, max_states=5)
            for t in (drawn, _with_unreachable_and_dead(drawn, rng)):
                reachable = set(t.reachable_states())
                for s in reachable:
                    for a in t.alphabet:
                        step = t.transitions.get((s, a))
                        if step is not None:
                            assert step[1] in reachable
                productive = set(t.productive_states())
                for (s, _), (_, target) in t.transitions.items():
                    if target in productive:
                        assert s in productive
                n = len(t.states)
                words = list(words_up_to(t.alphabet, n))
                assert reachable == {_led_to(t, w) for w in words if len(w) < n} - {None}
                assert productive == {
                    s for s in t.states if any(state_eval(t, s, w) is not None for w in words)
                }


def test_dead_prefix_stays_bottom(machine):
    assert machine.eval(("a", "b")) is None
    assert machine.eval(("b", "a")) is None
    assert machine.eval(("b", "a", "b")) is None


def test_construction_validation(machine):
    m = machine.monoid
    with pytest.raises(ValueError):
        Transducer(monoid=m, alphabet=("a",), states=("s", "s"), initial=None, termination={})
    with pytest.raises(ValueError):
        Transducer(monoid=m, alphabet=("a",), states=("s",), initial=(m.unit(), "t"), termination={})
    with pytest.raises(ValueError):
        Transducer(
            monoid=m,
            alphabet=("a",),
            states=("s",),
            initial=None,
            termination={},
            transitions={("s", "z"): (m.unit(), "s")},
        )
    trace = standard_monoids()["trace"]
    unit, odd = trace.unit(), ("β", "α")  # α·β = β·α, so the normal form is α·β
    ok = dict(monoid=trace, alphabet=("a",), states=("s",), initial=(unit, "s"), termination={"s": unit})
    cases = [
        ("alphabet: duplicate letters", dict(alphabet=("a", "a"))),
        ("alphabet[0]: letters must be non-empty strings", dict(alphabet=("",))),
        ("alphabet[0]: letters must not contain '·'", dict(alphabet=("a·b",))),
        ("states[1]: state ids must be non-empty strings", dict(states=("s", ""))),
        ("states[1]: state ids must be non-empty strings", dict(states=("s", 1))),
        ("termination.t: unknown state 't'", dict(termination={"t": unit})),
        ("transitions[0].from: unknown state 't'", dict(transitions={("t", "a"): (unit, "s")})),
        ("transitions[0].to: unknown state 't'", dict(transitions={("s", "a"): (unit, "t")})),
        ("termination.s: non-canonical element", dict(termination={"s": odd})),
        ("transitions[0].output: non-canonical element", dict(transitions={("s", "a"): (odd, "s")})),
        ("initial.value: non-canonical element", dict(initial=(odd, "s"))),
    ]
    accepted = Transducer(**ok)
    assert deserialize(accepted.serialize()) == accepted
    for message, change in cases:
        with pytest.raises(ValueError) as info:
            Transducer(**{**ok, **change})
        assert str(info.value) == message


def _document(monoid, alphabet, states, initial, termination, transitions) -> str:
    """The machine document that states what the constructor arguments state,
    valid or not."""
    encode = monoid.encode
    return json.dumps(
        {
            "format_version": 1,
            "monoid": monoid.to_wire(),
            "alphabet": list(alphabet),
            "states": list(states),
            "initial": None if initial is None else {"value": encode(initial[0]), "state": initial[1]},
            "termination": {s: None if v is None else encode(v) for s, v in termination.items()},
            "transitions": [
                {"from": s, "letter": a, "output": encode(out), "to": target}
                for (s, a), (out, target) in transitions.items()
            ],
        }
    )


def test_constructor_and_deserialize_report_structural_faults_alike(machine):
    """Each structural rule, broken once as constructor arguments and once as
    the same document: the ``ValueError`` is the ``SchemaError`` without its
    leading ``$.``."""
    unit = machine.monoid.unit()
    fields = dict(
        monoid=machine.monoid,
        alphabet=machine.alphabet,
        states=machine.states,
        initial=machine.initial,
        termination=machine.termination,
        transitions=machine.transitions,
    )
    steps = machine.transitions
    cases = [
        ("alphabet[1]: letters must be non-empty strings", dict(alphabet=("a", ""))),
        ("alphabet[0]: letters must be non-empty strings", dict(alphabet=(7, "b"))),
        ("alphabet[1]: letters must not contain '·'", dict(alphabet=("a", "b·c"))),
        ("alphabet: duplicate letters", dict(alphabet=("a", "b", "a"))),
        ("states[3]: state ids must be non-empty strings", dict(states=("1", "2", "3", ""))),
        ("states[2]: state ids must be non-empty strings", dict(states=("1", "2", None, "4"))),
        ("states: duplicate state ids", dict(states=("1", "2", "3", "4", "2"))),
        ("initial.state: unknown state '9'", dict(initial=(unit, "9"))),
        ("termination.9: unknown state '9'", dict(termination={**machine.termination, "9": None})),
        ("transitions[3].from: unknown state '9'", dict(transitions={**steps, ("9", "a"): (unit, "1")})),
        ("transitions[3].letter: unknown letter 'c'", dict(transitions={**steps, ("1", "c"): (unit, "1")})),
        ("transitions[3].to: unknown state '9'", dict(transitions={**steps, ("4", "a"): (unit, "9")})),
    ]
    assert deserialize(_document(**fields)) == machine
    for message, change in cases:
        faulty = {**fields, **change}
        with pytest.raises(ValueError) as constructed:
            Transducer(**faulty)
        with pytest.raises(SchemaError) as read:
            deserialize(_document(**faulty))
        assert str(constructed.value) == message
        assert str(read.value) == "$." + message


def test_assembled_machines_equal_checked_construction(monkeypatch):
    """Every machine the library builds without the constructor's checks
    (hypotheses, minimization stages, deserialized documents) equals, and
    passes, the checked construction from the same fields."""
    assemble = montrans.transducer._assemble
    built = Counter()

    def checked(module):
        def build(monoid, alphabet, states, initial, termination, transitions):
            machine = assemble(monoid, alphabet, states, initial, termination, transitions)
            fields = dict(monoid=monoid, alphabet=alphabet, states=states, initial=initial)
            assert machine == Transducer(**fields, termination=termination, transitions=transitions)
            built[module.__name__] += 1
            return machine

        return build

    minimize_module = importlib.import_module("montrans.minimize")
    for module in (montrans.transducer, montrans.learner, minimize_module):
        monkeypatch.setattr(module, "_assemble", checked(module))
    for target in draws(40, 10):
        learned(target)
    for monoid in standard_monoids().values():
        for reset in (False, True):
            assert check_minimal(minimize(chain(monoid, 12, 3, reset=reset)).minimal)
    for path in sorted(DATA.glob("*.json")):
        deserialize(path.read_text(encoding="utf-8"))
    modules = ("montrans.learner", "montrans.minimize", "montrans.transducer")
    assert all(built[name] > 0 for name in modules), built


def test_serialize_round_trip(machine):
    text = machine.serialize()
    again = deserialize(text)
    assert again == machine
    assert again.serialize() == text
    assert repr(again) == "Transducer(4 states, free)"


def test_golden_files_round_trip():
    for name in (
        "beta_loop_free.json",
        "beta_loop_commutative.json",
        "beta_loop_minimal_commutative.json",
        "learning_target_free.json",
        "first_hypothesis_free.json",
    ):
        machine = load_machine(name)
        assert deserialize(machine.serialize()) == machine
        assert machine.serialize() == (DATA / name).read_text(encoding="utf-8")


#: Characters the JSON writer must escape, or must write as they are.
AWKWARD_CHARACTERS = '"\\/\x00\x08\t\n\x1f\x7f é α ⊥ \u2028 \ud800 😀'

json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text(st.characters() | st.sampled_from(AWKWARD_CHARACTERS), max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.sampled_from(AWKWARD_CHARACTERS + "ab"), max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(json_trees)
def test_json_text_matches_stdlib_indent(tree):
    """The writer behind every document is the stdlib's indented rendering."""
    assert montrans.transducer._json_text(tree) == json.dumps(tree, ensure_ascii=False, indent=2)


def test_serialize_matches_stdlib_indent():
    for machine in draws(72, 10, max_states=4, alphabet=("a", "b")):
        expected = json.dumps(machine.to_doc(), ensure_ascii=False, indent=2) + "\n"
        assert machine.serialize() == expected


def test_deserialize_schema_errors(machine, tmp_path):
    doc = machine.serialize()
    with pytest.raises(SchemaError, match=r"transitions\[0\].to"):
        deserialize(doc.replace('"to": "2"', '"to": "9"'))
    with pytest.raises(SchemaError, match="format_version"):
        deserialize(doc.replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(SchemaError, match="initial.state"):
        deserialize(doc.replace('"state": "1"', '"state": "7"'))
    with pytest.raises(SchemaError):
        deserialize("not json")
    with pytest.raises(SchemaError, match=r"^\$: invalid JSON"):
        deserialize("[" * 100_000 + "]" * 100_000)  # deeper than the recursion limit
    with pytest.raises(SchemaError, match=r"^\$: invalid JSON"):
        deserialize(doc.replace('"format_version": 1', '"format_version": 1' + "0" * 5000))  # past the digit limit
    with pytest.raises(SchemaError, match="duplicate transition"):
        dup = machine.serialize().replace(
            '"letter": "a"', '"letter": "b"', 1
        )  # 1 -b-> now declared twice
        deserialize(dup)
    with pytest.raises(SchemaError, match=r"^\$\.alphabet: duplicate letters"):
        deserialize(doc.replace('"b"\n  ]', '"a"\n  ]', 1))
    with pytest.raises(SchemaError, match=r"^\$\.states: duplicate state ids"):
        deserialize(doc.replace('"4"\n  ]', '"3"\n  ]', 1))
    with pytest.raises(SchemaError, match=r"^\$\.transitions\[0\]\.from: unknown state '9'"):
        deserialize(doc.replace('"from": "1"', '"from": "9"', 1))
    # Words over a letter that holds the separator would not read back.
    with pytest.raises(SchemaError, match=r"^\$\.alphabet\[1\]: letters must not contain '·'"):
        deserialize(doc.replace('"b"\n  ]', '"b·c"\n  ]', 1))
    with pytest.raises(SchemaError, match=r"^\$\.alphabet\[0\]: letters must not contain '·'"):
        deserialize(doc.replace('"alphabet": [\n    "a"', '"alphabet": [\n    "·"', 1))
    # A repeated key in any object is rejected, not read as its last value.
    duplicate_key_docs = {
        "'4'": doc.replace('"4": []', '"4": [],\n    "4": [\n      "α"\n    ]', 1),
        "'transitions'": doc.rstrip()[:-1] + ',\n  "transitions": []\n}\n',
    }
    for i, (key, text) in enumerate(duplicate_key_docs.items()):
        with pytest.raises(SchemaError, match=rf"^\$: duplicate key {key}$"):
            deserialize(text)
        path = tmp_path / f"duplicate{i}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--machine", str(path), "b"]) == 2

    def with_monoid(wire):
        parsed = json.loads(doc)
        parsed["monoid"] = wire
        return json.dumps(parsed)

    for generators in (True, 5, None, "αβ"):
        with pytest.raises(SchemaError, match=r"monoid\.generators"):
            deserialize(with_monoid({"kind": "free", "generators": generators}))
    with pytest.raises(SchemaError, match=r"monoid\.commutations"):
        deserialize(
            with_monoid({"kind": "trace", "generators": ["α", "β"], "commutations": [[["α"], "β"]]})
        )
    with pytest.raises(SchemaError, match="modulus"):
        deserialize(with_monoid({"kind": "cyclic-group", "modulus": True}))

    # JSON booleans are not integers, although Python's ``bool`` is an ``int``.
    commutative = (DATA / "beta_loop_commutative.json").read_text(encoding="utf-8")
    bool_docs = {
        r"\$\.format_version": doc.replace('"format_version": 1', '"format_version": true'),
        r"termination\.1": commutative.replace('"α": 1', '"α": true', 1),
    }
    for i, (where, text) in enumerate(bool_docs.items()):
        with pytest.raises(SchemaError, match=where):
            deserialize(text)
        path = tmp_path / f"bool{i}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--machine", str(path), "b"]) == 2


def test_deserialize_canonicalizes_with_warning():
    trace_doc = """{
  "format_version": 1,
  "monoid": {"kind": "trace", "generators": ["α", "β"], "commutations": [["α", "β"]]},
  "alphabet": ["a"],
  "states": ["s"],
  "initial": {"value": [], "state": "s"},
  "termination": {"s": ["β", "α"]},
  "transitions": []
}"""
    with pytest.warns(UserWarning, match="non-canonical"):
        machine = deserialize(trace_doc)
    assert machine.termination["s"] == ("α", "β")


def test_to_dot(machine):
    dot = machine.to_dot()
    assert dot == machine.to_dot()  # deterministic
    assert dot.startswith("digraph transducer {")
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 4 + 1  # states plus the entry point
    assert len(edge_lines) == 3 + 1  # transitions plus the entry arrow
    assert '"1" -> "3" [label="b / β"];' in dot
    assert "2" in dot and "⊥" not in dot  # undefined termination is omitted


def test_to_dot_golden(machine):
    expected = (DATA / "beta_loop_free.dot").read_text(encoding="utf-8")
    assert machine.to_dot() == expected


def test_to_dot_escapes_quotes_and_backslashes():
    """Ids and labels holding ``"`` or ``\\`` are escaped, so every quoted
    string in every statement ends where DOT reads it to end."""
    free = standard_monoids()["free"]
    p = free.parse
    odd = Transducer(
        monoid=free,
        alphabet=("a", '"'),
        states=('q"1', "q\\2"),
        initial=(p("α"), 'q"1'),
        termination={'q"1': p("β"), "q\\2": None},
        transitions={('q"1', '"'): (p("γ"), "q\\2"), ("q\\2", "a"): (p("α"), 'q"1')},
    )
    assert deserialize(odd.serialize()) == odd
    dot = odd.to_dot()
    assert '  "q\\"1" -> "q\\\\2" [label="\\" / γ"];' in dot.splitlines()
    quoted = r'"(?:[^"\\]|\\.)*"'
    value = rf"(?:{quoted}|\w+)"
    statement = re.compile(rf" *{quoted}(?: -> {quoted})? \[\w+={value}(?:, \w+={value})*\];")
    body = dot.splitlines()[3:-1]
    assert len(body) == 6 and all(statement.fullmatch(line) for line in body), dot


def test_to_dot_entry_node_avoids_state_ids():
    """A state named ``__start__`` keeps its own node; the entry point takes
    the next free name ``___start___``."""
    free = standard_monoids()["free"]
    one = Transducer(
        monoid=free,
        alphabet=("a",),
        states=("__start__",),
        initial=(free.unit(), "__start__"),
        termination={"__start__": free.unit()},
    )
    lines = one.to_dot().splitlines()
    assert '  "__start__" [label="__start__ / ε", shape=doublecircle];' in lines
    assert '  "___start___" [shape=point, label=""];' in lines
    assert '  "___start___" -> "__start__" [label="ε"];' in lines
    assert '  "__start__" -> "__start__" [label="ε"];' not in lines


def test_to_dot_empty_machine():
    m = standard_monoids()["free"]
    empty = Transducer(monoid=m, alphabet=("a",), states=(), initial=None, termination={})
    assert empty.to_dot() == "digraph transducer {\n  rankdir=LR;\n  node [shape=circle];\n}\n"


def test_parse_and_render_word():
    assert parse_word(("a", "b"), "ba") == ("b", "a")
    assert parse_word(("a", "b"), "b·a") == ("b", "a")
    assert parse_word(("a", "b"), "") == ()
    assert parse_word(("a", "b"), "e") == ()
    assert parse_word(("e",), "e") == ("e",)
    assert parse_word(("in", "out"), "in·out") == ("in", "out")
    with pytest.raises(UnknownLetter):
        parse_word(("a", "b"), "az")
    with pytest.raises(UnknownLetter):
        parse_word(("in", "out"), "inout")
    assert render_word(()) == "e"
    assert render_word(("b", "b")) == "bb"
    assert render_word(("in", "out")) == "in·out"


def test_rendered_words_parse_back():
    for alphabet in (("a", "b"), ("ab", "c"), ("e",), ("e", "ε")):
        for word in words_up_to(alphabet, 3):
            assert parse_word(alphabet, render_word(word, alphabet)) == word, (alphabet, word)
    assert render_word((), ("e",)) == "ε"
    assert render_word((), ("e", "ε")) == ""
    assert render_word(("ab",), ("ab", "c")) == "ab"
    assert render_word(("c", "c"), ("ab", "c")) == "c·c"


def test_mul_partial_threads_through_eval(machine):
    # eval of a live word equals init · outputs · termination assembled by hand
    m = machine.monoid
    value = machine.initial[0]
    state = machine.initial[1]
    for a in ("b", "b"):
        out, state = machine.transitions[(state, a)]
        value = m.mul(value, out)
    assert mul_partial(m, value, machine.termination[state]) == machine.eval(("b", "b"))


# -- the input boundary under fuzzing ------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


VALID_DOCUMENTS = [json.loads(t.serialize()) for t in draws(71, 1, max_states=3, alphabet=("a", "b"))]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _swap_type(value):
    """A value of another JSON type that still resembles ``value``."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return False


@st.composite
def mutated_documents(draw):
    """A valid machine document with one to three keys dropped, values
    swapped for another type, or ``true``/``null``/nested lists injected."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        *parents, key = path
        parent = doc
        for step in parents:
            parent = parent[step]
        operation = draw(st.sampled_from(("drop", "swap", "inject", "arbitrary")))
        if operation == "drop":
            del parent[key]
        elif operation == "swap":
            parent[key] = _swap_type(parent[key])
        elif operation == "inject":
            parent[key] = draw(st.sampled_from((True, False, None, [[]], [[parent[key]]])))
        else:
            parent[key] = draw(json_values)
    return doc


@pytest.fixture(scope="module")
def machine_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "machine.json"


def _check_boundary(doc, machine_file) -> None:
    text = json.dumps(doc, ensure_ascii=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            assert isinstance(deserialize(text), Transducer)
        except SchemaError:
            pass
        machine_file.write_text(text, encoding="utf-8")
        assert main(["eval", "--machine", str(machine_file), "ab"]) in (0, 2, 3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_deserialize_fuzz_arbitrary_json(machine_file, doc):
    """Any JSON value is a machine or a :class:`SchemaError`; ``eval`` on it
    exits 0, 2 or 3 without a traceback."""
    _check_boundary(doc, machine_file)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_deserialize_fuzz_mutated_documents(machine_file, doc):
    _check_boundary(doc, machine_file)
