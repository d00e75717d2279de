"""Command-line surface: golden outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import montrans.cli
from montrans import (
    FreeMonoid,
    LearnLimits,
    Transducer,
    check_minimal,
    deserialize,
    iso_check,
    minimize,
)
from montrans.cli import main

from helpers import DATA, learning_target, load_machine

BETA_LOOP = str(DATA / "beta_loop_free.json")
BETA_LOOP_COMMUTATIVE = str(DATA / "beta_loop_commutative.json")
MINIMAL_COMMUTATIVE = str(DATA / "beta_loop_minimal_commutative.json")
TARGET = str(DATA / "learning_target_free.json")
HYPOTHESIS = str(DATA / "first_hypothesis_free.json")


def test_eval_prints_value(capsys):
    assert main(["eval", "--machine", BETA_LOOP, "bb"]) == 0
    assert capsys.readouterr().out == "β·β·α\n"


def test_eval_undefined_exits_3(capsys):
    assert main(["eval", "--machine", BETA_LOOP, "a"]) == 3
    assert capsys.readouterr().out == "⊥\n"


def test_eval_empty_word(capsys):
    assert main(["eval", "--machine", BETA_LOOP, ""]) == 0
    assert capsys.readouterr().out == "α\n"


def test_eval_unknown_letter_exits_2(capsys):
    assert main(["eval", "--machine", BETA_LOOP, "xz"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["eval", "--machine", str(bad), "a"]) == 2
    assert main(["eval", "--machine", str(tmp_path / "missing.json"), "a"]) == 2


def test_eval_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    text = load_machine("beta_loop_free.json").serialize()
    bad.write_bytes(text.encode("utf-8").replace(b'"b"', '"é"'.encode("latin-1")))  # a Latin-1 letter
    assert main(["eval", "--machine", str(bad), "b"]) == 2
    assert capsys.readouterr().err.startswith("error: $: not UTF-8")


def test_eval_malformed_monoid_exits_2(tmp_path, capsys):
    doc = json.loads(load_machine("beta_loop_free.json").serialize())
    doc["monoid"]["generators"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--machine", str(bad), "b"]) == 2
    assert "monoid.generators" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ε", "⊥", "α·β"])
def test_eval_reserved_generator_exits_2(tmp_path, capsys, name):
    doc = json.loads(load_machine("beta_loop_free.json").serialize())
    doc["monoid"]["generators"].append(name)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--machine", str(bad), "b"]) == 2
    assert capsys.readouterr().err.startswith("error: $.monoid: reserved or separator-bearing")


def test_eval_separator_in_letter_exits_2(tmp_path, capsys):
    doc = json.loads(load_machine("beta_loop_free.json").serialize())
    doc["alphabet"][1] = "b·c"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--machine", str(bad), "b·c"]) == 2
    assert capsys.readouterr().err.startswith("error: $.alphabet[1]: letters must not contain")


def test_minimize_writes_golden_file(tmp_path):
    out = tmp_path / "minimal.json"
    assert main(["minimize", "--machine", BETA_LOOP_COMMUTATIVE, "-o", str(out)]) == 0
    expected = (DATA / "beta_loop_minimal_commutative.json").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expected


def test_minimize_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["minimize", "--machine", BETA_LOOP, "-o", str(out1)])
    main(["minimize", "--machine", BETA_LOOP, "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_minimize_emit_stages(tmp_path):
    out = tmp_path / "m.json"
    assert main(["minimize", "--machine", BETA_LOOP_COMMUTATIVE, "-o", str(out), "--emit-stages", "--dot"]) == 0
    reach = deserialize((tmp_path / "m.json.reach.json").read_text(encoding="utf-8"))
    total = deserialize((tmp_path / "m.json.total.json").read_text(encoding="utf-8"))
    prefix = deserialize((tmp_path / "m.json.prefix.json").read_text(encoding="utf-8"))
    assert (len(reach.states), len(total.states), len(prefix.states)) == (3, 2, 2)
    witnesses = json.loads((tmp_path / "m.json.witnesses.json").read_text(encoding="utf-8"))
    assert witnesses["state_counts"] == {
        "input": 4,
        "reach": 3,
        "total": 2,
        "prefix": 2,
        "minimal": 1,
    }
    assert witnesses["merges"]["3"] == {"representative": "1", "witness": {}}
    dot = (tmp_path / "m.json.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph transducer {")


#: A fixed past mtime (2001-09-09), which no write during a test can give.
PAST_NS = 1_000_000_000 * 10**9


def test_rerun_leaves_unchanged_outputs_alone(tmp_path):
    out = tmp_path / "m.json"
    argv = ["minimize", "--machine", BETA_LOOP_COMMUTATIVE, "-o", str(out), "--emit-stages", "--dot"]
    assert main(argv) == 0
    suffixes = ("", ".dot", ".reach.json", ".total.json", ".prefix.json", ".witnesses.json")
    outputs = [Path(str(out) + suffix) for suffix in suffixes]
    assert sorted(tmp_path.iterdir()) == sorted(outputs)
    for path in outputs:
        os.utime(path, ns=(PAST_NS, PAST_NS))
    before = [(path.stat().st_ino, path.stat().st_mtime_ns) for path in outputs]
    assert main(argv) == 0
    assert [(path.stat().st_ino, path.stat().st_mtime_ns) for path in outputs] == before
    assert {mtime for _, mtime in before} == {PAST_NS}


@pytest.mark.parametrize(
    "stale",
    [
        None,  # missing: the output is created
        lambda new: new[: len(new) // 2],  # the new bytes extend the old file
        lambda new: new + b"{}\n",  # the new bytes are shorter than the old file
        lambda new: new.replace(b'"1"', b'"2"'),  # same length, other bytes
    ],
    ids=["missing", "extends", "shorter", "same-length"],
)
def test_changed_output_is_rewritten(tmp_path, stale):
    out = tmp_path / "m.json"
    expected = Path(MINIMAL_COMMUTATIVE).read_bytes()
    if stale is not None:
        out.write_bytes(stale(expected))
        os.utime(out, ns=(PAST_NS, PAST_NS))
    assert main(["minimize", "--machine", BETA_LOOP_COMMUTATIVE, "-o", str(out)]) == 0
    assert out.read_bytes() == expected
    assert out.stat().st_mtime_ns != PAST_NS


@pytest.mark.parametrize(
    "argv",
    [
        ["minimize", "--machine", BETA_LOOP, "-o"],
        ["learn", "--target", TARGET, "-o"],
    ],
)
def test_directory_at_output_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    out.mkdir()
    assert main([*argv, str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.is_dir() and not any(out.iterdir())


def _stdlib_rendering(text: str) -> str:
    return json.dumps(json.loads(text), ensure_ascii=False, indent=2) + "\n"


def test_documents_are_the_stdlib_rendering(tmp_path, capsys):
    """Machines, stage files, witnesses and ``--stats`` are byte for byte
    ``json.dumps(doc, ensure_ascii=False, indent=2)`` and a newline."""
    out = tmp_path / "m.json"
    assert main(["minimize", "--machine", BETA_LOOP, "-o", str(out), "--emit-stages"]) == 0
    for suffix in ("", ".reach.json", ".total.json", ".prefix.json", ".witnesses.json"):
        text = Path(str(out) + suffix).read_text(encoding="utf-8")
        assert text == _stdlib_rendering(text), suffix
    learned = tmp_path / "learned.json"
    assert main(["learn", "--target", TARGET, "-o", str(learned), "--stats"]) == 0
    stats = capsys.readouterr().out
    assert stats == _stdlib_rendering(stats)
    text = learned.read_text(encoding="utf-8")
    assert text == _stdlib_rendering(text)
    assert main(["learn", "--target", TARGET, "-o", str(learned), "--max-iterations", "1", "--stats"]) == 4
    stats = capsys.readouterr().out
    assert stats == _stdlib_rendering(stats)


@pytest.mark.parametrize(
    "argv",
    [
        ["minimize", "--machine", BETA_LOOP, "-o"],
        ["learn", "--target", TARGET, "-o"],
    ],
)
def test_missing_output_directory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "absent" / "out.json"
    assert main([*argv, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output directory does not exist")
    assert not out.parent.exists()


def test_learn_zero_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "learned.json"
    assert main(["learn", "--target", TARGET, "-o", str(out), "--cap", "0"]) == 2
    assert capsys.readouterr().err == "caps must be positive\n"
    assert not out.exists()


def test_minimize_already_minimal_round_trips(tmp_path):
    out = tmp_path / "again.json"
    main(["minimize", "--machine", MINIMAL_COMMUTATIVE, "-o", str(out)])
    minimal = deserialize(out.read_text(encoding="utf-8"))
    assert iso_check(minimal, load_machine("beta_loop_minimal_commutative.json")) is not None


def test_learn_target_writes_minimal_machine(tmp_path, capsys):
    out = tmp_path / "learned.json"
    assert main(["learn", "--target", TARGET, "-o", str(out), "--stats", "--dot"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["equivalence_queries"] == 2
    learned = deserialize(out.read_text(encoding="utf-8"))
    assert check_minimal(learned)
    assert iso_check(minimize(learning_target()).minimal, learned) is not None
    assert (tmp_path / "learned.json.dot").read_text(encoding="utf-8") == learned.to_dot()


def test_learn_commutative_loop_gives_single_state(tmp_path):
    out = tmp_path / "learned.json"
    assert main(["learn", "--target", BETA_LOOP_COMMUTATIVE, "-o", str(out)]) == 0
    learned = deserialize(out.read_text(encoding="utf-8"))
    assert len(learned.states) == 1
    assert iso_check(learned, load_machine("beta_loop_minimal_commutative.json")) is not None


def test_learn_defaults_are_the_library_limits():
    args = montrans.cli.build_parser().parse_args(["learn", "--target", TARGET, "-o", "out.json"])
    assert LearnLimits(max_q=args.cap, max_iterations=args.max_iterations) == LearnLimits()


def test_learn_budget_exceeded_exits_4(tmp_path, capsys):
    out = tmp_path / "learned.json"
    assert main(["learn", "--target", TARGET, "-o", str(out), "--max-iterations", "1", "--stats"]) == 4
    captured = capsys.readouterr()
    assert "budget exceeded" in captured.err
    assert json.loads(captured.out)["equivalence_queries"] == 0
    assert not out.exists()  # no partial output


def test_learn_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["learn", "--target", TARGET, "-o", str(out1)])
    main(["learn", "--target", TARGET, "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_equiv_equivalent(capsys):
    assert main(["equiv", "--left", BETA_LOOP_COMMUTATIVE, "--right", MINIMAL_COMMUTATIVE]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equiv_counterexample(capsys):
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "bb"
    assert out[1] == "left:  ⊥"
    assert out[2] == "right: α·α·α"


def test_equiv_brute_force_mode(capsys):
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS, "--max-len", "1"]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS, "--max-len", "8"]) == 1
    eight = capsys.readouterr().out
    assert eight.splitlines()[0] == "bb"
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS, "--max-len"]) == 1
    assert capsys.readouterr().out == eight


def test_equiv_negative_max_len_exits_2(capsys):
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS, "--max-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-len" in captured.err


@pytest.mark.parametrize("max_len", [[], ["--max-len", "8"]])
def test_equiv_mismatched_machines_exit_2(tmp_path, capsys, max_len):
    assert main(["equiv", "--left", BETA_LOOP, "--right", BETA_LOOP_COMMUTATIVE, *max_len]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    doc = json.loads(load_machine("beta_loop_free.json").serialize())
    doc["alphabet"].append("c")
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["equiv", "--left", BETA_LOOP, "--right", str(wider), *max_len]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_equiv_counterexample_reads_back_into_eval(tmp_path, capsys):
    """Over the alphabet ``{e}`` the empty word prints as ``ε``, which
    ``eval`` reads as the empty word, not as the letter ``e``."""
    m = FreeMonoid(("α", "β"))
    unit, alpha, beta = m.unit(), m.parse("α"), m.parse("β")
    left = Transducer(
        monoid=m,
        alphabet=("e",),
        states=("s", "t"),
        initial=(unit, "s"),
        termination={"s": alpha, "t": beta},
        transitions={("s", "e"): (unit, "t"), ("t", "e"): (unit, "t")},
    )
    right = Transducer(
        monoid=m,
        alphabet=("e",),
        states=("u",),
        initial=(unit, "u"),
        termination={"u": beta},
        transitions={("u", "e"): (unit, "u")},
    )
    lpath, rpath = tmp_path / "left.json", tmp_path / "right.json"
    lpath.write_text(left.serialize(), encoding="utf-8")
    rpath.write_text(right.serialize(), encoding="utf-8")
    for max_len in ([], ["--max-len", "3"]):
        assert main(["equiv", "--left", str(lpath), "--right", str(rpath), *max_len]) == 1
        word, left_line, _ = capsys.readouterr().out.splitlines()
        assert (word, left_line) == ("ε", "left:  α")
        assert main(["eval", "--machine", str(lpath), word]) == 0
        assert capsys.readouterr().out == "α\n"


def test_equiv_same_file(capsys):
    assert main(["equiv", "--left", TARGET, "--right", TARGET]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_demo_nontermination(capsys):
    assert main(["demo", "nontermination", "--cap", "5"]) == 0
    out = capsys.readouterr().out
    assert "membership(a^n) = α^n·β^n·γ" in out
    assert "Λ(e) = ε" in out
    assert "Λ(aaaaa) = α·α·α·α·α" in out
    assert "stopped: |Q| = 6 > cap 5" in out
    assert "equivalence queries = 0" in out
    assert "learned machine: 1 state" in out
    assert "a-loop output = α·β" in out
    assert "termination = γ" in out


def test_demo_default_cap(capsys):
    assert main(["demo", "nontermination"]) == 0
    out = capsys.readouterr().out
    assert "stopped: |Q| = 26 > cap 25" in out


def test_demo_cap_too_small(capsys):
    assert main(["demo", "nontermination", "--cap", "1"]) == 2


def test_demo_is_deterministic(capsys):
    main(["demo", "nontermination", "--cap", "3"])
    first = capsys.readouterr().out
    main(["demo", "nontermination", "--cap", "3"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("args", [["eval", "--machine"], ["minimize"], []])
def test_usage_errors(args):
    with pytest.raises(SystemExit):
        main(args)


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('parser built at import')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import montrans, montrans.cli\n"
    )
    src = Path(montrans.cli.__file__).parents[1]
    subprocess.run([sys.executable, "-c", probe], check=True, env={"PYTHONPATH": str(src)})


@pytest.mark.parametrize(
    "args, code, out",
    [
        (["eval", "--machine", TARGET, "a"], 0, "γ·α·β·α\n"),
        (["eval", "--machine", TARGET, "bb"], 3, "⊥\n"),
        ([], 2, ""),
    ],
)
def test_module_entry_in_a_fresh_process(args, code, out):
    """``python -m montrans.cli`` runs ``entry``, which exits with ``main``'s code."""
    src = Path(montrans.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-m", "montrans.cli", *args],
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr.startswith("usage: montrans") == (not args)


def test_repeated_calls_build_the_parser_once(monkeypatch):
    assert main(["eval", "--machine", BETA_LOOP, "bb"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw)
    )
    assert main(["eval", "--machine", BETA_LOOP, "bb"]) == 0
    assert main(["equiv", "--left", TARGET, "--right", TARGET]) == 0
    assert main(["demo", "nontermination", "--cap", "2"]) == 0
    assert built == []


def test_repeated_calls_carry_no_flags(tmp_path, capsys, monkeypatch):
    out = tmp_path / "learned.json"
    assert main(["learn", "--target", TARGET, "-o", str(out), "--stats"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalence_queries"] == 2
    assert main(["learn", "--target", TARGET, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""

    paths = []
    brute, exact = montrans.cli.brute_force_diff, montrans.cli.equivalence_oracle
    monkeypatch.setattr(montrans.cli, "brute_force_diff", lambda *a: paths.append("brute") or brute(*a))
    monkeypatch.setattr(montrans.cli, "equivalence_oracle", lambda m: paths.append("exact") or exact(m))
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS, "--max-len", "3"]) == 1
    assert main(["equiv", "--left", TARGET, "--right", HYPOTHESIS]) == 1
    assert paths == ["brute", "exact"]
    assert capsys.readouterr().out.splitlines()[3] == "bb"


def test_handler_patched_after_first_call_receives_the_call(monkeypatch, capsys):
    assert main(["eval", "--machine", BETA_LOOP, "bb"]) == 0
    seen = []
    monkeypatch.setattr(montrans.cli, "cmd_eval", lambda args: seen.append(args.word) or 7)
    assert main(["eval", "--machine", BETA_LOOP, "ab"]) == 7
    assert seen == ["ab"]
    assert capsys.readouterr().out == "β·β·α\n"
