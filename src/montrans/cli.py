"""Command-line surface.

Subcommands: ``eval``, ``minimize``, ``learn``, ``equiv`` and
``demo nontermination``.  Exit codes: 0 success / equivalent, 1
counterexample found, 2 error (bad file, unknown letter, ...), 3 undefined
evaluation result, 4 learning budget exceeded.  Output files are written
only after the command's computation has succeeded.

``main`` may be called any number of times in one process; the argument
parser is built on the first call and shared by the later ones.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import BudgetExceeded, MontransError, SchemaError
from .learner import LearnLimits, learn
from .minimize import minimize
from .monoid import FreeMonoid, TraceMonoid, render_partial
from .oracle import (
    ADVERSARY_GENERATORS,
    adversarial_oracle,
    brute_force_diff,
    equivalence_oracle,
    membership_oracle,
)
from .transducer import Transducer, _json_text, deserialize, parse_word, render_word


def _load(path: str) -> Transducer:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"not UTF-8 text: {exc}") from None
    return deserialize(text)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _emit_machine(machine: Transducer, output: str, dot: bool) -> None:
    _write(output, machine.serialize())
    if dot:
        _write(output + ".dot", machine.to_dot())


def cmd_eval(args) -> int:
    machine = _load(args.machine)
    word = parse_word(machine.alphabet, args.word)
    value = machine.eval(word)
    print(machine.render_value(value))
    return 3 if value is None else 0


def cmd_minimize(args) -> int:
    machine = _load(args.machine)
    if not Path(args.output).parent.is_dir():
        print(f"output directory does not exist: {Path(args.output).parent}", file=sys.stderr)
        return 2
    staged = minimize(machine)
    _emit_machine(staged.minimal, args.output, args.dot)
    if args.emit_stages:
        _write(args.output + ".reach.json", staged.reach.serialize())
        _write(args.output + ".total.json", staged.total.serialize())
        _write(args.output + ".prefix.json", staged.prefix.serialize())
        unit = machine.monoid.encode(machine.monoid.unit())
        counts = (len(machine.states), *staged.state_counts())
        report = {
            "state_counts": dict(zip(("input", "reach", "total", "prefix", "minimal"), counts)),
            "merges": {
                s: {"representative": r, "witness": unit} for s, r in staged.representatives.items()
            },
        }
        _write(args.output + ".witnesses.json", _json_text(report) + "\n")
    return 0


def cmd_learn(args) -> int:
    if args.cap < 1 or args.max_iterations < 1:
        print("caps must be positive", file=sys.stderr)
        return 2
    target = _load(args.target)
    if not Path(args.output).parent.is_dir():
        print(f"output directory does not exist: {Path(args.output).parent}", file=sys.stderr)
        return 2
    limits = LearnLimits(max_q=args.cap, max_iterations=args.max_iterations)
    try:
        machine, stats = learn(
            target.monoid,
            target.alphabet,
            membership_oracle(target),
            equivalence_oracle(target),
            limits,
        )
    except BudgetExceeded as exc:
        if args.stats:
            print(_json_text(exc.stats.to_doc()))
        raise
    _emit_machine(machine, args.output, args.dot)
    if args.stats:
        print(_json_text(stats.to_doc()))
    return 0


def cmd_equiv(args) -> int:
    if args.max_len is not None and args.max_len < 0:
        print("--max-len must not be negative", file=sys.stderr)
        return 2
    left = _load(args.left)
    right = _load(args.right)
    if left.monoid != right.monoid or left.alphabet != right.alphabet:
        print("error: the machines use different monoids or input alphabets", file=sys.stderr)
        return 2
    if args.max_len is None:
        verdict = equivalence_oracle(left)(right)
    else:
        verdict = brute_force_diff(left, right, args.max_len)
    if verdict is None:
        print("equivalent")
        return 0
    print(render_word(verdict.word, left.alphabet))
    print(f"left:  {left.render_value(verdict.left_value)}")
    print(f"right: {right.render_value(verdict.right_value)}")
    return 1


def cmd_demo_nontermination(args) -> int:
    if args.cap < 2:
        print("--cap must be at least 2", file=sys.stderr)
        return 2
    free = adversarial_oracle()
    print(f"free monoid on {'·'.join(ADVERSARY_GENERATORS)}: membership(a^n) = α^n·β^n·γ")
    limits = LearnLimits(max_q=args.cap)

    def refuse_equivalence(_hypothesis):
        raise AssertionError("the adversarial run must never reach an equivalence query")

    try:
        learn(FreeMonoid(ADVERSARY_GENERATORS), ("a",), free, refuse_equivalence, limits)
    except BudgetExceeded as exc:
        table = exc.table
        monoid = table.monoid
        suffixes = ", ".join(render_word(t) for t in table.suffixes)
        print(f"  T = [{suffixes}]")
        for q in table.prefixes:
            print(f"  Λ({render_word(q)}) = {render_partial(monoid, table.lam[q])}")
        print(f"  stopped: |Q| = {len(table.prefixes)} > cap {args.cap}")
        print(f"  equivalence queries = {exc.stats.equivalence_queries}")

    trace = TraceMonoid(ADVERSARY_GENERATORS, (("α", "β"),))
    print("trace monoid (α·β = β·α): same membership answers, canonicalized")
    reference = Transducer(
        monoid=trace,
        alphabet=("a",),
        states=("s",),
        initial=(trace.unit(), "s"),
        termination={"s": trace.parse("γ")},
        transitions={("s", "a"): (trace.parse("α·β"), "s")},
    )

    def trace_membership(word):
        value = free(word)
        return None if value is None else trace.canonical(value)

    machine, stats = learn(
        trace, ("a",), trace_membership, equivalence_oracle(reference), LearnLimits()
    )
    s0 = machine.states[0]
    out, _ = machine.transitions[(s0, "a")]
    print(f"  learned machine: {len(machine.states)} state")
    print(f"  initial value = {trace.render(machine.initial[0])}")
    print(f"  a-loop output = {trace.render(out)}")
    print(f"  termination = {render_partial(trace, machine.termination[s0])}")
    print(f"  equivalence queries = {stats.equivalence_queries}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``montrans`` argument parser, built once per process.

    Each subcommand's ``func`` looks its ``cmd_*`` handler up in this
    module's globals when it is called, not when the parser is built, so a
    handler patched after the first ``main`` call still receives the call.
    """
    parser = argparse.ArgumentParser(
        prog="montrans",
        description="Transducers with monoid outputs: evaluate, minimize, compare, learn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a machine on a word")
    p.add_argument("--machine", required=True, help="machine JSON file")
    p.add_argument("word", help="input word (letters joined by ·, or bare if single-char)")
    p.set_defaults(func=lambda args: cmd_eval(args))

    p = sub.add_parser("minimize", help="write the minimal equivalent machine")
    p.add_argument("--machine", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-stages", action="store_true", help="also write the three intermediate stages and a merge-witness report")
    p.add_argument("--dot", action="store_true", help="also write a Graphviz .dot rendering")
    p.set_defaults(func=lambda args: cmd_minimize(args))

    p = sub.add_parser("learn", help="learn a machine from membership/equivalence queries against a target file")
    p.add_argument("--target", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stats", action="store_true", help="print query statistics as JSON")
    p.add_argument("--cap", type=int, default=LearnLimits.max_q, help="prefix-set size cap (default %(default)s)")
    p.add_argument("--max-iterations", type=int, default=LearnLimits.max_iterations)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=lambda args: cmd_learn(args))

    p = sub.add_parser("equiv", help="decide whether two machines recognize the same function")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument(
        "--max-len",
        type=int,
        nargs="?",
        const=8,
        default=None,
        help="use the brute-force word check up to this length (8 if given bare) instead of the exact oracle",
    )
    p.set_defaults(func=lambda args: cmd_equiv(args))

    p = sub.add_parser("demo", help="built-in scenarios")
    scenarios = p.add_subparsers(dest="scenario", required=True)
    n = scenarios.add_parser("nontermination", help="free-monoid learning that never converges vs. its trace-monoid repair")
    n.add_argument("--cap", type=int, default=25, help="prefix-set size cap for the diverging phase (default 25)")
    n.set_defaults(func=lambda args: cmd_demo_nontermination(args))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (MontransError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
