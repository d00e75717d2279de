"""Seeded workload generators, item runners and output checks.

Every workload is a list of items built from one seed.  An item is one call
into the library that the benchmark times (a learning run, a minimize case,
a CLI invocation) plus a check of its output that runs outside the timed
region.  The generators live here rather than in ``tests/helpers.py`` so that
an edit to the test helpers cannot change a workload; ``random_machine``
draws exactly what the test helper of the same name draws from the same
random stream.

The checks compare values with this module's own evaluator, which walks a
machine's transition dict with ``monoid.mul``; they never call
``Transducer.eval`` or ``brute_force_diff``, the code under measurement.
Machine files the CLI writes are read back with ``deserialize``.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import montrans.cli
import montrans.learner
import montrans.oracle
import montrans.transducer
from montrans import (
    CommutativeMonoid,
    CyclicGroup,
    FreeMonoid,
    Monoid,
    NatAddMonoid,
    TraceMonoid,
    Transducer,
    lgcd_family,
)

#: ``montrans.minimize`` names the function the package re-exports, so the
#: module is taken from the import system.
MINIMIZE = importlib.import_module("montrans.minimize")

KINDS = ("free", "trace", "commutative", "nat-add", "cyclic-group")

#: Words up to this length are all compared when a learned machine is checked.
CHECK_ALL_UP_TO = {"learn-corpus": 6, "learn-large": 9}
#: Number of seeded longer words compared on top of the exhaustive ones.
CHECK_SAMPLE = {"learn-corpus": 20, "learn-large": 200}


@dataclass
class Item:
    """One timed call into the library and the check of what it returned.

    ``run()`` makes the call.  ``check(output)`` returns ``None`` when the
    output is right and a reason otherwise.  An item that runs again must
    give an output with the same ``digest``.  ``row`` groups items into the
    per-size rows of the result file, and ``stats`` reads the learner's query
    counts from a right output.  A ``once`` item is a single point ROADMAP
    quotes: it runs once before the timed passes and shows only in the rows.
    ``files`` maps each input file the item reads to its text; ``write_files``
    writes them, after set-up is timed, so that disk speed stays out of it.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], object] = lambda output: output
    row: Optional[str] = None
    info: dict = field(default_factory=dict)
    stats: Optional[Callable[[object], dict]] = None
    once: bool = False
    files: dict = field(default_factory=dict)


# -- machines ---------------------------------------------------------------


def standard_monoids() -> dict[str, Monoid]:
    """One monoid of each kind, as the acceptance corpus uses them."""
    return {
        "free": FreeMonoid(("α", "β", "γ")),
        "trace": TraceMonoid(("α", "β", "γ"), [("α", "β")]),
        "commutative": CommutativeMonoid(("α", "β")),
        "nat-add": NatAddMonoid(),
        "cyclic-group": CyclicGroup(3),
    }


def random_element(monoid: Monoid, rng: random.Random, max_rank: int = 2):
    if isinstance(monoid, (FreeMonoid, TraceMonoid)):
        n = rng.randint(0, max_rank)
        return monoid.canonical(tuple(rng.choice(monoid.generators) for _ in range(n)))
    if isinstance(monoid, CommutativeMonoid):
        n = rng.randint(0, max_rank)
        return monoid.canonical((rng.choice(monoid.generators), 1) for _ in range(n))
    if isinstance(monoid, NatAddMonoid):
        return rng.randint(0, max_rank)
    if isinstance(monoid, CyclicGroup):
        return rng.randrange(monoid.modulus)
    raise TypeError(f"no element generator for {monoid!r}")


def random_machine(
    monoid: Monoid,
    rng: random.Random,
    max_states: int = 6,
    max_letters: int = 3,
    allow_no_initial: bool = True,
    alphabet: Optional[tuple[str, ...]] = None,
    min_states: int = 1,
    density: float = 0.8,
) -> Transducer:
    """A random machine with each transition defined with chance ``density``;
    with the defaults the draws match the acceptance corpus's."""
    n = rng.randint(min_states, max_states)
    if alphabet is None:
        alphabet = ("a", "b", "c")[: rng.randint(1, max_letters)]
    states = tuple(f"s{i}" for i in range(n))
    transitions = {}
    for s in states:
        for a in alphabet:
            if rng.random() < density:
                transitions[(s, a)] = (random_element(monoid, rng), rng.choice(states))
    termination = {s: random_element(monoid, rng) if rng.random() < 0.7 else None for s in states}
    initial = None
    if not allow_no_initial or rng.random() < 0.95:
        initial = (random_element(monoid, rng), rng.choice(states))
    return Transducer(
        monoid=monoid,
        alphabet=alphabet,
        states=states,
        initial=initial,
        termination=termination,
        transitions=transitions,
    )


def random_generator(monoid: Monoid, rng: random.Random):
    """A random element of rank one (a residue for the cyclic group)."""
    if isinstance(monoid, (FreeMonoid, TraceMonoid)):
        return (rng.choice(monoid.generators),)
    if isinstance(monoid, CommutativeMonoid):
        return ((rng.choice(monoid.generators), 1),)
    if isinstance(monoid, NatAddMonoid):
        return 1
    return rng.randrange(monoid.modulus)


def complete_machine(monoid: Monoid, rng: random.Random, n: int) -> Transducer:
    """A random machine over ``a``, ``b`` with every transition defined.

    The ``a`` edges form one cycle through all ``n`` states, so every state
    is reachable and the learned machine's size depends little on the seed;
    the ``b`` edges, outputs and terminations are random.
    """
    states = tuple(f"s{i}" for i in range(n))
    transitions = {}
    for i, s in enumerate(states):
        transitions[(s, "a")] = (random_element(monoid, rng), states[(i + 1) % n])
        transitions[(s, "b")] = (random_element(monoid, rng), rng.choice(states))
    termination = {s: random_element(monoid, rng) if rng.random() < 0.7 else None for s in states}
    termination[states[0]] = random_element(monoid, rng)
    return Transducer(
        monoid=monoid,
        alphabet=("a", "b"),
        states=states,
        initial=(random_element(monoid, rng), "s0"),
        termination=termination,
        transitions=transitions,
    )


def chain_machine(monoid: Monoid, rng: random.Random, n: int, reset: bool, twins: int) -> Transducer:
    """An ``n``-state chain whose minimal machine has ``n - twins`` states.

    States ``c0 … c(k-1)`` with ``k = n - twins`` form an ``a``-chain whose
    last state alone has a defined termination, so ``a^j`` is defined from
    ``ci`` exactly when ``i + j = k - 1`` (``≥`` with twins) and the ``k``
    chain states are pairwise distinct whatever the outputs.  With twins the
    last state loops on ``a``, and the loop is unrolled into ``twins`` copies
    of it with the same outputs, which all merge back into it.  With
    ``reset`` every state also has a ``b`` edge to ``c0``.  Every output is
    of rank one, so the length of the products minimization builds, and
    with it the cost, does not depend on the seed.
    """
    k = n - twins
    alphabet = ("a", "b") if reset else ("a",)
    chain = [f"c{i}" for i in range(k)]
    tail = chain[-1:] + [f"t{j}" for j in range(1, twins + 1)]
    loop_out, reset_out = random_generator(monoid, rng), random_generator(monoid, rng)
    transitions = {}
    for i in range(k - 1):
        transitions[(chain[i], "a")] = (random_generator(monoid, rng), chain[i + 1])
    if twins:
        for here, there in zip(tail, tail[1:] + tail[-1:]):
            transitions[(here, "a")] = (loop_out, there)
    if reset:
        for s in chain[:-1]:
            transitions[(s, "b")] = (random_generator(monoid, rng), chain[0])
        for s in tail:
            transitions[(s, "b")] = (reset_out, chain[0])
    last = random_generator(monoid, rng)
    states = tuple(chain + tail[1:])
    return Transducer(
        monoid=monoid,
        alphabet=alphabet,
        states=states,
        initial=(random_generator(monoid, rng), chain[0]),
        termination={s: (last if s in tail else None) for s in states},
        transitions=transitions,
    )


def _rename(t: Transducer, rng: random.Random) -> Transducer:
    order = list(range(len(t.states)))
    rng.shuffle(order)
    names = {s: f"r{order[i]}" for i, s in enumerate(t.states)}
    return Transducer(
        monoid=t.monoid,
        alphabet=t.alphabet,
        states=tuple(names[s] for s in t.states),
        initial=None if t.initial is None else (t.initial[0], names[t.initial[1]]),
        termination={names[s]: v for s, v in t.termination.items()},
        transitions={(names[s], a): (out, names[d]) for (s, a), (out, d) in t.transitions.items()},
    )


def _split_state(t: Transducer, rng: random.Random) -> Transducer:
    """Duplicate one state and reroute a random subset of its incoming edges."""
    victim = rng.choice(t.states)
    twin = victim + "'"
    while twin in t.states:
        twin += "'"
    transitions = {}
    for (s, a), (out, target) in t.transitions.items():
        transitions[(s, a)] = (out, twin if target == victim and rng.random() < 0.5 else target)
    for a in t.alphabet:
        if (victim, a) in t.transitions:
            transitions[(twin, a)] = transitions[(victim, a)]
    initial = t.initial
    if initial is not None and initial[1] == victim and rng.random() < 0.5:
        initial = (initial[0], twin)
    termination = dict(t.termination)
    termination[twin] = termination[victim]
    return Transducer(
        monoid=t.monoid,
        alphabet=t.alphabet,
        states=t.states + (twin,),
        initial=initial,
        termination=termination,
        transitions=transitions,
    )


def _shift_outputs(t: Transducer, rng: random.Random) -> Transducer:
    """Move each chosen state's common left output factor onto its incoming
    edges (a random element for the cyclic group); the function is kept."""
    m = t.monoid
    termination = dict(t.termination)
    transitions = dict(t.transitions)
    initial = t.initial
    for s in t.states:
        if rng.random() < 0.5:
            continue
        local = [termination[s]] + [transitions[(s, a)][0] for a in t.alphabet if (s, a) in transitions]
        if isinstance(m, CyclicGroup):
            g = rng.randrange(m.modulus)
        else:
            g = lgcd_family(m, local)
            if g is None or m.is_invertible(g):
                continue
        if termination[s] is not None:
            termination[s] = m.left_divide(g, termination[s])
        for a in t.alphabet:
            if (s, a) in transitions:
                out, target = transitions[(s, a)]
                transitions[(s, a)] = (m.left_divide(g, out), target)
        for key, (out, target) in list(transitions.items()):
            if target == s:
                transitions[key] = (m.mul(out, g), target)
        if initial is not None and initial[1] == s:
            initial = (m.mul(initial[0], g), s)
    return Transducer(
        monoid=m,
        alphabet=t.alphabet,
        states=t.states,
        initial=initial,
        termination=termination,
        transitions=transitions,
    )


def _complete_small(monoid: Monoid, rng: random.Random, alphabet: tuple[str, ...], states: int) -> Transducer:
    """A random machine with exactly ``states`` states, every transition and
    an initial state."""
    return random_machine(
        monoid, rng, states, allow_no_initial=False, alphabet=alphabet, min_states=states, density=1
    )


def equivalent_pair(monoid: Monoid, rng: random.Random, alphabet: tuple[str, ...], states: int):
    """Two different machines with the same function, by splitting states and
    shifting outputs of one seed machine."""
    seed = _complete_small(monoid, rng, alphabet, states)
    left = _rename(_shift_outputs(seed, rng), rng)
    right = seed
    for _ in range(rng.randint(1, 2)):
        right = _split_state(right, rng)
    right = _rename(_shift_outputs(right, rng), rng)
    return left, right


def different_pair(monoid: Monoid, rng: random.Random, alphabet: tuple[str, ...], states: int):
    """Two machines that differ on a word of at most five letters.

    The right machine is a copy of the left one with another termination
    value at the state some word reaches; the monoids are left-cancellative,
    so the function changes on that word.
    """
    left = _complete_small(monoid, rng, alphabet, states)
    word, state = rng.choice(reachable_words(left, 5))
    new = random_element(monoid, rng)
    while new == left.termination[state]:
        new = random_element(monoid, rng)
    right = Transducer(
        monoid=monoid,
        alphabet=alphabet,
        states=left.states,
        initial=left.initial,
        termination={**left.termination, state: new},
        transitions=left.transitions,
    )
    if evaluate(left, word) == evaluate(right, word):
        raise AssertionError(f"the pair built to differ agrees on {word!r}")
    return _rename(left, rng), _rename(right, rng)


def reachable_words(t: Transducer, max_len: int) -> list[tuple[tuple, str]]:
    """``(word, state)`` for the length-lex-first word reaching each state
    within ``max_len`` letters."""
    if t.initial is None:
        return []
    first = {t.initial[1]: ()}
    frontier = [t.initial[1]]
    while frontier:
        nxt = []
        for s in frontier:
            if len(first[s]) == max_len:
                continue
            for a in t.alphabet:
                step = t.transitions.get((s, a))
                if step is not None and step[1] not in first:
                    first[step[1]] = first[s] + (a,)
                    nxt.append(step[1])
        frontier = nxt
    return [(w, s) for s, w in first.items()]


# -- the benchmark's own evaluator -------------------------------------------


def _step(t: Transducer, config, letter):
    if config is None:
        return None
    value, state = config
    step = t.transitions.get((state, letter))
    if step is None:
        return None
    out, target = step
    return (t.monoid.mul(value, out), target)


def _finish(t: Transducer, config):
    if config is None:
        return None
    value, state = config
    term = t.termination[state]
    return None if term is None else t.monoid.mul(value, term)


def evaluate(t: Transducer, word) -> object:
    """Value of ``t`` on ``word`` (``None`` for undefined)."""
    config = t.initial
    for a in word:
        config = _step(t, config, a)
    return _finish(t, config)


def first_disagreement(t1: Transducer, t2: Transducer, max_len: int, extra_words=()) -> Optional[tuple]:
    """A word up to ``max_len`` (all of them, walked as a tree) or among
    ``extra_words`` on which the two machines differ, or ``None``."""
    level = [((), t1.initial, t2.initial)]
    for depth in range(max_len + 1):
        nxt = []
        for word, c1, c2 in level:
            if _finish(t1, c1) != _finish(t2, c2):
                return word
            if depth < max_len and (c1 is not None or c2 is not None):
                for a in t1.alphabet:
                    nxt.append((word + (a,), _step(t1, c1, a), _step(t2, c2, a)))
        level = nxt
    for word in extra_words:
        if evaluate(t1, word) != evaluate(t2, word):
            return word
    return None


def sample_words(rng: random.Random, alphabet, count: int, lo: int, hi: int) -> list[tuple]:
    return [tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))) for _ in range(count)]


# -- learn-corpus and learn-large ----------------------------------------------


def _learn_item(label: str, target: Transducer, words_rng: random.Random, workload: str, row=None) -> Item:
    m = target.monoid
    up_to = CHECK_ALL_UP_TO[workload]
    extra = sample_words(words_rng, target.alphabet, CHECK_SAMPLE[workload], up_to + 1, 3 * up_to)

    def run():
        membership = montrans.oracle.membership_oracle(target)
        equivalence = montrans.oracle.equivalence_oracle(target)
        return montrans.learner.learn(m, target.alphabet, membership, equivalence)

    def check(output):
        machine, _ = output
        word = first_disagreement(machine, target, up_to, extra)
        return None if word is None else f"learned machine differs from its target on {word!r}"

    return Item(
        label,
        run,
        check,
        row=row,
        info={"states": len(target.states)},
        stats=lambda output: output[1].to_doc(),
    )


#: Corpus draws in one learn-corpus pass.  In one draw of 500 targets a few
#: dozen large three-letter ones take a third of the time, so the pass's time
#: moves with the seed; four draws average over more of them.
CORPUS_ROUNDS = 4


def learn_corpus(seed: int, scale: int = 100, rounds: int = CORPUS_ROUNDS) -> list[Item]:
    """``rounds`` draws of ``scale`` random targets per monoid kind, one after
    the other from one random stream, each drawn as the acceptance corpus
    draws them (the first at seed 9001 is that corpus)."""
    rng = random.Random(seed)
    words_rng = random.Random(seed + 1)
    monoids = standard_monoids()
    items = []
    for r in range(rounds):
        for kind, monoid in monoids.items():
            for i in range(scale):
                target = random_machine(monoid, rng, max_states=6, max_letters=3)
                items.append(_learn_item(f"{kind}/{r * scale + i}", target, words_rng, "learn-corpus"))
    return items


#: ``(kind, states)`` targets of one learn-large pass: four of each kind at 50
#: states, so that the pass's figures average over many random targets and a
#: run holds at least three passes.
LARGE_SIZES = tuple((kind, 50) for kind in KINDS for _ in range(4))
#: The single point ROADMAP item 3 quotes, as (kind, states, seconds ROADMAP
#: measured).
ROADMAP_LARGE = (("nat-add", 200, 5.8),)


def learn_large(seed: int, sizes=LARGE_SIZES, roadmap=ROADMAP_LARGE) -> list[Item]:
    rng = random.Random(seed)
    words_rng = random.Random(seed + 1)
    monoids = standard_monoids()
    items = []
    for i, (kind, n, *quoted) in enumerate(sizes + roadmap):
        target = complete_machine(monoids[kind], rng, n)
        item = _learn_item(f"{kind}/n{n}/{i}", target, words_rng, "learn-large", row=f"{kind}-{n}")
        if quoted:
            item.once = True
            item.info["roadmap_s"] = quoted[0]
        items.append(item)
    return items


# -- minimize-chains -----------------------------------------------------------

#: Monoid kinds, chain shapes and input sizes of one pass.  Each size comes
#: plain and with a quarter of its states as unrolled loop twins.  The trace
#: monoid is left out: its normal form is quadratic in the long products a
#: chain builds, which would make this workload measure trace normalization.
CHAIN_KINDS = ("free", "commutative", "nat-add", "cyclic-group")
CHAIN_SIZES = {"unary": (10, 20, 40, 80), "reset": (6, 8, 10, 12)}
#: The single points ROADMAP item 2 quotes, as (shape, states, seconds
#: ROADMAP measured for minimize).
ROADMAP_CHAINS = (("unary", 250, 1.2), ("reset", 16, 0.72))


def _chain_item(machine: Transducer, kind: str, shape: str, twins: int, roadmap_s=None) -> Item:
    n = len(machine.states)
    form = "twin" if twins else "plain"
    expected = n - twins

    def run():
        t0 = time.perf_counter()
        staged = MINIMIZE.minimize(machine)
        t1 = time.perf_counter()
        ok = MINIMIZE.check_minimal(staged.minimal)
        t2 = time.perf_counter()
        return staged, ok, t1 - t0, t2 - t1

    def check(output):
        staged, ok, _, _ = output
        if not ok:
            return "check_minimal rejected the minimal machine"
        got = len(staged.minimal.states)
        if got != expected:
            return f"{got} minimal states, closed form gives {expected}"
        return None

    return Item(
        f"{kind}/{shape}-{n}/{form}",
        run,
        check,
        digest=lambda output: output[:2],
        row=f"{shape}-{n}-{form}",
        info={"states": n, "minimal": expected, "roadmap_s": roadmap_s},
        once=roadmap_s is not None,
    )


def minimize_chains(seed: int, sizes=CHAIN_SIZES, roadmap=ROADMAP_CHAINS) -> list[Item]:
    rng = random.Random(seed)
    monoids = standard_monoids()
    cases = [
        (kind, shape, n, twins, None)
        for kind in CHAIN_KINDS
        for shape, ns in sizes.items()
        for n in ns
        for twins in (0, n // 4)
    ]
    cases += [("free", shape, n, 0, seconds) for shape, n, seconds in roadmap]
    items = []
    for kind, shape, n, twins, roadmap_s in cases:
        machine = chain_machine(monoids[kind], rng, n, shape == "reset", twins)
        items.append(_chain_item(machine, kind, shape, twins, roadmap_s))
    return items


# -- cli-files -------------------------------------------------------------------

#: Pairs per monoid kind in one cli-files pass; each pair gives five
#: invocations.  Pair ``i`` is equivalent when ``i`` is even, has
#: ``1 + (i // 2) % 2`` letters and its seed machine ``2 + (i // 4) % 3``
#: states, so every seed gives the same mix.  With three letters a few
#: ``equiv --max-len 8`` runs over trace-monoid pairs would take most of a
#: pass and make its time depend on the seed.  Forty pairs per kind average
#: what is left of the seed's effect over more machines.
CLI_PAIRS = 40


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``montrans.cli.main(argv)`` in this process: exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = montrans.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _word_text(word) -> str:
    return "".join(word) if word else "e"


def _text_word(text: str) -> tuple:
    return () if text == "e" else tuple(text)


def _render(monoid: Monoid, value) -> str:
    return "⊥" if value is None else monoid.render(value)


def _load_doc(path: Path) -> Transducer:
    return montrans.transducer.deserialize(path.read_text(encoding="utf-8"))


def _cli_items(i: int, left: Transducer, right: Transducer, same: bool, word, work: Path) -> list[Item]:
    kind = left.monoid.kind
    lpath, rpath = work / f"pair{i}_left.json", work / f"pair{i}_right.json"
    mpath, lrnpath = work / f"pair{i}_min.json", work / f"pair{i}_learned.json"
    verdict = 0 if same else 1
    expected_value = evaluate(left, word)

    def cli(argv):
        return lambda: run_cli(argv)

    def equiv_check(output):
        code, text = output
        if code != verdict:
            return f"exit code {code}, the pair was built with verdict {verdict}"
        if same:
            return None if text.startswith("equivalent") else "no 'equivalent' line"
        w = _text_word(text.splitlines()[0])
        return None if evaluate(left, w) != evaluate(right, w) else f"{w!r} is no counterexample"

    def minimize_check(output):
        code, _ = output
        if code != 0:
            return f"minimize exited {code}"
        counts = json.loads(Path(str(mpath) + ".witnesses.json").read_text(encoding="utf-8"))["state_counts"]
        order = [counts[k] for k in ("input", "reach", "total", "prefix", "minimal")]
        if order != sorted(order, reverse=True) or counts["input"] != len(right.states):
            return f"stage state counts {counts} are not a non-increasing sequence from the input"
        if not Path(str(mpath) + ".dot").is_file():
            return "no .dot file written"
        w = first_disagreement(_load_doc(mpath), right, 5)
        return None if w is None else f"minimal machine differs from its input on {w!r}"

    def learn_check(output):
        code, text = output
        if code != 0:
            return f"learn exited {code}"
        w = first_disagreement(_load_doc(lrnpath), left, 5)
        return None if w is None else f"learned machine differs from its target on {w!r}"

    def learn_stats(output):
        return json.loads(output[1])

    def eval_check(output):
        code, text = output
        want_code = 3 if expected_value is None else 0
        if code != want_code:
            return f"eval exited {code}, expected {want_code}"
        want = _render(left.monoid, expected_value)
        return None if text.strip() == want else f"eval printed {text.strip()!r}, expected {want!r}"

    tag = f"{kind}/pair{i}-{'same' if same else 'diff'}-{len(left.alphabet)}"
    items = [
        Item(
            f"{tag}/equiv",
            cli(["equiv", "--left", str(lpath), "--right", str(rpath)]),
            equiv_check,
            row="equiv",
        ),
        Item(
            f"{tag}/equiv-max-len",
            cli(["equiv", "--left", str(lpath), "--right", str(rpath), "--max-len", "8"]),
            equiv_check,
            row="equiv --max-len 8",
        ),
        Item(
            f"{tag}/minimize",
            cli(["minimize", "--machine", str(rpath), "-o", str(mpath), "--emit-stages", "--dot"]),
            minimize_check,
            row="minimize --emit-stages --dot",
        ),
        Item(
            f"{tag}/learn",
            cli(["learn", "--target", str(lpath), "-o", str(lrnpath), "--stats"]),
            learn_check,
            row="learn --stats",
            stats=learn_stats,
        ),
        Item(f"{tag}/eval", cli(["eval", "--machine", str(lpath), _word_text(word)]), eval_check, row="eval"),
    ]
    return items


def cli_files(seed: int, work: Path, pairs: int = CLI_PAIRS) -> list[Item]:
    """Machine files for ``pairs`` pairs per monoid kind, to be written into
    ``work``, and the five CLI invocations on each."""
    rng = random.Random(seed)
    items = []
    for kind, monoid in standard_monoids().items():
        for i in range(pairs):
            alphabet = ("a", "b")[: 1 + (i // 2) % 2]
            states = 2 + (i // 4) % 3
            same = i % 2 == 0
            if same:
                left, right = equivalent_pair(monoid, rng, alphabet, states)
            else:
                left, right = different_pair(monoid, rng, alphabet, states)
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            n = len(items) // 5
            items.extend(_cli_items(n, left, right, same, word, work))
            items[-5].files = {
                work / f"pair{n}_left.json": left.serialize(),
                work / f"pair{n}_right.json": right.serialize(),
            }
    return items


def write_files(items: list[Item], work: Path) -> None:
    """Write the input files of ``items`` into ``work``, made afresh."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for item in items:
        for path, text in item.files.items():
            path.write_text(text, encoding="utf-8")


def build(name: str, seed: int, work: Path, tiny: bool = False) -> list[Item]:
    """The items of workload ``name``; ``tiny`` shrinks every size for the
    benchmark's own smoke test."""
    if name == "learn-corpus":
        return learn_corpus(seed, scale=2, rounds=1) if tiny else learn_corpus(seed)
    if name == "learn-large":
        return learn_large(seed, (("free", 6),), (("nat-add", 8, 0.0),)) if tiny else learn_large(seed)
    if name == "minimize-chains":
        if tiny:
            return minimize_chains(seed, {"unary": (4,), "reset": (4,)}, (("reset", 5, 0.0),))
        return minimize_chains(seed)
    if name == "cli-files":
        return cli_files(seed, work, pairs=2 if tiny else CLI_PAIRS)
    raise ValueError(f"unknown workload {name!r}")
