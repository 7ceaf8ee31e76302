"""Bounded exhaustive run enumeration and the verification suites.

The enumeration is the brute-force oracle behind the differential and
correspondence suites: all runs up to a step bound from a start configuration,
branching over input choices only.  Pop reads are forced to the topmost data
value, push reads branch over a finite data universe (or just {0} in
normalized runs), epsilon steps are forced by determinism.  The correspondence
suites take the normalized runs: run2type sees a pushed value only as present
or absent, the others are stated over them.  Classifier-equivalence reads only
the operations, and walks one representative run per value-free branch,
weighted by the number of concrete runs it stands for: only a pop's guard
reads a value, and that value is forced, so a value read by a push or a
collapse never changes which operations can follow.

The corpus's hand-built machines are scenario texts, parsed on each use.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .core import (
    Automaton,
    Configuration,
    Run,
    Step,
    Transition,
    decollapse,
    empty_run,
    execute_word,
    extend_run,
    initial_configuration,
    pop,
    push,
    stack_values,
    step,
    strip_links,
    top_stack,
    validate_automaton,
)
from .lineage import (
    classification_table,
    derivation,
    instrument_lineage,
    is_k_return,
    is_k_upper,
    remark_k_return,
)
from .monoid import classify_word, presence_monoid, shape_monoid, validate_monoid
from .srcsets import check_idv_upper, check_origin
from .text import parse_automaton_text
from .typesys import (
    ResourceCapExceeded,
    StartRuns,
    check_idv,
    check_run2type,
    saturate_level0,
)
from .ulang import ALPHABET, build_u_recognizer, decorate_distinct, gen_w, in_u

ENUMERATION_CAP = 500_000  # concrete runs one enumeration may walk

# the suites' acceptance bounds; see run_suites
RUN_BOUND = 6
SRC_BOUND = 5
WORD_LENGTH = 6
RANDOM_WORDS = 10_000
RANDOM_WORD_LENGTH = 20
TYPED_MACHINES = 20
CORPUS_MACHINES = 50


class EnumerationCapExceeded(RuntimeError):
    pass


class _SpaceFields(NamedTuple):
    automaton: Automaton
    start: Configuration
    max_steps: int
    normalized_only: bool
    values: tuple[int, ...]


class EnumerationSpace(_SpaceFields):
    """The runs of length <= max_steps from `start`.  Their data universe
    `values` is the base universe with the values the start stack stores;
    spaces compare by `values`, not by `base`."""

    __slots__ = ()

    def __new__(
        cls,
        automaton: Automaton,
        start: Configuration,
        max_steps: int,
        base: tuple[int, ...],
        normalized_only: bool = False,
    ):
        if max_steps < 0:
            raise ValueError("the step bound must be nonnegative")
        values = tuple(sorted(set(base) | stack_values(start.stack, automaton.level)))
        if 0 not in values:
            raise ValueError("the data universe must contain 0")
        return super().__new__(cls, automaton, start, max_steps, normalized_only, values)


def walk_runs(space: EnumerationSpace, representative: bool = False):
    """(run, weight) for every run of length <= max_steps from the start
    configuration, each directly followed by its extensions in input order.

    A letter pop reads the top atom's value, a normalized push reads 0.
    At a free letter step (any other push, a collapse) the concrete walk
    branches over every value with weight 1; the representative walk
    reads 0 and multiplies the weight by the number of values.  The
    weights sum to the concrete run count, which ENUMERATION_CAP bounds."""
    aut = space.automaton
    letters = sorted(aut.input_alphabet)
    total = 0
    todo = [(empty_run(aut, space.start), space.start, 1)]
    while todo:
        run, config, weight = todo.pop()  # `config` is the run's last, as its step returned it
        total += weight
        if total > ENUMERATION_CAP:
            raise EnumerationCapExceeded(f"more than {ENUMERATION_CAP} runs at the bound")
        yield run, weight
        if len(run) == space.max_steps:
            continue
        state, stack = config
        atom = top_stack(stack, aut.level, 0)
        rules = aut.rule_table.get((state, atom.symbol))
        if isinstance(rules, Transition):  # an epsilon rule
            res = step(aut, config, None)
            if isinstance(res, Step):
                todo.append((extend_run(run, res), res.config, weight))
            continue
        if rules is None:
            continue
        children = []
        for letter in letters:
            rule = rules.get(letter)
            if rule is None:
                continue
            if rule.op.kind == "pop":
                if atom.data is None:
                    continue  # no data value can match a bare atom
                values, each = (atom.data,), weight
            elif rule.op.kind == "push" and space.normalized_only:
                values, each = (0,), weight
            elif representative:
                values, each = (0,), weight * len(space.values)
            else:
                values, each = space.values, weight
            for d in values:
                res = step(aut, config, (letter, d))
                if isinstance(res, Step):
                    children.append((extend_run(run, res), res.config, each))
        todo += reversed(children)


def enumerate_runs(space: EnumerationSpace) -> list[Run]:
    """All runs of length <= max_steps from the start configuration, each
    run directly followed by its extensions in input order (depth first):
    the concrete :func:`walk_runs`."""
    return [run for run, _ in walk_runs(space)]


def seeded_configurations(
    aut: Automaton, depth: int, base: tuple[int, ...], count: int
) -> list[Configuration]:
    """The first `count` distinct configurations reachable within `depth`
    steps; returns can only start from stacks of size >= 2, so checks
    anchored at the bare initial configuration would be vacuous."""
    space = EnumerationSpace(aut, initial_configuration(aut), depth, base)
    seen: list[Configuration] = []
    for run, _ in walk_runs(space):
        cfg = run.last
        if cfg not in seen:
            seen.append(cfg)
        if len(seen) >= count:
            break
    return seen


# ---------------------------------------------------------------------------
# machine corpus


SINGLE_POP = """\
# level 1, one rule: read `a` with the stored value and pop
level 1
input-alphabet a
stack-alphabet g0 g1
initial-state q
initial-symbol g0
accepting qf
trans q g1 in a qf pop 1
start-state q
start-stack [(g0,-) (g1,5)]
"""

CLASSIFICATION_EXAMPLE = """\
# the worked example: an epsilon chain driving push^2(e), pop^1, pop^2,
# pop^1, push^1(d), pop^1 from a seeded two-column stack
level 2
input-alphabet a
stack-alphabet a b c d e
initial-state t0
initial-symbol a
accepting t6
trans t0 d eps t1 push 2 e
trans t1 e eps t2 pop 1
trans t2 c eps t3 pop 2
trans t3 d eps t4 pop 1
trans t4 c eps t5 push 1 d
trans t5 d eps t6 pop 1
start-state t0
start-stack [[(a,-) (b,-)] [(c,-) (d,-)]]
"""

EXCURSION = """\
# Level 2: copy the working 1-stack, read a buried value inside the
# copy, drop the copy, and finish with a pop of the original top.
#
# From a seeded 1-stack [g@5 g@7 g@9] the run push^2, pop^1,
# pop^2(a@7), pop^1(b@9) is a length-4 1-return that reads the value
# buried one below the top, so that value is important for the stack
# piece under the top atom; the push^1/pop^1 bounce adds nonempty
# 0-upper runs.  This is the smallest shape where the origin and
# importance transfers have nontrivial positive instances.
level 2
input-alphabet a b c
stack-alphabet g h
initial-state q
initial-symbol g
accepting q4
trans q g in c q1 push 2 g
trans q1 g eps q2 pop 1
trans q2 g in a q3 pop 2
trans q3 g in b q4 pop 1
trans q g in b qp push 1 h
trans qp h in a q pop 1
start-state q
start-stack [[(g,-)] [(g,5) (g,7) (g,9)]]
"""


def classification_example_run() -> Run:
    """The length-6 example run, driven to completion by epsilon steps."""
    aut, start = parse_automaton_text(CLASSIFICATION_EXAMPLE)
    return execute_word(aut, (), start=start).run


def u_fragment_corpus() -> tuple[Automaton, list[Configuration]]:
    """The collapse-free fragment of the bracket-mirror recognizer with
    configurations seeded from real runs of the full machine.

    The fragment drops the single collapse rule, so its runs are honest
    level-2 HOPAD runs, while the seeded stacks are rich in stored data
    values; the mirror-phase pop rules make those values important."""
    full = build_u_recognizer()
    frag = decollapse(full)
    words = (
        (),  # just the bootstrap copy of the bottom 1-stack
        (("[", 1),),
        (("[", 1), ("[", 2)),
        (("[", 1), ("]", 1), ("[", 2)),
        (("[", 1), ("[", 2), ("$", 0)),
        (("[", 1), ("[", 2), ("]", 2), ("$", 0)),
    )
    configs: list[Configuration] = []
    for word in words:
        run = execute_word(full, word).run
        cfg = run.last
        cfg = Configuration(cfg.state, strip_links(cfg.stack, full.level))
        if cfg not in configs:
            configs.append(cfg)
    return frag, configs


CLASSIFICATION_EXAMPLE_GRID = {
    # j -> (0-upper set, 1-upper set, 1-return set, 2-return set)
    0: ({0}, {0}, set(), set()),
    1: ({0, 1}, {0, 1}, set(), set()),
    2: ({2}, {0, 1, 2}, {0, 1}, set()),
    3: ({0, 3}, {0, 3}, set(), {1, 2}),
    4: ({4}, {0, 3, 4}, {0, 3}, set()),
    5: ({4, 5}, {0, 3, 4, 5}, set(), set()),
    6: ({4, 6}, {0, 3, 4, 5, 6}, {5}, set()),
}


def random_machine(seed: int, index: int) -> Automaton:
    """A seeded deterministic level-2 machine, pop-biased so that run
    spaces stay small at the enumeration bounds."""
    rng = random.Random(f"{seed}:{index}")
    n_states = rng.randint(1, 3)
    n_syms = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    syms = tuple(f"g{i}" for i in range(n_syms))
    letters = ("a", "b")

    def random_op():
        roll = rng.random()
        if roll < 0.30:
            return pop(1)
        if roll < 0.55:
            return pop(2)
        if roll < 0.80:
            return push(1, rng.choice(syms))
        return push(2, rng.choice(syms))

    rules = []
    for q in states:
        for g in syms:
            roll = rng.random()
            if roll < 0.25:
                continue
            if roll < 0.50:
                rules.append(Transition(q, g, None, rng.choice(states), random_op()))
            else:
                for a in letters:
                    if rng.random() < 0.7:
                        rules.append(
                            Transition(q, g, a, rng.choice(states), random_op())
                        )
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return validate_automaton(
        Automaton(
            level=2,
            input_alphabet=frozenset(letters),
            stack_alphabet=frozenset(syms),
            initial_symbol=syms[0],
            states=frozenset(states),
            initial_state=states[0],
            accepting=accepting,
            transitions=tuple(rules),
        )
    )


# ---------------------------------------------------------------------------
# verification suites

class SuiteReport(NamedTuple):
    lines: list[str]  # a list, as lines read back from JSON are
    hard_total: int

    @property
    def ok(self) -> bool:
        return self.hard_total == 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _corpus(seed: int, count: int):
    """The harness machine corpus: named machines with start configurations."""
    for name, text in (
        ("single-pop", SINGLE_POP),
        ("classification-example", CLASSIFICATION_EXAMPLE),
        ("excursion", EXCURSION),
    ):
        aut, start = parse_automaton_text(text)
        yield name, aut, [start]
    frag, cfgs = u_fragment_corpus()
    yield "u-fragment", frag, cfgs
    for i in range(count):
        aut = random_machine(seed, i)
        yield f"random-{i}", aut, seeded_configurations(aut, 3, (0, 1, 2), 4)


def _suite_monoid_laws(seed, run_bound, src_bound):
    mon = shape_monoid()
    hard = list(validate_monoid(mon))
    checked = 0
    for w in _words(ALPHABET, 4):
        for cut in range(len(w) + 1):
            u, v = w[:cut], w[cut:]
            checked += 1
            if classify_word(mon, w) != mon.mul(classify_word(mon, u), classify_word(mon, v)):
                hard.append(f"homomorphism fails at {u}|{v}")
        expected = (
            "ID"
            if not w
            else "CLOSE"
            if w == ("]",)
            else "DOLLAR"
            if w[0] == "$"
            else "OTHER"
        )
        if classify_word(mon, w) != expected:
            hard.append(f"shape classification fails at {w}")
    return hard, [], {"checked": checked}


def _mirror(word) -> tuple:
    """The suffix closing `word` after a `$`: reversed, brackets turned."""
    return tuple(("]" if a == "[" else "[", d) for a, d in reversed(word))


def _family_words(k: int, reps: int):
    """(name, word) pairs around the paper's w_k with N = `reps`: the word
    with distinct values, its `$`-mirrored completion (a member), that
    completion with the first, middle or last suffix letter given a fresh
    value, and the completion without its last letter."""
    half = decorate_distinct(gen_w(k, reps))
    mirror = _mirror(half)
    whole = half + (("$", 0),) + mirror
    yield "w", half
    yield "completion", whole
    for name, i in (("first", len(half) + 1), ("middle", len(half) + 1 + len(mirror) // 2),
                    ("last", len(whole) - 1)):
        yield f"{name}-perturbed", whole[:i] + ((whole[i][0], len(whole) + 1),) + whole[i + 1:]
    yield "truncated", whole[:-1]


def _suite_w_recurrence(seed, run_bound, src_bound):
    """The recognizer against the oracle on the word family of the
    separation argument, k = 0..4 and N = 1..3: up to 807 letters."""
    aut = build_u_recognizer()
    hard = []
    checked = 0
    for reps in (1, 2, 3):
        for k in range(5):
            for name, word in _family_words(k, reps):
                checked += 1
                machine, oracle = execute_word(aut, word).accepted, in_u(word).member
                if machine != oracle:
                    hard.append(f"disagreement on {name} w_{k} N={reps}: machine {machine}, oracle {oracle}")
    return hard, [], {"checked": checked}


def _suite_table1(seed, run_bound, src_bound):
    run = classification_example_run()
    lrun = instrument_lineage(run)
    table = classification_table(lrun)
    hard = []
    for j, (u0, u1, r1, r2) in CLASSIFICATION_EXAMPLE_GRID.items():
        got = (table.upper[(j, 0)], table.upper[(j, 1)], table.returns[(j, 1)], table.returns[(j, 2)])
        if got != (u0, u1, r1, r2):
            hard.append(f"row j={j}: got {tuple(map(set, got))}")
    if is_k_return(lrun, 1):
        hard.append("the whole example run must not be a 1-return")
    for j in range(7):
        if table.upper[(j, 2)] != set(range(j + 1)):
            hard.append(f"every subrun must be 2-upper at j={j}")
    return hard, [], {"rows": 7}


def _words(symbols, max_len):
    """Every word over `symbols` of at most `max_len` letters, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def _near_member_words(rng: random.Random, count: int, max_len: int):
    """Members of the language with 0-3 small perturbations applied."""
    out = []
    for _ in range(count):
        body = []
        opens = []  # the positions of the unmatched opening brackets
        for _ in range(rng.randint(0, (max_len - 1) // 2)):
            if opens and rng.random() < 0.45:
                body.append("]")
                opens.pop()
            else:
                opens.append(len(body))
                body.append("[")
        word = [(a, rng.randint(1, 6)) for a in body]
        word += [("$", rng.randint(0, 6)), *_mirror(word[: opens[-1] + 1 if opens else 0])]
        for _ in range(rng.randint(0, 3)):
            if not word:
                break
            roll = rng.random()
            pos = rng.randrange(len(word))
            if roll < 0.4:
                word[pos] = (word[pos][0], rng.randint(0, 6))
            elif roll < 0.6:
                word[pos] = (rng.choice(ALPHABET), word[pos][1])
            elif roll < 0.8:
                del word[pos]
            else:
                word.insert(pos, (rng.choice(ALPHABET), rng.randint(0, 6)))
        out.append(tuple(word[:max_len]))
    return out


def _suite_u_differential(seed, run_bound, src_bound):
    aut = build_u_recognizer()
    hard = []
    checked = 0
    rng = random.Random(f"{seed}:u-differential")
    for word in itertools.chain(
        _words([(a, d) for a in ALPHABET for d in (0, 1, 2)], WORD_LENGTH),
        _near_member_words(rng, RANDOM_WORDS, RANDOM_WORD_LENGTH),
    ):
        checked += 1
        if execute_word(aut, word).accepted != in_u(word).member:
            hard.append(f"disagreement on {word}")
    return hard, [], {"checked": checked}


def _suite_classifier_equivalence(seed, run_bound, src_bound):
    hard = []
    checked = 0
    derived: dict = {}  # shared by every start configuration
    for name, aut, cfgs in _corpus(seed, CORPUS_MACHINES):
        n = aut.level
        for cfg in cfgs:
            # both routes read the start stack's shape and the operations,
            # never a data value, so one representative run decides all the
            # concrete runs it stands for (see walk_runs)
            space = EnumerationSpace(aut, cfg, run_bound, (0, 1))
            mismatches: dict[tuple, list[str]] = {}
            for run, weight in walk_runs(space, representative=True):
                ops = run.operations()
                if ops not in mismatches:
                    mismatches[ops] = _classifier_mismatches(name, run, ops, derived)
                checked += weight * (3 * n + 1)
            if any(mismatches.values()):  # one line per concrete run, in its order
                hard += [line for run in enumerate_runs(space) for line in mismatches[run.operations()]]
    return hard, [], {"checked": checked}


def _classifier_mismatches(name, run, ops, derived):
    """Where lineage classification and syntactic decomposition disagree
    on the run, whose operations are `ops`, for every level.  Lineage
    reads the start stack, a derivation only the operations, so the
    derivations come from the ``lineage.derivation`` memo `derived`,
    shared by runs from any start configuration."""
    lrun = instrument_lineage(run)
    n = run.automaton.level
    out = []
    for k in range(0, n + 1):
        if is_k_upper(lrun, k) != (derivation(derived, "upper", run, ops, k) is not None):
            out.append(f"{name}: upper mismatch k={k} ops={ops}")
    for r in range(1, n + 1):
        lhs = is_k_return(lrun, r)
        if lhs != (derivation(derived, "return", run, ops, r) is not None):
            out.append(f"{name}: return mismatch r={r} ops={ops}")
        if lhs != remark_k_return(lrun, r):
            out.append(f"{name}: remark mismatch r={r} ops={ops}")
    return out


def _fold(reports):
    """A suite's result from its (machine name, CheckReport) pairs: the
    hard and unwitnessed lines, prefixed with the name, and the counts."""
    hard, soft = [], []
    stats = {"checked": 0, "verified": 0}
    for name, rep in reports:
        hard += [f"{name}: {h}" for h in rep.hard_failures]
        soft += [f"{name}: {s}" for s in rep.unwitnessed]
        stats["checked"] += rep.checked
        stats["verified"] += rep.verified
    return hard, soft, stats


def _starts(seed, machines, bound):
    """Per start configuration of the first `machines` corpus machines,
    each saturated once: the machine's name, the StartRuns of its
    normalized runs up to `bound` over the base universe (0, 1), sharing
    one derivation memo, and the nonzero values its stack stores."""
    derived: dict = {}
    for name, aut, cfgs in _corpus(seed, machines):
        monoid = shape_monoid() if name == "u-fragment" else presence_monoid(aut.input_alphabet)
        table = saturate_level0(aut, monoid)
        for cfg in cfgs:
            runs = enumerate_runs(EnumerationSpace(aut, cfg, bound, (0, 1), normalized_only=True))
            yield name, StartRuns(cfg, table, runs, derived), stack_values(cfg.stack, aut.level) - {0}


def _suite_run2type(seed, run_bound, src_bound):
    starts = _starts(seed, TYPED_MACHINES, run_bound)
    hard, soft, stats = _fold((name, check_run2type(start)) for name, start, _ in starts)
    misses = sum(line.startswith("single-pop: ") for line in soft)
    if misses:
        hard.append(f"single-pop machine must be fully witnessed, {misses} misses")
    return hard, soft, stats


def _suite_idv(seed, run_bound, src_bound):
    starts = _starts(seed, TYPED_MACHINES, run_bound)
    reports = [(name, check_idv(start, sorted({1, 2} | stored)[:4])) for name, start, stored in starts]
    hard, soft, stats = _fold(reports)
    if not any(rep.verified for name, rep in reports if name == "single-pop"):
        hard.append("single-pop worked example (d=5 read and important) not verified")
    return hard, soft, stats


def _suite_origin(seed, run_bound, src_bound):
    return _transfer(seed, src_bound, check_origin, {1, 2}, 0)


def _suite_idv_upper(seed, run_bound, src_bound):
    return _transfer(seed, src_bound, check_idv_upper, {1, 2, 3}, 1)


def _transfer(seed, src_bound, check, extra, top):
    """A transfer suite: `check(run, k, start, values)` on each corpus run
    up to `src_bound` steps and each k below the level plus `top`, with
    the least len(extra) + 2 values of `extra` and those the start stores."""
    return _fold(
        (name, check(run, k, start, sorted(extra | stored)[: len(extra) + 2]))
        for name, start, stored in _starts(seed, CORPUS_MACHINES, src_bound)
        for run in start.runs  # the check decides whether the run is k-upper
        for k in range(start.table.automaton.level + top)
    )


_SUITE_FUNCTIONS = {
    "monoid-laws": _suite_monoid_laws,
    "w-recurrence": _suite_w_recurrence,
    "table1": _suite_table1,
    "u-differential": _suite_u_differential,
    "classifier-equivalence": _suite_classifier_equivalence,
    "run2type": _suite_run2type,
    "idv": _suite_idv,
    "origin": _suite_origin,
    "idv-upper": _suite_idv_upper,
}

SUITE_NAMES = tuple(_SUITE_FUNCTIONS)


def run_suites(selection=None, seed: int = 0, max_steps=None) -> SuiteReport:
    """Run the named verification suites; deterministic given the seed.

    The runs the suites enumerate take at most `max_steps` steps
    (RUN_BOUND when None), and at most SRC_BOUND in the transfer suites.
    Failures are data, not exceptions: every suite contributes one
    line `suite=<name> status=<pass|fail> hard=<n> soft=<n> ...` plus
    one detail line per hard failure.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"the step bound must be at least 1, got {max_steps}")
    selection = SUITE_NAMES if selection is None else tuple(selection)
    for name in selection:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}")
    run_bound = RUN_BOUND if max_steps is None else max_steps
    src_bound = min(run_bound, SRC_BOUND)
    lines, hard_total = [], 0
    for name in selection:
        try:
            hard, soft, stats = _SUITE_FUNCTIONS[name](seed, run_bound, src_bound)
        except (EnumerationCapExceeded, ResourceCapExceeded) as exc:
            # resource blow-ups are reported as failures, not tracebacks
            hard, soft, stats = [f"aborted: {exc}"], [], {}
        status = "pass" if not hard else "fail"
        extras = " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        lines.append(
            f"suite={name} status={status} hard={len(hard)} soft={len(soft)} {extras}".rstrip()
        )
        for failure in hard[:20]:
            lines.append(f"  hard: {failure}")
        hard_total += len(hard)
    return SuiteReport(lines, hard_total)
