"""Deterministic higher-order pushdown automata over data words.

A data word is a sequence of (letter, value) pairs: a letter from a finite
alphabet together with a natural-number data value.  Only equality of data
values is observable.  The automaton's stack is an n-fold nesting of
sequences whose leaves (0-stacks) are atoms carrying a stack symbol, an
optional data value, and, in the collapsible variant, a tuple of collapse
links recording stack sizes at push time.

Stacks are immutable: a 0-stack is an :class:`Atom`, a k-stack for k >= 1
is a tuple of (k-1)-stacks with the top at the right.  Every operation
returns a new stack and never mutates its input, so configurations and
runs can be stored and shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

NO_DATA = None

DEFAULT_EPS_BUDGET = 10_000

DataWord = tuple[tuple[str, int], ...]
Label = tuple[Optional[str], Optional[int]]


class StackError(Exception):
    """Base class for stack operation failures."""


class IllFormed(StackError):
    """The operation would produce an ill-formed (somewhere-empty) stack."""


class CollapseUnavailable(StackError):
    """Collapse applied to a stack of a non-collapsible automaton."""


class Atom(NamedTuple):
    symbol: str
    data: Optional[int]
    links: Optional[tuple[int, ...]] = None


Stack = Union[Atom, tuple]


@dataclass(frozen=True)
class Op:
    kind: str  # "pop" | "push" | "collapse"
    level: int
    symbol: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "push":
            return f"push^{self.level}({self.symbol})"
        return f"{self.kind}^{self.level}"


def pop(k: int) -> Op:
    return Op("pop", k)


def push(k: int, symbol: str) -> Op:
    return Op("push", k, symbol)


def collapse(i: int) -> Op:
    return Op("collapse", i)


class Transition(NamedTuple):
    state: str
    symbol: str
    letter: Optional[str]  # None encodes an epsilon transition
    target: str
    op: Op


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} {self.detail}"


class InvalidAutomaton(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Automaton:
    level: int
    input_alphabet: frozenset[str]
    stack_alphabet: frozenset[str]
    initial_symbol: str
    states: frozenset[str]
    initial_state: str
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]
    collapsible: bool = False

    @cached_property
    def eps_rules(self) -> dict[tuple[str, str], Transition]:
        return {
            (t.state, t.symbol): t for t in self.transitions if t.letter is None
        }

    @cached_property
    def letter_rules(self) -> dict[tuple[str, str, str], Transition]:
        return {
            (t.state, t.symbol, t.letter): t
            for t in self.transitions
            if t.letter is not None
        }

    @cached_property
    def uses_collapse(self) -> bool:
        return any(t.op.kind == "collapse" for t in self.transitions)


class Configuration(NamedTuple):
    state: str
    stack: Stack


def automaton_diagnostics(aut: Automaton) -> list[Diagnostic]:
    """Return every violation of the model's well-formedness rules."""
    out: list[Diagnostic] = []
    if aut.level < 1:
        out.append(Diagnostic("level-out-of-range", f"automaton level {aut.level}"))
    if aut.initial_state not in aut.states:
        out.append(Diagnostic("dangling-state", f"initial state {aut.initial_state}"))
    if aut.initial_symbol not in aut.stack_alphabet:
        out.append(Diagnostic("dangling-symbol", f"initial symbol {aut.initial_symbol}"))
    for q in sorted(aut.accepting - aut.states):
        out.append(Diagnostic("dangling-state", f"accepting state {q}"))
    seen: dict[tuple[str, str, Optional[str]], Transition] = {}
    eps_keys = set()
    letter_keys = set()
    for t in aut.transitions:
        where = f"at ({t.state},{t.symbol},{t.letter if t.letter is not None else 'eps'})"
        if t.state not in aut.states:
            out.append(Diagnostic("dangling-state", f"source {t.state} {where}"))
        if t.target not in aut.states:
            out.append(Diagnostic("dangling-state", f"target {t.target} {where}"))
        if t.symbol not in aut.stack_alphabet:
            out.append(Diagnostic("dangling-symbol", f"top symbol {t.symbol} {where}"))
        if t.letter is not None and t.letter not in aut.input_alphabet:
            out.append(Diagnostic("dangling-letter", f"letter {t.letter} {where}"))
        if t.op.kind == "push" and t.op.symbol not in aut.stack_alphabet:
            out.append(Diagnostic("dangling-symbol", f"pushed symbol {t.op.symbol} {where}"))
        if not 1 <= t.op.level <= aut.level:
            out.append(Diagnostic("level-out-of-range", f"{t.op} {where}"))
        if t.op.kind == "collapse" and not aut.collapsible:
            out.append(Diagnostic("collapse-not-allowed", where))
        key = (t.state, t.symbol, t.letter)
        if key in seen:
            out.append(Diagnostic("determinism-conflict", where))
        seen[key] = t
        if t.letter is None:
            eps_keys.add((t.state, t.symbol))
        else:
            letter_keys.add((t.state, t.symbol))
    for pair in sorted(eps_keys & letter_keys):
        out.append(Diagnostic("epsilon-conflict", f"at ({pair[0]},{pair[1]})"))
    return out


def validate_automaton(aut: Automaton) -> Automaton:
    """Return the automaton unchanged, or raise with all violations."""
    diagnostics = automaton_diagnostics(aut)
    if diagnostics:
        raise InvalidAutomaton(diagnostics)
    return aut


def initial_configuration(aut: Automaton) -> Configuration:
    links = (1,) * aut.level if aut.collapsible else None
    stack: Stack = Atom(aut.initial_symbol, NO_DATA, links)
    for _ in range(aut.level):
        stack = (stack,)
    return Configuration(aut.initial_state, stack)


def top_atom(stack: Stack, level: int) -> Atom:
    cur = stack
    for _ in range(level):
        cur = cur[-1]
    return cur


def top_stack(stack: Stack, level: int, k: int) -> Stack:
    """The topmost k-stack of a level-`level` stack."""
    cur = stack
    for _ in range(level - k):
        cur = cur[-1]
    return cur


def stack_sizes(stack: Stack, level: int) -> tuple[int, ...]:
    """Sizes (k_1, ..., k_n) of the topmost i-stacks, i = 1..level."""
    sizes = [0] * level
    cur = stack
    for lvl in range(level, 0, -1):
        sizes[lvl - 1] = len(cur)
        cur = cur[-1]
    return tuple(sizes)


def stack_values(stack: Stack, level: int) -> set:
    """The data values stored anywhere in a level-`level` stack."""
    if level == 0:
        return set() if stack.data is None else {stack.data}
    out = set()
    for child in stack:
        out |= stack_values(child, level - 1)
    return out


def is_well_formed(stack: Stack, level: int) -> bool:
    if level == 0:
        return isinstance(stack, Atom)
    return (
        isinstance(stack, tuple)
        and len(stack) >= 1
        and all(is_well_formed(s, level - 1) for s in stack)
    )


def spine(stack: Stack, level: int, k: int) -> tuple[Stack, ...]:
    """Decompose into pieces (s^level, ..., s^k).

    s^k is the topmost k-stack; each s^i above it is the topmost i-stack
    with its own topmost (i-1)-stack removed (possibly leaving it empty).
    ``recompose`` inverts this decomposition.
    """
    pieces = []
    cur = stack
    for _ in range(level, k, -1):
        pieces.append(cur[:-1])
        cur = cur[-1]
    pieces.append(cur)
    return tuple(pieces)


def recompose(pieces: Iterable[Stack]) -> Stack:
    pieces = tuple(pieces)
    cur = pieces[-1]
    for piece in reversed(pieces[:-1]):
        cur = piece + (cur,)
    return cur


def _modify_top(stack: Stack, depth: int, fn):
    if depth == 0:
        return fn(stack)
    return stack[:-1] + (_modify_top(stack[-1], depth - 1, fn),)


def apply_operation(
    stack: Stack,
    level: int,
    op: Op,
    data: Optional[int] = NO_DATA,
    collapsible: bool = False,
) -> Stack:
    """Apply one stack operation; `data` is the value carried by the step.

    pop^k removes the topmost (k-1)-stack of the topmost k-stack.  push^k
    duplicates the topmost (k-1)-stack and rewrites the duplicate's top
    atom to (symbol, data); on collapsible stacks the rewritten atom
    records (k_1, ..., k_n), the sizes of the topmost i-stacks after the
    operation.  collapse^i truncates the topmost i-stack so that only
    k_i - 1 of its (i-1)-stacks remain, k_i taken from the top atom.
    """
    if op.kind == "pop":
        def drop_top(s):
            if len(s) < 2:
                raise IllFormed(f"{op} would empty the topmost {op.level}-stack")
            return s[:-1]

        return _modify_top(stack, level - op.level, drop_top)

    if op.kind == "push":
        k = op.level
        if collapsible:
            sizes = stack_sizes(stack, level)
            links = tuple(
                sz + (1 if lvl == k else 0) for lvl, sz in enumerate(sizes, start=1)
            )
        else:
            links = None
        atom = Atom(op.symbol, data, links)

        def dup(s):
            return s + (_modify_top(s[-1], k - 1, lambda _: atom),)

        return _modify_top(stack, level - k, dup)

    if op.kind == "collapse":
        if not collapsible:
            raise CollapseUnavailable(f"{op} on a non-collapsible stack")
        atom = top_atom(stack, level)
        keep = atom.links[op.level - 1] - 1
        def truncate(s):
            if keep < 1:
                raise IllFormed(f"{op} would empty the topmost {op.level}-stack")
            if keep > len(s):
                raise IllFormed(f"{op} link {keep + 1} exceeds current size {len(s)}")
            return s[:keep]

        return _modify_top(stack, level - op.level, truncate)

    raise ValueError(f"unknown operation kind {op.kind!r}")


class Step(NamedTuple):
    config: Configuration
    label: Label
    transition: Transition


class Stuck(NamedTuple):
    reason: str


StepResult = Union[Step, Stuck]


def step(aut: Automaton, config: Configuration, next_input=None) -> StepResult:
    """Take the unique next step, if any.

    An epsilon rule for (state, top symbol) always wins; it consumes no
    input, pushes store NO_DATA, and pops are unconditional.  Otherwise a
    letter rule matching `next_input = (letter, value)` fires; a push
    stores the value, a pop additionally requires it to equal the data of
    the topmost atom.
    """
    state, stack = config
    atom = top_atom(stack, aut.level)
    rule = aut.eps_rules.get((state, atom.symbol))
    if rule is not None:
        try:
            new = apply_operation(stack, aut.level, rule.op, NO_DATA, aut.collapsible)
        except StackError as exc:
            return Stuck(f"ill-formed: {exc}")
        return Step(Configuration(rule.target, new), (None, None), rule)
    if next_input is None:
        return Stuck("no-transition")
    letter, value = next_input
    rule = aut.letter_rules.get((state, atom.symbol, letter))
    if rule is None:
        return Stuck("no-transition")
    if rule.op.kind == "pop" and atom.data != value:
        return Stuck("data-mismatch")
    try:
        new = apply_operation(stack, aut.level, rule.op, value, aut.collapsible)
    except StackError as exc:
        return Stuck(f"ill-formed: {exc}")
    return Step(Configuration(rule.target, new), (letter, value), rule)


@dataclass(frozen=True)
class Run:
    """A sequence of configurations joined by single steps.

    `labels[i]` is the (letter, value) consumed by step i+1, with
    (None, None) for epsilon steps; `transitions[i]` is the rule applied.
    """

    automaton: Automaton
    configs: tuple[Configuration, ...]
    labels: tuple[Label, ...]
    transitions: tuple[Transition, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def at(self, i: int) -> Configuration:
        return self.configs[i]

    def subrun(self, i: int, j: int) -> "Run":
        if not 0 <= i <= j <= len(self):
            raise IndexError(f"subrun [{i}..{j}] out of range 0..{len(self)}")
        return Run(
            self.automaton,
            self.configs[i : j + 1],
            self.labels[i:j],
            self.transitions[i:j],
        )

    def compose(self, other: "Run") -> "Run":
        if self.automaton is not other.automaton:
            raise ValueError("compose across automata")
        if self.configs[-1] != other.configs[0]:
            raise ValueError("compose of non-adjacent runs")
        return Run(
            self.automaton,
            self.configs + other.configs[1:],
            self.labels + other.labels,
            self.transitions + other.transitions,
        )

    @property
    def read_word(self) -> DataWord:
        return tuple((a, d) for a, d in self.labels if a is not None)

    def operations(self) -> tuple[Op, ...]:
        return tuple(t.op for t in self.transitions)


def empty_run(aut: Automaton, config: Configuration) -> Run:
    return Run(aut, (config,), (), ())


def extend_run(run: Run, step_result: Step) -> Run:
    return Run(
        run.automaton,
        run.configs + (step_result.config,),
        run.labels + (step_result.label,),
        run.transitions + (step_result.transition,),
    )


@dataclass(frozen=True)
class Outcome:
    kind: str  # "accepted" | "rejected" | "budget-exhausted"
    run: Run
    reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.kind == "accepted"


def execute_word(
    aut: Automaton,
    word: DataWord,
    eps_budget: int = DEFAULT_EPS_BUDGET,
    start: Optional[Configuration] = None,
) -> Outcome:
    """Run the automaton on a data word from `start`, by default its
    initial configuration.

    Accepts when an accepting state is reached with the whole word
    consumed (trailing epsilon steps permitted).  `eps_budget` bounds
    consecutive epsilon steps so deterministic epsilon loops terminate:
    the step that would exceed it is not taken, so a budget-exhausted
    run ends with exactly `eps_budget` consecutive epsilon steps.
    """
    run = empty_run(aut, initial_configuration(aut) if start is None else start)
    pos = 0
    streak = 0
    while True:
        config = run.configs[-1]
        if pos == len(word) and config.state in aut.accepting:
            return Outcome("accepted", run)
        nxt = word[pos] if pos < len(word) else None
        res = step(aut, config, nxt)
        if isinstance(res, Stuck):
            if pos < len(word):
                reason = f"{res.reason}, {len(word) - pos} letters unconsumed"
            else:
                reason = res.reason
            return Outcome("rejected", run, reason)
        if res.label[0] is None:
            streak += 1
            if streak > eps_budget:
                return Outcome("budget-exhausted", run)
        else:
            streak = 0
            pos += 1
        run = extend_run(run, res)


def project_word(word: DataWord) -> tuple[str, ...]:
    """Drop the data values, keeping the letters."""
    return tuple(a for a, _ in word)


def replay(run: Run) -> bool:
    """Check that every step of a run is a valid step of its automaton."""
    aut = run.automaton
    for i, (label, tr) in enumerate(zip(run.labels, run.transitions)):
        nxt = None if label[0] is None else label
        res = step(aut, run.configs[i], nxt)
        if not isinstance(res, Step):
            return False
        if res.config != run.configs[i + 1] or res.transition != tr:
            return False
        if res.label != label:
            return False
    return True


def strip_links(stack: Stack, level: int) -> Stack:
    """Rebuild a stack of a collapsible automaton without the links."""
    if level == 0:
        return Atom(stack.symbol, stack.data, None)
    return tuple(strip_links(s, level - 1) for s in stack)


def decollapse(aut: Automaton) -> Automaton:
    """The collapse-free fragment: drop collapse rules and the links."""
    return Automaton(
        level=aut.level,
        input_alphabet=aut.input_alphabet,
        stack_alphabet=aut.stack_alphabet,
        initial_symbol=aut.initial_symbol,
        states=aut.states,
        initial_state=aut.initial_state,
        accepting=aut.accepting,
        transitions=tuple(t for t in aut.transitions if t.op.kind != "collapse"),
        collapsible=False,
    )
