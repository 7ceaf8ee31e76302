"""Deterministic higher-order pushdown automata over data words.

A data word is a sequence of (letter, value) pairs: a letter from a finite
alphabet together with a natural-number data value.  Only equality of data
values is observable.  The automaton's stack is an n-fold nesting of
sequences whose leaves (0-stacks) are atoms carrying a stack symbol, an
optional data value, and, in the collapsible variant, a tuple of collapse
links recording stack sizes at push time.

Stacks are persistent: a 0-stack is an :class:`Atom`, a k-stack for
k >= 1 is a :class:`Node` holding its topmost (k-1)-stack on the k-stack
below it, its size and a cached hash.  No node is ever mutated; an
operation rebuilds only the path from the root to the rewritten substack
and shares everything under it with its input, so pop and push cost
O(level) and consecutive configurations of a run share their stacks
almost entirely (collapse also walks past the (i-1)-stacks it removes).
A push records links, the new sizes of the topmost i-stacks, exactly
when the atom it rewrites carries them: the links are the one record of
collapsibility, fixed where a stack is made.  Operations build their
nodes through `_node`, past the Python-level `Node.__init__`, and make
no size object twice: a node rebuilt above the rewritten substack keeps
the old node's, and the k-stack a push^k grows shares its with the new
atom's level-k link.  A path of depth 0 or 1 is
rebuilt without recursion.  A run made by :func:`extend_run` points at
the run it extends, so recording a step costs O(1) and keeps one run
holding the step's stack, label and rule (whose target is the step's
state): no :class:`Configuration` and no :class:`Step` outlives the call
that records it.  The run's `last` and its tuples are built on first
read, and the pointer is dropped with the tuples.  A letter step's label
is the word's own (letter, value) pair.  :meth:`Run.operations` reads
`transitions`, so it builds the tuples too.  An automaton builds its
rule table, keyed by (state, top symbol), and its initial configuration
on first use and shares them, so :func:`step` finds its rule with one
keyed lookup and, for a letter, one more.  Configurations and runs can
be stored and shared freely, across threads too: values filled in on
first use are the same whichever thread fills them in.

Nested tuples (a k-stack as a tuple of (k-1)-stacks, top at the right)
are the tuple model's form, :func:`from_nested` and :func:`to_nested`
its bridge; the literal and I/O form is the text of :mod:`hopad.text`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

NO_DATA = None

DEFAULT_EPS_BUDGET = 10_000

MAX_LEVEL = 100  # stacks nest at most this deep; recursive walks stay within Python's limit

DataWord = tuple[tuple[str, int], ...]
Label = tuple[Optional[str], Optional[int]]


class IllFormed(Exception):
    """The operation would produce an ill-formed (somewhere-empty) stack."""


class Atom(NamedTuple):
    symbol: str
    data: Optional[int]
    links: Optional[tuple[int, ...]] = None


class Node:
    """A nonempty k-stack, k >= 1: the (k-1)-stack `top` on the k-stack
    `below`, which is None when `top` is the only element.

    The hash is computed on first use and cached in the node, as are the
    hashes of the nodes below it that it needs.  Equality compares sizes
    and any cached hashes first, then walks down `below` iteratively,
    stopping as soon as both sides share a node, so stacks as wide as a
    long run compare and hash without deep recursion.  Iteration yields
    the elements bottom to top.
    """

    __slots__ = ("below", "top", "size", "_hash")

    def __init__(self, below: Optional["Node"], top: "Stack"):
        self.below = below
        self.top = top
        self.size = 1 if below is None else below.size + 1
        self._hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            unhashed = []
            node = self
            while node is not None and node._hash is None:
                unhashed.append(node)
                node = node.below
            h = 0 if node is None else node._hash
            for node in reversed(unhashed):
                h = node._hash = hash((h, node.top))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        a, b = self, other
        while a is not b:  # equal sizes reach None together
            if a.size != b.size or (
                a._hash is not None and b._hash is not None and a._hash != b._hash
            ):
                return False
            if a.top != b.top:
                return False
            a, b = a.below, b.below
        return True

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        items = []
        node = self
        while node is not None:
            items.append(node.top)
            node = node.below
        return reversed(items)

    def __repr__(self) -> str:
        return f"Node({list(self)!r})"


_new = object.__new__  # allocates past a class's Python-level __init__


def _node(below: Node, top: "Stack", size: int) -> Node:
    """`Node(below, top)`, its size given, without the Python-level `__init__`
    call: the routine through which operations build nodes, a node rebuilt
    above the rewritten substack with the old node's size object."""
    node = _new(Node)
    node.below = below
    node.top = top
    node.size = size
    node._hash = None
    return node


# The empty k-stack, which occurs only as a piece of a `spine`, is None.
Stack = Union[Atom, Node]


def from_nested(nested, level: int) -> Stack:
    """The stack whose nested-tuple form is `nested`; raises IllFormed
    when a k-stack is empty or not a tuple, or a 0-stack is not an Atom."""
    if level == 0:
        if not isinstance(nested, Atom):
            raise IllFormed(f"expected an atom, got {nested!r}")
        return nested
    if not isinstance(nested, tuple) or isinstance(nested, Atom) or not nested:
        raise IllFormed(f"expected a nonempty tuple for a {level}-stack, got {nested!r}")
    stack = None
    for child in nested:
        stack = Node(stack, from_nested(child, level - 1))
    return stack


def to_nested(stack: Stack, level: int):
    """The nested-tuple form of a stack, () for the empty one; inverts
    :func:`from_nested`."""
    if level == 0:
        return stack
    if stack is None:
        return ()
    return tuple(to_nested(child, level - 1) for child in stack)


class Op(NamedTuple):
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


class Diagnostic(NamedTuple):
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} {self.detail}"


class InvalidAutomaton(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _AutomatonFields(NamedTuple):
    level: int
    input_alphabet: frozenset[str]
    stack_alphabet: frozenset[str]
    initial_symbol: str
    states: frozenset[str]
    initial_state: str
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]
    collapsible: bool = False


class Automaton(_AutomatonFields):
    """A machine as the tuple of its nine fields.  The rule table and the
    initial configuration are built on first use and kept in the
    instance's dict; `_replace` makes a variant machine with none kept."""

    @cached_property
    def rule_table(self) -> dict[tuple[str, str], Union[Transition, dict[str, Transition]]]:
        """(state, top symbol) -> the epsilon rule, which always wins, or
        else a dict from each letter to its letter rule."""
        table: dict = {}
        for t in self.transitions:
            key = (t.state, t.symbol)
            if t.letter is None:
                table[key] = t
            else:
                letters = table.setdefault(key, {})
                if letters.__class__ is dict:
                    letters[t.letter] = t
        return table

    @cached_property
    def uses_collapse(self) -> bool:
        return any(t.op.kind == "collapse" for t in self.transitions)

    @cached_property
    def _initial_configuration(self) -> "Configuration":
        links = (1,) * self.level if self.collapsible else None
        stack: Stack = Atom(self.initial_symbol, NO_DATA, links)
        for _ in range(self.level):
            stack = Node(None, stack)
        return Configuration(self.initial_state, stack)


class Configuration(NamedTuple):
    state: str
    stack: Stack


def automaton_diagnostics(aut: Automaton) -> list[Diagnostic]:
    """Return every violation of the model's well-formedness rules."""
    out: list[Diagnostic] = []
    if not 1 <= aut.level <= MAX_LEVEL:
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
    """The initial configuration, built once per automaton and shared."""
    return aut._initial_configuration


def top_stack(stack: Stack, level: int, k: int) -> Stack:
    """The topmost k-stack of a level-`level` stack; at k = 0, its top atom."""
    while level > k:  # the descents are `while` loops, as in `step`
        stack = stack.top
        level -= 1
    return stack


def stack_values(stack: Optional[Stack], level: int) -> set:
    """The data values stored anywhere in a level-`level` stack; a node
    shared by several substacks is visited once."""
    out = set()
    seen = set()
    todo = [(stack, level)]
    while todo:
        node, lvl = todo.pop()
        if lvl == 0:
            if node.data is not None:
                out.add(node.data)
            continue
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            todo.append((node.top, lvl - 1))
            node = node.below
    return out


def spine(stack: Stack, level: int, k: int) -> tuple[Stack, ...]:
    """Decompose into pieces (s^level, ..., s^k).

    s^k is the topmost k-stack; each s^i above it is the topmost i-stack
    with its own topmost (i-1)-stack removed (None when that leaves it
    empty).
    """
    pieces = []
    while level > k:
        pieces.append(stack.below)
        stack = stack.top
        level -= 1
    pieces.append(stack)
    return tuple(pieces)


_tuple = tuple.__new__  # namedtuple's `_make` route, past the Python-level __new__


def _replace_top(stack: Stack, depth: int, new: Stack) -> Stack:
    """`stack` with the substack `depth` levels down its top path replaced
    by `new`; only the nodes on that path are rebuilt.  Callers handle
    depths 0 and 1 inline."""
    if depth == 0:
        return new
    return _node(stack.below, _replace_top(stack.top, depth - 1, new), stack.size)


def apply_operation(
    stack: Stack,
    level: int,
    op: Op,
    data: Optional[int] = NO_DATA,
) -> Stack:
    """Apply one stack operation; `data` is the value carried by the step.

    pop^k removes the topmost (k-1)-stack of the topmost k-stack.  push^k
    duplicates the topmost (k-1)-stack and rewrites the duplicate's top
    atom to (symbol, data); when the rewritten atom carries links, the
    new one records (k_1, ..., k_n), the sizes of the topmost i-stacks
    after the operation.  collapse^i truncates the topmost i-stack so
    that only k_i - 1 of its (i-1)-stacks remain, k_i taken from the top
    atom, and raises IllFormed on an atom without a level-i link.
    """
    k = op.level
    kind = op.kind
    depth = level - k
    target = stack
    i = depth
    while i:  # `while` loops, as in `step`
        target = target.top
        i -= 1
    if kind == "pop":
        new = target.below
        if new is None:
            raise IllFormed(f"{op} would empty the topmost {k}-stack")
    elif kind == "push":
        grown = target.size + 1  # k_k, one object for the link and the node
        atom = target.top
        i = k - 1
        while i:  # down to the atom the push rewrites
            atom = atom.top
            i -= 1
        links = atom.links
        if links is not None:  # k_n, ..., k_1 on a descent from the root
            links = ()
            cur = stack
            i = level
            while i:
                links = (grown if i == k else cur.size,) + links
                cur = cur.top
                i -= 1
        atom = _tuple(Atom, (op.symbol, data, links))
        if k == 1:
            new = _node(target, atom, grown)
        elif k == 2:
            new = _node(target, _node(target.top.below, atom, target.top.size), grown)
        else:
            new = _node(target, _replace_top(target.top, k - 1, atom), grown)
    elif kind == "collapse":
        atom = top_stack(target, k, 0)
        if atom.links is None or len(atom.links) < k:
            raise IllFormed(f"{op} on an atom without a level-{k} link")
        keep = atom.links[k - 1] - 1
        if keep < 1:
            raise IllFormed(f"{op} would empty the topmost {k}-stack")
        if keep > target.size:
            raise IllFormed(f"{op} link {keep + 1} exceeds current size {target.size}")
        new = target
        i = target.size - keep
        while i:
            new = new.below
            i -= 1
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    if depth == 0:
        return new
    if depth == 1:
        return _node(stack.below, new, stack.size)
    return _replace_top(stack, depth, new)


class Step(NamedTuple):
    config: Configuration
    label: Label
    transition: Transition


class Stuck(NamedTuple):
    reason: str


StepResult = Union[Step, Stuck]

_NO_TRANSITION = Stuck("no-transition")
_DATA_MISMATCH = Stuck("data-mismatch")


def step(aut: Automaton, config: Configuration, next_input=None) -> StepResult:
    """Take the unique next step, if any.

    An epsilon rule for (state, top symbol) always wins; it consumes no
    input, pushes store NO_DATA, and pops are unconditional.  Otherwise a
    letter rule matching `next_input = (letter, value)` fires; a push
    stores the value, a pop additionally requires it to equal the data of
    the topmost atom.  A letter step's label is `next_input` itself when
    it is a tuple, else a tuple of its two items.
    """
    state, stack = config
    atom = stack
    level = i = aut.level
    while i:  # not `for ... in range`: CPython 3.11 does not specialise range iteration
        atom = atom.top
        i -= 1
    rule = aut.rule_table.get((state, atom.symbol))
    if rule.__class__ is dict:
        if next_input is None:
            return _NO_TRANSITION
        letter, value = next_input
        rule = rule.get(letter)
        if rule is None:
            return _NO_TRANSITION
        if rule.op.kind == "pop" and atom.data != value:
            return _DATA_MISMATCH
        label = next_input if next_input.__class__ is tuple else (letter, value)
    elif rule is None:
        return _NO_TRANSITION
    else:
        value = NO_DATA
        label = (None, None)
    try:
        new = apply_operation(stack, level, rule.op, value)
    except IllFormed as exc:
        return Stuck(f"ill-formed: {exc}")
    return _tuple(Step, (_tuple(Configuration, (rule.target, new)), label, rule))


class Run:
    """A sequence of configurations joined by single steps.

    `labels[i]` is the (letter, value) consumed by step i+1, with
    (None, None) for epsilon steps; `transitions[i]` is the rule applied.
    `last` is the final configuration.  Runs compare and hash by
    automaton and those three tuples.

    :func:`extend_run` makes a run in O(1) that holds only its last
    step's stack, label and transition and, in `_parent`, the run it
    extends: a recorded step keeps one run and the stack nodes its
    operation built, and no :class:`Configuration`.  The first read of
    `last` reaches :meth:`__getattr__`, which builds it from the
    transition's target state and `_stack`, then sets `_stack` to None.
    The first read of `configs`, `labels` or `transitions` builds all
    three in one walk back to the nearest built run (whose `_parent` is
    None), taking each run's `last`, built or building it, so `last is
    configs[-1]`, and only then clears `_parent`.
    """

    __slots__ = (
        "automaton", "last", "configs", "labels", "transitions", "_length",
        "_parent", "_stack", "_label", "_transition", "__weakref__",
    )

    def __init__(
        self,
        automaton: Automaton,
        configs: Iterable[Configuration],
        labels: Iterable[Label],
        transitions: Iterable[Transition],
    ):
        self.automaton = automaton
        self.configs = tuple(configs)
        self.labels = tuple(labels)
        self.transitions = tuple(transitions)
        self.last = self.configs[-1]
        self._length = len(self.labels)
        self._parent = None

    def __getattr__(self, name: str):
        """Build `last`, or the unset tuples, of a run made by :func:`extend_run`."""
        if name == "last":
            return _last(self)
        if name not in ("configs", "labels", "transitions"):
            raise AttributeError(f"'Run' object has no attribute {name!r}")
        steps = []
        run, parent = self, self._parent
        while parent is not None:  # each `_parent` read once: a thread may clear it
            steps.append((_last(run), run._label, run._transition))
            run, parent = parent, parent._parent
        if not steps:  # another thread built this run's tuples meanwhile
            return getattr(self, name)
        configs, labels, transitions = zip(*reversed(steps))
        self.configs = run.configs + configs
        self.labels = run.labels + labels
        self.transitions = run.transitions + transitions
        self._parent = None  # after the tuples, for a concurrent reader
        return getattr(self, name)

    def _key(self) -> tuple:
        return (self.automaton, self.configs, self.labels, self.transitions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<Run of {self._length} steps ending in {self.last.state}>"

    def __len__(self) -> int:
        return self._length

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

    @property
    def read_word(self) -> DataWord:
        return tuple((a, d) for a, d in self.labels if a is not None)

    def operations(self) -> tuple[Op, ...]:
        return tuple(t.op for t in self.transitions)


def _last(run: Run) -> Configuration:
    """The `last` of a run made by :func:`extend_run`, built on first use."""
    stack = run._stack  # read once: another thread may build `last` meanwhile
    if stack is None:
        return run.last
    last = run.last = _tuple(Configuration, (run._transition.target, stack))
    run._stack = None  # after `last`, for a concurrent reader
    return last


def empty_run(aut: Automaton, config: Configuration) -> Run:
    """The zero-step run at `config`, without `Run.__init__`'s copies."""
    run = _new(Run)
    run.automaton = aut
    run.configs = (config,)
    run.labels = run.transitions = ()
    run.last = config
    run._length = 0
    run._parent = None
    return run


def extend_run(run: Run, step_result: Step) -> Run:
    """`run` followed by one step, in O(1): the new run points at `run`.
    The step is as :func:`step` returns it, so its state is its rule's
    target, and the run keeps only its stack."""
    new = _new(Run)
    new.automaton = run.automaton
    new._stack = step_result.config.stack
    new._length = run._length + 1
    new._parent = run
    new._label = step_result.label
    new._transition = step_result.transition
    return new


class Outcome(NamedTuple):
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
    config = initial_configuration(aut) if start is None else start
    run = empty_run(aut, config)
    n = len(word)
    accepting = aut.accepting
    pos = 0
    streak = 0
    while True:
        if pos == n and config.state in accepting:
            return _tuple(Outcome, ("accepted", run, None))
        res = step(aut, config, word[pos] if pos < n else None)
        if res.__class__ is Stuck:
            if pos < n:
                reason = f"{res.reason}, {n - pos} letters unconsumed"
            else:
                reason = res.reason
            return _tuple(Outcome, ("rejected", run, reason))
        if res.label[0] is None:
            streak += 1
            if streak > eps_budget:
                return _tuple(Outcome, ("budget-exhausted", run, None))
        else:
            streak = 0
            pos += 1
        run = extend_run(run, res)
        config = res.config


def project_word(word: DataWord) -> tuple[str, ...]:
    """Drop the data values, keeping the letters."""
    return tuple(a for a, _ in word)


def replay(run: Run) -> bool:
    """Check that every step of a run is a valid step of its automaton."""
    aut = run.automaton
    configs = run.configs
    for i, (label, tr) in enumerate(zip(run.labels, run.transitions)):
        nxt = None if label[0] is None else label
        res = step(aut, configs[i], nxt)
        if not isinstance(res, Step):
            return False
        if res.config != configs[i + 1] or res.transition != tr:
            return False
        if res.label != label:
            return False
    return True


def strip_links(stack: Stack, level: int) -> Stack:
    """Rebuild a stack of a collapsible automaton without the links."""
    if level == 0:
        return Atom(stack.symbol, stack.data, None)
    out = None
    for child in stack:
        out = Node(out, strip_links(child, level - 1))
    return out


def decollapse(aut: Automaton) -> Automaton:
    """The collapse-free fragment: drop collapse rules and the links."""
    rules = tuple(t for t in aut.transitions if t.op.kind != "collapse")
    return aut._replace(transitions=rules, collapsible=False)
