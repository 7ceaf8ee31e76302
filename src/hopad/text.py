"""The text formats of automata, scenarios, stacks and data words.

Automaton files are line-oriented UTF-8 with `#` comments:

    level 2
    collapsible true
    input-alphabet [ ] $
    stack-alphabet X Y [ ]
    initial-state start
    initial-symbol X
    accepting accept
    trans start X eps work push 2 X
    trans work X in [ copy-open push 1 [

plus optional scenario directives `start-state q` and
`start-stack [[(X,-)] [(X,1)]]` for commands that replay from a seeded
configuration; each directive but `trans` appears at most once, and the
states are those that the rules, `initial-state` and `accepting` name.
Data words are whitespace-separated `letter@value` tokens.  Stacks
render as nested brackets of atoms `(sym,data)` with `-` for the empty
data slot and collapse links after `;`.

`parse_automaton_text` returns only checked scenarios: each line as it
is read (a repeated directive or a level above `core.MAX_LEVEL` stops
it there), then the automaton (`core.validate_automaton`), then that a
start has both its directives, its literal and link counts
(`parse_stack_literal`), and last, in one walk, the start state, each
atom's symbol and, on a collapsible automaton, each level-j link
against its j-stack's size.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .core import (
    MAX_LEVEL,
    Atom,
    Automaton,
    Configuration,
    InvalidAutomaton,
    Node,
    Op,
    Stack,
    Transition,
    collapse,
    pop,
    push,
    validate_automaton,
)


class CliError(Exception):
    """Parse or validation failure; maps to exit code 2."""


def _is_number(text: str) -> bool:
    """A nonempty run of ASCII digits (`str.isdigit` also accepts `²`),
    short enough for `int`, which refuses more than 4300 digits."""
    return text.isascii() and text.isdigit() and len(text) <= 4300


# ---------------------------------------------------------------------------
# data words


def parse_data_word(text: str):
    word = []
    for token in text.split():
        if "@" not in token:
            raise CliError(f"token {token!r} is not letter@value")
        letter, _, value = token.rpartition("@")
        if not letter:
            raise CliError(f"token {token!r} has an empty letter")
        if not _is_number(value):
            raise CliError(f"token {token!r} has a non-numeric value")
        word.append((letter, int(value)))
    return tuple(word)


def format_data_word(word) -> str:
    return " ".join(f"{a}@{d}" for a, d in word)


# ---------------------------------------------------------------------------
# stacks


def render_atom(atom: Atom) -> str:
    data = "-" if atom.data is None else str(atom.data)
    links = "" if atom.links is None else ";" + ",".join(str(x) for x in atom.links)
    return f"({atom.symbol},{data}{links})"


def render_stack(stack: Stack, level: int) -> str:
    return _render_stack(stack, level, {})


def _render_stack(stack: Stack, level: int, atoms: dict[Atom, str]) -> str:
    """``render_stack(stack, level)``, rendering each distinct atom once into `atoms`."""
    if level == 0:
        text = atoms.get(stack)
        if text is None:
            text = atoms[stack] = render_atom(stack)
        return text
    return "[" + " ".join(_render_stack(s, level - 1, atoms) for s in stack) + "]"


# a token of a stack literal: an atom `(body)`, any other character, or the end
_TOKEN = re.compile(r"\s*(\(([^)]*)\)|.|\Z)", re.DOTALL)


def parse_stack_literal(text: str, level: int, collapsible: bool = False) -> Stack:
    """Parse a stack literal; on a collapsible automaton every atom carries
    exactly `level` positive collapse links, otherwise none."""
    opened: list[Optional[Node]] = [None]  # the literal, then each open stack: its elements so far
    for token in _TOKEN.finditer(text):
        char, body = token.group(1, 2)
        depth = level + 1 - len(opened)  # the level of the next element
        if opened[0] is not None and not char:
            return opened[0].top
        element = message = None
        if opened[0] is not None:
            message = "trailing input"
        elif char == "[" and depth:
            opened.append(None)
        elif char == "]" and len(opened) > 1 and opened[-1] is not None:
            element = opened.pop()
        elif body is not None and not depth:
            try:
                element = _read_atom(body, level if collapsible else None)
            except ValueError as exc:
                message = str(exc)
        elif char == "(":
            message = "unterminated atom"
        elif not char and len(opened) > 1:
            message = "unterminated stack"
        else:
            message = f"expected a level-{depth} stack" if depth else "expected an atom"
        if message is not None:
            raise CliError(f"stack literal: {message} at offset {token.start(1)}")
        if element is not None:
            opened[-1] = Node(opened[-1], element)


def _read_atom(body: str, link_count: Optional[int]) -> Atom:
    """The atom `(body)` with `link_count` positive links (None: none), or a ValueError."""
    main, semi, tail = body.partition(";")
    symbol, comma, data = main.rpartition(",")
    links = tail.split(",") if semi else []
    if semi and link_count is None:
        raise ValueError(f"atom {body!r} has collapse links, but the automaton is not collapsible")
    positive = all(_is_number(x) and int(x) > 0 for x in links)
    if link_count is not None and not (positive and len(links) == link_count):
        raise ValueError(f"atom {body!r} needs {link_count} positive collapse links")
    if not comma or not (data == "-" or _is_number(data)):
        raise ValueError(f"atom {body!r} needs symbol,data with data - or a number")
    return Atom(symbol, None if data == "-" else int(data), tuple(map(int, links)) if semi else None)


# ---------------------------------------------------------------------------
# automaton files


class Scenario(NamedTuple):
    automaton: Automaton
    start: Optional[Configuration] = None  # None: the initial configuration


# kind -> its constructor and the number of tokens after the kind, the first its level
_OPERATIONS = {"pop": (pop, 1), "push": (push, 2), "collapse": (collapse, 1)}


def _parse_op(tokens: list[str], where: str) -> Op:
    if not tokens:
        raise CliError(f"{where}: missing operation")
    kind, *args = tokens
    make, arity = _OPERATIONS.get(kind, (None, None))
    if len(args) != arity or not _is_number(args[0]):
        raise CliError(f"{where}: bad operation {' '.join(tokens)!r}")
    return make(int(args[0]), *args[1:])


def parse_automaton_text(text: str) -> Scenario:
    fields: dict = {}  # each directive but `trans`, as read
    transitions: list[Transition] = []
    states: set[str] = set()  # those the rules name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        key, *rest = line.split()
        if key in fields:
            raise CliError(f"{where}: repeated {key}")
        if key == "level":
            if len(rest) != 1 or not _is_number(rest[0]):
                raise CliError(f"{where}: level needs one number")
            fields["level"] = int(rest[0])
            if fields["level"] > MAX_LEVEL:
                raise CliError(f"{where}: level {fields['level']} above the maximum {MAX_LEVEL}")
        elif key == "collapsible":
            if rest not in (["true"], ["false"]):
                raise CliError(f"{where}: collapsible needs true or false")
            fields["collapsible"] = rest == ["true"]
        elif key in ("input-alphabet", "stack-alphabet", "accepting", "start-stack"):
            fields[key] = rest
        elif key in ("initial-state", "initial-symbol", "start-state"):
            if len(rest) != 1:
                raise CliError(f"{where}: {key} needs one token")
            fields[key] = rest[0]
        elif key == "trans":
            if len(rest) < 4:
                raise CliError(f"{where}: trans needs source, symbol, input, target, op")
            source, symbol = rest[0], rest[1]
            if rest[2] == "eps":
                letter, target_idx = None, 3
            elif rest[2] == "in" and len(rest) >= 5:
                letter, target_idx = rest[3], 4
            else:
                raise CliError(f"{where}: expected 'eps' or 'in <letter>'")
            target = rest[target_idx]
            states |= {source, target}
            transitions.append(
                Transition(source, symbol, letter, target, _parse_op(rest[target_idx + 1 :], where))
            )
        else:
            raise CliError(f"{where}: unknown directive {key!r}")
    if "level" not in fields:
        raise CliError("missing level directive")
    if "initial-state" not in fields or "initial-symbol" not in fields:
        raise CliError("missing initial-state or initial-symbol")
    accepting = fields.get("accepting", ())
    aut = Automaton(
        level=fields["level"],
        input_alphabet=frozenset(fields.get("input-alphabet", ())),
        stack_alphabet=frozenset(fields.get("stack-alphabet", ())),
        initial_symbol=fields["initial-symbol"],
        states=frozenset(states | {fields["initial-state"], *accepting}),
        initial_state=fields["initial-state"],
        accepting=frozenset(accepting),
        transitions=tuple(transitions),
        collapsible=fields.get("collapsible", False),
    )
    try:
        validate_automaton(aut)
    except InvalidAutomaton as exc:
        raise CliError(f"invalid automaton: {exc}") from None
    state, literal = fields.get("start-state"), fields.get("start-stack")
    if (state is None) != (literal is None):
        raise CliError("start-state and start-stack must appear together")
    if state is None:
        return Scenario(aut)
    start = Configuration(state, parse_stack_literal(" ".join(literal), aut.level, aut.collapsible))
    _check_start(aut, start)
    return Scenario(aut, start)


def _check_start(aut: Automaton, start: Configuration) -> None:
    """Reject a start state or an atom's symbol that `aut` lacks, and a link
    beyond its stack: a collapse along it would keep more than is there."""
    if start.state not in aut.states:
        raise CliError(f"start-state {start.state} is not a state of the automaton")
    todo = [(start.stack, aut.level, ())]  # a stack, its level, sizes of the stacks holding it
    while todo:
        node, level, sizes = todo.pop()
        if level:
            holding = (node.size,) + sizes
            while node is not None:
                todo.append((node.top, level - 1, holding))
                node = node.below
        elif node.symbol not in aut.stack_alphabet:
            raise CliError(f"start-stack: atom {render_atom(node)} has a symbol outside stack-alphabet")
        elif aut.collapsible and any(link > size for link, size in zip(node.links, sizes)):
            sizes = ",".join(map(str, sizes))
            raise CliError(
                f"start-stack: atom {render_atom(node)} has a link beyond its stack sizes {sizes}"
            )


def format_automaton(aut: Automaton) -> str:
    lines = [
        f"level {aut.level}",
        f"collapsible {'true' if aut.collapsible else 'false'}",
        "input-alphabet " + " ".join(sorted(aut.input_alphabet)),
        "stack-alphabet " + " ".join(sorted(aut.stack_alphabet)),
        f"initial-state {aut.initial_state}",
        f"initial-symbol {aut.initial_symbol}",
        "accepting " + " ".join(sorted(aut.accepting)),
    ]
    for t in aut.transitions:
        middle = "eps" if t.letter is None else f"in {t.letter}"
        op = " ".join(str(field) for field in t.op if field is not None)
        lines.append(f"trans {t.state} {t.symbol} {middle} {t.target} {op}")
    return "\n".join(lines) + "\n"
