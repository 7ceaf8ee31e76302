"""Property tests of the file and word parsers: a formatted automaton
parses back to itself, and any text fails with a CliError or nothing."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopad.text import (
    CliError,
    format_automaton,
    parse_automaton_text,
    parse_data_word,
    parse_stack_literal,
)
from hopad.core import Automaton, Op, Transition, automaton_diagnostics

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
# names are single tokens: no whitespace and no `#`
NAMES = st.text(alphabet="abqXY01[]$_-@(),;", min_size=1, max_size=3)


@st.composite
def automata(draw):
    level = draw(st.integers(1, 3))
    collapsible = draw(st.booleans())
    letters = sorted(draw(st.frozensets(NAMES, max_size=3)))
    symbols = sorted(draw(st.frozensets(NAMES, min_size=1, max_size=3)))
    pool = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    kinds = ["pop", "push"] + (["collapse"] if collapsible else [])
    transitions = []
    for state in pool:
        for symbol in symbols:
            # an epsilon rule, or letter rules, or neither: deterministic by construction
            mode = draw(st.sampled_from(["none", "eps", "letters"]))
            inputs = [None] if mode == "eps" else letters if mode == "letters" else []
            for letter in inputs:
                if letter is not None and draw(st.booleans()):
                    continue
                kind = draw(st.sampled_from(kinds))
                pushed = draw(st.sampled_from(symbols)) if kind == "push" else None
                op = Op(kind, draw(st.integers(1, level)), pushed)
                target = draw(st.sampled_from(pool))
                transitions.append(Transition(state, symbol, letter, target, op))
    accepting = draw(st.frozensets(st.sampled_from(pool)))
    states = {pool[0], *accepting}
    for t in transitions:
        states |= {t.state, t.target}
    aut = Automaton(
        level=level,
        input_alphabet=frozenset(letters),
        stack_alphabet=frozenset(symbols),
        initial_symbol=draw(st.sampled_from(symbols)),
        states=frozenset(states),
        initial_state=pool[0],
        accepting=accepting,
        transitions=tuple(transitions),
        collapsible=collapsible,
    )
    assert automaton_diagnostics(aut) == []
    return aut


@PROPERTY
@given(automata())
def test_formatted_automata_parse_back(aut):
    scenario = parse_automaton_text(format_automaton(aut))
    assert scenario.automaton == aut and scenario.start is None


DIRECTIVES = (
    "level", "collapsible", "input-alphabet", "stack-alphabet", "initial-state",
    "initial-symbol", "accepting", "trans", "start-state", "start-stack", "#",
)
TOKENS = ("eps", "in", "pop", "push", "collapse", "true", "0", "1", "2", "9" * 30, "²",
          "q", "g", "[(g,-)]", "[[(g,1;1,1)]]", "(g,", "[")
LINES = st.lists(st.sampled_from(DIRECTIVES + TOKENS), max_size=8).map(" ".join)
AUTOMATON_TEXT = st.one_of(st.text(), st.lists(LINES, max_size=10).map("\n".join))
STACK_TEXT = st.one_of(st.text(), st.text(alphabet="[]() ,;-0123g²\t"))
WORD_TEXT = st.one_of(st.text(), st.text(alphabet="ab@01 ²\n"))


def fails_cleanly(parse, text) -> bool:
    try:
        parse(text)
    except CliError:
        pass
    return True


LONG_NUMBER = "1" * 5000  # more digits than `int` converts


@PROPERTY
@given(AUTOMATON_TEXT)
@example("level " + LONG_NUMBER)
@example("level 1\ninitial-state q\ninitial-symbol g\ntrans q g eps q pop " + LONG_NUMBER)
def test_automaton_text_fails_only_with_a_cli_error(text):
    assert fails_cleanly(parse_automaton_text, text)


@PROPERTY
@given(STACK_TEXT, st.integers(0, 3), st.booleans())
@example(f"[(g,{LONG_NUMBER})]", 1, False)
@example(f"[(g,-;{LONG_NUMBER})]", 1, True)
def test_stack_literals_fail_only_with_a_cli_error(text, level, collapsible):
    assert fails_cleanly(lambda t: parse_stack_literal(t, level, collapsible), text)


@PROPERTY
@given(WORD_TEXT)
@example(f"a@{LONG_NUMBER}")
def test_data_words_fail_only_with_a_cli_error(text):
    assert fails_cleanly(parse_data_word, text)
