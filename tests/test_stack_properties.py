"""Property tests of the node stacks against their nested-tuple form."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopad.core import (
    Atom,
    Automaton,
    Configuration,
    IllFormed,
    Op,
    Step,
    Stuck,
    Transition,
    apply_operation,
    from_nested,
    recompose,
    spine,
    step,
    to_nested,
    top_stack,
)
from hopad.text import parse_stack_literal, render_stack

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
SYMBOLS = ("g", "h", "X")


def ref_top(nested, depth):
    return nested if depth == 0 else ref_top(nested[-1], depth - 1)


def ref_atoms(nested, level):
    return [nested] if level == 0 else [a for s in nested for a in ref_atoms(s, level - 1)]


def ref_apply(stack, level, op, data, collapsible):
    """apply_operation on nested tuples, read straight off the definitions
    of pop^k, push^k and collapse^i: the spec-level oracle."""

    def at_depth(s, depth, fn):
        return fn(s) if depth == 0 else s[:-1] + (at_depth(s[-1], depth - 1, fn),)

    if op.kind == "pop":
        if len(ref_top(stack, level - op.level)) < 2:
            raise IllFormed("pop empties a stack")
        return at_depth(stack, level - op.level, lambda s: s[:-1])
    if op.kind == "push":
        links = None
        if collapsible:
            sizes = [len(ref_top(stack, level - i)) for i in range(1, level + 1)]
            links = tuple(size + (i == op.level) for i, size in enumerate(sizes, start=1))
        pushed = Atom(op.symbol, data, links)
        dup = lambda s: s + (at_depth(s[-1], op.level - 1, lambda _: pushed),)  # noqa: E731
        return at_depth(stack, level - op.level, dup)
    links = ref_top(stack, level).links
    if not collapsible or links is None or len(links) < op.level:
        raise IllFormed("no collapse link")
    keep = links[op.level - 1] - 1
    if not 1 <= keep <= len(ref_top(stack, level - op.level)):
        raise IllFormed("collapse empties or overshoots a stack")
    return at_depth(stack, level - op.level, lambda s: s[:keep])


def atoms(level, collapsible):
    links = st.tuples(*[st.integers(1, 4)] * level) if collapsible else st.none()
    return st.builds(Atom, st.sampled_from(SYMBOLS), st.none() | st.integers(0, 30), links)


def nested_stacks(level, collapsible, width=3):
    inner = atoms(level, collapsible)
    for _ in range(level):
        inner = st.lists(inner, min_size=1, max_size=width).map(tuple)
    return inner


@st.composite
def stacks_and_ops(draw):
    level = draw(st.integers(1, 3))
    collapsible = draw(st.booleans())
    start = draw(nested_stacks(level, collapsible))
    op = st.one_of(
        st.builds(Op, st.just("pop"), st.integers(1, level)),
        st.builds(Op, st.just("push"), st.integers(1, level), st.sampled_from(SYMBOLS)),
        st.builds(Op, st.just("collapse"), st.integers(1, level)),
    )
    ops = draw(st.lists(st.tuples(op, st.none() | st.integers(0, 9)), max_size=25))
    return level, collapsible, start, ops


@PROPERTY
@given(stacks_and_ops())
def test_random_operations_agree_with_the_tuple_model(case):
    level, collapsible, nested, ops = case
    stack = from_nested(nested, level)
    for op, data in ops:
        try:
            expected = ref_apply(nested, level, op, data, collapsible)
        except IllFormed:
            expected = None
        # one rule that fires on the top symbol, reading `data` if any
        top = top_stack(stack, level, 0)
        rule = Transition("q", top.symbol, None if data is None else "a", "q", op)
        aut = Automaton(
            level, frozenset("a"), frozenset(SYMBOLS), "g", frozenset("q"), "q",
            frozenset(), (rule,), collapsible,
        )
        res = step(aut, Configuration("q", stack), None if data is None else ("a", data))
        if op.kind == "pop" and data is not None and data != top.data:
            assert res == Stuck("data-mismatch")
            continue
        if expected is None:
            assert isinstance(res, Stuck) and res.reason.startswith("ill-formed: ")
            try:
                apply_operation(stack, level, op, data)
            except IllFormed:
                continue
            raise AssertionError(f"{op} applied where the model refuses it")
        assert isinstance(res, Step)
        direct = apply_operation(stack, level, op, data)
        assert direct == res.config.stack
        stack, nested = direct, expected
        assert to_nested(stack, level) == nested
        # the links the start's atoms carry, or lack, are kept by every atom
        assert {atom.links is None for atom in ref_atoms(nested, level)} == {not collapsible}
        assert tuple(top_stack(stack, level, i).size for i in range(1, level + 1)) == tuple(
            len(ref_top(nested, level - i)) for i in range(1, level + 1)
        )
        assert top_stack(stack, level, 0) == ref_top(nested, level)  # symbol, data and links


@st.composite
def nested_with_level(draw):
    level = draw(st.integers(1, 3))
    collapsible = draw(st.booleans())
    return level, collapsible, draw(nested_stacks(level, collapsible, width=4))


@PROPERTY
@given(nested_with_level())
def test_converters_invert_each_other(case):
    level, _, nested = case
    stack = from_nested(nested, level)
    assert to_nested(stack, level) == nested
    assert from_nested(to_nested(stack, level), level) == stack


@PROPERTY
@given(nested_with_level())
def test_stack_literals_round_trip(case):
    level, collapsible, nested = case
    stack = from_nested(nested, level)
    text = render_stack(stack, level)
    assert parse_stack_literal(text, level, collapsible) == stack
    assert render_stack(parse_stack_literal(text, level, collapsible), level) == text


@PROPERTY
@given(st.data())
def test_the_recomposed_upper_spine_is_the_topmost_stack(data):
    level, _, nested = data.draw(nested_with_level())
    stack = from_nested(nested, level)
    k = data.draw(st.integers(0, level))
    r = data.draw(st.integers(k, level))
    assert recompose(spine(stack, level, k)[level - r :]) == top_stack(stack, level, r)
