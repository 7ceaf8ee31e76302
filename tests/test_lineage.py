import gc
import itertools
import random
import time
import tracemalloc

import pytest

from hopad.core import (
    Automaton,
    Configuration,
    IllFormed,
    Step,
    Transition,
    apply_operation,
    empty_run,
    execute_word,
    extend_run,
    pop,
    push,
    step,
    to_nested,
    top_stack,
    validate_automaton,
)
from hopad.harness import (
    SINGLE_POP,
    EXCURSION,
    CLASSIFICATION_EXAMPLE_GRID,
    random_machine,
    seeded_configurations,
    classification_example_run,
    u_fragment_corpus,
    EnumerationSpace,
    enumerate_runs,
    walk_runs,
)
from hopad.lineage import (
    DecompositionTree,
    Starts,
    classification_table,
    decompose_return,
    decompose_upper,
    instrument_lineage,
    is_k_return,
    is_k_upper,
    is_normalized,
    remark_k_return,
)
from hopad.text import parse_automaton_text, parse_stack_literal


@pytest.fixture(scope="module")
def example_run():
    run = classification_example_run()
    return run, instrument_lineage(run)


def test_classification_grid_exact(example_run):
    run, lrun = example_run
    table = classification_table(lrun)
    for j, (u0, u1, r1, r2) in CLASSIFICATION_EXAMPLE_GRID.items():
        assert set(table.upper[(j, 0)]) == u0, f"0-upper at j={j}"
        assert set(table.upper[(j, 1)]) == u1, f"1-upper at j={j}"
        assert set(table.returns[(j, 1)]) == r1, f"1-return at j={j}"
        assert set(table.returns[(j, 2)]) == r2, f"2-return at j={j}"


def test_whole_example_run_is_not_a_1_return(example_run):
    _, lrun = example_run
    assert not is_k_return(lrun, 1)


def test_every_run_is_top_level_upper(example_run):
    run, lrun = example_run
    for i in range(len(run) + 1):
        for j in range(i, len(run) + 1):
            assert is_k_upper(lrun, 2, i, j)


LEVEL_CHECKED = {
    # entry point -> (ask it at a level, the lowest level it accepts)
    "is_k_upper": (lambda run, lrun, k: is_k_upper(lrun, k), 0),
    "is_k_return": (lambda run, lrun, r: is_k_return(lrun, r), 1),
    "remark_k_return": (lambda run, lrun, r: remark_k_return(lrun, r), 1),
    "decompose_upper": (lambda run, lrun, k: decompose_upper(run, k), 0),
    "decompose_return": (lambda run, lrun, r: decompose_return(run, r), 1),
}


@pytest.mark.parametrize("entry", LEVEL_CHECKED)
def test_a_level_outside_the_run_is_rejected(example_run, entry):
    ask, lowest = LEVEL_CHECKED[entry]
    run, lrun = example_run
    assert run.automaton.level == 2
    for level in (lowest - 1, 3, -1):
        with pytest.raises(ValueError, match=rf"^level {level} outside {lowest}\.\.2$"):
            ask(run, lrun, level)
    for level in range(lowest, 3):
        ask(run, lrun, level)


SPAN_CHECKED = {"is_k_upper": is_k_upper, "is_k_return": is_k_return, "remark_k_return": remark_k_return}


@pytest.mark.parametrize("entry", SPAN_CHECKED)
def test_a_span_outside_the_run_is_rejected(example_run, entry):
    # negative indices must not wrap around, nor a reversed span get an answer
    classify, (_, lowest) = SPAN_CHECKED[entry], LEVEL_CHECKED[entry]
    run, lrun = example_run
    assert len(run) == 6
    for i, j in ((0, -1), (-2, 3), (-1, None), (5, 2), (0, 7), (7, None)):
        end = 6 if j is None else j
        for level in range(lowest, 3):
            with pytest.raises(IndexError, match=rf"^span \[{i}\.\.{end}\] out of range 0\.\.6$"):
                classify(lrun, level, i, j)
    for i in range(7):
        for j in range(i, 7):
            classify(lrun, lowest, i, j)


def test_lineage_identity_across_copy_and_pop(example_run):
    run, lrun = example_run
    # the [c d] column untouched by the copy: same occurrence at j=0 and j=3
    n1 = lrun.snapshots[0].children.top
    n3 = lrun.snapshots[3].children.top
    assert n1.uid == n3.uid
    # the push at step 1 created a fresh duplicate linked to it
    dup = lrun.snapshots[1].children.top
    assert lrun.parent[dup.uid] == n1.uid
    assert lrun.born[0] < dup.uid <= lrun.born[1]
    # fresh atoms inside the duplicate link to their sources
    for child, source in zip(dup.children, n1.children):
        assert lrun.parent[child.uid] == source.uid
    # the pop at step 3 destroys the duplicate: gone from the snapshot
    ids3 = {c.uid for c in lrun.snapshots[3].children}
    assert dup.uid not in ids3


def test_single_push_is_0_upper():
    aut, cfg = parse_automaton_text(EXCURSION)
    res = step(aut, cfg, ("b", 0))  # push^1(h)
    assert isinstance(res, Step)
    run = extend_run(empty_run(aut, cfg), res)
    lrun = instrument_lineage(run)
    assert is_k_upper(lrun, 0)
    assert is_k_upper(lrun, 1)
    assert decompose_upper(run, 0).case == 2


def test_single_pop_is_a_return():
    aut, cfg = parse_automaton_text(SINGLE_POP)
    res = step(aut, cfg, ("a", 5))
    run = extend_run(empty_run(aut, cfg), res)
    lrun = instrument_lineage(run)
    assert is_k_return(lrun, 1)
    assert decompose_return(run, 1).case == 1
    assert remark_k_return(lrun, 1)


def test_empty_runs_are_upper_not_returns(example_run):
    run, lrun = example_run
    for j in range(len(run) + 1):
        for k in (0, 1, 2):
            assert is_k_upper(lrun, k, j, j)
        for k in (1, 2):
            assert not is_k_return(lrun, k, j, j)


def test_upper_monotone_in_level(example_run):
    run, lrun = example_run
    for i in range(len(run) + 1):
        for j in range(i, len(run) + 1):
            for k in (0, 1):
                if is_k_upper(lrun, k, i, j):
                    assert is_k_upper(lrun, k + 1, i, j)


def test_returns_are_upper(example_run):
    run, lrun = example_run
    for i in range(len(run) + 1):
        for j in range(i, len(run) + 1):
            for k in (1, 2):
                if is_k_return(lrun, k, i, j):
                    assert is_k_upper(lrun, k, i, j)


def test_upper_closed_under_composition(example_run):
    run, lrun = example_run
    for i in range(len(run) + 1):
        for m in range(i, len(run) + 1):
            for j in range(m, len(run) + 1):
                for k in (0, 1, 2):
                    if is_k_upper(lrun, k, i, m) and is_k_upper(lrun, k, m, j):
                        assert is_k_upper(lrun, k, i, j)


def test_decomposition_examples(example_run):
    run, lrun = example_run
    # pop^1 then pop^2: case 2 over a case-1 leaf
    tree = decompose_return(run.subrun(1, 3), 2)
    assert tree.case == 2
    assert tree.children[0].case == 1
    # push^2 then a 2-return: upper case 3
    tree = decompose_upper(run.subrun(0, 3), 1)
    assert tree.case == 3
    # no derivation for the whole run as a 1-return
    assert decompose_return(run, 1) is None
    # all-level<=k segment: case-1 leaf
    assert decompose_upper(run.subrun(3, 5), 1).case == 1


def test_is_normalized():
    aut, cfg = parse_automaton_text(EXCURSION)
    run = empty_run(aut, cfg)
    assert is_normalized(run)
    push0 = extend_run(run, step(aut, cfg, ("c", 0)))
    assert is_normalized(push0)
    push7 = extend_run(run, step(aut, cfg, ("c", 7)))
    assert not is_normalized(push7)
    pop9 = extend_run(run, step(aut, cfg, ("b", 0)))
    pop9 = extend_run(pop9, step(aut, pop9.configs[-1], ("a", 0)))
    assert is_normalized(pop9)


def test_classifiers_equal_decompositions_on_corpus():
    corpora = [(aut, [start]) for aut, start in map(parse_automaton_text, (SINGLE_POP, EXCURSION))]
    frag, cfgs = u_fragment_corpus()
    corpora.append((frag, cfgs))
    for i in range(6):
        aut = random_machine(99, i)
        corpora.append((aut, seeded_configurations(aut, 3, (0, 1), 3)))
    for aut, cfgs in corpora:
        for cfg in cfgs:
            space = EnumerationSpace(aut, cfg, 5, (0, 1))
            for run in enumerate_runs(space):
                lrun = instrument_lineage(run)
                for k in range(0, aut.level + 1):
                    assert is_k_upper(lrun, k) == (
                        decompose_upper(run, k) is not None
                    ), (run.operations(), k)
                for r in range(1, aut.level + 1):
                    lhs = is_k_return(lrun, r)
                    assert lhs == (decompose_return(run, r) is not None), (
                        run.operations(),
                        r,
                    )
                    assert lhs == remark_k_return(lrun, r)


def _chain_run(ops, level):
    """The run of a chain machine driving `ops` from its initial
    configuration: one epsilon rule per step, from state s<i> to s<i+1>,
    over the one stack symbol g."""
    rules = tuple(Transition(f"s{i}", "g", None, f"s{i + 1}", op) for i, op in enumerate(ops))
    states = frozenset(f"s{i}" for i in range(len(ops) + 1))
    aut = Automaton(level, frozenset("a"), frozenset("g"), "g", states, "s0", frozenset(), rules)
    return execute_word(validate_automaton(aut), ()).run


def _random_ops(rng, level, count):
    """`count` push^k/pop^k operations, k = 1..level, each drawn uniformly
    and kept if it applies to the stack the ones before it leave."""
    stack = parse_stack_literal("[" * level + "(g,-)" + "]" * level, level)
    choices = [op for k in range(1, level + 1) for op in (push(k, "g"), pop(k))]
    ops = []
    while len(ops) < count:
        op = rng.choice(choices)
        try:
            stack = apply_operation(stack, level, op)
        except IllFormed:
            continue
        ops.append(op)
    return tuple(ops)


def test_classifiers_equal_decompositions_on_every_span_of_random_sequences():
    # spans that start after a push see multi-column stacks from a bare
    # start, so the derivation's level tests meet every case at levels 1-4
    rng = random.Random(20260808)
    mismatches, returns = [], set()
    for level in range(1, 5):
        for _ in range(10):
            run = _chain_run(_random_ops(rng, level, 12), level)
            lrun = instrument_lineage(run)
            for i, j in itertools.combinations_with_replacement(range(len(run) + 1), 2):
                sub = run.subrun(i, j)
                for k in range(level + 1):
                    if is_k_upper(lrun, k, i, j) != (decompose_upper(sub, k) is not None):
                        mismatches.append(("upper", sub.operations(), k))
                for k in range(1, level + 1):
                    verdict = is_k_return(lrun, k, i, j)
                    if verdict != (decompose_return(sub, k) is not None) or verdict != remark_k_return(lrun, k, i, j):
                        mismatches.append(("return", sub.operations(), k))
                    if verdict:
                        returns.add((level, k))
    assert not mismatches, (len(mismatches), mismatches[:3])
    assert returns == {(level, k) for level in range(1, 5) for k in range(1, level + 1)}


def test_collapse_lineage_on_recognizer_run():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("$", 0), ("]", 2), ("]", 1))
    out = execute_word(aut, word)
    assert out.accepted
    lrun = instrument_lineage(out.run)
    # the collapse step destroys ids and creates none
    idx = next(
        i for i, t in enumerate(out.run.transitions, start=1) if t.op.kind == "collapse"
    )
    before = {c.uid for c in lrun.snapshots[idx - 1].children}
    after = {c.uid for c in lrun.snapshots[idx].children}
    assert after < before
    assert len(lrun.born) == len(out.run) + 1
    # classification still works: the collapse run is 2-upper everywhere
    table = classification_table(lrun)
    for j in range(len(out.run) + 1):
        assert set(table.upper[(j, 2)]) == set(range(j + 1))


def test_remark_k_return_rejects_a_collapse_that_removes_several_stacks():
    # the final collapse^2 of spans 3..14 to 6..14 exposes the traced
    # 1-stack, a 2-return, but removes more than one 1-stack at once
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("]", 2), ("$", 0), ("]", 1))
    run = execute_word(aut, word).run
    assert run.transitions[13].op.kind == "collapse" and run.transitions[13].op.level == 2
    lrun = instrument_lineage(run)
    diverging = {
        (r, i, j)
        for r in (1, 2)
        for j in range(len(run) + 1)
        for i in range(j + 1)
        if is_k_return(lrun, r, i, j) != remark_k_return(lrun, r, i, j)
    }
    assert diverging == {(2, i, 14) for i in (3, 4, 5, 6)}
    assert all(is_k_return(lrun, 2, i, 14) for i in (3, 4, 5, 6))


def test_instrumenting_leaves_no_reference_cycles():
    # a cycle would keep every instrumented run's id maps alive until a
    # full collection
    aut, cfg = parse_automaton_text(EXCURSION)
    runs = enumerate_runs(EnumerationSpace(aut, cfg, 4, (0, 1, 2, 5, 7, 9), True))
    assert len(runs) == 11
    gc.collect()
    gc.disable()
    try:
        lruns = [instrument_lineage(run) for run in runs]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(lruns) == len(runs)


def _table_by_definition(lrun):
    n, m = lrun.run.automaton.level, len(lrun.run)
    upper = {
        (j, k): frozenset(i for i in range(j + 1) if is_k_upper(lrun, k, i, j))
        for j in range(m + 1)
        for k in range(n + 1)
    }
    returns = {
        (j, k): frozenset(i for i in range(j + 1) if is_k_return(lrun, k, i, j))
        for j in range(m + 1)
        for k in range(1, n + 1)
    }
    return upper, returns


def _assert_table_is_the_definition(run):
    lrun = instrument_lineage(run)
    table = classification_table(lrun)
    assert (table.length, table.level) == (len(run), run.automaton.level)
    assert (table.upper, table.returns) == _table_by_definition(lrun), run.operations()
    return table


def test_classification_table_is_the_definition_on_the_example(example_run):
    _assert_table_is_the_definition(example_run[0])


@pytest.fixture(scope="module")
def corpus_runs():
    # one run per (machine, start, operations): lineage reads no data value
    from hopad.harness import CORPUS_MACHINES, _corpus

    runs = []
    for _, aut, cfgs in _corpus(20260808, CORPUS_MACHINES):
        for cfg in cfgs:
            seen = set()
            for run in enumerate_runs(EnumerationSpace(aut, cfg, 6, (0, 1))):
                if run.operations() not in seen:
                    seen.add(run.operations())
                    runs.append(run)
    return runs


def test_classification_table_is_the_definition_on_the_corpus(corpus_runs):
    for run in corpus_runs:
        _assert_table_is_the_definition(run)
    assert len(corpus_runs) == 1083


def _w3_prefix(letters):
    from hopad.ulang import decorate_distinct, gen_w

    return decorate_distinct(gen_w(3, 3))[:letters]


@pytest.fixture(scope="module")
def recognizer_runs():
    # prefixes of w_3 hold no dollar, so their mirrored completions add
    # the collapse steps
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    words = [_w3_prefix(20), _w3_prefix(40)]
    for letters in (10, 20, 30, 40):
        prefix = _w3_prefix(letters)
        mirror = tuple(("]" if a == "[" else "[", d) for a, d in reversed(prefix))
        words.append(prefix + (("$", 0),) + mirror)
    return [execute_word(aut, word).run for word in words]


def test_classification_table_is_the_definition_on_recognizer_runs(recognizer_runs):
    runs = recognizer_runs
    assert len(runs[1]) == 161
    assert [any(tr.op.kind == "collapse" for tr in run.transitions) for run in runs] == [
        False, False, True, True, True, True
    ]
    for run in runs:
        _assert_table_is_the_definition(run)


def _level3_machine(seed, index):
    """A seeded deterministic level-3 machine that draws every operation
    kind: pop^1 20%, pop^2 15%, pop^3 15%, push^1 20%, push^2 15%,
    push^3 15%."""
    rng = random.Random(f"{seed}:{index}:l3")
    states, syms = ("q0", "q1"), ("g0", "g1")
    kinds = (
        (0.20, "pop", 1), (0.35, "pop", 2), (0.50, "pop", 3),
        (0.70, "push", 1), (0.85, "push", 2), (1.0, "push", 3),
    )

    def random_op():
        roll = rng.random()
        _, kind, level = next(bound for bound in kinds if roll < bound[0])
        return pop(level) if kind == "pop" else push(level, rng.choice(syms))

    rules = []
    for q in states:
        for g in syms:
            if rng.random() < 0.3:
                rules.append(Transition(q, g, None, rng.choice(states), random_op()))
            else:
                rules += [Transition(q, g, a, rng.choice(states), random_op()) for a in "ab"]
    return validate_automaton(
        Automaton(3, frozenset("ab"), frozenset(syms), "g0", frozenset(states), "q0", frozenset(), tuple(rules))
    )


def test_classification_table_is_the_definition_at_level_three():
    # starts whose topmost 2-stack has two columns, so that pop^2 and the
    # 3-returns it ends are reached
    starts = ("[[[(g0,-) (g1,1)] [(g0,-) (g0,2)]]]", "[[[(g0,-)]] [[(g0,-) (g1,1)] [(g0,-) (g0,2)]]]")
    runs = []
    for index in range(6):
        aut = _level3_machine(20260808, index)
        for q, literal in itertools.product(sorted(aut.states), starts):
            cfg = Configuration(q, parse_stack_literal(literal, 3))
            seen = set()
            for run, _ in walk_runs(EnumerationSpace(aut, cfg, 5, (0, 1)), representative=True):
                if run.operations() not in seen:
                    seen.add(run.operations())
                    runs.append(run)
    ops = {(op.kind, op.level) for run in runs for op in run.operations()}
    assert ops == {(kind, level) for kind in ("pop", "push") for level in (1, 2, 3)}
    returns = set()
    for run in runs:
        table = _assert_table_is_the_definition(run)
        returns |= {k for (_, k), starts in table.returns.items() if starts}
    assert returns == {1, 2, 3}
    assert len(runs) > 200


def test_a_column_is_a_set_of_starts(example_run):
    run, lrun = example_run
    m = len(run)
    table = classification_table(lrun)
    for column in [*table.upper.values(), *table.returns.values()]:
        members = frozenset(column)
        assert column == members and members == column and not column != members
        assert column == set(members) and set(members) == column
        assert column != members | {m + 1} and members | {m + 1} != column
        assert -1 not in column and m + 5 not in column and "0" not in column
        assert [i for i in range(m + 1) if i in column] == list(column) == sorted(members)
        assert len(column) == len(members)
        assert hash(column) == hash(members)
    assert list(Starts(1 << 3000 | 1)) == [0, 3000] and len(Starts((1 << 3001) - 1)) == 3001
    assert Starts(0) == frozenset() and not Starts(0) and Starts(0b101) & {2, 5} == {2}


LEVEL3_COLLAPSES = """level 3
collapsible true
input-alphabet a b c
stack-alphabet g h
initial-state q
initial-symbol g
trans q g in a q push 1 h
trans q g in b q push 2 g
trans q g in c q pop 1
trans q h in a q collapse 1
trans q h in b q collapse 2
trans q h in c q collapse 3
start-state q
start-stack [[[(g,-;1,1,1)]] [[(g,-;1,1,1) (g,-;2,1,2)] [(g,-;1,1,1) (g,-;2,2,2) (h,-;2,2,2) (g,-;4,2,2)]]]
"""


@pytest.fixture(scope="module")
def collapse_runs():
    # the start's h, one pop^1 down, collapses two atoms at level 1; a
    # copy of it under two push^2 collapses three 1-stacks at level 2
    scenario = parse_automaton_text(LEVEL3_COLLAPSES)
    runs, seen = [], set()
    space = EnumerationSpace(scenario.automaton, scenario.start, 6, (0, 1))
    for run, _ in walk_runs(space, representative=True):
        if run.operations() not in seen:
            seen.add(run.operations())
            runs.append(run)
    return runs


def test_classification_table_is_the_definition_on_level_three_collapses(collapse_runs):
    removed = set()  # (collapse level, how many stacks it removed)
    for run in collapse_runs:
        for t, tr in enumerate(run.transitions):
            if tr.op.kind == "collapse":
                sizes = [top_stack(run.at(i).stack, 3, tr.op.level).size for i in (t, t + 1)]
                removed.add((tr.op.level, sizes[0] - sizes[1]))
        _assert_table_is_the_definition(run)
    assert {level for level, _ in removed} == {1, 2, 3}
    assert (1, 2) in removed and (2, 3) in removed
    assert len(collapse_runs) == 351


def _lineage_shape(node):
    return None if node.children is None else tuple(_lineage_shape(c) for c in node.children)


def _stack_shape(nested, level):
    return None if level == 0 else tuple(_stack_shape(s, level - 1) for s in nested)


def _assert_step_shares_the_snapshot_before(before, after, op, n):
    # levels above the operation's keep their chains below the top path
    for _ in range(n - op.level):
        assert after.children.below is before.children.below
        before, after = before.children.top, after.children.top
    kids = before.children  # of the topmost op.level-stack
    if op.kind == "push":
        assert after.children.below is kids
        return
    while kids is not None and kids is not after.children:
        kids = kids.below
    assert kids is after.children  # a pop or collapse keeps a node of the chain


def test_lineage_has_the_shape_of_the_concrete_stack(corpus_runs, recognizer_runs, collapse_runs):
    # every pop and collapse keeps as many stacks as the concrete step kept,
    # and a step shares every node it does not rewrite with the snapshot before
    for run in corpus_runs + recognizer_runs + collapse_runs:
        n = run.automaton.level
        snaps = instrument_lineage(run).snapshots
        for t, snap in enumerate(snaps):
            stack = to_nested(run.at(t).stack, n)
            assert _lineage_shape(snap) == _stack_shape(stack, n), (run.operations(), t)
            if t:
                op = run.transitions[t - 1].op
                _assert_step_shares_the_snapshot_before(snaps[t - 1], snap, op, n)


def test_a_chain_node_rebuilt_above_the_operation_keeps_the_old_size():
    # a size above 256 computed anew is a fresh int per rebuilt node
    run = _chain_run([push(2, "g")] * 300 + [push(1, "g"), pop(1)], 2)
    snaps = instrument_lineage(run).snapshots
    assert snaps[-3].children.size == 301
    for before, after in zip(snaps[-3:], snaps[-2:]):
        assert after.children is not before.children
        assert after.children.size is before.children.size


def test_ids_count_in_creation_order(corpus_runs, recognizer_runs):
    # a copy is younger than its source, and only a push creates ids
    for run in corpus_runs + recognizer_runs:
        lrun = instrument_lineage(run)
        assert all(source < uid for uid, source in enumerate(lrun.parent) if source is not None)
        born = lrun.born
        assert len(born) == len(run) + 1
        for t, tr in enumerate(run.transitions, start=1):
            assert born[t] >= born[t - 1]
            assert (born[t] > born[t - 1]) == (tr.op.kind == "push"), (run.operations(), t)
        assert born[-1] == len(lrun.parent) - 1


def test_classification_table_of_533_steps_within_budget():
    from hopad.ulang import build_u_recognizer

    lrun = instrument_lineage(execute_word(build_u_recognizer(), _w3_prefix(160)).run)
    assert len(lrun.run) == 533
    start = time.perf_counter()
    classification_table(lrun)
    assert time.perf_counter() - start < 0.1


PUSH_CHAIN = """level 2
input-alphabet a b
stack-alphabet g
initial-state q
initial-symbol g
trans q g in a q push 1 g
trans q g in b p pop 2
start-state q
start-stack [[(g,-)] [(g,-)]]
"""


def test_classification_table_of_a_3001_step_chain_within_budget():
    # 3,000 push^1 steps, then a pop^2 that exposes the start's first
    # 1-stack: a table of one start set per cell held about 1.1 GB here
    scenario = parse_automaton_text(PUSH_CHAIN)
    word = (("a", 0),) * 3000 + (("b", 0),)
    lrun = instrument_lineage(execute_word(scenario.automaton, word, start=scenario.start).run)
    assert len(lrun.run) == 3001
    start = time.perf_counter()
    classification_table(lrun)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        table = classification_table(lrun)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert table.upper[(3000, 0)] == set(range(3001)) and table.upper[(3001, 0)] == {3001}
    assert table.returns[(3001, 2)] == set(range(3001)) and table.returns[(3001, 1)] == set()


def test_lineage_of_a_12001_step_chain_within_budget():
    # 12,000 push^1 steps on one 1-stack: copying its children on every
    # step made the lineage quadratic, 2.3 s and 581 MB on 2 vCPUs
    scenario = parse_automaton_text(PUSH_CHAIN)
    word = (("a", 0),) * 12000 + (("b", 0),)
    run = execute_word(scenario.automaton, word, start=scenario.start).run
    assert len(run.configs) == 12002
    start = time.perf_counter()
    instrument_lineage(run)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        lrun = instrument_lineage(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(lrun.snapshots[12000].children.top.children) == 12001
    assert len(lrun.snapshots[12001].children) == 1 and len(lrun.parent) == 12005


def test_decomposition_trees_keep_their_fields_defaults_and_repr():
    leaf = DecompositionTree("return", 1, 2, (3, 4))
    assert (leaf.split, leaf.children) == (None, ())
    assert repr(leaf) == (
        "DecompositionTree(shape='return', case=1, level=2, span=(3, 4), split=None, children=())"
    )
    tree = DecompositionTree("upper", 3, 1, (2, 4), children=(leaf,))
    assert tree == DecompositionTree("upper", 3, 1, (2, 4), None, (leaf,))
    assert hash(tree) == hash(DecompositionTree("upper", 3, 1, (2, 4), children=(leaf,)))
    assert tree.render() == "  case 3 [2..4]"


def test_a_derivation_as_deep_as_a_long_run_renders():
    # a right-leaning chain of compositions, one level per split
    tree = DecompositionTree("upper", 1, 0, (4999, 5000))
    for i in range(4998, -1, -1):
        leaf = DecompositionTree("upper", 1, 0, (i, i + 1))
        tree = DecompositionTree("upper", 4, 0, (i, 5000), i + 1, (leaf, tree))
    text = tree.render()  # about 50 million characters, mostly indentation
    assert text.count("\n") == 9998
    assert text.startswith(
        "  case 4 [0..5000] split 1\n    case 1 [0..1]\n    case 4 [1..5000] split 2\n"
    )
    assert text.endswith("\n" + " " * 10000 + "case 1 [4999..5000]")
