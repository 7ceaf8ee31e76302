import itertools

import pytest

import hopad.core as core
from hopad.core import (
    MAX_LEVEL,
    Atom,
    Automaton,
    Configuration,
    DEFAULT_EPS_BUDGET,
    IllFormed,
    InvalidAutomaton,
    Run,
    Stuck,
    Step,
    Transition,
    apply_operation,
    automaton_diagnostics,
    collapse,
    execute_word,
    from_nested,
    initial_configuration,
    pop,
    project_word,
    push,
    recompose,
    replay,
    spine,
    step,
    to_nested,
    top_stack,
    validate_automaton,
)


def atom(sym, data=None, links=None):
    return Atom(sym, data, links)


def sizes(stack, level):
    """The sizes (k_1, ..., k_level) of the topmost i-stacks."""
    return tuple(top_stack(stack, level, i).size for i in range(1, level + 1))


# [a b][c d] as a level-2 stack
AB_CD_NESTED = ((atom("a"), atom("b")), (atom("c"), atom("d")))
AB_CD = from_nested(AB_CD_NESTED, 2)


def nested2(stack):
    return to_nested(stack, 2)


def _nest(leaf, level):
    """`leaf` as the only element of a level-`level` nested stack."""
    for _ in range(level):
        leaf = (leaf,)
    return leaf


def test_initial_configuration_levels():
    aut1 = Automaton(
        1, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), ()
    )
    assert initial_configuration(aut1) == Configuration("q", from_nested((atom("X"),), 1))
    aut2 = Automaton(
        2, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), ()
    )
    assert initial_configuration(aut2) == Configuration("q", from_nested(((atom("X"),),), 2))


def test_initial_links_when_collapsible():
    aut = Automaton(
        2, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), (),
        collapsible=True,
    )
    cfg = initial_configuration(aut)
    assert top_stack(cfg.stack, 2, 0).links == (1, 1)
    # collapsing from the unpushed initial atom would empty the stack
    with pytest.raises(IllFormed):
        apply_operation(cfg.stack, 2, collapse(2))


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("collapsible", (False, True))
def test_the_initial_configuration_is_built_once_per_automaton(level, collapsible):
    aut = Automaton(
        level, frozenset("abc"), frozenset("XZ"), "X", frozenset({"q", "r"}), "q",
        frozenset({"r"}),
        (
            Transition("q", "X", "a", "r", push(level, "X")),
            Transition("q", "X", "b", "q", push(1, "Z")),
            Transition("q", "Z", None, "q", push(1, "Z")),
        ),
        collapsible,
    )
    first = initial_configuration(aut)
    assert initial_configuration(aut) is first
    roots = []
    outcomes = (("a", "accepted"), ("", "rejected"), ("ac", "rejected"), ("b", "budget-exhausted"))
    for word, kind in outcomes:
        out = execute_word(aut, tuple((letter, 0) for letter in word), eps_budget=3)
        assert out.kind == kind, word
        root = out.run
        while root._parent is not None:  # walked before the run's tuples are built
            root = root._parent
        assert len(out.run.configs) == len(out.run) + 1
        assert len(root) == 0 and root.configs == (first,) and root.at(0) is first
        roots.append(root)
    # each call starts from a zero-step run of its own
    assert len({id(root) for root in roots}) == len(roots)
    start = Configuration("r", first.stack)
    assert execute_word(aut, (), start=start).run.configs == (start,)
    literal = _nest(atom("X", None, (1,) * level if collapsible else None), level)
    assert first == Configuration("q", from_nested(literal, level))
    assert initial_configuration(aut._replace()) is not first
    renamed = initial_configuration(aut._replace(initial_symbol="Z"))
    assert top_stack(renamed.stack, level, 0).symbol == "Z"
    assert initial_configuration(aut) is first


def test_push2_copies_and_rewrites_top():
    out = apply_operation(AB_CD, 2, push(2, "e"))
    assert nested2(out) == (
        (atom("a"), atom("b")),
        (atom("c"), atom("d")),
        (atom("c"), atom("e")),
    )


def test_example_stack_prefix_operations():
    s = apply_operation(AB_CD, 2, push(2, "e"))
    s = apply_operation(s, 2, pop(1))
    assert nested2(s) == ((atom("a"), atom("b")), (atom("c"), atom("d")), (atom("c"),))
    s = apply_operation(s, 2, pop(2))
    assert s == AB_CD


def test_pop_guards_well_formedness():
    with pytest.raises(IllFormed):
        apply_operation(from_nested(((atom("X"),),), 2), 2, pop(2))
    with pytest.raises(IllFormed):
        apply_operation(from_nested(((atom("X"),),), 2), 2, pop(1))


def test_push_then_pop_restores():
    for k in (1, 2):
        out = apply_operation(AB_CD, 2, push(k, "e"), 7)
        back = apply_operation(out, 2, pop(k))
        assert back == AB_CD


def test_push1_keeps_the_old_top():
    out = apply_operation(AB_CD, 2, push(1, "e"), 3)
    assert nested2(out) == ((atom("a"), atom("b")), (atom("c"), atom("d"), atom("e", 3)))


def test_push_links_record_sizes_after():
    linked = from_nested(tuple(tuple(a._replace(links=(1, 1)) for a in col) for col in AB_CD_NESTED), 2)
    out = apply_operation(linked, 2, push(2, "e"), 5)
    assert top_stack(out, 2, 0) == atom("e", 5, (2, 3))
    out2 = apply_operation(out, 2, push(1, "f"))
    assert top_stack(out2, 2, 0) == atom("f", None, (3, 3))
    assert sizes(out2, 2) == (3, 3)


@pytest.mark.parametrize("level", (1, 2, 3))
def test_the_rewritten_atom_alone_decides_whether_a_push_records_links(level):
    linked = from_nested(_nest(atom("g", None, (1,) * level), level), level)
    bare = from_nested(_nest(atom("g"), level), level)
    for k in range(1, level + 1):
        out = apply_operation(linked, level, push(k, "h"), 3)
        assert top_stack(out, level, 0) == atom("h", 3, sizes(out, level))
        assert apply_operation(out, level, collapse(k)) == linked
        out = apply_operation(bare, level, push(k, "h"), 3)
        assert top_stack(out, level, 0) == atom("h", 3)
        for stack in (bare, out):
            with pytest.raises(IllFormed, match=f"without a level-{k} link"):
                apply_operation(stack, level, collapse(k))


def test_collapse_truncates_to_link():
    five = tuple((atom("x"),) for _ in range(4)) + ((atom("y"), atom("t", 1, (2, 2))),)
    out = apply_operation(from_nested(five, 2), 2, collapse(2))
    assert nested2(out) == five[:1]
    # keep == current size is a no-op
    noop = tuple((atom("x"),) for _ in range(2)) + ((atom("t", 1, (1, 3)),),)
    out = apply_operation(from_nested(noop, 2), 2, collapse(2))
    assert nested2(out) == noop[:2]
    beyond = ((atom("t", 1, (1, 9)),),)
    with pytest.raises(IllFormed):
        apply_operation(from_nested(beyond, 2), 2, collapse(2))


def test_spine_and_recompose():
    def nested_spine(stack, k):
        pieces = spine(stack, 2, k)
        return tuple(to_nested(p, lvl) for p, lvl in zip(pieces, range(2, k - 1, -1)))

    ab, cd = AB_CD_NESTED
    assert nested_spine(AB_CD, 1) == ((ab,), cd)
    assert nested_spine(AB_CD, 0) == ((ab,), (atom("c"),), atom("d"))
    lone = from_nested(((atom("X"),),), 2)
    assert spine(lone, 2, 1)[0] is None  # the empty 2-stack under the top
    assert nested_spine(lone, 1) == ((), (atom("X"),))
    for k in (0, 1, 2):
        assert recompose(spine(AB_CD, 2, k)) == AB_CD


def test_well_formedness():
    assert from_nested(to_nested(AB_CD, 2), 2) == AB_CD
    with pytest.raises(IllFormed):  # a 1-stack of 1-stacks, not of atoms
        from_nested(to_nested(AB_CD, 1), 1)
    with pytest.raises(IllFormed):  # nodes are not the literal form
        from_nested(AB_CD, 2)
    with pytest.raises(IllFormed):
        from_nested(((),), 2)
    with pytest.raises(IllFormed):
        from_nested((), 1)
    assert from_nested(atom("X"), 0) == atom("X")


def single_pop_automaton():
    return validate_automaton(
        Automaton(
            1,
            frozenset({"a"}),
            frozenset({"g0", "g1"}),
            "g0",
            frozenset({"q", "qf"}),
            "q",
            frozenset({"qf"}),
            (Transition("q", "g1", "a", "qf", pop(1)),),
        )
    )


def test_step_pop_reads_matching_value():
    aut = single_pop_automaton()
    cfg = Configuration("q", from_nested((atom("g0"), atom("g1", 5)), 1))
    res = step(aut, cfg, ("a", 5))
    assert isinstance(res, Step)
    assert res.config == Configuration("qf", from_nested((atom("g0"),), 1))
    assert res.label == ("a", 5)


def test_step_pop_data_mismatch():
    aut = single_pop_automaton()
    cfg = Configuration("q", from_nested((atom("g0"), atom("g1", 5)), 1))
    assert step(aut, cfg, ("a", 7)) == Stuck("data-mismatch")


def test_step_epsilon_priority():
    aut = validate_automaton(
        Automaton(
            1,
            frozenset({"a"}),
            frozenset({"g"}),
            "g",
            frozenset({"q", "p"}),
            "q",
            frozenset(),
            (Transition("q", "g", None, "p", push(1, "g")),),
        )
    )
    cfg = initial_configuration(aut)
    res = step(aut, cfg, ("a", 1))
    assert isinstance(res, Step)
    assert res.label == (None, None)


@pytest.mark.parametrize("epsilon_first", (True, False))
def test_an_epsilon_rule_wins_over_a_letter_rule_on_the_same_state_and_symbol(epsilon_first):
    # only an unvalidated automaton holds both; `step`, `execute_word` and
    # the enumeration read the one rule table
    from hopad.harness import EnumerationSpace, walk_runs

    eps = Transition("q", "g", None, "p", push(1, "g"))
    letter = Transition("q", "g", "a", "r", pop(1))
    aut = Automaton(
        1,
        frozenset({"a"}),
        frozenset({"g"}),
        "g",
        frozenset({"q", "p", "r"}),
        "q",
        frozenset({"p"}),
        (eps, letter) if epsilon_first else (letter, eps),
    )
    assert [d.rule for d in automaton_diagnostics(aut)] == ["epsilon-conflict"]
    cfg = initial_configuration(aut)
    for next_input in (None, ("a", 1)):
        res = step(aut, cfg, next_input)
        assert isinstance(res, Step) and res.transition == eps and res.label == (None, None)
    out = execute_word(aut, ())
    assert out.accepted and out.run.transitions == (eps,)
    runs = [run for run, _ in walk_runs(EnumerationSpace(aut, cfg, 3, (0, 1)))]
    assert [run.transitions for run in runs] == [(), (eps,)]


def test_step_determinism_and_purity():
    aut = single_pop_automaton()
    cfg = Configuration("q", from_nested((atom("g0"), atom("g1", 5)), 1))
    assert step(aut, cfg, ("a", 5)) == step(aut, cfg, ("a", 5))


def test_execute_word_outcomes():
    aut = single_pop_automaton()
    assert execute_word(aut, ()).kind == "rejected"
    eps_loop = validate_automaton(
        Automaton(
            1,
            frozenset({"a"}),
            frozenset({"g"}),
            "g",
            frozenset({"q"}),
            "q",
            frozenset(),
            (Transition("q", "g", None, "q", push(1, "g")),),
        )
    )
    for budget in (0, 3):
        out = execute_word(eps_loop, (), eps_budget=budget)
        assert out.kind == "budget-exhausted"
        assert len(out.run) == budget  # the step over the budget is not taken
        assert replay(out.run)


def _fold_over_step(aut, word, eps_budget):
    """What execute_word returns, folded over `step` from the initial
    configuration: (kind, reason, labels, operations, last configuration)."""
    config, labels, ops = initial_configuration(aut), [], []
    pos = streak = 0
    while not (pos == len(word) and config.state in aut.accepting):
        res = step(aut, config, word[pos] if pos < len(word) else None)
        if isinstance(res, Stuck):
            left = len(word) - pos
            reason = f"{res.reason}, {left} letters unconsumed" if left else res.reason
            return "rejected", reason, tuple(labels), tuple(ops), config
        if res.label[0] is None:
            streak += 1
            if streak > eps_budget:
                return "budget-exhausted", None, tuple(labels), tuple(ops), config
        else:
            pos, streak = pos + 1, 0
        config = res.config
        labels.append(res.label)
        ops.append(res.transition.op)
    return "accepted", None, tuple(labels), tuple(ops), config


def test_execute_word_is_a_fold_over_step():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    letters = [(a, d) for a in "[]$" for d in (0, 1, 2)]
    cases = [
        (word, DEFAULT_EPS_BUDGET) for n in range(5) for word in itertools.product(letters, repeat=n)
    ]
    cases += [((("[", 1), ("$", 0), ("]", 1)), budget) for budget in range(4)]
    kinds, unconsumed = set(), set()
    for word, budget in cases:
        out = execute_word(aut, word, eps_budget=budget)
        got = (out.kind, out.reason, out.run.labels, out.run.operations(), out.run.last)
        assert got == _fold_over_step(aut, word, budget), (word, budget)
        kinds.add(out.kind)
        unconsumed.add(out.reason is not None and "unconsumed" in out.reason)
    assert kinds == {"accepted", "rejected", "budget-exhausted"}
    assert unconsumed == {False, True}


def test_a_recorded_runs_last_is_the_folds_configuration_and_its_last_config():
    # `last` is built on first read, from the stack its step left and its
    # rule's target, whether it is read before or after the tuples
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    letters = [(a, d) for a in "[]$" for d in (0, 1, 2)]
    cases = [
        (word, DEFAULT_EPS_BUDGET) for n in range(5) for word in itertools.product(letters, repeat=n)
    ]
    cases += [((("[", 1), ("$", 0), ("]", 1)), budget) for budget in range(4)]
    for word, budget in cases:
        folded = _fold_over_step(aut, word, budget)[-1]
        last_first = execute_word(aut, word, eps_budget=budget).run
        assert last_first.last == folded and last_first.last is last_first.configs[-1], word
        configs_first = execute_word(aut, word, eps_budget=budget).run
        assert configs_first.configs[-1] is configs_first.last == folded, word


def test_a_recorded_run_within_its_memory_budget():
    # the mirrored, decorated w_5 member (N = 3): 2,427 letters, 6,068
    # steps; with a configuration kept per step it held 379 bytes a step
    import tracemalloc

    from hopad.ulang import build_u_recognizer, decorate_distinct, gen_w

    aut = build_u_recognizer()
    half = decorate_distinct(gen_w(5, 3))
    word = half + (("$", 0),) + tuple(("]" if a == "[" else "[", d) for a, d in reversed(half))
    initial_configuration(aut)
    tracemalloc.start()
    try:
        out = execute_word(aut, word)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.accepted and len(word) == 2427 and len(out.run) == 6068
    assert held / len(out.run) < 330


def test_a_push_grows_its_k_stack_and_links_it_with_one_size_object():
    # on the mirrored, decorated w_5 member (N = 3), 959 pushes land on a
    # topmost k-stack wider than 256, where an equal int is a second object
    from hopad.ulang import build_u_recognizer, decorate_distinct, gen_w

    aut = build_u_recognizer()
    half = decorate_distinct(gen_w(5, 3))
    word = half + (("$", 0),) + tuple(("]" if a == "[" else "[", d) for a, d in reversed(half))
    run = execute_word(aut, word).run
    wide, unshared = 0, []
    for i, tr in enumerate(run.transitions):
        if tr.op.kind == "push":
            stack, k = run.at(i + 1).stack, tr.op.level
            size = top_stack(stack, aut.level, k).size
            wide += size > 256
            if top_stack(stack, aut.level, 0).links[k - 1] is not size:
                unshared.append(i)
    assert wide == 959 and not unshared, unshared[:5]


def test_every_step_goes_through_step_apply_operation_and_extend_run(monkeypatch):
    # the benchmark's per-layer split counts these calls through the module
    # globals, and keys apply_operation by the op it gets at position 2
    from hopad.ulang import build_u_recognizer

    calls = {"step": 0, "apply_operation": 0, "extend_run": 0}
    kinds = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "apply_operation":
                kinds.append(args[2].kind)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
    word = (("[", 1), ("[", 2), ("$", 0), ("]", 2), ("]", 1))
    out = core.execute_word(build_u_recognizer(), word)
    assert out.accepted
    assert calls == dict.fromkeys(calls, len(out.run))
    assert kinds == [t.op.kind for t in out.run.transitions]
    assert {"push", "pop", "collapse"} == set(kinds)
    assert {None, "["} <= {label[0] for label in out.run.labels}


def test_a_recorded_run_keeps_no_step_and_labels_with_the_words_own_pairs():
    # a `Step` kept alive per recorded step cost long runs time and memory
    import gc

    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    opens = tuple(("[", i) for i in range(1, 31))
    word = opens + (("$", 0),) + tuple(("]", i) for _, i in reversed(opens))
    gc.collect()
    before = sum(isinstance(o, Configuration) for o in gc.get_objects())
    out = execute_word(aut, word)
    assert out.accepted and len(out.run) >= 100
    # nor a configuration: the initial one, built on first use, is all
    assert sum(isinstance(o, Configuration) for o in gc.get_objects()) - before <= 1
    held = [o for o in gc.get_objects() if isinstance(o, Step)]
    configs = {id(config) for config in out.run.configs}
    assert not [s for s in held if id(s.config) in configs]
    letter_labels = [label for label in out.run.labels if label[0] is not None]
    assert len(letter_labels) == len(word)
    assert all(label is pair for label, pair in zip(letter_labels, word))
    # a pair that is not a tuple is copied into one before it is recorded
    lists = execute_word(aut, [list(pair) for pair in word])
    assert lists.accepted and lists.run.labels == out.run.labels
    assert all(type(label) is tuple for label in lists.run.labels)
    res = step(aut, Configuration("work", initial_configuration(aut).stack), ["[", 1])
    assert isinstance(res, Step) and type(res.label) is tuple and res.label == ("[", 1)


def test_execute_word_from_a_start_configuration():
    aut = single_pop_automaton()
    cfg = Configuration("q", from_nested((atom("g0"), atom("g1", 5)), 1))
    out = execute_word(aut, (("a", 5),), start=cfg)
    assert out.accepted
    assert out.run.at(0) == cfg and len(out.run) == 1
    # from the initial configuration the same word finds no rule
    assert execute_word(aut, (("a", 5),)).kind == "rejected"


def test_execute_word_purity_and_replay():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("$", 0), ("]", 1))
    first = execute_word(aut, word)
    second = execute_word(aut, word)
    assert first == second
    assert replay(first.run)


def test_replay_rejects_a_tampered_run():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    run = execute_word(aut, (("[", 1), ("$", 0), ("]", 1))).run
    configs, labels, transitions = list(run.configs), list(run.labels), list(run.transitions)
    assert labels[0] == (None, None) and labels[6] == ("]", 1)
    assert replay(Run(aut, configs, labels, transitions))

    def tampered(index, items, value):
        items = list(items)
        items[index] = value
        return items

    bad = [
        # a final configuration that the last step does not reach
        Run(aut, tampered(-1, configs, configs[0]), labels, transitions),
        # the rule of another step
        Run(aut, configs, labels, tampered(0, transitions, transitions[2])),
        # a letter on an epsilon step, which the epsilon rule ignores
        Run(aut, configs, tampered(0, labels, ("[", 1)), transitions),
        # a pop whose value is not the stored one is stuck
        Run(aut, configs, tampered(6, labels, ("]", 2)), transitions),
    ]
    assert step(aut, configs[6], ("]", 2)) == Stuck("data-mismatch")
    assert [replay(r) for r in bad] == [False] * 4


def test_reachable_configurations_stay_well_formed():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("]", 2), ("$", 0), ("]", 1))
    out = execute_word(aut, word)
    assert out.accepted
    for cfg in out.run.configs:
        assert from_nested(to_nested(cfg.stack, aut.level), aut.level) == cfg.stack
        if aut.collapsible:
            assert all(
                a.links is not None for c in out.run.configs for a in _atoms(c.stack, 2)
            )


def _atoms(stack, level):
    if level == 0:
        yield stack
    else:
        for child in stack:
            yield from _atoms(child, level - 1)


def test_links_equal_spine_sizes_after_push():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    out = execute_word(aut, (("[", 1), ("[", 2), ("$", 0)))
    for i, tr in enumerate(out.run.transitions):
        if tr.op.kind == "push":
            stack = out.run.at(i + 1).stack
            assert top_stack(stack, 2, 0).links == sizes(stack, 2)


def test_project_word():
    assert project_word((("[", 1), ("]", 1))) == ("[", "]")
    assert project_word(()) == ()
    assert project_word((("$", 0), ("[", 3))) == ("$", "[")


def test_validate_epsilon_conflict():
    aut = Automaton(
        1,
        frozenset({"a"}),
        frozenset({"X"}),
        "X",
        frozenset({"q", "p"}),
        "q",
        frozenset(),
        (
            Transition("q", "X", "a", "p", push(1, "X")),
            Transition("q", "X", None, "p", push(1, "X")),
        ),
    )
    rules = [d.rule for d in automaton_diagnostics(aut)]
    assert "epsilon-conflict" in rules
    diag = next(d for d in automaton_diagnostics(aut) if d.rule == "epsilon-conflict")
    assert str(diag) == "epsilon-conflict at (q,X)"


def test_validate_determinism_conflict():
    aut = Automaton(
        1,
        frozenset({"a"}),
        frozenset({"X"}),
        "X",
        frozenset({"q", "p"}),
        "q",
        frozenset(),
        (
            Transition("q", "X", "a", "p", push(1, "X")),
            Transition("q", "X", "a", "q", pop(1)),
        ),
    )
    assert any(d.rule == "determinism-conflict" for d in automaton_diagnostics(aut))


def test_validate_collects_all_violations():
    aut = Automaton(
        1,
        frozenset({"a"}),
        frozenset({"X"}),
        "X",
        frozenset({"q"}),
        "q",
        frozenset({"nowhere"}),
        (
            Transition("q", "Y", "b", "r", pop(3)),
            Transition("q", "X", "a", "q", collapse(1)),
        ),
    )
    rules = {d.rule for d in automaton_diagnostics(aut)}
    assert rules >= {
        "dangling-state",
        "dangling-symbol",
        "dangling-letter",
        "level-out-of-range",
        "collapse-not-allowed",
    }
    with pytest.raises(InvalidAutomaton):
        validate_automaton(aut)


@pytest.mark.parametrize(
    "level, ok", [(0, False), (1, True), (MAX_LEVEL, True), (MAX_LEVEL + 1, False)]
)
def test_automaton_level_range(level, ok):
    aut = Automaton(
        level, frozenset(), frozenset({"g"}), "g", frozenset({"q"}), "q", frozenset(), ()
    )
    rules = [d.rule for d in automaton_diagnostics(aut)]
    assert rules == ([] if ok else ["level-out-of-range"])


def test_u_recognizer_is_valid():
    from hopad.ulang import build_u_recognizer

    assert automaton_diagnostics(build_u_recognizer()) == []


def test_the_fragment_keeps_every_field_but_the_rules_and_collapsibility():
    from hopad.ulang import build_u_recognizer

    full = build_u_recognizer()
    assert full.uses_collapse and full.rule_table  # filled in before the fragment is made
    frag = core.decollapse(full)
    for name in Automaton._fields:
        if name not in ("transitions", "collapsible"):
            assert getattr(frag, name) == getattr(full, name), name
    assert frag.transitions == tuple(t for t in full.transitions if t.op.kind != "collapse")
    assert (frag.collapsible, frag.uses_collapse) == (False, False)
    # the collapse rule reads $ on (work, Y); the fragment builds its own table
    assert "$" in full.rule_table[("work", "Y")] and "$" not in frag.rule_table[("work", "Y")]


def test_run_accessors_and_subrun_lengths():
    from hopad.harness import classification_example_run

    run = classification_example_run()
    assert len(run) == 6
    for i in range(7):
        for j in range(i, 7):
            sub = run.subrun(i, j)
            assert len(sub) == j - i
            assert sub.at(0) == run.at(i) and sub.at(len(sub)) == run.at(j)
    assert run.subrun(0, len(run)) == run
    with pytest.raises(IndexError):
        run.subrun(2, 9)


def test_wide_stacks_compare_and_hash_without_recursion():
    atoms = tuple(atom("g", i % 7) for i in range(10_000))
    first, second = from_nested(atoms, 1), from_nested(atoms, 1)
    assert first is not second and first.below is not second.below
    assert first == second and hash(first) == hash(second)
    other = from_nested((atom("h"),) + atoms[1:], 1)  # differs at the bottom only
    assert first != other
    wide = from_nested(tuple((a,) for a in atoms), 2)
    assert wide == from_nested(tuple((a,) for a in atoms), 2)


def _deep_member(n):
    opens = tuple(("[", i) for i in range(1, n + 1))
    return opens + (("$", 0),) + tuple(("]", i) for i in range(n, 0, -1))


def test_long_run_shares_stacks_and_replays():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = _deep_member(6400)
    out = execute_word(aut, word)
    assert out.accepted and replay(out.run)
    # the same word stepped without recording the run
    config, pos, steps = initial_configuration(aut), 0, 0
    while pos < len(word) or config.state not in aut.accepting:
        res = step(aut, config, word[pos] if pos < len(word) else None)
        config, steps = res.config, steps + 1
        pos += res.label[0] is not None
    assert len(out.run) == steps == len(out.run.labels) == 32_003
    # consecutive level-2 stacks share everything under the rewritten spine
    configs = out.run.configs
    for tr, before, after in zip(out.run.transitions, configs, configs[1:]):
        old, new = before.stack, after.stack
        if tr.op.level == 1:
            assert new.below is old.below
        elif tr.op.kind == "push":
            assert new.below is old
        elif tr.op.kind == "pop":
            assert new is old.below
        else:
            for _ in range(old.size - new.size):
                old = old.below
            assert new is old


def test_lazy_run_tuples_and_hashes_are_safe_to_share_across_threads():
    import sys
    import threading

    from hopad.ulang import build_u_recognizer

    run = execute_word(build_u_recognizer(), _deep_member(300)).run  # tuples not built yet
    results = []

    def read():
        results.append((hash(run.last.stack), run.configs, run.labels, run.transitions))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r == results[0] for r in results)
    assert len(results[0][1]) == len(run) + 1 and results[0][1][-1] == run.last
    assert hash(run.last.stack) == hash(from_nested(to_nested(run.last.stack, 2), 2))


def test_threads_racing_on_a_runs_first_last_read_get_equal_configurations():
    import sys
    import threading

    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            run = execute_word(aut, _deep_member(5)).run  # `last` not built yet
            barrier = threading.Barrier(4)
            results = []

            def read():
                barrier.wait()
                results.append(run.last)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 4 and all(r == run.last for r in results)
            assert run.configs[-1] is run.last and replay(run)
    finally:
        sys.setswitchinterval(interval)


def test_a_run_built_by_another_thread_is_not_walked_again():
    from hopad.ulang import build_u_recognizer

    run = execute_word(build_u_recognizer(), _deep_member(3)).run
    assert run._parent is not None
    labels = run.labels  # builds the tuples and clears the parent
    assert run._parent is None
    # what a thread does when it lost the race to build them
    assert Run.__getattr__(run, "labels") is labels


def _chain(run):
    """The runs of an unbuilt `extend_run` chain, from its root to `run`."""
    runs = [run]
    while runs[-1]._parent is not None:
        runs.append(runs[-1]._parent)
    return runs[::-1]


def test_operations_are_the_operations_of_the_steps_taken():
    # every run of an `extend_run` chain has the operations of its own
    # steps, whichever runs of the chain were built first
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("$", 0), ("]", 2))
    for middle_built_first in (False, True):
        run = execute_word(aut, word).run
        chain = _chain(run)
        taken = tuple(r._transition.op for r in chain[1:])  # as each step returned it
        assert len(chain) == len(run) + 1 and len({op.kind for op in taken}) > 1
        if middle_built_first:
            middle = chain[len(chain) // 2]
            assert middle.transitions and middle._parent is None
        assert [r.operations() for r in chain] == [taken[:i] for i in range(len(chain))]
    made = Run(aut, run.configs, run.labels, run.transitions)  # built by __init__
    assert made.operations() == taken


def test_outcomes_are_plain_tuples_with_the_same_fields():
    aut = single_pop_automaton()
    eps_loop = aut._replace(transitions=(Transition("q", "g0", None, "q", push(1, "g0")),))
    cfg = Configuration("q", from_nested((atom("g0"), atom("g1", 5)), 1))
    cases = (
        (execute_word(aut, (("a", 5),), start=cfg), "accepted", None),
        (execute_word(aut, (("a", 4),), start=cfg), "rejected", "data-mismatch, 1 letters unconsumed"),
        (execute_word(eps_loop, (), eps_budget=2), "budget-exhausted", None),
    )
    for out, kind, reason in cases:
        assert (out.kind, out.reason, out.accepted) == (kind, reason, kind == "accepted")
        same = core.Outcome(kind, out.run, reason)
        assert out == same and hash(out) == hash(same)
        assert out != core.Outcome(kind, out.run, "other")
        assert repr(out) == f"Outcome(kind={kind!r}, run={out.run!r}, reason={reason!r})"
    assert core.Outcome("accepted", cases[0][0].run).reason is None


def _wide_stack(level, width):
    """A collapsible stack whose topmost k-stacks are all `width` wide."""
    stack = from_nested(_nest(atom("g", None, (1,) * level), level), level)
    for k in range(1, level + 1):
        for _ in range(width - 1):
            stack = apply_operation(stack, level, push(k, "g"))
    return stack


@pytest.mark.parametrize("level", (1, 2, 3))
def test_an_operation_builds_only_the_nodes_of_the_top_path(level, monkeypatch):
    width = 1000
    stack = _wide_stack(level, width)
    assert sizes(stack, level) == (width,) * level
    built = []

    def counting(make):
        def wrapper(*args):
            built.append(make(*args))
            return built[-1]
        return wrapper

    monkeypatch.setattr(core, "_node", counting(core._node))  # the routine that builds nodes
    for k in range(1, level + 1):
        for op, nodes, size in (
            (pop(k), level - k, width - 1),
            (collapse(k), level - k, width - 1),
            (push(k, "h"), level, width + 1),
        ):
            built.clear()
            out = apply_operation(stack, level, op, 4)
            assert len(built) == nodes, op
            assert sizes(out, level)[k - 1] == size, op


@pytest.mark.parametrize("level", (2, 3))  # a level-1 operation rebuilds no node above it
def test_a_node_rebuilt_above_the_operation_keeps_the_old_size(level):
    # a fresh int per rebuilt node was an allocation per step on wide stacks
    width = 1000
    stack = _wide_stack(level, width)
    unshared = []  # (op, depth): never a node in an assertion, whose repr is huge
    for k in range(1, level + 1):
        for op in (pop(k), collapse(k), push(k, "h")):
            out = apply_operation(stack, level, op, 4)
            pairs = [(stack, out)]
            for _ in range(level - k):  # the nodes above the topmost k-stack
                pairs.append((pairs[-1][0].top, pairs[-1][1].top))
            if op.kind == "push":  # and the top path of the copied (k-1)-stack
                old, new = pairs.pop()
                for _ in range(k - 1):
                    old, new = old.top, new.top
                    pairs.append((old, new))
            else:
                pairs.pop()  # the rewritten topmost k-stack itself
            unshared += [
                (str(op), depth)
                for depth, (old, new) in enumerate(pairs)
                if new is old or new.size is not old.size
            ]
    assert not unshared
