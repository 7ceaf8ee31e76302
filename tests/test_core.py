import pytest

from hopad.core import (
    Atom,
    Automaton,
    Configuration,
    IllFormed,
    InvalidAutomaton,
    Stuck,
    Step,
    Transition,
    apply_operation,
    automaton_diagnostics,
    collapse,
    execute_word,
    initial_configuration,
    is_well_formed,
    pop,
    project_word,
    push,
    recompose,
    replay,
    spine,
    step,
    stack_sizes,
    top_atom,
    validate_automaton,
)


def atom(sym, data=None, links=None):
    return Atom(sym, data, links)


# [a b][c d] as a level-2 stack
AB_CD = ((atom("a"), atom("b")), (atom("c"), atom("d")))


def test_initial_configuration_levels():
    aut1 = Automaton(
        1, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), ()
    )
    assert initial_configuration(aut1) == Configuration("q", (atom("X"),))
    aut2 = Automaton(
        2, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), ()
    )
    assert initial_configuration(aut2) == Configuration("q", ((atom("X"),),))


def test_initial_links_when_collapsible():
    aut = Automaton(
        2, frozenset("a"), frozenset("X"), "X", frozenset({"q"}), "q", frozenset(), (),
        collapsible=True,
    )
    cfg = initial_configuration(aut)
    assert top_atom(cfg.stack, 2).links == (1, 1)
    # collapsing from the unpushed initial atom would empty the stack
    with pytest.raises(IllFormed):
        apply_operation(cfg.stack, 2, collapse(2), None, collapsible=True)


def test_push2_copies_and_rewrites_top():
    out = apply_operation(AB_CD, 2, push(2, "e"))
    assert out == (
        (atom("a"), atom("b")),
        (atom("c"), atom("d")),
        (atom("c"), atom("e")),
    )


def test_example_stack_prefix_operations():
    s = apply_operation(AB_CD, 2, push(2, "e"))
    s = apply_operation(s, 2, pop(1))
    assert s == ((atom("a"), atom("b")), (atom("c"), atom("d")), (atom("c"),))
    s = apply_operation(s, 2, pop(2))
    assert s == AB_CD


def test_pop_guards_well_formedness():
    with pytest.raises(IllFormed):
        apply_operation(((atom("X"),),), 2, pop(2))
    with pytest.raises(IllFormed):
        apply_operation(((atom("X"),),), 2, pop(1))


def test_push_then_pop_restores():
    for k in (1, 2):
        out = apply_operation(AB_CD, 2, push(k, "e"), 7)
        back = apply_operation(out, 2, pop(k))
        assert back == AB_CD


def test_push1_keeps_the_old_top():
    out = apply_operation(AB_CD, 2, push(1, "e"), 3)
    assert out == ((atom("a"), atom("b")), (atom("c"), atom("d"), atom("e", 3)))


def test_push_links_record_sizes_after():
    out = apply_operation(AB_CD, 2, push(2, "e"), 5, collapsible=True)
    assert top_atom(out, 2) == atom("e", 5, (2, 3))
    out2 = apply_operation(out, 2, push(1, "f"), None, collapsible=True)
    assert top_atom(out2, 2) == atom("f", None, (3, 3))
    assert stack_sizes(out2, 2) == (3, 3)


def test_collapse_truncates_to_link():
    five = tuple((atom("x"),) for _ in range(4)) + ((atom("y"), atom("t", 1, (2, 2))),)
    out = apply_operation(five, 2, collapse(2), None, collapsible=True)
    assert out == five[:1]
    # keep == current size is a no-op
    noop = tuple((atom("x"),) for _ in range(2)) + ((atom("t", 1, (1, 3)),),)
    assert apply_operation(noop, 2, collapse(2), None, collapsible=True) == noop[:2]
    beyond = ((atom("t", 1, (1, 9)),),)
    with pytest.raises(IllFormed):
        apply_operation(beyond, 2, collapse(2), None, collapsible=True)


def test_spine_and_recompose():
    assert spine(AB_CD, 2, 1) == ((AB_CD[0],), AB_CD[1])
    assert spine(AB_CD, 2, 0) == ((AB_CD[0],), (atom("c"),), atom("d"))
    assert spine(((atom("X"),),), 2, 1) == ((), (atom("X"),))
    for k in (0, 1, 2):
        assert recompose(spine(AB_CD, 2, k)) == AB_CD


def test_well_formedness():
    assert is_well_formed(AB_CD, 2)
    assert not is_well_formed(((),), 2)
    assert not is_well_formed((), 1)
    assert is_well_formed(atom("X"), 0)


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
    cfg = Configuration("q", (atom("g0"), atom("g1", 5)))
    res = step(aut, cfg, ("a", 5))
    assert isinstance(res, Step)
    assert res.config == Configuration("qf", (atom("g0"),))
    assert res.label == ("a", 5)


def test_step_pop_data_mismatch():
    aut = single_pop_automaton()
    cfg = Configuration("q", (atom("g0"), atom("g1", 5)))
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


def test_step_determinism_and_purity():
    aut = single_pop_automaton()
    cfg = Configuration("q", (atom("g0"), atom("g1", 5)))
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


def test_execute_word_from_a_start_configuration():
    aut = single_pop_automaton()
    cfg = Configuration("q", (atom("g0"), atom("g1", 5)))
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


def test_reachable_configurations_stay_well_formed():
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("]", 2), ("$", 0), ("]", 1))
    out = execute_word(aut, word)
    assert out.accepted
    for cfg in out.run.configs:
        assert is_well_formed(cfg.stack, aut.level)
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
            assert top_atom(stack, 2).links == stack_sizes(stack, 2)


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


def test_u_recognizer_is_valid():
    from hopad.ulang import build_u_recognizer

    assert automaton_diagnostics(build_u_recognizer()) == []


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
    with pytest.raises(ValueError):
        run.subrun(0, 2).compose(run.subrun(4, 6))
