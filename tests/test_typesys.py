import random
import re

import pytest

from hopad.core import Atom, Configuration, from_nested, spine
from hopad.harness import (
    SINGLE_POP,
    CLASSIFICATION_EXAMPLE,
    EXCURSION,
    EnumerationSpace,
    enumerate_runs,
    random_machine,
    classification_example_run,
)
from hopad.monoid import presence_monoid, shape_monoid
from hopad.text import parse_automaton_text, parse_stack_literal
from hopad.typesys import (
    NE,
    ResourceCapExceeded,
    SaturationStats,
    StartRuns,
    Universe,
    atom_typing,
    check_composer,
    check_idv,
    check_run2type,
    combine_types,
    goal_space,
    saturate_level0,
    stack_typing,
    type_of_stack,
)


BASE = (0, 1, 2, 3)  # the data universe of the worked examples

# a seeded level-3 machine: from q1 a pop^1 agrees with a goal whose
# level-2 promised set is one level-2 drop of the table, so rule 1a must
# fill free slots with such drops, not only with {} and {ne}
LEVEL3_MACHINE = """level 3
input-alphabet a b
stack-alphabet g0 g1
initial-state q0
initial-symbol g0
accepting q1
trans q0 g0 eps q0 push 1 g1
trans q0 g1 in a q0 push 1 g1
trans q0 g1 in b q1 pop 1
trans q1 g0 in a q1 push 2 g1
trans q1 g0 in b q0 pop 1
trans q1 g1 eps q0 pop 3
"""


def level3_machine():
    return parse_automaton_text(LEVEL3_MACHINE).automaton


def runs_from(aut, cfg, bound, base, normalized):
    return enumerate_runs(EnumerationSpace(aut, cfg, bound, base, normalized))


@pytest.fixture(scope="module")
def single_pop():
    aut = parse_automaton_text(SINGLE_POP).automaton
    mon = presence_monoid(aut.input_alphabet)
    return aut, mon, saturate_level0(aut, mon)


def test_empty_transition_table_gives_empty_entries():
    from hopad.core import Automaton, validate_automaton

    aut = validate_automaton(
        Automaton(
            1, frozenset("a"), frozenset("g"), "g", frozenset({"q"}), "q", frozenset(), ()
        )
    )
    table = saturate_level0(aut, presence_monoid("a"))
    assert all(not entry for entry in table.entries.values())


def test_single_pop_table_entries(single_pop):
    aut, mon, table = single_pop
    uni = table.universe
    with_data = table.entries[("g1", True)]
    assert len(with_data) == 1
    ((did, flag),) = with_data.items()
    assert flag is True
    desc = uni.desc(did)
    goal = uni.goal(desc.goal)
    assert desc.state == "q" and desc.psis == ((NE,),)
    assert (goal.m, goal.r, goal.q) == ("SOME", 1, "qf")
    # the letter-reading pop needs a stored data value
    assert table.entries[("g1", False)] == {}
    assert table.entries[("g0", True)] == {}


def test_epsilon_pop_populates_both_keys():
    from hopad.core import Automaton, Transition, pop, validate_automaton

    aut = validate_automaton(
        Automaton(
            1,
            frozenset("a"),
            frozenset({"g"}),
            "g",
            frozenset({"q", "p"}),
            "q",
            frozenset(),
            (Transition("q", "g", None, "p", pop(1)),),
        )
    )
    table = saturate_level0(aut, presence_monoid("a"))
    for hd in (False, True):
        entry = table.entries[("g", hd)]
        assert len(entry) == 1 and not any(entry.values())  # idv flag unset


def test_ne_never_at_level_zero(single_pop):
    _, _, table = single_pop
    for entry in table.entries.values():
        assert NE not in entry


def test_level_zero_types_depend_on_data_presence_only(single_pop):
    _, _, table = single_pop
    t5 = atom_typing(Atom("g1", 5), table)
    t9 = atom_typing(Atom("g1", 9), table)
    assert set(t5) == set(t9)
    assert list(t5.values()) == [frozenset({5})]
    assert list(t9.values()) == [frozenset({9})]
    assert atom_typing(Atom("g1", None), table) == {}


def test_worked_typing_chain(single_pop):
    _, _, table = single_pop
    # a lone data atom: the {ne} assumption has nothing to hold against
    assert set(stack_typing(from_nested((Atom("g1", 5),), 1), 1, table)) == {NE}
    # with a bottom atom underneath the descriptor's claim is housed at
    # level 0 and the 1-stack is merely nonempty
    stack = from_nested((Atom("g0", None), Atom("g1", 5)), 1)
    full = stack_typing(stack, 1, table)
    assert set(full) == {NE}
    st = type_of_stack(stack, 0, table)
    ((did, idv),) = st.typing(0).items()
    assert idv == frozenset({5})
    assert NE in st.typing(1)


def test_empty_stack_has_empty_type(single_pop):
    _, _, table = single_pop
    assert stack_typing(None, 1, table) == {}


def test_ne_iff_nonempty():
    aut = parse_automaton_text(EXCURSION).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    assert NE in stack_typing(from_nested((Atom("g", None),), 1), 1, table)
    assert NE in stack_typing(from_nested(((Atom("g", None),),), 2), 2, table)
    assert NE not in stack_typing(None, 2, table)
    assert NE not in atom_typing(Atom("g", None), table)


def test_idv_contained_in_stack_values():
    aut = parse_automaton_text(EXCURSION).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    stack = parse_automaton_text(EXCURSION).start.stack
    st = type_of_stack(stack, 0, table)
    values = {5, 7, 9}
    for i in (0, 1, 2):
        for idv in st.typing(i).values():
            assert idv <= values


def test_buried_value_becomes_important():
    aut = parse_automaton_text(EXCURSION).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    st = type_of_stack(parse_automaton_text(EXCURSION).start.stack, 0, table)
    assert any(7 in idv for idv in st.typing(1).values())
    assert not any(9 in idv for idv in st.typing(1).values())  # 9 sits on top


def test_composer_rules():
    aut = parse_automaton_text(SINGLE_POP).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    uni = table.universe
    ((did, _),) = table.entries[("g1", True)].items()
    # rule 2: the all-empty composer targets {ne}
    assert check_composer(uni, 1, 0, [(), ()], (NE,)) == {}
    # rule 1: a singleton target from its slot extension
    tau = uni.drop(did, 1)
    assert tau is None  # return level 1 has no level-1 housing
    # move to a level-2 machine for a real drop
    aut2 = parse_automaton_text(EXCURSION).automaton
    table2 = saturate_level0(aut2, presence_monoid(aut2.input_alphabet))
    uni2 = table2.universe
    pop2_descs = [
        d
        for entry in table2.entries.values()
        for d in entry
        if uni2.goal(uni2.desc(d).goal).r == 2 and uni2.desc(d).state == "q2"
    ]
    did2 = pop2_descs[0]
    tau2 = uni2.drop(did2, 1)
    witness = check_composer(
        uni2, 1, 0, [uni2.psi_at(uni2.desc(did2), 1), (did2,)], (tau2,)
    )
    assert witness == {tau2: did2}
    # a member whose tail matches nothing
    assert check_composer(uni2, 1, 0, [(), ()], (tau2,)) is None
    # exactness: an unused element in the level-l slot refutes
    assert check_composer(uni2, 1, 0, [uni2.psi_at(uni2.desc(did2), 1), (did2,)], (NE,)) is None


def test_saturation_idempotent_and_monotone(single_pop):
    aut, mon, table = single_pop
    again = saturate_level0(aut, mon)
    assert _structural(table) == _structural(again)
    # adding a transition never removes a descriptor
    from hopad.core import Automaton, Transition, pop

    richer = Automaton(
        aut.level,
        aut.input_alphabet,
        aut.stack_alphabet,
        aut.initial_symbol,
        aut.states,
        aut.initial_state,
        aut.accepting,
        aut.transitions + (Transition("qf", "g0", "a", "q", pop(1)),),
        aut.collapsible,
    )
    bigger = saturate_level0(richer, mon)
    small = _structural(table)
    big = _structural(bigger)
    for key, descs in small.items():
        assert descs <= big[key]


def _structural(table):
    uni = table.universe
    return {
        key: {(uni.struct_key(d), flag) for d, flag in entry.items()}
        for key, entry in table.entries.items()
    }


def test_shuffled_transition_order_is_confluent():
    aut = parse_automaton_text(EXCURSION).automaton
    mon = presence_monoid(aut.input_alphabet)
    base = _structural(saturate_level0(aut, mon))
    rng = random.Random(5)
    for _ in range(4):
        order = list(aut.transitions)
        rng.shuffle(order)
        shuffled = aut._replace(transitions=tuple(order))
        assert _structural(saturate_level0(shuffled, mon)) == base


def test_collapse_rules_rejected():
    from hopad.ulang import build_u_recognizer

    with pytest.raises(ValueError):
        saturate_level0(build_u_recognizer(), shape_monoid())


def test_resource_cap(monkeypatch):
    import hopad.typesys as typesys

    aut = parse_automaton_text(EXCURSION).automaton
    monkeypatch.setattr(typesys, "DESCRIPTOR_CAP", 2)
    with pytest.raises(typesys.ResourceCapExceeded):
        saturate_level0(aut, presence_monoid(aut.input_alphabet))


def test_run2type_single_pop_exact(single_pop):
    aut, _, table = single_pop
    cfg = parse_automaton_text(SINGLE_POP).start
    report = check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 2, BASE, False), {}))
    assert report.ok
    assert report.unwitnessed == []
    assert report.verified >= 1


def test_run2type_empty_machine_vacuous():
    from hopad.core import Automaton, validate_automaton

    aut = validate_automaton(
        Automaton(
            1, frozenset("a"), frozenset("g"), "g", frozenset({"q"}), "q", frozenset(), ()
        )
    )
    table = saturate_level0(aut, presence_monoid("a"))
    cfg = Configuration("q", from_nested((Atom("g", None),), 1))
    report = check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 3, BASE, False), {}))
    assert report.ok and report.verified == 0 and not report.unwitnessed


def test_run2type_example_chain_all_configs():
    aut = parse_automaton_text(CLASSIFICATION_EXAMPLE).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    run = classification_example_run()
    for i in range(len(run) + 1):
        cfg = run.at(i)
        report = check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 6, BASE, False), {}))
        assert report.ok, report.hard_failures
        assert not report.unwitnessed


def test_idv_worked_example(single_pop):
    aut, _, table = single_pop
    cfg = parse_automaton_text(SINGLE_POP).start
    report = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 2, BASE, True), {}), [5])
    assert report.ok
    assert report.verified >= 1
    # a value absent from the stack and never readable: vacuous
    vac = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 2, (0, 1), True), {}), [9])
    assert vac.ok and vac.verified == 0


def test_correspondence_hard_lines_name_the_unwitnessed_run():
    # with the g1@5 entry emptied, the pop reading a@5 agrees with its goal
    # but no descriptor of the start stack witnesses it
    aut, cfg = parse_automaton_text(SINGLE_POP)
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    table.entries[("g1", True)] = {}
    run2type = check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 6, BASE, False), {}))
    assert run2type.hard_failures == [
        "k=0 goal=(goal SOME 1 qf) has an agreeing run (len=1 ops=[pop^1] word=[a@5]) "
        "but no witnessing descriptor"
    ]
    idv = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 6, BASE, True), {}), [5])
    assert idv.hard_failures == [
        "k=0 d=5 goal=(goal SOME 1 qf) used by len=1 ops=[pop^1] word=[a@5] "
        "but no descriptor carries it"
    ]


def test_correspondence_checks_reject_runs_from_another_start(single_pop):
    aut, _, table = single_pop
    cfg = parse_automaton_text(SINGLE_POP).start
    bare = Configuration("q", from_nested((Atom("g0", None),), 1))
    foreign = runs_from(aut, bare, 2, BASE, True)
    with pytest.raises(ValueError, match="start"):
        StartRuns(cfg, table, foreign, {})
    with pytest.raises(ValueError, match="start"):
        StartRuns(cfg, table, runs_from(aut, cfg, 2, BASE, True) + foreign, {})


def test_idv_checks_each_distinct_value_once(single_pop):
    aut, _, table = single_pop
    cfg = parse_automaton_text(SINGLE_POP).start
    start = StartRuns(cfg, table, runs_from(aut, cfg, 2, BASE, True), {})
    once, twice = check_idv(start, [5]), check_idv(start, [5, 5])
    assert twice.checked == once.checked and twice.verified == once.verified
    assert twice.hard_failures == once.hard_failures and twice.unwitnessed == once.unwitnessed
    zeros = check_idv(start, [0, 0, 5])
    assert zeros.errors == ["d must differ from the normalization value 0"]
    assert zeros.checked == once.checked


def test_idv_rejects_normalization_value(single_pop):
    aut, _, table = single_pop
    cfg = parse_automaton_text(SINGLE_POP).start
    assert not check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 2, BASE, True), {}), [0]).ok


def test_idv_excursion_buried_value():
    aut, cfg = parse_automaton_text(EXCURSION)
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    report = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 6, (0, 1, 2), True), {}), [7])
    assert report.ok, report.hard_failures
    assert report.verified >= 1


def test_correspondence_checks_on_random_machines():
    for i in range(8):
        aut = random_machine(31, i)
        table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
        from hopad.core import initial_configuration

        cfg = initial_configuration(aut)
        assert check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 5, (0, 1), False), {})).ok
        assert check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 5, (0, 1), True), {}), [1]).ok


def test_goal_space_covers_materialized_goals(single_pop):
    _, _, table = single_pop
    uni = table.universe
    goals = set(goal_space(table))
    for desc in uni.descriptors[1:]:
        assert desc.goal in goals


def exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_universe_interning_and_level_checks(monkeypatch):
    uni = Universe(2)
    g = uni.intern_goal("m", 2, (), "q")
    a = uni.intern_desc(0, ((), ()), "q", g)
    b = uni.intern_desc(0, ((), ()), "q", g)
    assert a == b
    # ids in first-sight order: goals from 0, descriptors from 1 (0 is ne)
    g1 = uni.intern_goal("m", 1, ((NE,),), "q")
    c = uni.intern_desc(1, ((NE,),), "q", g)
    d = uni.intern_desc(0, ((NE,), (c,)), "q", g1)
    assert (g, g1, a, c, d) == (0, 1, 1, 2, 3)
    # a slot is a set: order and repeats do not matter
    assert uni.intern_desc(0, [[NE, NE], {c}], "q", g1) == d
    assert uni.intern_goal("m", 1, [[NE, NE]], "q") == g1
    goals, descriptors = list(uni.goals), list(uni.descriptors)
    with exactly("return level 3 out of range 1..2"):
        uni.intern_goal("m", 3, (), "q")
    with exactly("return level 0 out of range 1..2"):  # checked before the sets
        uni.intern_goal("m", 0, ((a,), (a,)), "q")
    with exactly("goal at level 1 needs 1 result sets"):
        uni.intern_goal("m", 1, (), "q")
    with exactly("id 1 is not a level-2 descriptor"):  # a sigma member
        uni.intern_goal("m", 1, ((a,),), "q")
    with exactly("descriptor at level 0 needs 2 assumption sets"):
        uni.intern_desc(0, ((),), "q", g)
    with exactly("id 2 is not a level-2 descriptor"):  # a psi member
        uni.intern_desc(0, ((c,), ()), "q", g)
    with exactly("id 1 is not a level-1 descriptor"):
        uni.intern_desc(0, ((), (NE, a)), "q", g)
    with exactly("goal return level must exceed the descriptor level"):
        uni.intern_desc(2, (), "q", g)
    with exactly("goal return level must exceed the descriptor level"):
        uni.intern_desc(1, ((NE,),), "q", g1)
    assert (uni.goals, uni.descriptors) == (goals, descriptors)
    dropped = uni.drop(a, 1)
    assert dropped is not None and uni.desc(dropped).level == 1
    assert uni.drop(a, 2) is None
    # at the cap a known descriptor keeps its id and a new one is refused
    monkeypatch.setattr("hopad.typesys.DESCRIPTOR_CAP", len(uni.descriptors) - 1)
    descriptors = list(uni.descriptors)
    assert uni.intern_desc(0, ((NE,), (c,)), "q", g1) == d
    with pytest.raises(ResourceCapExceeded, match="^descriptor cap 4 exceeded$") as caught:
        uni.intern_desc(0, ((NE,), ()), "q", g)
    assert caught.value.stats == SaturationStats(descriptors=4, goals=2)
    assert uni.descriptors == descriptors
    # a member that is no id of the pool is refused, not read from its end:
    # id -1 would be the level-2 descriptor 1, id 99 past the pool
    uni = Universe(3)
    g3 = uni.intern_goal("m", 3, (), "q")
    assert uni.intern_desc(2, ((),), "q", g3) == 1
    goals, descriptors = list(uni.goals), list(uni.descriptors)
    for bad in (-1, 99):
        with exactly(f"id {bad} is not a level-2 descriptor"):  # a sigma member
            uni.intern_goal("m", 1, ((), (bad,)), "q")
        with exactly(f"id {bad} is not a level-2 descriptor"):  # a psi member
            uni.intern_desc(0, ((), (bad,), ()), "q", g3)
        assert (uni.goals, uni.descriptors) == (goals, descriptors)


def test_struct_key_is_pinned():
    # the benchmark's long-runs saturation digest reads these keys
    aut = parse_automaton_text(EXCURSION).automaton
    uni = saturate_level0(aut, presence_monoid(aut.input_alphabet)).universe
    assert uni.struct_key(NE) == "ne"
    assert uni.struct_key(2) == (0, (("ne",), ("ne",)), "q1", ("ID", 1, (("ne",),), "q2"))
    assert uni.struct_key(9) == (
        0, (("ne",), ((1, (("ne",),), "q2", ("SOME", 2, (), "q3")),)), "q1", ("SOME", 2, (), "q3")
    )
    assert uni.struct_key(13) == (
        0,
        (("ne",), ("ne", (1, (("ne",),), "q2", ("SOME", 2, (), "q3")))),
        "q",
        ("SOME", 1, (("ne",),), "q4"),
    )


def test_agrees_examples(single_pop):
    from hopad.core import Step, empty_run, extend_run, step

    aut, _, table = single_pop
    uni = table.universe
    cfg = parse_automaton_text(SINGLE_POP).start
    base = empty_run(aut, cfg)
    res = step(aut, cfg, ("a", 5))
    assert isinstance(res, Step)
    run = extend_run(base, res)
    start = StartRuns(cfg, table, [base, run], {})
    good = uni.intern_goal("SOME", 1, (), "qf")
    wrong_state = uni.intern_goal("SOME", 1, (), "q")
    wrong_class = uni.intern_goal("ID", 1, (), "qf")
    assert start.agrees(run, good)
    assert not start.agrees(run, wrong_state)
    assert not start.agrees(run, wrong_class)
    # a non-return run agrees with nothing
    assert not start.agrees(base, good)


def test_agrees_via_composed_descriptor_goal():
    # the four-step excursion is a 1-return whose witnessing descriptor
    # is assembled by the push rule chaining a same-level return and a
    # continuation; the goal it agrees with reads the buried values
    from hopad.core import Step, empty_run, extend_run, step
    from hopad.typesys import find_witness

    aut, cfg = parse_automaton_text(EXCURSION)
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    uni = table.universe
    run = empty_run(aut, cfg)
    for label in (("c", 0), None, ("a", 7), ("b", 9)):
        res = step(aut, run.configs[-1], label)
        assert isinstance(res, Step)
        run = extend_run(run, res)
    start = StartRuns(cfg, table, [run], {})
    goal = uni.intern_goal("SOME", 1, ((NE,),), "q4")
    assert start.agrees(run, goal)
    witness = find_witness(start, 0, goal)
    assert witness is not None
    # and the witness carries both read values as important
    st = type_of_stack(cfg.stack, 0, table)
    desc = uni.desc(witness)
    carried = set(st.typing(0)[witness])
    for i in (1, 2):
        for tau in uni.psi_at(desc, i):
            carried |= set(st.typing(i).get(tau, ()))
    assert {7, 9} <= carried


def test_empty_result_sets_force_reading():
    # a goal of the top return level promises no surviving pieces, so an
    # important value is exactly one the run reads; from the mid-copy
    # state the data-carrying pop makes 5 important, and every carrying
    # descriptor is matched by a run that actually reads it
    aut = parse_automaton_text(EXCURSION).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    cfg = Configuration("q2", from_nested(((Atom("g", None),), (Atom("g", 5),)), 2))
    report = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 4, (0, 1, 2), True), {}), [5])
    assert report.ok, report.hard_failures
    assert report.verified >= 2  # witnessed at both anchoring levels
    assert not report.unwitnessed


def test_value_unreachable_from_outer_state_is_vacuous():
    # 5 sits two atoms deep; from the outer state every run reads only
    # the top two values, so no descriptor may carry it and none does
    aut, cfg = parse_automaton_text(EXCURSION)
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    report = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 6, (0, 1, 2), True), {}), [5])
    assert report.ok and report.verified == 0 and not report.unwitnessed


def test_shuffled_confluence_on_random_machines():
    # on machines 91:0 and 174:0, saturation records some descriptors
    # without the idv flag before another rule raises it, in most orders;
    # on the level-3 machine, rule 1a fills slots with level-2 drops
    rng = random.Random(17)
    seeds = [(23, i) for i in range(10)] + [(91, 0), (174, 0)]
    for aut in [random_machine(seed, i) for seed, i in seeds] + [level3_machine()]:
        mon = presence_monoid(aut.input_alphabet)
        base = _structural(saturate_level0(aut, mon))
        for _ in range(4):
            order = list(aut.transitions)
            rng.shuffle(order)
            shuffled = aut._replace(transitions=tuple(order))
            assert _structural(saturate_level0(shuffled, mon)) == base


@pytest.mark.parametrize(
    "stack",
    ["[[[(g0,-) (g1,1)] [(g0,-) (g0,2)]]]", "[[[(g0,-)]] [[(g0,-) (g1,1)] [(g0,-) (g0,2)]]]"],
)
def test_level_three_runs_are_witnessed_from_two_column_starts(stack):
    # from q1, pop^1 and push^3 pop^1 agree with goals whose level-2 slot
    # holds one level-2 descriptor; rule 1a must build their witnesses
    aut = level3_machine()
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    cfg = Configuration("q1", parse_stack_literal(stack, 3))
    run2type = check_run2type(StartRuns(cfg, table, runs_from(aut, cfg, 5, (0, 1), False), {}))
    assert not run2type.hard_failures
    idv = check_idv(StartRuns(cfg, table, runs_from(aut, cfg, 5, (0, 1), True), {}), [1, 2])
    assert not idv.hard_failures
    assert run2type.verified and idv.verified


def test_goal_space_complete_at_level_two():
    # no descriptor can live at the top level of a level-2 machine, so
    # {}, {ne} exhaust the possible promise sets and the systematic
    # goals cover the whole goal universe over the machine's states
    import itertools

    aut = parse_automaton_text(EXCURSION).automaton
    mon = presence_monoid(aut.input_alphabet)
    table = saturate_level0(aut, mon)
    uni = table.universe
    goals = {uni.goal(g) for g in goal_space(table)}
    got = {(g.m, g.r, g.sigmas, g.q) for g in goals}
    for m in mon.carrier:
        for q in sorted(aut.states):
            assert (m, 2, (), q) in got
            for sig in ((), (NE,)):
                assert (m, 1, (sig,), q) in got


def test_run2type_recognizer_fragment_at_bound_eight():
    # from the configuration right after the bootstrap copy, the
    # collapse-free recognizer fragment must have no hard failures even
    # at a generous bound
    from hopad.harness import u_fragment_corpus
    from hopad.monoid import shape_monoid

    frag, cfgs = u_fragment_corpus()
    table = saturate_level0(frag, shape_monoid())
    boot = cfgs[0]
    assert boot.state == "work" and len(boot.stack) == 2
    report = check_run2type(StartRuns(boot, table, runs_from(frag, boot, 8, (0, 1), False), {}))
    assert report.ok, report.hard_failures
    # no return completes from the pristine stack within the bound (a
    # bracket cycle needs a counted opening first), so nothing is
    # witnessed either way; deeper seeded configurations carry the
    # positive instances
    assert report.verified == 0 and not report.unwitnessed


def test_discharges_merges_the_contributions_of_every_member():
    # a level-1 slot holding two non-ne members, each the drop of its own
    # level-0 descriptor: the composer's level-1 set is the union of both
    # descriptors' level-1 assumptions, and its flag their disjunction
    from hopad.typesys import _discharges

    uni = Universe(2)
    goal = uni.intern_goal("m", 2, (), "qf")
    x = uni.intern_desc(1, ((),), "s", goal)
    d1 = uni.intern_desc(0, ((), (NE,)), "p1", goal)
    d2 = uni.intern_desc(0, ((), (x,)), "p2", goal)
    tau1, tau2 = uni.drop(d1, 1), uni.drop(d2, 1)
    psi_k = (tau1, tau2)
    drop_index = {tau1: (d1,), tau2: (d2,)}
    yielded = list(_discharges(uni, psi_k, {d1: False, d2: True}, drop_index, 1))
    assert yielded == [({1: tuple(sorted((NE, x)))}, True)]
    assert check_composer(uni, 1, 0, [yielded[0][0][1], (d1, d2)], psi_k) == {tau1: d1, tau2: d2}


def test_check_composer_is_the_oracle_for_discharges(monkeypatch):
    # saturation discharges push slots through the member-by-member
    # search in _discharges; each vector it yields must have a choice of
    # drop_index entries that check_composer accepts, and its idv flag
    # must be the disjunction over exactly those choices; and every
    # choice must have its per-level union among the yielded vectors
    import itertools

    import hopad.typesys as typesys
    from hopad.harness import TYPED_MACHINES, _starts

    original = typesys._discharges
    yields = choices_seen = 0

    def checked(uni, psi_k, flags, drop_index, k):
        nonlocal yields, choices_seen
        flags = dict(flags)  # saturation may raise a flag while we iterate
        members = [m for m in psi_k if m != NE]
        choices = {
            frozenset(combo)
            for combo in itertools.product(*(drop_index.get(m, ()) for m in members))
        }
        yielded = {}
        for phi_by_level, flag in original(uni, psi_k, flags, drop_index, k):
            yields += 1
            yielded[tuple(phi_by_level[i] for i in range(1, k + 1))] = flag
            phis = [phi_by_level[i] for i in range(k, 0, -1)]
            witnesses = [
                chosen
                for chosen in choices
                if check_composer(uni, k, 0, phis + [chosen], psi_k) is not None
            ]
            assert witnesses, (psi_k, phi_by_level)
            assert any(flags[did] for chosen in witnesses for did in chosen) == flag
            yield phi_by_level, flag
        for chosen in choices:
            choices_seen += 1
            union = tuple(
                tuple(sorted(set().union(*(uni.psi_at(uni.desc(did), i) for did in chosen))))
                for i in range(1, k + 1)
            )
            assert union in yielded, (psi_k, sorted(chosen))

    monkeypatch.setattr(typesys, "_discharges", checked)
    for _ in _starts(20260808, TYPED_MACHINES, 0):
        pass  # saturates each machine once
    assert yields == 235 and choices_seen == 235


def _folded(stack, level, table, prefixes):
    """The typing of `stack` as a left fold over its elements, bottom to
    top.  The fold records the typing of every prefix by node identity in
    `prefixes`, and an element that is a prefix folded before is looked
    up there instead of folded again."""
    if stack is None:
        return {}
    if level == 0:
        return atom_typing(stack, table)
    if id(stack) in prefixes:
        return prefixes[id(stack)]
    nodes = []
    node = stack
    while node is not None:
        nodes.append(node)
        node = node.below
    acc = {}
    for node, elem in zip(reversed(nodes), stack):
        acc = combine_types(acc, _folded(elem, level - 1, table, prefixes), level, table)
        prefixes[id(node)] = acc
    return acc


def _assert_typings_are_the_fold(stack, n, table, prefixes):
    """type_of_stack at every k, and stack_typing at every node of its
    pieces, equal the fold."""
    for k in range(n + 1):
        st = type_of_stack(stack, k, table)
        for piece, level in zip(spine(stack, n, k), range(n, k - 1, -1)):
            assert st.typing(level) == _folded(piece, level, table, prefixes)
            node = piece if level else None
            while node is not None:
                assert stack_typing(node, level, table) == prefixes[id(node)]
                node = node.below


@pytest.fixture(scope="module")
def fragment_openings():
    from hopad.core import decollapse, execute_word
    from hopad.ulang import build_u_recognizer

    frag = decollapse(build_u_recognizer())

    def after(opens):
        word = tuple(("[", i) for i in range(1, opens + 1))
        return execute_word(frag, word).run.last.stack

    return frag, after


@pytest.mark.parametrize("opens", [100, 400, 1600])
def test_stack_typing_per_node_is_the_fold_over_elements(fragment_openings, opens):
    frag, after = fragment_openings
    table = saturate_level0(frag, shape_monoid())
    stack = after(opens)
    n = frag.level
    prefixes = {}
    if opens > 400:
        # folding each of 1,600 elements afresh folds 1.28M atoms: take the
        # elements' typings from stack_typing, which the smaller widths
        # check against the fold element by element
        _folded(stack.top, n - 1, table, prefixes)
        for elem in stack:
            prefixes.setdefault(id(elem), stack_typing(elem, n - 1, table))
    _assert_typings_are_the_fold(stack, n, table, prefixes)  # no RecursionError at any width


def test_stack_typing_is_the_fold_over_elements_on_the_typed_corpus():
    # the u-fragment's stacks above type to {ne} at levels 1 and 2; these
    # carry promoted descriptors and important values there
    # (the concrete runs at bound 5: 1,370 final stacks, 909 of them with
    # promoted descriptors)
    from hopad.harness import TYPED_MACHINES, _corpus

    stacks = promoted = 0
    for name, aut, cfgs in _corpus(20260808, TYPED_MACHINES):
        monoid = shape_monoid() if name == "u-fragment" else presence_monoid(aut.input_alphabet)
        table, n = saturate_level0(aut, monoid), aut.level
        for cfg in cfgs:
            for run in runs_from(aut, cfg, 5, (0, 1), False):
                _assert_typings_are_the_fold(run.last.stack, n, table, {})
                st = type_of_stack(run.last.stack, 0, table)
                promoted += any(set(st.typing(i)) - {NE} for i in range(1, n + 1))
                stacks += 1
    assert stacks > 1000 and promoted > 500


def test_typing_a_push_adds_entries_linear_in_width(fragment_openings, monkeypatch):
    import hopad.typesys as typesys

    frag, after = fragment_openings
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return combine_types(*args)

    monkeypatch.setattr(typesys, "combine_types", counted)
    made = {}
    for opens in (100, 400):
        table = saturate_level0(frag, shape_monoid())
        stack = after(opens)
        calls = 0
        for k in range(frag.level + 1):
            type_of_stack(stack, k, table)
        made[opens] = calls
        assert calls <= 3 * len(stack)
    assert made[400] < 5 * made[100]
