from collections import Counter

import pytest

from hopad.core import (
    Step, Transition, empty_run, execute_word, extend_run, pop, push, step, validate_automaton
)
from hopad.harness import (
    CLASSIFICATION_EXAMPLE,
    EXCURSION,
    EnumerationSpace,
    enumerate_runs,
    classification_example_run,
    u_fragment_corpus,
)
from hopad.lineage import instrument_lineage, is_k_return, is_k_upper
from hopad.monoid import presence_monoid, shape_monoid
from hopad.srcsets import check_idv_upper, check_origin, compute_src
from hopad.text import parse_automaton_text
from hopad.typesys import NE, StackTyping, StartRuns, Universe, saturate_level0, type_of_stack


@pytest.fixture(scope="module")
def excursion():
    aut = parse_automaton_text(EXCURSION).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    return aut, table


def drive(aut, cfg, labels):
    run = empty_run(aut, cfg)
    for label in labels:
        res = step(aut, run.configs[-1], label)
        assert isinstance(res, Step), res
        run = extend_run(run, res)
    return run


def normalized_runs(aut, cfg, bound):
    return enumerate_runs(EnumerationSpace(aut, cfg, bound, (0, 1, 2), True))


def alone(run, table):
    """The run as the only run of its start configuration."""
    return StartRuns(run.at(0), table, [run], {})


def excursion_prefix(aut):
    """push^2, eps pop^1, pop^2 reading a@7: restores the original top."""
    cfg = parse_automaton_text(EXCURSION).start
    return drive(aut, cfg, [("c", 0), None, ("a", 7)])


def test_case1_passes_the_final_typing_through():
    aut = parse_automaton_text(CLASSIFICATION_EXAMPLE).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    run = classification_example_run().subrun(3, 5)  # pop^1, push^1: levels <= 1
    final = type_of_stack(run.configs[-1].stack, 1, table)
    result = compute_src(run, 1, alone(run, table))
    assert result.provenance.case == 1
    assert result.final == {2: frozenset(final.typing(2))}
    assert result.sets[2] == frozenset(final.typing(2))


def test_a_single_push_ending_in_only_ne_gives_empty_src():
    aut, cfg = parse_automaton_text(EXCURSION)
    run = drive(aut, cfg, [("c", 0)])
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    result = compute_src(run, 1, alone(run, table))
    assert result.final == {2: frozenset({NE})}  # ne closes over nothing
    assert result.provenance.case == 2
    assert result.sets[2] == frozenset()


def test_excursion_case3_collects_pop_chain(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    lrun = instrument_lineage(run)
    assert is_k_upper(lrun, 0) and is_k_upper(lrun, 1)
    result = compute_src(run, 0, alone(run, table))
    assert result.provenance.case == 3
    # the sources at level 1 include the chain descriptors that carry
    # the buried values 7 and 5
    uni = table.universe
    init = type_of_stack(run.at(0).stack, 0, table)
    idv_union = set()
    for tid in result.sets[1]:
        idv_union |= set(init.typing(1).get(tid, ()))
    assert 7 in idv_union


def test_src_deterministic_and_contained(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    first = compute_src(run, 0, alone(run, table))
    second = compute_src(run, 0, alone(run, table))
    assert first.sets == second.sets
    init = type_of_stack(run.at(0).stack, 0, table)
    for i in (1, 2):
        assert set(first.sets[i]) <= set(init.typing(i))


def test_src_requires_upper(excursion):
    aut, table = excursion
    cfg = parse_automaton_text(EXCURSION).start
    full = drive(aut, cfg, [("c", 0), None, ("a", 7), ("b", 9)])  # a 1-return
    with pytest.raises(ValueError):
        compute_src(full, 0, alone(full, table))


def test_origin_part1_and_part2_positive(excursion):
    aut, table = excursion
    runs = normalized_runs(aut, parse_automaton_text(EXCURSION).start, 5)
    run = excursion_prefix(aut)
    report = check_origin(run, 0, StartRuns(run.at(0), table, runs, {}), [7])
    assert report.ok, report.hard_failures + report.errors
    assert report.verified == 2  # part 1 exact plus a transferred run found


def test_origin_hypothesis_violations_named(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 4)
    report = check_origin(run, 0, StartRuns(run.at(0), table, runs, {}), [0])
    assert report.errors and not report.ok
    report = check_origin(run, 0, StartRuns(run.at(0), table, runs, {}), [9])
    assert any("topmost" in e for e in report.errors)


def test_origin_skips_only_the_values_that_break_a_hypothesis(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 5)
    report = check_origin(run, 0, StartRuns(run.at(0), table, runs, {}), [0, 9, 7, 4])
    assert len(report.errors) == 2
    assert any("d=0" in e for e in report.errors)
    assert any("d=9" in e and "topmost" in e for e in report.errors)
    # 7 verifies in both parts, 4 is vacuous
    assert report.checked == 2 and report.verified == 2 and not report.hard_failures


def test_transfer_checks_skip_every_value_on_a_run_hypothesis(excursion):
    aut, table = excursion
    cfg = parse_automaton_text(EXCURSION).start
    # the bounce push^1 reads 1, so the run is not normalized
    run = drive(aut, cfg, [("b", 1), ("a", 1)])
    runs = [run]
    origin = check_origin(run, 0, StartRuns(run.at(0), table, runs, {}), [4, 6])
    upper = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [4, 6])
    for report in (origin, upper):
        assert report.errors == ["run is not normalized"]
        assert report.checked == 0


def test_origin_vacuous_when_value_absent(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    start = StartRuns(run.at(0), table, normalized_runs(aut, run.at(0), 4), {})
    report = check_origin(run, 0, start, [4])
    assert report.ok and report.verified == 0 and not report.unwitnessed


def test_origin_exhaustive_over_fragment():
    frag, cfgs = u_fragment_corpus()
    table = saturate_level0(frag, shape_monoid())
    hard = 0
    for cfg in cfgs:
        start = StartRuns(cfg, table, normalized_runs(frag, cfg, 4), {})
        for run in start.runs:
            lrun = instrument_lineage(run)
            for k in (0, 1):
                if not is_k_upper(lrun, k):
                    continue
                report = check_origin(run, k, start, [1, 2])
                hard += len(report.hard_failures)
    assert hard == 0


def test_origin_search_transfers_only_to_upper_runs_with_the_final_top():
    # a pop^1, push^1 detour (a@9, then c@0) also ends in q3 with the read
    # class SOME and the final pieces below the top that keep 7 important
    # under the run's assumptions, but its top atom is a fresh g@0 and it
    # is not 0-upper: given it alone, the search finds no transferred run
    base = parse_automaton_text(EXCURSION).automaton
    detour = (
        Transition("q", "g", "a", "qx", pop(1)),
        Transition("qx", "g", "c", "q3", push(1, "g")),
    )
    aut = validate_automaton(
        base._replace(states=base.states | {"qx"}, transitions=base.transitions + detour)
    )
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    run = excursion_prefix(aut)
    other = drive(aut, run.at(0), [("a", 9), ("c", 0)])
    with_run = check_origin(run, 0, StartRuns(run.at(0), table, [run, other], {}), [7])
    assert with_run.ok and with_run.verified == 2 and not with_run.unwitnessed
    report = check_origin(run, 0, StartRuns(run.at(0), table, [other], {}), [7])
    assert report.ok and report.verified == 1
    assert report.unwitnessed == ["k=0 d=7: important under src but no transferred run"]


def test_transfer_checks_reject_runs_from_another_start(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    foreign = StartRuns(run.last, table, normalized_runs(aut, run.last, 3), {})
    with pytest.raises(ValueError, match="start"):
        check_origin(run, 0, foreign, [7])
    with pytest.raises(ValueError, match="start"):
        check_idv_upper(run, 0, foreign, [4, 6])
    with pytest.raises(ValueError, match="start"):
        StartRuns(run.at(0), table, normalized_runs(aut, run.at(0), 3) + foreign.runs, {})


def test_transfer_checks_test_the_start_before_reading_the_run(excursion):
    # the u-fragment run reads brackets, which the excursion machine's
    # monoid does not map: the start test must come before any read
    aut, table = excursion
    frag, _ = u_fragment_corpus()
    run = execute_word(frag, (("[", 1), ("]", 1))).run
    start = StartRuns(parse_automaton_text(EXCURSION).start, table, [], {})
    with pytest.raises(ValueError, match="^the run does not start at the start configuration$"):
        check_idv_upper(run, 0, start, [4, 6])
    with pytest.raises(ValueError, match="^the run does not start at the start configuration$"):
        check_origin(run, 0, start, [4])


def test_idv_upper_conclusion_holds(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    # 4 and 6 occur nowhere: indistinguishable before, so after as well;
    # at bound 3 the run is the unique one with its read class and state
    # (at bound 5 a bounce-prefixed run shares both and must be flagged)
    short, long = normalized_runs(aut, run.at(0), 3), normalized_runs(aut, run.at(0), 5)
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, short, {}), [4, 6])
    assert report.ok and report.verified == 1
    longer = check_idv_upper(run, 0, StartRuns(run.at(0), table, long, {}), [4, 6])
    assert any("another normalized run" in e for e in longer.errors)


def test_idv_upper_hypothesis_failures_named(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 5)
    # 5 is important where 6 is not: distinguishable hypothesis fails
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [5, 6])
    assert report.errors and any("distinguishable" in e for e in report.errors)
    # 9 appears in the initial topmost 0-stack
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [9, 6])
    assert any("topmost" in e for e in report.errors)
    # values read by the run are out
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [7, 6])
    assert any("read" in e for e in report.errors)
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [0, 6])
    assert report.errors


def test_idv_upper_checks_every_pair_that_meets_the_hypotheses(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 3)
    report = check_idv_upper(run, 0, StartRuns(run.at(0), table, runs, {}), [9, 4, 5, 7, 6, 0])
    # 0, 9 (stored on top) and 7 (read) are named once each; 5 splits
    # from 4 and from 6; only the pair (4, 6) is checked
    assert sum("d=0" in e for e in report.errors) == 1
    assert sum("d=9" in e for e in report.errors) == 1
    assert sum("d=7" in e for e in report.errors) == 1
    assert sum("distinguishable" in e for e in report.errors) == 2
    assert report.checked == 1 and report.verified == 1 and not report.hard_failures


def test_idv_upper_uniqueness_counterexample():
    # a machine with two normalized runs of equal read class and end
    # state: the uniqueness hypothesis must be flagged
    from hopad.core import Automaton, Transition, pop, push, validate_automaton
    from hopad.core import Atom, Configuration, from_nested

    aut = validate_automaton(
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
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    cfg = Configuration("q", from_nested((Atom("g", None),), 1))
    run = drive(aut, cfg, [None])
    report = check_idv_upper(run, 0, StartRuns(cfg, table, normalized_runs(aut, cfg, 3), {}), [1, 2])
    assert any("another normalized run" in e for e in report.errors)


def test_all_decomposition_cases_exercised():
    aut, cfg = parse_automaton_text(EXCURSION)
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    cases = Counter()

    def walk(node):
        cases[node.case] += 1
        for child in node.children:
            if child.shape == "upper":
                walk(child)

    space = EnumerationSpace(aut, cfg, 5, (0, 1, 2), normalized_only=True)
    for run in enumerate_runs(space):
        lrun = instrument_lineage(run)
        for k in (0, 1):
            if not is_k_upper(lrun, k):
                continue
            walk(compute_src(run, k, alone(run, table)).provenance)
    assert set(cases) == {1, 2, 3, 4}


def _upper_nodes(node):
    """The nodes of a k-upper derivation, return derivations left out."""
    yield node
    for child in node.children:
        if child.shape == "upper":
            yield from _upper_nodes(child)


@pytest.mark.parametrize("corpus", ["excursion", "u-fragment"])
def test_src_derivations_agree_with_lineage_on_subruns(corpus):
    # compute_src follows decompose_upper; the lineage classifiers must
    # give the same verdicts on every span it visits, not only on whole runs
    if corpus == "excursion":
        aut, start = parse_automaton_text(EXCURSION)
        cfgs = [start]
        table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    else:
        aut, cfgs = u_fragment_corpus()
        table = saturate_level0(aut, shape_monoid())
    seen = Counter()
    for cfg in cfgs:
        for run in normalized_runs(aut, cfg, 5):
            lrun = instrument_lineage(run)
            for k in range(0, aut.level + 1):
                if not is_k_upper(lrun, k):
                    continue
                for node in _upper_nodes(compute_src(run, k, alone(run, table)).provenance):
                    i, j = node.span
                    assert is_k_upper(lrun, k, i, j)
                    if node.case == 3:
                        assert is_k_return(lrun, run.transitions[i].op.level, i + 1, j)
                    if node.case == 4:
                        assert is_k_upper(lrun, k, i, node.split)
                        assert is_k_upper(lrun, k, node.split, j)
                    seen[node.case] += 1
    assert seen[3] and seen[4]


def test_origin_suite_builds_no_subrun(monkeypatch):
    # case 3 of the src sets classifies the return span from the run's
    # labels, so the origin suite copies no subrun out of a run
    from hopad.core import Run
    from hopad.harness import run_suites

    built = []
    subrun = Run.subrun

    def counted(run, i, j):
        built.append((i, j))
        return subrun(run, i, j)

    monkeypatch.setattr(Run, "subrun", counted)
    assert run_suites(["origin"], seed=20260808).ok
    assert built == []


def test_check_composer_is_the_oracle_for_promote(monkeypatch):
    # _promote closes src sets over the realizers of each member whose
    # slots hold; on every call of the origin suite its added sets must be
    # the union over every composer check_composer accepts when each
    # member picks one held descriptor of s^k, the drop left to the oracle
    import itertools

    import hopad.srcsets as srcsets
    from hopad.harness import run_suites
    from hopad.typesys import check_composer

    original = srcsets._promote
    calls = Counter()

    def checked(uni, src, members, r, st, k):
        added = {lvl: set() for lvl in src}
        original(uni, added, members, r, st, k)
        targets = tuple(sorted(set(members)))
        slots = {
            c: [uni.psi_at(uni.desc(c), i) for i in range(r, k, -1)]
            for c in st.typing(k)
            if c != NE
        }
        held = [
            c
            for c, psis in slots.items()
            if all(t in st.typing(i) for i, ids in zip(range(r, k, -1), psis) for t in ids)
        ]
        union = {lvl: set() for lvl in src}
        non_ne = [m for m in targets if m != NE]
        for combo in itertools.product(held, repeat=len(non_ne)):
            chosen = set(combo)
            phis = [set().union(*(slots[c][idx] for c in chosen)) for idx in range(r - k)]
            if check_composer(uni, r, k, phis + [chosen], targets) is not None:
                for idx, i in enumerate(range(r, k, -1)):
                    union[i] |= phis[idx]
        assert added == union, (targets, r, k)
        calls["all"] += 1
        calls["members"] += len(non_ne) >= 1
        calls["several"] += len(non_ne) >= 2
        for lvl, ids in added.items():
            src[lvl] |= ids

    monkeypatch.setattr(srcsets, "_promote", checked)
    assert run_suites(["origin"], seed=20260808).ok
    assert calls == {"all": 3614, "members": 62, "several": 57}
    # every realizer in the suite holds its slots: two realizers of one
    # member, of which only the one whose level-1 slot holds contributes
    uni = Universe(2)
    goal = uni.intern_goal("m", 2, (), "qf")
    x = uni.intern_desc(1, ((),), "s", goal)
    held = uni.intern_desc(0, ((), (NE,)), "p", goal)
    unheld = uni.intern_desc(0, ((), (x,)), "p", goal)
    member = uni.drop(held, 1)
    assert uni.drop(unheld, 1) == member
    no_values = frozenset()
    pieces = ({NE: no_values}, {NE: no_values}, {held: no_values, unheld: no_values})
    st = StackTyping(2, 0, pieces)
    src = {1: set(), 2: set()}
    checked(uni, src, {member}, 1, st, 0)
    assert src == {1: {NE}, 2: set()}
