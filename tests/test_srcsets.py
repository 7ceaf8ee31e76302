import pytest

from hopad.core import Step, empty_run, extend_run, step
from hopad.harness import (
    EnumerationSpace,
    _lineage_runs,
    enumerate_runs,
    excursion_config,
    excursion_machine,
    classification_example_machine,
    classification_example_run,
    u_fragment_corpus,
)
from hopad.lineage import instrument_lineage, is_k_upper
from hopad.monoid import presence_monoid, shape_monoid
from hopad.srcsets import check_idv_upper, check_origin, compute_src
from hopad.typesys import NE, saturate_level0, type_of_stack


@pytest.fixture(scope="module")
def excursion():
    aut = excursion_machine()
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
    return list(_lineage_runs(aut, cfg, bound, (0, 1, 2), True))


def excursion_prefix(aut):
    """push^2, eps pop^1, pop^2 reading a@7: restores the original top."""
    cfg = excursion_config()
    return drive(aut, cfg, [("c", 0), None, ("a", 7)])


def test_case1_passes_sigma_through():
    aut = classification_example_machine()
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    run = classification_example_run().subrun(3, 5)  # pop^1, push^1: levels <= 1
    final = type_of_stack(run.configs[-1].stack, 1, table)
    sigmas = {2: tuple(final.typing(2))}
    result = compute_src(run, 1, sigmas, table)
    assert result.provenance.case == 1
    assert result.sets[2] == frozenset(sigmas[2])


def test_empty_sigma_single_push_gives_empty_src():
    aut = excursion_machine()
    cfg = excursion_config()
    run = drive(aut, cfg, [("c", 0)])
    result = compute_src(run, 1, {2: ()}, table=saturate_level0(
        aut, presence_monoid(aut.input_alphabet)))
    assert result.provenance.case == 2
    assert result.sets[2] == frozenset()


def test_excursion_case3_collects_pop_chain(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    lrun = instrument_lineage(run)
    assert is_k_upper(lrun, 0) and is_k_upper(lrun, 1)
    final = type_of_stack(run.configs[-1].stack, 0, table)
    sigmas = {i: tuple(final.typing(i)) for i in (1, 2)}
    result = compute_src(lrun, 0, sigmas, table)
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
    final = type_of_stack(run.configs[-1].stack, 0, table)
    sigmas = {i: tuple(final.typing(i)) for i in (1, 2)}
    first = compute_src(run, 0, sigmas, table)
    second = compute_src(run, 0, sigmas, table)
    assert first.sets == second.sets
    init = type_of_stack(run.at(0).stack, 0, table)
    for i in (1, 2):
        assert set(first.sets[i]) <= set(init.typing(i))


def test_src_requires_upper(excursion):
    aut, table = excursion
    cfg = excursion_config()
    full = drive(aut, cfg, [("c", 0), None, ("a", 7), ("b", 9)])  # a 1-return
    with pytest.raises(ValueError):
        compute_src(full, 0, {1: (), 2: ()}, table)


def test_src_rejects_bad_sigma(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    uni = table.universe
    gid = uni.intern_goal("SOME", 1, ((),), "q4")
    alien = uni.intern_desc(1, ((),), "q4", uni.intern_goal("SOME", 2, (), "q4"))
    with pytest.raises(ValueError):
        compute_src(run, 0, {1: (alien,), 2: ()}, table)


def test_origin_part1_and_part2_positive(excursion):
    aut, table = excursion
    runs = normalized_runs(aut, excursion_config(), 5)
    run = excursion_prefix(aut)
    lrun = instrument_lineage(run)
    final = type_of_stack(run.configs[-1].stack, 0, table)
    sigmas = {i: tuple(final.typing(i)) for i in (1, 2)}
    report = check_origin(aut, lrun, 0, sigmas, table, 7, runs)
    assert report.ok, report.hard_failures + report.errors
    assert report.verified == 2  # part 1 exact plus a transferred run found


def test_origin_hypothesis_violations_named(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 4)
    report = check_origin(aut, run, 0, {1: (), 2: ()}, table, 0, runs)
    assert report.errors and not report.ok
    report = check_origin(aut, run, 0, {1: (), 2: ()}, table, 9, runs)
    assert any("topmost" in e for e in report.errors)


def test_origin_vacuous_when_value_absent(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    final = type_of_stack(run.configs[-1].stack, 0, table)
    sigmas = {i: tuple(final.typing(i)) for i in (1, 2)}
    report = check_origin(aut, run, 0, sigmas, table, 4, normalized_runs(aut, run.at(0), 4))
    assert report.ok and report.verified == 0 and not report.unwitnessed


def test_origin_exhaustive_over_fragment():
    frag, cfgs = u_fragment_corpus()
    table = saturate_level0(frag, shape_monoid())
    hard = 0
    for cfg in cfgs:
        runs = normalized_runs(frag, cfg, 4)
        for lrun in runs:
            for k in (0, 1):
                if not is_k_upper(lrun, k):
                    continue
                final = type_of_stack(lrun.run.configs[-1].stack, k, table)
                sigmas = {i: tuple(final.typing(i)) for i in range(k + 1, 3)}
                for d in (1, 2):
                    report = check_origin(frag, lrun, k, sigmas, table, d, runs)
                    if not report.errors:
                        hard += len(report.hard_failures)
    assert hard == 0


def test_transfer_checks_reject_runs_from_another_start(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    final = type_of_stack(run.last.stack, 0, table)
    sigmas = {i: tuple(final.typing(i)) for i in (1, 2)}
    foreign = normalized_runs(aut, run.last, 3)
    with pytest.raises(ValueError, match="start"):
        check_origin(aut, run, 0, sigmas, table, 7, foreign)
    with pytest.raises(ValueError, match="start"):
        check_idv_upper(aut, run, 0, 4, 6, table, normalized_runs(aut, run.at(0), 3) + foreign)


def test_idv_upper_conclusion_holds(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    # 4 and 6 occur nowhere: indistinguishable before, so after as well;
    # at bound 3 the run is the unique one with its read class and state
    # (at bound 5 a bounce-prefixed run shares both and must be flagged)
    short, long = normalized_runs(aut, run.at(0), 3), normalized_runs(aut, run.at(0), 5)
    report = check_idv_upper(aut, run, 0, 4, 6, table, short)
    assert report.ok and report.verified == 1
    longer = check_idv_upper(aut, run, 0, 4, 6, table, long)
    assert any("another normalized run" in e for e in longer.errors)


def test_idv_upper_hypothesis_failures_named(excursion):
    aut, table = excursion
    run = excursion_prefix(aut)
    runs = normalized_runs(aut, run.at(0), 5)
    # 5 is important where 6 is not: distinguishable hypothesis fails
    report = check_idv_upper(aut, run, 0, 5, 6, table, runs)
    assert report.errors and any("distinguishable" in e for e in report.errors)
    # 9 appears in the initial topmost 0-stack
    report = check_idv_upper(aut, run, 0, 9, 6, table, runs)
    assert any("topmost" in e for e in report.errors)
    # values read by the run are out
    report = check_idv_upper(aut, run, 0, 7, 6, table, runs)
    assert any("read" in e for e in report.errors)
    report = check_idv_upper(aut, run, 0, 0, 6, table, runs)
    assert report.errors


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
    report = check_idv_upper(aut, run, 0, 1, 2, table, normalized_runs(aut, cfg, 3))
    assert any("another normalized run" in e for e in report.errors)


def test_all_decomposition_cases_exercised():
    from collections import Counter

    from hopad.harness import universe_for

    aut = excursion_machine()
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    cfg = excursion_config()
    cases = Counter()

    def walk(node):
        cases[node.case] += 1
        for child in node.children:
            walk(child)

    space = EnumerationSpace(
        aut, cfg, 5, universe_for(aut, cfg, (0, 1, 2)), normalized_only=True
    )
    for run in enumerate_runs(space):
        lrun = instrument_lineage(run)
        for k in (0, 1):
            if not is_k_upper(lrun, k):
                continue
            final = type_of_stack(run.configs[-1].stack, k, table)
            sigmas = {i: tuple(final.typing(i)) for i in range(k + 1, 3)}
            walk(compute_src(lrun, k, sigmas, table).provenance)
    assert set(cases) == {1, 2, 3, 4}
