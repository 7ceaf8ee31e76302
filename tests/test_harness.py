import gc
import hashlib
import pathlib
import random
import weakref
from collections import Counter

import pytest

import hopad.harness as harness
import hopad.lineage as lineage
import hopad.typesys as typesys
from hopad.core import (
    Atom,
    Configuration,
    Step,
    empty_run,
    extend_run,
    from_nested,
    replay,
    step,
    to_nested,
)
from hopad.harness import (
    SINGLE_POP,
    EXCURSION,
    EnumerationCapExceeded,
    EnumerationSpace,
    enumerate_runs,
    walk_runs,
    random_machine,
    run_suites,
    seeded_configurations,
)
from hopad.lineage import (
    decompose_return,
    decompose_upper,
    instrument_lineage,
    is_k_return,
    is_k_upper,
    remark_k_return,
)
from hopad.monoid import presence_monoid
from hopad.text import parse_automaton_text
from hopad.typesys import StartRuns, saturate_level0


def _eight_machines(monkeypatch):
    """Shrink the suites' corpus to its first eight machines, typed or not."""
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    monkeypatch.setattr(harness, "TYPED_MACHINES", 8)


def test_universe_must_contain_zero():
    with pytest.raises(ValueError):
        EnumerationSpace(*parse_automaton_text(SINGLE_POP), 2, (1, 2, 5))


def test_step_bound_must_be_nonnegative():
    aut, cfg = parse_automaton_text(EXCURSION)
    with pytest.raises(ValueError, match="step bound"):
        EnumerationSpace(aut, cfg, -1, (0, 1, 2, 3))
    runs = enumerate_runs(EnumerationSpace(aut, cfg, 0, (0, 1, 2, 3)))
    assert len(runs) == 1 and len(runs[0]) == 0


def test_universe_adds_the_stored_values_to_the_base():
    aut, cfg = parse_automaton_text(SINGLE_POP)
    space = EnumerationSpace(aut, cfg, 2, (0, 1))
    assert space.values == (0, 1, 5)
    assert space == EnumerationSpace(aut, cfg, 2, (0, 1, 5))
    runs = [(run.labels, run.transitions) for run in enumerate_runs(space)]
    assert runs == [
        (run.labels, run.transitions)
        for run in enumerate_runs(EnumerationSpace(aut, cfg, 2, (0, 1, 5)))
    ]
    assert (("a", 5),) in [labels for labels, _ in runs]
    assert EnumerationSpace(aut, cfg, 2, (0, 1, 2, 3)).values == (0, 1, 2, 3, 5)


def test_empty_machine_enumerates_only_the_empty_run():
    from hopad.core import Automaton, validate_automaton

    aut = validate_automaton(
        Automaton(
            1, frozenset("a"), frozenset("g"), "g", frozenset({"q"}), "q", frozenset(), ()
        )
    )
    start = Configuration("q", from_nested((Atom("g", None),), 1))
    runs = enumerate_runs(EnumerationSpace(aut, start, 4, (0, 1, 2, 3)))
    assert len(runs) == 1 and len(runs[0]) == 0


def test_single_pop_enumeration_exact():
    runs = enumerate_runs(
        EnumerationSpace(*parse_automaton_text(SINGLE_POP), 2, (0, 5))
    )
    assert len(runs) == 2
    words = sorted(run.read_word for run in runs)
    assert words == [(), (("a", 5),)]


def _plain_excursion_config():
    from hopad.core import Atom, Configuration

    stack = ((Atom("g", None),), (Atom("g", None), Atom("g", None), Atom("g", None)))
    return Configuration("q", from_nested(stack, 2))


def test_enumeration_against_hand_count():
    # the excursion machine over a data-free stack: hand-enumerable shapes
    aut = parse_automaton_text(EXCURSION).automaton
    cfg = _plain_excursion_config()
    runs = enumerate_runs(EnumerationSpace(aut, cfg, 2, (0, 1)))
    shapes = sorted(tuple(str(op) for op in run.operations()) for run in runs)
    # empty; b/c pushes at two values each; their one-step continuations
    # (the a-pop after the b-push needs a stored value, so only the
    # epsilon pop inside the copy extends)
    assert shapes == [
        (),
        ("push^1(h)",),
        ("push^1(h)",),
        ("push^1(h)", "pop^1"),
        ("push^1(h)", "pop^1"),
        ("push^2(g)",),
        ("push^2(g)",),
        ("push^2(g)", "pop^1"),
        ("push^2(g)", "pop^1"),
    ]


def test_normalized_restricts_push_reads():
    aut = parse_automaton_text(EXCURSION).automaton
    cfg = _plain_excursion_config()
    free = enumerate_runs(EnumerationSpace(aut, cfg, 1, (0, 1, 2)))
    norm = enumerate_runs(
        EnumerationSpace(aut, cfg, 1, (0, 1, 2), normalized_only=True)
    )
    assert len(free) == 1 + 3 + 3  # empty plus two pushes at three values
    assert len(norm) == 1 + 1 + 1
    for run in norm:
        for label, tr in zip(run.labels, run.transitions):
            if label[0] is not None and tr.op.kind == "push":
                assert label[1] == 0


def test_every_enumerated_run_replays():
    space = EnumerationSpace(*parse_automaton_text(EXCURSION), 4, (0, 1))
    for run in enumerate_runs(space):
        assert replay(run)


def test_prefix_closure():
    runs = enumerate_runs(EnumerationSpace(*parse_automaton_text(EXCURSION), 3, (0, 1)))
    keys = {(run.labels, run.transitions) for run in runs}
    for run in runs:
        for cut in range(len(run)):
            assert (run.labels[:cut], run.transitions[:cut]) in keys


def test_renaming_invariance():
    aut, cfg = parse_automaton_text(EXCURSION)
    perm = {0: 0, 1: 2, 2: 1}

    def rename_stack(stack, level):
        if level == 0:
            data = stack.data if stack.data is None else perm.get(stack.data, stack.data)
            return Atom(stack.symbol, data, stack.links)
        return tuple(rename_stack(s, level - 1) for s in stack)

    renamed = rename_stack(to_nested(cfg.stack, 2), 2)
    renamed_cfg = Configuration(cfg.state, from_nested(renamed, 2))
    base = enumerate_runs(EnumerationSpace(aut, cfg, 3, (0, 1, 2)))
    other = enumerate_runs(EnumerationSpace(aut, renamed_cfg, 3, (0, 1, 2)))
    assert len(base) == len(other)
    base_words = sorted(
        tuple((a, perm.get(d, d)) for a, d in run.read_word) for run in base
    )
    other_words = sorted(run.read_word for run in other)
    assert base_words == other_words


def _representative_runs(space):
    return list(walk_runs(space, representative=True))


def test_enumeration_cap(monkeypatch):
    space = EnumerationSpace(*parse_automaton_text(EXCURSION), 4, (0, 1))
    n = len(enumerate_runs(space))
    monkeypatch.setattr(harness, "ENUMERATION_CAP", 3)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_runs(space)
    # both walks pass and fail the cap at the concrete run count
    monkeypatch.setattr(harness, "ENUMERATION_CAP", n)
    assert len(enumerate_runs(space)) == n
    assert max(weight for _, weight in _representative_runs(space)) > 1
    for cap in (3, n - 1):
        monkeypatch.setattr(harness, "ENUMERATION_CAP", cap)
        messages = []
        for walk in (enumerate_runs, _representative_runs):
            with pytest.raises(EnumerationCapExceeded) as exc:
                walk(space)
            messages.append(str(exc.value))
        assert messages == [f"more than {cap} runs at the bound"] * 2


def test_enumeration_is_depth_first_in_input_order():
    aut, cfg = parse_automaton_text(EXCURSION)
    runs = enumerate_runs(EnumerationSpace(aut, cfg, 4, (0, 1)))
    # a run comes right before its extensions, which come in (letter, value) order
    words = [run.labels for run in runs]
    assert len(set(words)) == len(words) > 20
    assert words == sorted(words)


def test_enumerated_runs_die_with_their_list(monkeypatch):
    aut, cfg = parse_automaton_text(EXCURSION)
    space = EnumerationSpace(aut, cfg, 4, (0, 1))
    made = []

    def recorded(run, res):
        longer = extend_run(run, res)
        made.append(weakref.ref(longer))
        return longer

    gc.disable()  # no reference cycle may keep the runs alive
    try:
        runs = enumerate_runs(space)
        last = weakref.ref(runs[-1])
        del runs
        assert last() is None
        monkeypatch.setattr(harness, "extend_run", recorded)
        monkeypatch.setattr(harness, "ENUMERATION_CAP", 10)
        try:
            enumerate_runs(space)
        except harness.EnumerationCapExceeded:
            pass
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_runs_with_equal_operations_share_lineage_and_verdicts():
    # the classifier-equivalence suite decides one run per (start, operations)
    repeats = 0
    for _, aut, cfgs in harness._corpus(20260808, harness.CORPUS_MACHINES):
        n = aut.level
        for cfg in cfgs:
            space = EnumerationSpace(aut, cfg, 4, (0, 1))
            first = {}
            for run in enumerate_runs(space):
                lrun = instrument_lineage(run)
                seen = (
                    lrun.snapshots,
                    lrun.parent,
                    lrun.born,
                    [(is_k_upper(lrun, k), decompose_upper(run, k)) for k in range(n + 1)],
                    [
                        (is_k_return(lrun, r), remark_k_return(lrun, r), decompose_return(run, r))
                        for r in range(1, n + 1)
                    ],
                )
                ops = run.operations()
                if ops not in first:
                    first[ops] = run.labels, seen
                    continue
                labels, expected = first[ops]
                assert seen == expected, f"{ops}: {run.labels} and {labels} differ"
                repeats += 1  # same operations, different data
    assert repeats > 1000


def test_classifier_equivalence_instruments_once_per_start_and_operations(monkeypatch):
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    keys = set()
    for _, aut, cfgs in harness._corpus(20260808, 8):
        for cfg in cfgs:
            space = EnumerationSpace(aut, cfg, 4, (0, 1))
            keys |= {(aut, cfg, run.operations()) for run in enumerate_runs(space)}
    made = []

    def counted(run):
        made.append((run.automaton, run.at(0), run.operations()))
        return instrument_lineage(run)

    monkeypatch.setattr(harness, "instrument_lineage", counted)
    assert run_suites(["classifier-equivalence"], seed=20260808, max_steps=4).ok
    assert len(made) == len(set(made)) and set(made) == keys


def test_classifier_equivalence_extends_only_representative_runs(monkeypatch):
    # with every operation sequence agreeing, the suite extends the runs of
    # one representative walk per start configuration and of the seeding
    # walks, and no concrete run of a start configuration
    walks, extended = [], []
    walk = harness.walk_runs

    def spied(space, representative=False):
        walks.append((space, representative))
        return walk(space, representative)

    def counted(run, res):
        extended.append(run)
        return extend_run(run, res)

    monkeypatch.setattr(harness, "walk_runs", spied)
    monkeypatch.setattr(harness, "extend_run", counted)
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    assert run_suites(["classifier-equivalence"], seed=20260808, max_steps=4).ok
    monkeypatch.undo()
    starts = [space for space, representative in walks if representative]
    seeding = [space for space, representative in walks if not representative]
    weighted = [pair for space in starts for pair in _representative_runs(space)]
    seeded = sum(_stopped_walk_extensions(space, 4) for space in seeding)  # as _corpus seeds
    assert len(extended) == len(weighted) - len(starts) + seeded
    concrete = sum(len(enumerate_runs(space)) for space in starts)
    assert sum(weight for _, weight in weighted) == concrete > 4 * len(weighted)


def _stopped_walk_extensions(space, count):
    """The extend_run calls of a concrete walk of `space` that stops at its
    `count`-th distinct end configuration, as seeded_configurations stops
    it: the walk extends every run it yields before the stop, and in
    depth-first order a run extends the latest shorter run before it."""
    runs, ends = enumerate_runs(space), []
    stop = len(runs)  # an exhausted walk extends every run
    for t, run in enumerate(runs):
        if run.last not in ends:
            ends.append(run.last)
        if len(ends) >= count:
            stop = t
            break
    latest, made = {}, 0
    for t, run in enumerate(runs):
        made += t > 0 and latest[len(run) - 1] < stop
        latest[len(run)] = t
    return made


def _classifier_spaces(seed):
    """The start configurations' spaces of classifier-equivalence at the
    default bounds."""
    for _, aut, cfgs in harness._corpus(seed, harness.CORPUS_MACHINES):
        for cfg in cfgs:
            yield EnumerationSpace(aut, cfg, harness.RUN_BOUND, (0, 1))


def _runs_by_recursion(space):
    """The concrete runs, depth first: a run, then the runs extending it by
    each input step in (letter, value) order, a normalized push reading 0."""
    aut = space.automaton

    def extensions(run):
        yield run
        if len(run) == space.max_steps:
            return
        inputs = [None] + [(a, d) for a in sorted(aut.input_alphabet) for d in space.values]
        for x in inputs:
            res = step(aut, run.last, x)
            if not isinstance(res, Step) or (x is None) != (res.label == (None, None)):
                continue  # an epsilon step is taken on no input only
            if space.normalized_only and res.transition.op.kind == "push" and x and x[1] != 0:
                continue
            yield from extensions(extend_run(run, res))
            if x is None:
                return  # an epsilon step excludes letter steps

    return list(extensions(empty_run(aut, space.start)))


@pytest.mark.parametrize("seed", [20260808, 1, 7])
def test_representative_walk_weighs_the_concrete_operation_sequences(seed):
    # per classifier-equivalence space, the representative runs weighted by
    # their counts have the operation sequences of the concrete runs, and
    # the concrete walk is every run in depth-first input order
    spaces = representatives = 0
    for space in _classifier_spaces(seed):
        concrete = enumerate_runs(space)
        weighted = Counter()
        for run, weight in walk_runs(space, representative=True):
            weighted[run.operations()] += weight
            representatives += 1
        assert weighted == Counter(run.operations() for run in concrete)
        expected = _runs_by_recursion(space)
        assert [(r.labels, r.transitions) for r in concrete] == [
            (r.labels, r.transitions) for r in expected
        ]
        spaces += 1
    assert spaces > 90 and representatives > 500


def test_classifier_equivalence_derives_once_per_operations_and_level(monkeypatch):
    # a derivation reads only the operations, so the suite asks each with
    # the run and the level alone, once per (operations, automaton level)
    # at every level of both shapes, whichever start configuration or
    # machine the run comes from
    derived, outcomes = [], set()

    def counted(shape, decompose):
        def derive(run, level):
            derived.append((shape, run.operations(), run.automaton.level, level))
            tree = decompose(run, level)
            outcomes.add(tree is not None)
            return tree

        return derive

    monkeypatch.setattr(lineage, "decompose_upper", counted("upper", decompose_upper))
    monkeypatch.setattr(lineage, "decompose_return", counted("return", decompose_return))
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    assert run_suites(["classifier-equivalence"], seed=20260808, max_steps=4).ok
    sequences = {key[1:3] for key in derived}
    assert len(derived) == len(set(derived)) and outcomes == {False, True}
    assert len(derived) == sum(2 * level + 1 for _, level in sequences)
    # the single-pop machine is of level 1, the others of level 2, and
    # a sequence of it recurs at level 2
    assert {ops for ops, level in sequences if level == 1} & {ops for ops, level in sequences if level == 2}
    assert len(derived) > 150


def _concrete_classifier_equivalence(seed, run_bound, src_bound):
    """Classifier-equivalence over every concrete run, one decision per
    operation sequence: the oracle of the representative walk's report."""
    hard, checked = [], 0
    for name, aut, cfgs in harness._corpus(seed, harness.CORPUS_MACHINES):
        for cfg in cfgs:
            mismatches = {}
            for run in enumerate_runs(EnumerationSpace(aut, cfg, run_bound, (0, 1))):
                ops = run.operations()
                if ops not in mismatches:
                    mismatches[ops] = harness._classifier_mismatches(name, run, ops, {})
                hard += mismatches[ops]
                checked += 3 * aut.level + 1
    return hard, [], {"checked": checked}


def test_shared_derivations_are_the_asking_runs_own(monkeypatch):
    # one memo serves every run of a suite: each tree a StartRuns serves,
    # and each verdict classifier-equivalence compares, is what
    # decompose_* makes on the asking run, and a level above the run's
    # machine is refused as decompose_* refuses it.  The corpus is walked
    # backwards, so the level-2 machines derive before the level-1
    # single-pop machine asks for the same operations
    corpus = list(harness._corpus(20260808, harness.CORPUS_MACHINES))[::-1]
    monkeypatch.setattr(harness, "_corpus", lambda seed, count: iter(corpus))
    starts = harness._starts(20260808, harness.CORPUS_MACHINES, harness.RUN_BOUND, True)
    served = 0
    for _, start, _ in starts:
        for run in start.runs:
            for ask, decompose, levels in (
                (start.upper, decompose_upper, range(3)),
                (start.returns, decompose_return, range(1, 3)),
            ):
                for level in levels:
                    if level > run.automaton.level:
                        with pytest.raises(ValueError):
                            decompose(run, level)
                        with pytest.raises(ValueError):
                            ask(run, level)
                    else:
                        assert ask(run, level) == decompose(run, level), (run.operations(), level)
                        served += 1
    assert served > 7_000

    # with lineage answering by fresh derivations, a mismatch line is a
    # served verdict that differs from the asking run's own
    monkeypatch.setattr(harness, "is_k_upper", lambda lrun, k: decompose_upper(lrun.run, k) is not None)
    monkeypatch.setattr(harness, "is_k_return", lambda lrun, r: decompose_return(lrun.run, r) is not None)
    derived, asked = {}, 0
    for name, aut, cfgs in corpus:
        for cfg in cfgs:
            for run, _ in walk_runs(EnumerationSpace(aut, cfg, harness.RUN_BOUND, (0, 1)), True):
                assert harness._classifier_mismatches(name, run, run.operations(), derived) == []
                asked += 2 * aut.level + 1
    assert asked > 4 * len(derived) > 7_000


def test_classifier_equivalence_reports_hard_lines_in_concrete_order(monkeypatch):
    # a failing start configuration repeats its lines once per concrete
    # run, in the concrete depth-first order
    def disagreeing(run, k):
        tree = decompose_upper(run, k)
        if k == 1 and [op.kind for op in run.operations()[:2]] == ["push", "pop"]:
            return None if tree is not None else "disagrees"
        return tree

    monkeypatch.setattr(lineage, "decompose_upper", disagreeing)
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    got = run_suites(["classifier-equivalence"], seed=20260808, max_steps=4)
    monkeypatch.setitem(
        harness._SUITE_FUNCTIONS, "classifier-equivalence", _concrete_classifier_equivalence
    )
    expected = run_suites(["classifier-equivalence"], seed=20260808, max_steps=4)
    assert expected.hard_total > 20 and len(set(expected.lines[1:])) > 1
    assert got.text() == expected.text()


def test_soundness_suites_instrument_no_lineage(monkeypatch):
    # the checks classify by derivation; lineage is instrumented only by
    # the suites that test it against the derivations
    made = []

    def counted(run):
        made.append(run)
        return instrument_lineage(run)

    monkeypatch.setattr(harness, "instrument_lineage", counted)
    _eight_machines(monkeypatch)
    suites = ["run2type", "idv", "origin", "idv-upper"]
    assert run_suites(suites, seed=20260808, max_steps=4).ok
    assert made == []


def test_the_goal_space_is_built_once_per_table(monkeypatch):
    # the starts of one machine share its table, and so its goal space
    built = []
    goal_space = typesys.goal_space

    def counted(table):
        built.append(table)
        return goal_space(table)

    monkeypatch.setattr(typesys, "goal_space", counted)
    report = run_suites(["run2type", "idv"], seed=20260808)
    assert len(built) == len({id(table) for table in built}) == 48
    golden = (pathlib.Path(__file__).parent / "golden" / "verify-20260808.txt").read_text()
    assert report.lines == [
        line for line in golden.splitlines() if line.startswith(("suite=run2type ", "suite=idv "))
    ]


def test_find_agreeing_runs():
    aut = parse_automaton_text(SINGLE_POP).automaton
    table = saturate_level0(aut, presence_monoid(aut.input_alphabet))
    uni = table.universe
    space = EnumerationSpace(aut, parse_automaton_text(SINGLE_POP).start, 2, (0, 5))
    start = StartRuns(space.start, table, enumerate_runs(space), {})

    def agreeing_runs(goal):
        return [run for run in start.runs if start.agrees(run, goal)]

    goal = uni.intern_goal("SOME", 1, (), "qf")
    agreeing = agreeing_runs(goal)
    assert len(agreeing) == 1 and agreeing[0].read_word == (("a", 5),)
    nobody = uni.intern_goal("SOME", 1, (), "q")
    assert agreeing_runs(nobody) == []


def test_seeded_configurations_reach_popable_stacks():
    aut = parse_automaton_text(EXCURSION).automaton
    cfgs = seeded_configurations(aut, 2, (0, 1), 6)
    assert parse_automaton_text(EXCURSION).automaton.level == 2
    assert any(len(cfg.stack.top) >= 2 or len(cfg.stack) >= 2 for cfg in cfgs)


def test_random_machines_are_valid_and_deterministic():
    from hopad.core import automaton_diagnostics

    for i in range(20):
        aut = random_machine(11, i)
        assert automaton_diagnostics(aut) == []
        again = random_machine(11, i)
        assert aut == again


def test_run_suites_unknown_name():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


def test_run_suites_checks_every_name_before_running_a_suite(monkeypatch):
    ran = []
    monkeypatch.setitem(harness._SUITE_FUNCTIONS, "table1", lambda *args: ran.append(args) or ([], [], {}))
    with pytest.raises(ValueError, match="unknown suite 'no-such-suite'"):
        run_suites(["table1", "no-such-suite"])
    assert not ran


@pytest.mark.parametrize("max_steps", [0, -1])
def test_run_suites_needs_a_positive_step_bound(max_steps):
    with pytest.raises(ValueError, match="at least 1"):
        run_suites(["table1"], max_steps=max_steps)


@pytest.mark.parametrize(
    "suite", ["classifier-equivalence", "run2type", "idv", "origin", "idv-upper"]
)
def test_suites_enumerate_once_per_start_configuration(monkeypatch, suite):
    calls = []
    walk = harness.walk_runs

    def counted(space, representative=False):
        calls.append(representative)
        return walk(space, representative)

    monkeypatch.setattr(harness, "walk_runs", counted)
    _eight_machines(monkeypatch)
    assert run_suites([suite], seed=20260808, max_steps=4).ok
    # 20 start configurations, plus one seeding call per random machine;
    # classifier-equivalence walks each start configuration's representatives
    assert len(calls) == 28
    assert calls.count(True) == (20 if suite == "classifier-equivalence" else 0)


def test_quick_suites_pass_and_report_shape():
    report = run_suites(["monoid-laws", "w-recurrence", "table1"], seed=3)
    assert report.ok
    lines = report.text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("suite=") and "status=pass" in line


def test_suite_reports_are_reproducible(monkeypatch):
    for name, value in (("SRC_BOUND", 3), ("WORD_LENGTH", 3), ("RANDOM_WORDS", 50),
                        ("TYPED_MACHINES", 3), ("CORPUS_MACHINES", 3)):
        monkeypatch.setattr(harness, name, value)
    first = run_suites(seed=42, max_steps=4)
    second = run_suites(seed=42, max_steps=4)
    assert first.text() == second.text()


def test_the_generated_words_are_pinned():
    # the inputs of u-differential (its near-members at the acceptance
    # seed) and of w-recurrence: a refactor of the generators must keep
    # every random draw and every word
    rng = random.Random("20260808:u-differential")
    near = harness._near_member_words(rng, harness.RANDOM_WORDS, harness.RANDOM_WORD_LENGTH)
    family = [w for reps in (1, 2, 3) for k in range(5) for w in harness._family_words(k, reps)]
    digests = [(len(words), hashlib.sha256(repr(words).encode()).hexdigest()) for words in (near, family)]
    assert digests == [
        (10_000, "a7f066ee8d33bea8c40cd324199e555728c4e6e786c901d21c2255a936940a9d"),
        (90, "b401dfde8be506a94533ba85a15aa0c90477754b682133d2d0a33981c765fde8"),
    ]


def test_enumeration_contains_executed_runs_with_collapse():
    # the recognizer's accepting run (including its collapse step and the
    # trailing epsilon) must be found by plain enumeration at its length
    from hopad.core import execute_word
    from hopad.ulang import build_u_recognizer

    aut = build_u_recognizer()
    word = (("[", 1), ("$", 0), ("]", 1))
    accepted = execute_word(aut, word).run
    from hopad.core import initial_configuration

    space = EnumerationSpace(aut, initial_configuration(aut), len(accepted), (0, 1))
    keys = {
        (run.labels, run.transitions)
        for run in enumerate_runs(space)
    }
    assert (accepted.labels, accepted.transitions) in keys


def test_transfer_checks_run_once_per_run_and_level(monkeypatch):
    calls = {"origin": [], "idv-upper": []}

    def spy(name, check):
        def spied(run, k, *rest):
            calls[name].append((run, k, rest[-2]))
            return check(run, k, *rest)

        return spied

    monkeypatch.setattr(harness, "check_origin", spy("origin", harness.check_origin))
    monkeypatch.setattr(harness, "check_idv_upper", spy("idv-upper", harness.check_idv_upper))
    monkeypatch.setattr(harness, "CORPUS_MACHINES", 8)
    monkeypatch.setattr(harness, "SRC_BOUND", 4)
    assert run_suites(["origin", "idv-upper"], seed=20260808).ok
    # origin checks k < level, idv-upper k <= level; the checks decide
    # k-upper-ness themselves, so every run is checked at every such k
    for name, above in (("origin", 0), ("idv-upper", 1)):
        made = Counter((id(run), k) for run, k, _ in calls[name])
        expected = Counter(
            (id(run), k)
            for start in {id(start): start for _, _, start in calls[name]}.values()
            for run in start.runs
            for k in range(run.automaton.level + above)
        )
        assert made and made == expected, name


@pytest.mark.parametrize("suite", ["run2type", "idv", "origin", "idv-upper"])
def test_soundness_suites_work_out_each_fact_once(monkeypatch, suite):
    # per start configuration: one monoid class per run and one start
    # typing per k; per suite: one derivation per (shape, operations,
    # automaton level, level), all start configurations sharing one memo
    starts, memos, calls = [], set(), {"phi": [], "type": [], "upper": [], "return": []}
    asked = set()

    def counted_start(cfg, table, runs, derived):
        starts.append((cfg, runs))
        memos.add(id(derived))
        return StartRuns(cfg, table, runs, derived)

    def spy_ask(shape, method):
        def ask(self, run, level):
            asked.add((shape, run.operations(), run.automaton.level, level))
            return method(self, run, level)

        monkeypatch.setattr(StartRuns, method.__name__, ask)

    def spy(name, module, function):
        original = getattr(module, function)

        def spied(*args):
            calls[name].append((len(starts), *args))  # the arguments stay alive
            return original(*args)

        monkeypatch.setattr(module, function, spied)

    monkeypatch.setattr(harness, "StartRuns", counted_start)
    spy("phi", typesys, "phi_of_run")
    spy("type", typesys, "type_of_stack")
    spy("upper", lineage, "decompose_upper")
    spy("return", lineage, "decompose_return")
    spy_ask("upper", StartRuns.upper)
    spy_ask("return", StartRuns.returns)
    _eight_machines(monkeypatch)
    assert run_suites([suite], seed=20260808, max_steps=4).ok
    assert len(starts) == 20 and len(memos) == 1

    enumerated = {id(run) for _, runs in starts for run in runs}
    per_run = Counter(id(run) for _, _, run in calls["phi"] if id(run) in enumerated)
    assert per_run and max(per_run.values()) == 1
    start_typings = Counter(
        (index, k) for index, stack, k, _ in calls["type"] if stack is starts[index - 1][0].stack
    )
    assert start_typings and max(start_typings.values()) == 1
    derived = Counter(
        (shape, run.operations(), run.automaton.level, level)
        for shape in ("upper", "return")
        for _, run, level in calls[shape]
    )
    assert derived and max(derived.values()) == 1 and set(derived) == asked


@pytest.mark.parametrize("suite", ["classifier-equivalence", "origin"])
def test_every_derivation_miss_goes_through_the_lineage_module(monkeypatch, suite):
    # lineage.derivation makes each tree missing from its memo by calling
    # decompose_* as attributes of lineage, so a spy there (the benchmark
    # tracer's spans among them) sees one call per key the memo holds
    memos, made = {}, Counter()

    def counted(shape):
        decompose = getattr(lineage, f"decompose_{shape}")

        def spied(run, level):
            made[shape] += 1
            return decompose(run, level)

        monkeypatch.setattr(lineage, f"decompose_{shape}", spied)

    def kept(ask):
        def spied(*args):
            memos[id(args[-1])] = args[-1]
            return ask(*args)

        return spied

    counted("upper")
    counted("return")
    monkeypatch.setattr(harness, "_classifier_mismatches", kept(harness._classifier_mismatches))
    monkeypatch.setattr(harness, "StartRuns", kept(StartRuns))
    _eight_machines(monkeypatch)
    assert run_suites([suite], seed=20260808, max_steps=4).ok
    (memo,) = memos.values()
    keys = Counter(shape for shape, *_ in memo)
    assert keys == made and min(made.values()) > 20, (keys, made)
