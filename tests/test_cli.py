import io
import os
import re
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hopad
import hopad.cli as cli
from hopad.cli import main
from hopad.core import (
    MAX_LEVEL,
    Atom,
    automaton_diagnostics,
    decollapse,
    execute_word,
    to_nested,
    top_stack,
)
from hopad.harness import CLASSIFICATION_EXAMPLE, EXCURSION
from hopad.lineage import Starts
from hopad.text import (
    CliError,
    format_automaton,
    format_data_word,
    parse_automaton_text,
    parse_data_word,
    parse_stack_literal,
    render_stack,
)
from hopad.ulang import U_RECOGNIZER, build_u_recognizer, decorate_distinct, gen_w

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def run_cli_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse reports a bad argument by exiting
            code = exc.code
    return code, err.getvalue()


EPS_LOOP = """level 1
input-alphabet a
stack-alphabet g
initial-state q
initial-symbol g
trans q g eps q push 1 g
"""

# the start state accepts, yet an epsilon rule applies there
ACCEPTING_WITH_EPS = """level 1
input-alphabet a
stack-alphabet g h
initial-state q
initial-symbol g
accepting q
trans q g eps r push 1 h
trans r h eps s pop 1
start-state q
start-stack [(g,-)]
"""


def test_data_word_round_trip():
    word = parse_data_word("[@1 $@0 ]@1")
    assert word == (("[", 1), ("$", 0), ("]", 1))
    assert format_data_word(word) == "[@1 $@0 ]@1"
    assert parse_data_word("") == ()
    with pytest.raises(CliError):
        parse_data_word("a")
    with pytest.raises(CliError):
        parse_data_word("a@-1")


def test_stack_literal_round_trip():
    text = "[[(X,-)] [(X,1) (Y,3)]]"
    stack = parse_stack_literal(text, 2)
    assert to_nested(stack, 2) == (
        (Atom("X", None),),
        (Atom("X", 1), Atom("Y", 3)),
    )
    assert render_stack(stack, 2) == text
    linked = "[[(X,-;1,1)] [(X,1;1,2) (Y,3;1,4)]]"
    stack = parse_stack_literal(linked, 2, collapsible=True)
    assert top_stack(stack, 2, 0) == Atom("Y", 3, (1, 4))
    assert render_stack(stack, 2) == linked
    with pytest.raises(CliError):
        parse_stack_literal("[[]]", 2)  # ill-formed: empty 1-stack
    with pytest.raises(CliError):
        parse_stack_literal("[(X,-)] junk", 1)


def test_automaton_file_round_trip():
    for name in ("u-machine.aut", "classification-example.scenario", "excursion.scenario"):
        text = (GOLDEN / name).read_text()
        scenario = parse_automaton_text(text)
        assert automaton_diagnostics(scenario.automaton) == []
        reparsed = parse_automaton_text(format_automaton(scenario.automaton))
        assert reparsed.automaton == scenario.automaton


def test_u_machine_golden():
    code, out = run_cli("u-machine")
    assert code == 0
    assert out == (GOLDEN / "u-machine.aut").read_text()


def test_the_u_recognizer_has_the_states_of_its_golden_file():
    # format_automaton prints no state set, so the golden text cannot see one;
    # a Scenario compares it
    parsed = parse_automaton_text((GOLDEN / "u-machine.aut").read_text())
    assert parsed == parse_automaton_text(U_RECOGNIZER)
    assert build_u_recognizer().states == parsed.automaton.states


def test_the_golden_scenarios_are_the_harness_machines():
    # the CLI goldens and the suites check the same machines from the same starts
    for name, text in (
        ("excursion.scenario", EXCURSION),
        ("classification-example.scenario", CLASSIFICATION_EXAMPLE),
    ):
        assert parse_automaton_text((GOLDEN / name).read_text()) == parse_automaton_text(text), name


def test_validate_exit_codes(tmp_path):
    code, out = run_cli("validate", str(GOLDEN / "u-machine.aut"))
    assert code == 0 and out.startswith("ok:")
    bad = tmp_path / "bad.aut"
    bad.write_text("level 1\ninitial-state q\ninitial-symbol X\n"
                   "stack-alphabet X\ntrans q X in a q collapse 1\n")
    code, _ = run_cli("validate", str(bad))
    assert code == 2
    code, _ = run_cli("validate", str(tmp_path / "missing.aut"))
    assert code == 2


def test_accept_and_u_check_exit_codes():
    aut = str(GOLDEN / "u-machine.aut")
    assert run_cli("accept", aut, "--word", "[@1 $@0 ]@1")[0] == 0
    assert run_cli("accept", aut, "--word", "[@1 $@0 ]@2")[0] == 1
    assert run_cli("u-check", "--word", "[@1 $@0 ]@1")[0] == 0
    code, out = run_cli("u-check", "--word", "[@1 ]@1")
    assert code == 1 and "dollar-count" in out


def test_accept_starts_from_the_scenario_start():
    # the pop^2 reading a@7 needs the value stored only in the seeded start stack
    path = str(GOLDEN / "excursion.scenario")
    stopped = "stopped in state q4 after 4 steps\n"
    assert run_cli("run", path, "--word", "c@0 a@7 b@9") == (0, stopped)
    assert run_cli("accept", path, "--word", "c@0 a@7 b@9") == (0, "accepted\n")


def test_run_dump_golden():
    code, out = run_cli(
        "run", str(GOLDEN / "u-machine.aut"), "--word", "[@1 $@0 ]@1", "--dump"
    )
    assert code == 0
    assert out == (GOLDEN / "u-run-dump.txt").read_text()


def test_classify_matches_expected_grid():
    code, out = run_cli("classify", str(GOLDEN / "classification-example.scenario"))
    assert code == 0
    lines = out.strip().splitlines()
    rows = [re.split(r"\s{2,}", line.strip()) for line in lines[1:]]
    expected = {
        0: ("{0}", "{0}", "{}", "{}"),
        1: ("{0,1}", "{0,1}", "{}", "{}"),
        2: ("{2}", "{0,1,2}", "{0,1}", "{}"),
        3: ("{0,3}", "{0,3}", "{}", "{1,2}"),
        4: ("{4}", "{0,3,4}", "{0,3}", "{}"),
        5: ("{4,5}", "{0,3,4,5}", "{}", "{}"),
        6: ("{4,6}", "{0,3,4,5,6}", "{5}", "{}"),
    }
    assert len(rows) == 7
    for row in rows:
        j = int(row[0])
        u0, u1, r1, r2 = expected[j]
        assert row[2] == u0 and row[3] == u1, row
        assert row[5] == r1 and row[6] == r2, row


def test_classify_subrun_span():
    code, out = run_cli(
        "classify", str(GOLDEN / "classification-example.scenario"), "--from", "1", "--to", "3"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header plus j=0..2
    code, err = run_cli_stderr(
        "classify", str(GOLDEN / "classification-example.scenario"), "--from", "3", "--to", "1"
    )
    assert (code, err) == (2, "span 3..1 outside 0..6\n")


PUSH_CHAIN = """level 2
collapsible false
input-alphabet a b
stack-alphabet g
initial-state q
initial-symbol g
trans q g in a q push 1 g
trans q g in b p pop 2
start-state q
start-stack [[(g,-)] [(g,-)]]
"""


def test_classify_columns_are_as_wide_as_their_widest_cell(tmp_path):
    # the rows are printed as they are rendered, from widths worked out
    # beforehand; realigning the printed cells must change nothing, with
    # members of one, two and three digits
    path = tmp_path / "push-chain.scenario"
    path.write_text(PUSH_CHAIN)
    code, out = run_cli("classify", str(path), "--word", " ".join(["a@0"] * 119 + ["b@0"]))
    assert code == 0
    rows = [re.split(r" {2,}", line) for line in out.splitlines()]
    assert len(rows) == 122 and {len(row) for row in rows} == {7}
    assert rows[-1][4] == "{" + ",".join(map(str, range(121))) + "}"
    widths = [max(len(row[c]) for row in rows) for c in range(7)]
    assert out == "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )


@pytest.mark.parametrize(
    "members", [(), (0,), (9,), (10,), (0, 9, 10, 99, 100), (999, 1000, 1001), tuple(range(0, 2500, 7))]
)
def test_a_set_cells_width_is_read_off_its_bits(members):
    bits = sum(1 << i for i in members)
    assert cli._set_width(bits) == len(cli._render_set(Starts(bits))) == len(cli._render_set(members))


def test_a_stack_cells_width_is_its_rendered_length():
    # one memo of node widths serves every configuration of the run,
    # collapse links included
    aut = build_u_recognizer()
    run = execute_word(aut, parse_data_word("[@1 [@2 ]@3 $@0 ]@3 ]@2 [@1")).run
    inner = {}
    for config in run.configs:
        assert cli._stack_width(config.stack, aut.level, inner) == len(render_stack(config.stack, aut.level))
    assert len(run) > 10 and any(atom.links for config in run.configs for atom in config.stack.top)


def test_types_output_is_stable():
    # the golden pins descriptor and goal ids, which number them in
    # interning order, and the stats line; a second call gives the same
    golden = (GOLDEN / "excursion-types.txt").read_text()
    for _ in range(2):
        code, out = run_cli("types", str(GOLDEN / "excursion.scenario"), "--monoid", "presence")
        assert (code, out) == (0, golden)


def test_composer_state_cap_is_reported(monkeypatch, tmp_path):
    # random-5 of the corpus discharges push slots with non-ne members, so
    # a cap of 0 composer vectors is hit during saturation
    import hopad.typesys as typesys
    from hopad.harness import random_machine
    from hopad.monoid import presence_monoid

    aut = random_machine(20260808, 5)
    monkeypatch.setattr(typesys, "COMPOSER_STATE_CAP", 0)
    with pytest.raises(typesys.ResourceCapExceeded) as caught:
        typesys.saturate_level0(aut, presence_monoid(aut.input_alphabet))
    assert caught.value.stats.descriptors > 0
    path = tmp_path / "random-5.aut"
    path.write_text(format_automaton(aut))
    code, err = run_cli_stderr("types", str(path), "--monoid", "presence")
    assert code == 2
    assert err == "composer state space exceeds 0\n"


def test_src_command():
    # a push followed by a return (case 3), and compositions (case 4)
    outputs = []
    for word in ("c@0 a@7", "b@0 a@0 c@0 a@7"):
        for k in ("0", "1"):
            code, out = run_cli(
                "src", str(GOLDEN / "excursion.scenario"), "--word", word, "--k", k,
                "--monoid", "presence",
            )
            assert code == 0
            outputs.append(out)
    assert "".join(outputs) == (GOLDEN / "excursion-src.txt").read_text()


NOT_ONE_UPPER = """level 2
input-alphabet a b
stack-alphabet g
initial-state q
initial-symbol g
trans q g in a q push 1 g
trans q g in b p pop 2
start-state q
start-stack [[(g,-)] [(g,-)]]
"""


def test_src_rejects_a_run_that_is_not_k_upper(tmp_path):
    # push^1 then pop^2: the pop^2 step is in no 1-upper derivation
    path = tmp_path / "pop2.scenario"
    path.write_text(NOT_ONE_UPPER)
    code, err = run_cli_stderr(
        "src", str(path), "--word", "a@0 b@0", "--k", "1", "--monoid", "trivial"
    )
    assert code == 2
    assert err == "the run is not 1-upper\n"


def test_src_on_a_run_too_long_to_derive_is_one_line(tmp_path):
    # 1,500 push^1 steps, then pop^2: the derivation search recurses
    # deeper than the interpreter allows before it decides
    path = tmp_path / "chain.scenario"
    path.write_text(NOT_ONE_UPPER)
    word = " ".join(["a@0"] * 1500 + ["b@0"])
    code, err = run_cli_stderr("src", str(path), "--word", word, "--k", "1", "--monoid", "trivial")
    assert (code, err) == (2, "a run of 1501 steps is too long to derive\n")


def hopad_process(argv, stdout):
    """`hopad argv` in a fresh interpreter, through the console entry point."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hopad.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-c", "from hopad.cli import entry; entry()", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_a_closed_pipe_ends_a_command_without_a_traceback(tmp_path):
    # `hopad run --dump | head -1`: the dump (181 kB) fills the pipe, so
    # the writes after the reader closes it fail
    word = format_data_word(decorate_distinct(gen_w(3, 2)))
    proc = hopad_process(["run", str(GOLDEN / "u-machine.aut"), "--word", word, "--dump"], subprocess.PIPE)
    assert proc.stdout.readline().startswith("i=0 ")
    proc.stdout.close()
    assert (proc.communicate(timeout=60)[1], proc.returncode) == ("", 1)
    # `hopad types` on the recognizer's collapse-free fragment (41 lines),
    # the reader gone before the first write
    frag = tmp_path / "frag.aut"
    frag.write_text(format_automaton(decollapse(build_u_recognizer())))
    read, write = os.pipe()
    os.close(read)
    proc = hopad_process(["types", str(frag)], write)
    os.close(write)
    assert (proc.communicate(timeout=60)[1], proc.returncode) == ("", 1)


def test_gen_word_command():
    assert run_cli("gen-word", "--k", "0") == (0, "[][\n")
    assert run_cli("gen-word", "--k", "1", "--n", "2") == (0, "[][[][]][\n")
    code, out = run_cli("gen-word", "--k", "0", "--decorate")
    assert code == 0 and out == "[@1 ]@2 [@3\n"


def test_verify_command_smoke():
    code, out = run_cli("verify", "--suite", "monoid-laws", "--suite", "w-recurrence")
    assert code == 0
    assert out.splitlines()[0].startswith("suite=monoid-laws status=pass")


def test_verify_max_steps_sets_the_run_bound():
    from hopad.harness import run_suites

    suites = ["run2type", "origin"]
    code, out = run_cli("verify", "--suite", "run2type", "--suite", "origin",
                        "--seed", "20260808", "--max-steps", "3")
    assert code == 0
    assert out == run_suites(suites, seed=20260808, max_steps=3).text()
    assert out != run_suites(suites, seed=20260808).text()


def test_verify_max_steps_leaves_the_transfer_suites_at_their_cap():
    # origin and idv-upper take at most harness.SRC_BOUND (5) steps, so a
    # larger --max-steps reproduces their lines at the default bounds
    golden = (GOLDEN / "verify-20260808.txt").read_text().splitlines()
    code, out = run_cli("verify", "--suite", "origin", "--suite", "idv-upper",
                        "--seed", "20260808", "--max-steps", "7")
    assert code == 0
    expected = [line for line in golden if line.startswith(("suite=origin ", "suite=idv-upper "))]
    assert out.splitlines() == expected


@pytest.mark.parametrize(
    "suite, cap, message",
    [
        ("classifier-equivalence", "hopad.harness.ENUMERATION_CAP", "more than 10 runs at the bound"),
        ("run2type", "hopad.typesys.DESCRIPTOR_CAP", "descriptor cap 10 exceeded"),
    ],
    ids=["enumeration-cap", "descriptor-cap"],
)
def test_a_cap_hit_is_reported_not_raised(monkeypatch, suite, cap, message):
    from hopad.harness import run_suites

    monkeypatch.setattr(cap, 10)
    report = run_suites([suite], seed=20260808)
    expected = f"suite={suite} status=fail hard=1 soft=0\n  hard: aborted: {message}\n"
    assert not report.ok and report.text() == expected
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--suite", suite, "--seed", "20260808"])
    assert (code, out.getvalue(), err.getvalue()) == (1, expected, "")


LEVEL_1 = "level 1\ninitial-state q\ninitial-symbol X\nstack-alphabet X\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("level \u00b2\n", "level needs one number"),
        (LEVEL_1 + "trans q X eps q pop \u00b2\n", "bad operation"),
        (LEVEL_1 + "start-state q\nstart-stack [(X,\u00b2)]\n", "atom 'X,\u00b2'"),
        (LEVEL_1 + "start-state q\nstart-stack\n", "stack literal: expected a level-1 stack"),
        (LEVEL_1 + "trans q Y eps q pop 1\n", "invalid automaton: dangling-symbol"),
        (LEVEL_1 + "start-state zz\nstart-stack [(X,-)]\n", "start-state zz is not a state"),
        (LEVEL_1 + "start-state q\nstart-stack [(X,-) (Y,-)]\n", "outside stack-alphabet"),
        (LEVEL_1 + "collapsible true\nstart-state q\nstart-stack [(X,-;1) (X,-;3)]\n", "link beyond"),
        (LEVEL_1 + "start-state q\n", "must appear together"),
        ("level 2\n" + LEVEL_1, "line 2: repeated level"),
        (LEVEL_1 + "start-state q\nstart-state q\nstart-stack [(X,-)]\n", "line 6: repeated start-state"),
        *(
            (LEVEL_1 + f"trans q X eps q {op}\n", f"line 5: bad operation {op!r}")
            for op in ("pop", "pop 1 2", "push 1", "push 1 X Y", "push X 1", "collapse", "collapse 1 X",
                       "jump 1", "pop -1")
        ),
        (LEVEL_1 + "trans q X eps q\n", "line 5: missing operation"),
    ],
    ids=[
        "level", "op-level", "atom-data", "empty-start-stack", "dangling-symbol",
        "start-state-not-a-state", "start-stack-symbol-outside-alphabet", "link-beyond-its-stack",
        "start-state-without-start-stack", "repeated-level", "repeated-start-state",
        "pop-alone", "pop-two-numbers", "push-no-symbol", "push-two-symbols", "push-symbol-first",
        "collapse-alone", "collapse-with-symbol", "unknown-kind", "pop-negative", "missing-operation",
    ],
)
def test_malformed_automaton_text_is_a_cli_error(text, message):
    with pytest.raises(CliError, match=re.escape(message)):
        parse_automaton_text(text)


EXCURSION_FILE = str(GOLDEN / "excursion.scenario")


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{no_stack}"),
        ("u-check", "--word", "[@\u00b2"),
        ("u-check", "--word", "a@1"),
        ("gen-word", "--k", "6", "--n", "50"),
        ("gen-word", "--k", "7"),
        ("types", EXCURSION_FILE),
        ("src", EXCURSION_FILE, "--k", "-1", "--monoid", "presence"),
        ("src", EXCURSION_FILE, "--k", "3", "--monoid", "presence"),
        *((command, "{latin1}") for command in ("run", "classify", "types", "src")),
        ("accept", "{latin1}", "--word", "a@1"),
        ("accept", "{no_state}", "--word", "c@1"),
        ("src", "{bad_symbol}", "--word", "c@1", "--k", "0", "--monoid", "presence"),
        ("gen-word", "--k", "\u0663"),
        ("gen-word", "--k", "1", "--n", "1_0"),
        ("classify", EXCURSION_FILE, "--word", "c@1 a@2", "--from", " 1"),
        ("validate", "{repeated_level}"),
        ("run", "{repeated_start_state}"),
    ],
    ids=[
        "start-stack", "u-check-superscript", "u-check-letter", "gen-word-length-cap",
        "gen-word-k-range", "types-unmapped-letters", "src-k-negative", "src-k-above-level",
        "run-not-utf8", "classify-not-utf8", "types-not-utf8", "src-not-utf8", "accept-not-utf8",
        "start-state-not-a-state", "start-stack-symbol-outside-alphabet", "gen-word-k-arabic-digit",
        "gen-word-n-underscore", "classify-from-space", "repeated-level", "repeated-start-state",
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, argv):
    no_stack = tmp_path / "no-stack.scenario"
    no_stack.write_text(ACCEPTING_WITH_EPS.replace("start-stack [(g,-)]", "start-stack"))
    latin1 = tmp_path / "latin1.aut"
    latin1.write_bytes(EPS_LOOP.replace("initial-state q", "initial-state q\u00e9").encode("latin-1"))
    excursion = (GOLDEN / "excursion.scenario").read_text()
    no_state = tmp_path / "no-state.scenario"
    no_state.write_text(excursion.replace("start-state q\n", "start-state zz\n"))
    bad_symbol = tmp_path / "bad-symbol.scenario"
    bad_symbol.write_text(excursion.replace("(g,9)", "(WHAT,1)"))
    # a repeated directive must not override the earlier one: without the
    # check, these are a valid level-1 machine and a run from state q1
    repeated_level = tmp_path / "repeated-level.aut"
    repeated_level.write_text(EPS_LOOP.replace("level 1\n", "level 2\nlevel 1\n"))
    repeated_start_state = tmp_path / "repeated-start-state.scenario"
    repeated_start_state.write_text(excursion.replace("start-state q\n", "start-state q\nstart-state q1\n"))
    paths = {
        "no_stack": no_stack, "latin1": latin1, "no_state": no_state, "bad_symbol": bad_symbol,
        "repeated_level": repeated_level, "repeated_start_state": repeated_start_state,
    }
    code, err = run_cli_stderr(*(a.format(**paths) for a in argv))
    assert code == 2
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_validate_reports_a_file_that_is_not_utf8(tmp_path):
    latin1 = tmp_path / "latin1.aut"
    latin1.write_bytes(EPS_LOOP.replace("initial-state q", "initial-state q\u00e9").encode("latin-1"))
    code, err = run_cli_stderr("validate", str(latin1))
    assert code == 2
    assert len(err.splitlines()) == 1 and "utf-8" in err


def test_an_invalid_automaton_is_one_line_on_stderr(tmp_path):
    path = tmp_path / "dangling.aut"
    path.write_text(EPS_LOOP + "trans q h in b q pop 1\n")
    for command in ("validate", "run"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue() == (
            "invalid automaton: dangling-symbol top symbol h at (q,h,b); "
            "dangling-letter letter b at (q,h,b)\n"
        )


def test_unknown_suite_is_a_usage_error():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in err.getvalue()
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_missing_command_is_a_one_line_usage_error():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert err.getvalue() == "hopad: error: the following arguments are required: command\n"


@pytest.mark.parametrize("command", ["run", "accept", "classify", "src"])
def test_negative_eps_budget_is_a_usage_error(command):
    err = io.StringIO()
    argv = [command, str(GOLDEN / "u-machine.aut"), "--word", "$@0", "--eps-budget", "-5"]
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--eps-budget" in err.getvalue()
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_negative_max_steps_is_a_usage_error():
    # a negative bound never stops the enumeration before its run cap, and
    # at 0 the suites' one-step worked examples cannot be witnessed
    for bound in ("-1", "0"):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "run2type", "--max-steps", bound])
        assert exc.value.code == 2
        assert "--max-steps" in err.getvalue() and ">= 1" in err.getvalue()
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


DEEP = """level {level}
input-alphabet a
stack-alphabet g
initial-state q
initial-symbol g
trans q g in a q push {level} g
"""


def test_run_dump_works_up_to_the_maximum_level(tmp_path):
    path = tmp_path / "deep.aut"
    path.write_text(DEEP.format(level=MAX_LEVEL))
    code, out = run_cli("run", str(path), "--word", "a@1 a@2", "--dump")
    assert code == 0
    assert out.splitlines()[-3].startswith("i=2 state=q op=push^" + str(MAX_LEVEL))
    path.write_text(DEEP.format(level=MAX_LEVEL + 1))
    code, err = run_cli_stderr("run", str(path), "--word", "a@1 a@2", "--dump")
    assert code == 2
    assert err == f"line 1: level {MAX_LEVEL + 1} above the maximum {MAX_LEVEL}\n"


def test_the_level_is_checked_before_the_start_stack_is_parsed(tmp_path):
    level = 1000
    path = tmp_path / "deep.scenario"
    path.write_text(
        DEEP.format(level=level)
        + "start-state q\nstart-stack " + "[" * level + "(g,-)" + "]" * level + "\n"
    )
    code, err = run_cli_stderr("validate", str(path))
    assert code == 2
    assert err == f"line 1: level {level} above the maximum {MAX_LEVEL}\n"


def test_budget_exhausted_run_holds_exactly_the_budget(tmp_path):
    path = tmp_path / "eps-loop.aut"
    path.write_text(EPS_LOOP)
    code, out = run_cli("run", str(path), "--dump", "--eps-budget", "2")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines if line.startswith("i=")] == ["i=0", "i=1", "i=2"]
    assert lines[-1] == "budget-exhausted"


def test_scenario_runs_step_past_an_accepting_state(tmp_path):
    path = tmp_path / "accepting-with-eps.scenario"
    path.write_text(ACCEPTING_WITH_EPS)
    assert run_cli("run", str(path)) == (0, "stopped in state s after 2 steps\n")
    code, out = run_cli("classify", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header plus j=0..2


LINKED_SCENARIO = """level 1
collapsible {collapsible}
input-alphabet a
stack-alphabet g
initial-state q
initial-symbol g
trans q g eps r {op}
start-state q
start-stack {stack}
"""


@pytest.mark.parametrize(
    "collapsible, op, stack",
    [
        ("true", "collapse 1", "[(g,-) (g,-)]"),
        ("true", "collapse 1", "[(g,-;1) (g,-)]"),
        ("true", "collapse 1", "[(g,-;1,1)]"),
        ("true", "collapse 1", "[(g,-;0)]"),
        ("true", "collapse 1", "[(g,-;+1)]"),
        ("false", "pop 1", "[(g,-) (g,-;1)]"),
    ],
    ids=[
        "no-links", "one-atom-without-links", "too-many-links", "zero-link", "signed-link",
        "links-not-collapsible",
    ],
)
def test_start_stack_links_must_fit_the_automaton(tmp_path, collapsible, op, stack):
    text = LINKED_SCENARIO.format(collapsible=collapsible, op=op, stack=stack)
    with pytest.raises(CliError, match="links"):
        parse_automaton_text(text)
    path = tmp_path / "linked.scenario"
    path.write_text(text)
    code, err = run_cli_stderr("run", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "level, stack",
    [
        (1, "[(g,-;1) (g,-;9)]"),
        (2, "[[(g,-;1,1)] [(g,-;1,1) (g,-;3,2)]]"),
        (2, "[[(g,-;1,1)] [(g,-;1,1) (g,-;2,3)]]"),
    ],
    ids=["level-1", "level-2-stack-level-1-link", "level-2-stack-level-2-link"],
)
def test_start_stack_links_must_fit_their_stacks(tmp_path, level, stack):
    text = LINKED_SCENARIO.format(collapsible="true", op="collapse 1", stack=stack)
    text = text.replace("level 1", f"level {level}")
    path = tmp_path / "linked.scenario"
    path.write_text(text)
    code, err = run_cli_stderr("run", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and "link" in err, err


def test_collapse_from_a_linked_start_stack_runs(tmp_path):
    path = tmp_path / "linked.scenario"
    path.write_text(
        LINKED_SCENARIO.format(collapsible="true", op="collapse 1", stack="[(g,-;1) (g,-;2)]")
    )
    code, out = run_cli("run", str(path), "--dump")
    assert code == 0
    assert out.splitlines()[-2:] == ["  [(g,-;1)]", "stopped in state r after 1 steps"]


def test_collapse_on_an_atom_without_links_is_stuck():
    from hopad.core import Configuration, IllFormed, Stuck, apply_operation, collapse, from_nested, step

    scenario = parse_automaton_text(
        LINKED_SCENARIO.format(collapsible="true", op="collapse 1", stack="[(g,-;1) (g,-;2)]")
    )
    bare = from_nested((Atom("g", None), Atom("g", None)), 1)
    with pytest.raises(IllFormed):
        apply_operation(bare, 1, collapse(1))
    res = step(scenario.automaton, Configuration("q", bare))
    assert isinstance(res, Stuck) and res.reason.startswith("ill-formed")
