"""Command-line entry point: the commands, on files in the formats of
`hopad.text`, and exit code 2 for a malformed input or argument."""

from __future__ import annotations

import argparse
import os
import sys

from .core import DEFAULT_EPS_BUDGET, Atom, Run, Stack, execute_word
from .harness import SUITE_NAMES, run_suites
from .lineage import classification_table, instrument_lineage
from .monoid import monoid_by_name
from .srcsets import compute_src
from .text import (
    CliError,
    Scenario,
    _is_number,
    _render_stack,
    format_automaton,
    format_data_word,
    parse_automaton_text,
    parse_data_word,
    render_atom,
    render_stack,
)
from .typesys import ResourceCapExceeded, StartRuns, saturate_level0
from .ulang import build_u_recognizer, decorate_distinct, gen_w, in_u


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return parse_automaton_text(text)


# ---------------------------------------------------------------------------
# run construction for scenario commands


def drive_run(scenario: Scenario, word, eps_budget: int) -> Run:
    """Step from the scenario start, interleaving epsilon steps and the
    given letters, until the word is exhausted and no step applies; the
    run goes on past accepting states."""
    aut = scenario.automaton
    endless = aut._replace(accepting=frozenset())  # so execute_word never accepts
    run = execute_word(endless, word, eps_budget, scenario.start).run
    return Run(aut, run.configs, run.labels, run.transitions)


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    aut = load_scenario(args.file).automaton
    print(
        f"ok: level {aut.level}, {len(aut.states)} states, "
        f"{len(aut.transitions)} transitions, "
        f"{'collapsible' if aut.collapsible else 'non-collapsible'}"
    )
    return 0


def _dump_run(run: Run) -> None:
    level = run.automaton.level
    print(f"i=0 state={run.at(0).state} op=- read=-")
    print(f"  {render_stack(run.at(0).stack, level)}")
    for i, (label, tr) in enumerate(zip(run.labels, run.transitions), start=1):
        read = "eps" if label[0] is None else f"{label[0]}@{label[1]}"
        print(f"i={i} state={run.at(i).state} op={tr.op} read={read}")
        print(f"  {render_stack(run.at(i).stack, level)}")


def _cmd_run(args) -> int:
    scenario = load_scenario(args.file)
    word = parse_data_word(args.word)
    if scenario.start is None:
        outcome = execute_word(scenario.automaton, word, args.eps_budget)
        run = outcome.run
        verdict = outcome.kind if outcome.reason is None else f"{outcome.kind} ({outcome.reason})"
    else:
        run = drive_run(scenario, word, args.eps_budget)
        verdict = f"stopped in state {run.last.state} after {len(run)} steps"
    if args.dump:
        _dump_run(run)
    print(verdict)
    return 0


def _cmd_accept(args) -> int:
    scenario = load_scenario(args.file)
    word = parse_data_word(args.word)
    outcome = execute_word(scenario.automaton, word, args.eps_budget, scenario.start)
    print(outcome.kind)
    return 0 if outcome.accepted else 1


def _cmd_classify(args) -> int:
    scenario = load_scenario(args.file)
    word = parse_data_word(args.word)
    run = drive_run(scenario, word, args.eps_budget)
    lo = args.span_from if args.span_from is not None else 0
    hi = args.span_to if args.span_to is not None else len(run)
    if not 0 <= lo <= hi <= len(run):
        raise CliError(f"span {lo}..{hi} outside 0..{len(run)}")
    run = run.subrun(lo, hi)
    table = classification_table(instrument_lineage(run))
    n = run.automaton.level
    uppers, returns = range(n + 1), range(1, n + 1)
    columns = [(table.upper, k) for k in uppers] + [(table.returns, k) for k in returns]
    ends = range(len(run) + 1)
    # the rows are O(m^2) text, so the widths come from lengths alone and
    # each row is printed as it is rendered
    header = ["j", "stack"] + [f"{k}-upper" for k in uppers] + [f"{k}-return" for k in returns]
    inner: dict[int, int] = {}
    widths = [len(str(len(run))), max(_stack_width(run.at(j).stack, n, inner) for j in ends)]
    widths += [max(_set_width(cells[(j, k)].bits) for j in ends) for cells, k in columns]
    widths = [max(w, len(name)) for w, name in zip(widths, header)]

    def show(row):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    show(header)
    atoms: dict[Atom, str] = {}
    for j in ends:
        stack_text = _render_stack(run.at(j).stack, n, atoms)
        show([str(j), stack_text] + [_render_set(cells[(j, k)]) for cells, k in columns])
    return 0


def _stack_width(stack: Stack, level: int, inner: dict[int, int]) -> int:
    """``len(render_stack(stack, level))``.  A node's elements are those
    of the node below it and its top, so `inner` keeps, by node
    identity, the length of each node's elements joined by spaces: every
    node is measured once, while the stacks it is in are alive."""
    if level == 0:
        return len(render_atom(stack))
    chain, node = [], stack
    while node is not None and id(node) not in inner:
        chain.append(node)
        node = node.below
    length = -1 if node is None else inner[id(node)]  # -1: no space before the bottom element
    for node in reversed(chain):
        length = inner[id(node)] = length + 1 + _stack_width(node.top, level - 1, inner)
    return length + 2


def _render_set(starts) -> str:
    return "{" + ",".join(map(str, starts)) + "}"  # a column iterates in ascending order


def _set_width(bits: int) -> int:
    """``len(_render_set(Starts(bits)))``: the braces, a comma between
    members, and the members' digits, one popcount per band of members
    with the same number of decimal digits."""
    width = 2 + max(bits.bit_count() - 1, 0)
    low, high, digits = 0, 10, 1
    while bits >> low:
        width += digits * ((bits >> low) & ((1 << (high - low)) - 1)).bit_count()
        low, high, digits = high, high * 10, digits + 1
    return width


def _table_for(args, scenario):
    aut = scenario.automaton
    monoid = monoid_by_name(args.monoid, sorted(aut.input_alphabet))
    try:
        return saturate_level0(aut, monoid)
    except (ValueError, ResourceCapExceeded) as exc:
        raise CliError(str(exc)) from None


def _cmd_types(args) -> int:
    scenario = load_scenario(args.file)
    table = _table_for(args, scenario)
    uni = table.universe
    for key in sorted(table.entries):
        entry = table.entries[key]
        if not entry:
            continue
        symbol, has_data = key
        print(f"entry {symbol} {'data' if has_data else 'no-data'}")
        for did in sorted(entry):
            mark = " idv" if entry[did] else ""
            print(f"  {did} {uni.render(did)}{mark}")
    stats = table.stats
    print(
        f"stats descriptors={stats.descriptors} goals={stats.goals} "
        f"pairs={stats.table_pairs} passes={stats.passes}"
    )
    return 0


def _cmd_src(args) -> int:
    scenario = load_scenario(args.file)
    word = parse_data_word(args.word)
    run = drive_run(scenario, word, args.eps_budget)
    k = args.k
    n = scenario.automaton.level
    if not 0 <= k <= n:
        raise CliError(f"--k {k} outside 0..{n}")
    table = _table_for(args, scenario)  # rejects collapse, which no derivation covers
    try:
        result = compute_src(run, k, StartRuns(run.at(0), table, [run], {}))
    except ValueError as exc:  # the run is not k-upper
        raise CliError(str(exc)) from None
    except RecursionError:  # the derivation search recurses with the run length
        raise CliError(f"a run of {len(run)} steps is too long to derive") from None
    uni = table.universe
    for i in range(k + 1, n + 1):
        ids = sorted(result.sets.get(i, ()))
        print(f"src^{i} =", "{" + ", ".join(uni.render(x) for x in ids) + "}")
    print("derivation:")
    print(result.provenance.render())
    return 0


def _cmd_u_check(args) -> int:
    try:
        report = in_u(parse_data_word(args.word))
    except ValueError as exc:  # a letter outside [ ] $
        raise CliError(str(exc)) from None
    print("member" if report.member else f"non-member ({report.failed_condition})")
    return 0 if report.member else 1


def _cmd_u_machine(args) -> int:
    sys.stdout.write(format_automaton(build_u_recognizer()))
    return 0


def _cmd_gen_word(args) -> int:
    try:
        word = gen_w(args.k, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.decorate:
        print(format_data_word(decorate_distinct(word)))
    else:
        print(word)
    return 0


def _cmd_verify(args) -> int:
    report = run_suites(args.suite, seed=args.seed, max_steps=args.max_steps)
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


def _integer(text: str) -> int:
    """An ASCII integer, maybe negative; `int` also reads `٣`, `1_0` and ` 1`."""
    if not _is_number(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(text)


def _at_least(low: int):
    def parse(text: str) -> int:
        if _integer(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="hopad",
        description="higher-order pushdown automata over data words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--eps-budget", type=_at_least(0), default=DEFAULT_EPS_BUDGET)
    monoid = argparse.ArgumentParser(add_help=False)
    monoid.add_argument("--monoid", default="shape", choices=("shape", "trivial", "presence"))

    p = add("validate", _cmd_validate, help="check an automaton file")
    p.add_argument("file")

    for name, fn in (("run", _cmd_run), ("accept", _cmd_accept)):
        p = add(name, fn, parents=[budget], help=f"{name} a data word on an automaton")
        p.add_argument("file")
        p.add_argument("--word", required=(name == "accept"), default="")
        if name == "run":
            p.add_argument("--dump", action="store_true")

    p = add("classify", _cmd_classify, parents=[budget], help="print the per-subrun classification grid")
    p.add_argument("file")
    p.add_argument("--word", default="")
    p.add_argument("--from", dest="span_from", type=_integer, default=None)
    p.add_argument("--to", dest="span_to", type=_integer, default=None)

    p = add("types", _cmd_types, parents=[monoid], help="print the saturated level-0 descriptor table")
    p.add_argument("file")

    p = add("src", _cmd_src, parents=[budget, monoid], help="print source sets of the driven run")
    p.add_argument("file")
    p.add_argument("--word", default="")
    p.add_argument("--k", type=_integer, default=0)

    p = add("u-check", _cmd_u_check, help="membership in the bracket-mirror language")
    p.add_argument("--word", required=True)

    add("u-machine", _cmd_u_machine, help="emit the bracket-mirror recognizer")

    p = add("gen-word", _cmd_gen_word, help="emit a word of the nested bracket family")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--n", type=_integer, default=2)
    p.add_argument("--decorate", action="store_true", help="attach distinct data values")

    p = add("verify", _cmd_verify, help="run the verification suites")
    p.add_argument("--suite", action="append", choices=SUITE_NAMES)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--max-steps", type=_at_least(1), default=None)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:  # the reader went away, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
