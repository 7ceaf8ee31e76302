"""hopad's records are named tuples or slotted classes.  A value record
compares by value and hashes as the tuple of its fields, the hash of the
frozen dataclass it replaces, so set and dict orders keep.  A monoid
equals only itself.  Runs, lineage runs and typing tables accept weak
references, as the benchmark's reuse guard needs."""

import pathlib
import weakref

import pytest

from hopad.core import Automaton, automaton_diagnostics, initial_configuration, top_stack
from hopad.harness import (
    CLASSIFICATION_EXAMPLE,
    EnumerationSpace,
    classification_example_run,
    run_suites,
)
from hopad.lineage import classification_table, instrument_lineage
from hopad.monoid import presence_monoid
from hopad.srcsets import compute_src
from hopad.text import parse_automaton_text
from hopad.typesys import StartRuns, saturate_level0, type_of_stack
from hopad.ulang import UMembershipReport

GOLDEN = pathlib.Path(__file__).parent / "golden"


def table_of(run):
    return saturate_level0(run.automaton, presence_monoid(run.automaton.input_alphabet))


def src_result():
    run = classification_example_run().subrun(3, 5)
    return compute_src(run, 1, StartRuns(run.at(0), table_of(run), [run], {}))


def stack_typing():
    run = classification_example_run()
    return type_of_stack(run.last.stack, 1, table_of(run))


def diagnostic():
    aut = parse_automaton_text(CLASSIFICATION_EXAMPLE).automaton
    return automaton_diagnostics(aut._replace(initial_state="nowhere"))[0]


# record -> (a fresh instance, its fields in the order its dataclass hashed them)
RECORDS = {
    "Automaton": (
        lambda: parse_automaton_text(CLASSIFICATION_EXAMPLE).automaton,
        ("level", "input_alphabet", "stack_alphabet", "initial_symbol", "states",
         "initial_state", "accepting", "transitions", "collapsible"),
    ),
    "Diagnostic": (diagnostic, ("rule", "detail")),
    "UMembershipReport": (lambda: UMembershipReport(False, "dollar-count"), ("member", "failed_condition")),
    "Goal": (lambda: table_of(classification_example_run()).universe.goal(0), ("m", "r", "sigmas", "q")),
    "RunDescriptor": (
        lambda: table_of(classification_example_run()).universe.desc(1),
        ("level", "psis", "state", "goal"),
    ),
    "StackTyping": (stack_typing, ("level", "k", "typings")),
    "SaturationStats": (
        lambda: table_of(classification_example_run()).stats,
        ("passes", "descriptors", "goals", "table_pairs"),
    ),
    "SuiteReport": (lambda: run_suites(["monoid-laws"]), ("lines", "hard_total")),
    "SrcResult": (src_result, ("k", "final", "sets", "provenance")),
    "ClassificationTable": (
        lambda: classification_table(instrument_lineage(classification_example_run())),
        ("length", "level", "upper", "returns"),
    ),
    "Scenario": (
        lambda: parse_automaton_text((GOLDEN / "u-machine.aut").read_text()),
        ("automaton", "start"),
    ),
    "EnumerationSpace": (
        lambda: EnumerationSpace(*parse_automaton_text(CLASSIFICATION_EXAMPLE), 2, (0, 1)),
        ("automaton", "start", "max_steps", "normalized_only", "values"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_records_compare_and_hash_by_their_fields(name):
    make, fields = RECORDS[name]
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first == second and first is not second
    values = tuple(getattr(first, f) for f in fields)
    try:
        expected = hash(values)
    except TypeError:  # a field is a dict: unhashable, as it was
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected


def test_a_monoid_equals_only_itself():
    first, second = presence_monoid("ab"), presence_monoid("ab")
    assert (first.carrier, first.table) == (second.carrier, second.table)
    assert first == first and first != second and len({first, second}) == 2


def test_runs_lineage_runs_and_type_tables_accept_weak_references():
    run = classification_example_run()
    for obj in (run, instrument_lineage(run), table_of(run)):
        assert weakref.ref(obj)() is obj


def test_a_replaced_automaton_builds_its_own_table_and_start():
    aut = parse_automaton_text(CLASSIFICATION_EXAMPLE).automaton
    table, first = aut.rule_table, initial_configuration(aut)
    renamed = aut._replace(initial_symbol="Z")
    assert type(renamed) is Automaton and not vars(renamed)  # nothing kept from `aut`
    assert renamed.rule_table == table and renamed.rule_table is not table
    start = initial_configuration(renamed)
    assert start.state == first.state and top_stack(start.stack, aut.level, 0).symbol == "Z"
    assert initial_configuration(aut) is first
