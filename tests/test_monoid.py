import itertools

import pytest

from hopad.harness import SINGLE_POP
from hopad.monoid import (
    FiniteMonoid,
    classify_word,
    phi_of_run,
    presence_monoid,
    shape_monoid,
    trivial_monoid,
    validate_monoid,
)
from hopad.text import parse_automaton_text

LETTERS = ("[", "]", "$")


def expected_shape(word):
    if not word:
        return "ID"
    if word == ("]",):
        return "CLOSE"
    if word[0] == "$":
        return "DOLLAR"
    return "OTHER"


def test_shape_monoid_is_lawful():
    assert validate_monoid(shape_monoid()) == []


def test_trivial_monoid_is_lawful():
    assert validate_monoid(trivial_monoid("ab")) == []
    assert validate_monoid(presence_monoid("ab")) == []


def test_non_associative_table_is_reported():
    bad = FiniteMonoid(
        name="bad",
        carrier=("e", "x"),
        identity="e",
        table={
            ("e", "e"): "e",
            ("e", "x"): "x",
            ("x", "e"): "x",
            ("x", "x"): "e",
        },
        letter_map={"a": "x"},
    )
    # x*x = e is a group, still associative; break the identity law instead
    worse = FiniteMonoid(
        name="worse",
        carrier=("e", "x"),
        identity="e",
        table={**bad.table, ("e", "x"): "e"},
        letter_map={"a": "x"},
    )
    assert any("identity law" in msg for msg in validate_monoid(worse))


def test_the_monoids_are_pinned():
    shape = {
        ("ID", "ID"): "ID", ("ID", "CLOSE"): "CLOSE", ("ID", "DOLLAR"): "DOLLAR", ("ID", "OTHER"): "OTHER",
        ("CLOSE", "ID"): "CLOSE", ("CLOSE", "CLOSE"): "OTHER", ("CLOSE", "DOLLAR"): "OTHER",
        ("CLOSE", "OTHER"): "OTHER",
        ("DOLLAR", "ID"): "DOLLAR", ("DOLLAR", "CLOSE"): "DOLLAR", ("DOLLAR", "DOLLAR"): "DOLLAR",
        ("DOLLAR", "OTHER"): "DOLLAR",
        ("OTHER", "ID"): "OTHER", ("OTHER", "CLOSE"): "OTHER", ("OTHER", "DOLLAR"): "OTHER",
        ("OTHER", "OTHER"): "OTHER",
    }
    presence = {("ID", "ID"): "ID", ("ID", "SOME"): "SOME", ("SOME", "ID"): "SOME", ("SOME", "SOME"): "SOME"}
    for m, name, carrier, table, letter_map in (
        (shape_monoid(), "shape", ("ID", "CLOSE", "DOLLAR", "OTHER"), shape,
         {"]": "CLOSE", "$": "DOLLAR", "[": "OTHER"}),
        (trivial_monoid("ab"), "trivial", ("ID",), {("ID", "ID"): "ID"}, {"a": "ID", "b": "ID"}),
        (presence_monoid("ab"), "presence", ("ID", "SOME"), presence, {"a": "SOME", "b": "SOME"}),
    ):
        assert (m.name, m.carrier, m.identity) == (name, carrier, "ID")
        assert m.table == table and m.letter_map == letter_map


def test_generators_and_identity():
    m = shape_monoid()
    assert classify_word(m, "]") == "CLOSE"
    assert classify_word(m, "") == "ID"
    assert classify_word(m, "]]") == "OTHER"
    assert classify_word(m, "$][") == "DOLLAR"
    assert classify_word(m, "[$") == "OTHER"


def test_classification_matches_direct_shape_to_length_4():
    m = shape_monoid()
    for length in range(0, 5):
        for word in itertools.product(LETTERS, repeat=length):
            assert classify_word(m, word) == expected_shape(word)


def test_homomorphism_on_all_splits_to_length_4():
    m = shape_monoid()
    for length in range(0, 5):
        for word in itertools.product(LETTERS, repeat=length):
            for cut in range(length + 1):
                u, v = word[:cut], word[cut:]
                assert classify_word(m, word) == m.mul(
                    classify_word(m, u), classify_word(m, v)
                )


def test_unknown_letter_rejected():
    with pytest.raises(ValueError):
        classify_word(shape_monoid(), "x")


def test_phi_of_run():
    from hopad.core import Step, empty_run, extend_run, step

    aut, cfg = parse_automaton_text(SINGLE_POP)
    run = empty_run(aut, cfg)
    assert phi_of_run(presence_monoid(aut.input_alphabet), run) == "ID"
    res = step(aut, cfg, ("a", 5))
    assert isinstance(res, Step)
    run = extend_run(run, res)
    assert phi_of_run(presence_monoid(aut.input_alphabet), run) == "SOME"


def test_phi_multiplicative_over_composition():
    from hopad.core import execute_word
    from hopad.ulang import build_u_recognizer

    m = shape_monoid()
    aut = build_u_recognizer()
    word = (("[", 1), ("[", 2), ("]", 2), ("$", 0), ("]", 1))
    run = execute_word(aut, word).run
    for cut in range(len(run) + 1):
        left, right = run.subrun(0, cut), run.subrun(cut, len(run))
        assert phi_of_run(m, run) == m.mul(phi_of_run(m, left), phi_of_run(m, right))
        assert left.read_word + right.read_word == run.read_word


def test_phi_of_run_shape_classes():
    from hopad.core import execute_word
    from hopad.ulang import build_u_recognizer

    m = shape_monoid()
    aut = build_u_recognizer()
    run = execute_word(aut, (("]", 7),)).run  # rejected after reading nothing
    assert phi_of_run(m, run) == "ID"
    accepted = execute_word(aut, (("$", 0), )).run
    assert phi_of_run(m, accepted) == "DOLLAR"
    member = (("[", 1), ("$", 0), ("]", 1))
    assert phi_of_run(m, execute_word(aut, member).run) == "OTHER"
