"""The renaming property: an injective renaming of data values, applied to
the word and to the start stack, preserves acceptance, the classification
table and the stack typings, up to that renaming."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopad.core import Atom, Configuration, execute_word, from_nested, stack_values, to_nested
from hopad.harness import EXCURSION, _near_member_words, u_fragment_corpus
from hopad.lineage import classification_table, instrument_lineage
from hopad.monoid import presence_monoid, shape_monoid
from hopad.text import parse_automaton_text
from hopad.typesys import saturate_level0, type_of_stack
from hopad.ulang import build_u_recognizer

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
RENAMED_RANGE = 40  # renamings are injections of 0..39 into itself


def _setups():
    """(automaton, start configuration, type table or None for collapse)."""
    u = build_u_recognizer()
    out = [(u, None, None)]
    frag, cfgs = u_fragment_corpus()
    frag_table = saturate_level0(frag, shape_monoid())
    out += [(frag, cfg, frag_table) for cfg in cfgs]
    exc, start = parse_automaton_text(EXCURSION)
    out.append((exc, start, saturate_level0(exc, presence_monoid(exc.input_alphabet))))
    return out


SETUPS = _setups()


def rename_nested(node, level, f):
    if level == 0:
        return node if node.data is None else Atom(node.symbol, f(node.data), node.links)
    return tuple(rename_nested(child, level - 1, f) for child in node)


@st.composite
def renaming_cases(draw):
    # the u recognizer (setup 0) or one of the typed setups
    index = draw(st.one_of(st.just(0), st.integers(1, len(SETUPS) - 1)))
    aut, cfg, table = SETUPS[index]
    if cfg is None:  # the u recognizer: near-members, so that some accept
        word = _near_member_words(random.Random(draw(st.integers(0, 10**6))), 1, 12)[0]
    else:
        letters = sorted(aut.input_alphabet)
        values = sorted(stack_values(cfg.stack, aut.level) | {0, 1, 2})
        symbol = st.tuples(st.sampled_from(letters), st.sampled_from(values))
        word = tuple(draw(st.lists(symbol, max_size=8)))
    perm = draw(st.permutations(range(RENAMED_RANGE)))
    return aut, cfg, table, word, perm


# the excursion: copy, read the buried 7 inside the copy, drop it, pop the 9
EXCURSION_ACCEPTED = (
    *SETUPS[-1], (("c", 0), ("a", 7), ("b", 9)), tuple(reversed(range(RENAMED_RANGE)))
)


@PROPERTY
@given(renaming_cases())
@example(EXCURSION_ACCEPTED)
def test_renaming_data_values_preserves_runs(case):
    aut, cfg, table, word, perm = case
    f = perm.__getitem__
    renamed_cfg = None
    if cfg is not None:
        nested = rename_nested(to_nested(cfg.stack, aut.level), aut.level, f)
        renamed_cfg = Configuration(cfg.state, from_nested(nested, aut.level))
    before = execute_word(aut, word, start=cfg)
    after = execute_word(aut, tuple((a, f(d)) for a, d in word), start=renamed_cfg)
    assert (after.kind, after.accepted) == (before.kind, before.accepted)
    if case is EXCURSION_ACCEPTED:
        assert before.accepted
    run, renamed = before.run, after.run
    assert len(renamed) == len(run)
    assert classification_table(instrument_lineage(renamed)) == classification_table(
        instrument_lineage(run)
    )
    if table is None:
        return
    for t in range(len(run) + 1):
        for k in range(aut.level + 1):
            typed = type_of_stack(run.at(t).stack, k, table)
            expected = tuple(
                {did: frozenset(map(f, idv)) for did, idv in typing.items()}
                for typing in typed.typings
            )
            assert type_of_stack(renamed.at(t).stack, k, table).typings == expected
