import itertools
import random

import pytest

from hopad.core import execute_word, top_atom
from hopad import ulang
from hopad.ulang import build_u_recognizer, decorate_distinct, gen_w, in_u


def w(text):
    """Parse a compact 'letter@value letter@value' word."""
    out = []
    for token in text.split():
        letter, _, value = token.rpartition("@")
        out.append((letter, int(value)))
    return tuple(out)


def test_membership_examples():
    assert in_u(w("$@0")).member
    assert in_u(w("[@1 $@0 ]@1")).member
    assert in_u(w("[@1 [@2 ]@2 $@0 ]@1")).member
    assert not in_u(w("[@1 $@0 ]@2")).member
    assert in_u(w("[@1 $@0 ]@2")).failed_condition == "suffix-symmetry"
    assert in_u(w("[@1 ]@1")).failed_condition == "dollar-count"
    assert in_u(w("]@1 $@0")).failed_condition == "bracket-wellformedness"
    assert in_u(w("$@0 $@1")).failed_condition == "dollar-count"


def test_member_iff_no_failed_condition():
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(
            (rng.choice("[]$"), rng.randint(0, 2)) for _ in range(rng.randint(0, 7))
        )
        report = in_u(word)
        assert report.member == (report.failed_condition == "none")


def test_mirrored_prefix_ends_on_last_unmatched_open():
    # the suffix must mirror everything up to the last unmatched open,
    # matched pairs inside included
    assert in_u(w("[@0 ]@0 [@0 $@0 ]@0 [@0 ]@0")).member
    assert not in_u(w("[@0 ]@0 [@0 $@0 ]@0")).member
    # balanced before the dollar: only the empty suffix fits
    assert in_u(w("[@1 ]@2 $@0")).member
    assert not in_u(w("[@1 ]@1 $@0 ]@1")).member


def test_alphabet_guard():
    with pytest.raises(ValueError):
        in_u((("x", 1),))


def test_renaming_invariance():
    rng = random.Random(13)
    for _ in range(200):
        word = tuple(
            (rng.choice("[]$"), rng.randint(0, 3)) for _ in range(rng.randint(0, 7))
        )
        perm = {0: 0, 1: 2, 2: 3, 3: 1}
        renamed = tuple((a, perm[d]) for a, d in word)
        assert in_u(word).member == in_u(renamed).member


def test_recognizer_examples():
    aut = build_u_recognizer()
    assert execute_word(aut, w("[@1 $@0 ]@1")).accepted
    assert execute_word(aut, w("$@5")).accepted
    rejected = execute_word(aut, w("]@1 [@1 $@0"))
    assert rejected.kind == "rejected"


def test_recognizer_stack_probe():
    # after k letters: k+2 1-stacks; the (i+1)-th records letter i with
    # its data value; the working stack counts unmatched opens in Ys
    aut = build_u_recognizer()
    word = w("[@4 [@5 ]@5 [@6")
    out = execute_word(aut, word + w("$@0 ]@6 [@5 ]@5 ]@4"))
    assert out.accepted
    # locate the configuration right after the 4th letter is processed:
    # steps = 1 bootstrap + 4 per letter
    cfg = out.run.at(1 + 4 * len(word))
    stack = list(cfg.stack)  # the 1-stacks, bottom to top
    assert len(stack) == len(word) + 2
    opens = 0
    for i, (letter, value) in enumerate(word, start=1):
        assert top_atom(stack[i], 1) == (letter, value, stack[i].top.links)
        opens += 1 if letter == "[" else -1
        ys = sum(1 for a in stack[i + 1] if a.symbol == "Y")
        assert ys == opens
    assert out.run.read_word == word + w("$@0 ]@6 [@5 ]@5 ]@4")


def test_differential_small_exhaustive():
    aut = build_u_recognizer()
    symbols = [(a, d) for a in "[]$" for d in (0, 1, 2)]
    for length in range(0, 4):
        for word in itertools.product(symbols, repeat=length):
            assert execute_word(aut, word).accepted == in_u(word).member, word


def test_accepting_run_reads_the_word_exactly():
    aut = build_u_recognizer()
    members = [w("$@0"), w("[@1 $@0 ]@1"), w("[@1 [@2 ]@2 $@0 ]@1"), w("[@1 ]@2 $@0")]
    for word in members:
        out = execute_word(aut, word)
        assert out.accepted and out.run.read_word == word


def test_gen_w(monkeypatch):
    assert gen_w(0, 1) == "[]["
    assert gen_w(0, 5) == "[]["
    assert gen_w(1, 2) == "[][[][]]["
    for reps in (1, 2, 3):
        prev = gen_w(0, reps)
        for k in range(1, 5):
            cur = gen_w(k, reps)
            assert len(cur) == reps * len(prev) + reps + 1
            prev = cur
    with pytest.raises(ValueError):
        gen_w(9, 2)
    with pytest.raises(ValueError):
        gen_w(0, 0)
    monkeypatch.setattr(ulang, "GEN_W_MAX_LEN", 1000)
    with pytest.raises(ValueError, match="w_6 with N=3 exceeds the 1000 length cap"):
        gen_w(6, 3)


def test_decorate_distinct():
    assert decorate_distinct("[]") == (("[", 1), ("]", 2))
    assert decorate_distinct("") == ()
    assert all(d != 0 for _, d in decorate_distinct(gen_w(2, 2)))
