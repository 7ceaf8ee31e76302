import itertools
import random
from collections import Counter

import pytest

from hopad.core import execute_word, top_stack
import hopad.ulang as ulang
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


def _in_u_by_definition(word):
    """(member, failed_condition) from the three defining conditions, each
    checked on a pass of its own: the oracle of the one-pass `in_u`."""
    letters = [a for a, _ in word]
    for a in letters:
        if a not in ulang.ALPHABET:
            raise ValueError(f"letter {a!r} outside the {{[,],$}} alphabet")
    if letters.count("$") != 1:
        return False, "dollar-count"
    depth = 0
    for a in letters:
        if a == "[":
            depth += 1
        elif a == "]":
            depth -= 1
            if depth < 0:
                return False, "bracket-wellformedness"
    if depth != 0:
        return False, "bracket-wellformedness"
    dollar = letters.index("$")
    open_positions = []
    for i, a in enumerate(letters[:dollar]):
        if a == "[":
            open_positions.append(i)
        elif a == "]":
            open_positions.pop()
    prefix_len = open_positions[-1] + 1 if open_positions else 0
    if len(word) - 1 - dollar != prefix_len:
        return False, "suffix-symmetry"
    for i in range(prefix_len):
        ai, vi = word[i]
        aj, vj = word[len(word) - 1 - i]
        if vi != vj or {ai, aj} != {"[", "]"}:
            return False, "suffix-symmetry"
    return True, "none"


def _near_member(rng, symbols, max_len):
    """A member of at most `max_len` letters with up to two letters redrawn."""
    body, depth = [], 0
    for _ in range(rng.randint(0, (max_len - 1) // 2)):
        a = "]" if depth and rng.random() < 0.45 else "["
        depth += 1 if a == "[" else -1
        body.append((a, rng.randint(0, 2)))
    opens = []
    for i, (a, _) in enumerate(body):
        if a == "[":
            opens.append(i)
        else:
            opens.pop()
    mirrored = opens[-1] + 1 if opens else 0
    word = body + [("$", rng.randint(0, 2))]
    word += [("]" if body[i][0] == "[" else "[", body[i][1]) for i in range(mirrored - 1, -1, -1)]
    for _ in range(rng.randint(0, 2)):
        word[rng.randrange(len(word))] = rng.choice(symbols)
    return tuple(word[:max_len])


def test_in_u_agrees_with_the_three_conditions():
    symbols = [(a, d) for a in ulang.ALPHABET for d in (0, 1, 2)]
    words = [word for n in range(6) for word in itertools.product(symbols, repeat=n)]
    rng = random.Random(18)
    for _ in range(10_000):
        words.append(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 14))))
        words.append(_near_member(rng, symbols, 14))
    seen = Counter()
    for word in words:
        report = in_u(word)
        assert (report.member, report.failed_condition) == _in_u_by_definition(word), word
        seen[report.failed_condition] += 1
    assert len(words) == 66_430 + 20_000 and max(map(len, words)) == 14
    assert set(seen) == {"none", "dollar-count", "bracket-wellformedness", "suffix-symmetry"}
    assert min(seen.values()) > 1000


@pytest.mark.parametrize(
    "text",
    ("x@1", "$@0 $@1 x@2", "]@1 x@2", "]@1 $@0 $@0 ]@2 x@3 [@4", "[@1 $@0 ]@1 x@1"),
)
def test_a_letter_outside_the_alphabet_raises_wherever_it_stands(text):
    # neither a second dollar nor an unmatched closing bracket ends the scan
    for decide in (in_u, _in_u_by_definition):
        with pytest.raises(ValueError, match="letter 'x' outside"):
            decide(w(text))


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
        assert top_stack(stack[i], 1, 0) == (letter, value, stack[i].top.links)
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
