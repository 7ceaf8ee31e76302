"""The mirrored-bracket separating data language and its level-2 recognizer.

A data word over {[, ], $} belongs to the language when it contains
exactly one dollar, removing the dollar leaves a well-formed bracket
expression, and the suffix after the dollar is symmetric to the
length-matched prefix: the i-th letter from the beginning and the i-th
from the end carry the same data value and form a [/] pair.

``U_RECOGNIZER`` is the collapsible level-2 machine for it, as text in
the format of `hopad.text`, and ``build_u_recognizer`` parses it: the
data values of the brackets read so far are frozen, one per 1-stack
copy; on the dollar the collapse link of the topmost count marker jumps
back to the last unmatched opening bracket, and the mirrored suffix is
consumed by pop^2 steps whose pop-read semantics enforce data equality.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Automaton, DataWord
from .text import parse_automaton_text

ALPHABET = ("[", "]", "$")


class UMembershipReport(NamedTuple):
    member: bool
    failed_condition: str  # dollar-count | bracket-wellformedness | suffix-symmetry | none


_DOLLAR_COUNT = UMembershipReport(False, "dollar-count")
_BRACKET_WELLFORMEDNESS = UMembershipReport(False, "bracket-wellformedness")
_SUFFIX_SYMMETRY = UMembershipReport(False, "suffix-symmetry")
_MEMBER = UMembershipReport(True, "none")


def in_u(word: DataWord) -> UMembershipReport:
    """Decide membership directly from the three defining conditions,
    reported in that order, in one pass over the word.

    The mirrored prefix is the one ending on the last opening bracket
    left unmatched before the dollar (empty when all are matched), so
    the suffix after the dollar is uniquely determined by the rest of
    the word; the suffix must have exactly that length and match it
    position by position.  A letter outside the alphabet raises
    ValueError wherever it stands.
    """
    dollars = dollar = depth = 0
    wellformed = True
    opens = []  # positions of the opening brackets unmatched so far, before the dollar
    for i, (a, _) in enumerate(word):
        if a == "[":
            depth += 1
            if not dollars:
                opens.append(i)
        elif a == "]":
            depth -= 1
            if depth < 0:
                wellformed = False
            elif wellformed and not dollars:
                opens.pop()
        elif a == "$":
            dollars += 1
            dollar = i
        else:
            raise ValueError(f"letter {a!r} outside the {{[,],$}} alphabet")
    if dollars != 1:
        return _DOLLAR_COUNT
    if not wellformed or depth:
        return _BRACKET_WELLFORMEDNESS
    prefix_len = opens[-1] + 1 if opens else 0
    last = len(word) - 1
    if last - dollar != prefix_len:
        return _SUFFIX_SYMMETRY
    for i in range(prefix_len):
        ai, vi = word[i]
        aj, vj = word[last - i]
        if vi != vj or ai == aj:  # two brackets: they pair up iff they differ
            return _SUFFIX_SYMMETRY
    return _MEMBER


U_RECOGNIZER = """\
# The collapsible level-2 recognizer.
#
# Stack symbols: the brackets themselves, X marking 1-stack bottoms and
# Y counting open brackets.  Per input bracket a: push^1(a) (recording
# the data value), push^2 and pop^1 (freezing the record), then
# push^1(Y) for an opening and pop^1 for a closing bracket.  A closing
# bracket on topmost X rejects.  On the dollar: topmost X accepts
# immediately; otherwise collapse^2 on the topmost Y exposes the last
# unmatched opening bracket and each further pop^2 reads one mirrored
# letter, data equality enforced by the pop.
level 2
collapsible true
input-alphabet [ ] $
stack-alphabet X Y [ ]
initial-state start
initial-symbol X
accepting accept
# bootstrap: split off the working copy of the bottom 1-stack
trans start X eps work push 2 X
# recording phase, four micro-steps per bracket
trans work X in [ copy-open push 1 [
trans work Y in [ copy-open push 1 [
trans work Y in ] copy-close push 1 ]
trans copy-open [ eps drop-open push 2 [
trans drop-open [ eps count-open pop 1
trans count-open X eps work push 1 Y
trans count-open Y eps work push 1 Y
trans copy-close ] eps drop-close push 2 ]
trans drop-close ] eps uncount-close pop 1
trans uncount-close Y eps work pop 1
# dollar: balanced word accepts at once, otherwise jump back and mirror
trans work X in $ accept push 1 X
trans work Y in $ mirror collapse 2
trans mirror [ in ] mirror pop 2
trans mirror ] in [ mirror pop 2
trans mirror X eps accept push 1 X
"""


def build_u_recognizer() -> Automaton:
    """The recognizer, parsed from `U_RECOGNIZER` on each call."""
    return parse_automaton_text(U_RECOGNIZER).automaton


GEN_W_MAX_K = 6
GEN_W_MAX_LEN = 1_000_000


def gen_w(k: int, n_reps: int) -> str:
    """The bracket-word family w_0 = "[][", w_{k+1} = w_k^N ]^N [."""
    if k < 0 or k > GEN_W_MAX_K:
        raise ValueError(f"k must be in 0..{GEN_W_MAX_K}, got {k}")
    if n_reps < 1:
        raise ValueError(f"repetition count must be >= 1, got {n_reps}")
    size = 3
    for _ in range(k):
        size = n_reps * size + n_reps + 1
        if size > GEN_W_MAX_LEN:
            raise ValueError(f"w_{k} with N={n_reps} exceeds the {GEN_W_MAX_LEN} length cap")
    w = "[]["
    for _ in range(k):
        w = w * n_reps + "]" * n_reps + "["
    return w


def decorate_distinct(word: str) -> DataWord:
    """Give the i-th letter the data value i (1-based, never 0)."""
    return tuple((a, i) for i, a in enumerate(word, start=1))
