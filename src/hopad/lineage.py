"""Copy-lineage instrumentation of runs and run classification.

Every nested stack occurrence of every configuration of a run gets a
unique id, and ids count in creation order: an id was created after step
t exactly when it is larger than the last id created by step t.
Operations of level j leave the ids of all enclosing stacks (levels >=
j) untouched; a push duplicates the topmost (j-1)-stack with fresh ids,
each linked copy-of its source, and the rewritten top atom of the
duplicate is linked copy-of the atom it replaces; a pop or collapse keeps
the (j-1)-stacks the concrete step kept, destroys the ids of the others
and creates none.  Snapshots share ``core.Node`` chains of children, so
a step costs O(level) plus the (j-1)-stack a push copies.  The copy-of
links form a forest, and the classifiers below ask reachability in it:

* a run is k-upper when the final topmost k-stack, traced backward
  through the forest, is the initial topmost k-stack;
* a run is a k-return when the final topmost (k-1)-stack traces back to
  the initial *second* topmost (k-1)-stack and the traced occurrence is
  never the topmost (k-1)-stack before the last step, which exposes it.

These are the definitions.  ``classification_table`` answers them for
every span of a run of m steps at level n at once: it keeps each cell as
an int bitmask of start indices (``Starts``), folded per k along the
copy-of forest in O(m * n + ids) steps of Python and O(m^2 * n) bits of
int arithmetic, so a 3,001-step run takes tens of milliseconds and a few
megabytes.  ``decompose_return`` and ``decompose_upper`` characterize
collapse-free runs by recursion on the operation sequence; ``derivation``
keeps their trees in a memo the caller owns, through which the soundness
checks classify and the classifier-equivalence suite tests them against
the definitions.
"""

from __future__ import annotations

from collections.abc import Iterator, Set
from itertools import compress
from typing import NamedTuple, Optional, Sequence

from .core import Node, Run, _node, top_stack


class LNode(NamedTuple):
    uid: int
    children: Optional[Node]  # bottom to top, shared by snapshots; None at level 0


class LineageRun:
    __slots__ = ("run", "snapshots", "parent", "born", "__weakref__")

    def __init__(
        self,
        run: Run,
        snapshots: tuple[LNode, ...],
        parent: Sequence[Optional[int]],
        born: Sequence[int],
    ):
        self.run = run
        self.snapshots = snapshots
        self.parent = parent  # id -> the id it copies, None for the start stack's
        self.born = born  # step t -> the last id created by step t


def _replace_top(node: LNode, depth: int, new: Node) -> LNode:
    """`node` with the children `depth` levels down its top path set to `new`;
    each rebuilt chain node keeps the old one's size object, as in core."""
    if depth == 0:
        return LNode(node.uid, new)
    kids = node.children
    return LNode(node.uid, _node(kids.below, _replace_top(kids.top, depth - 1, new), kids.size))


def _fresh(stack, level: int, parent: list) -> LNode:
    """`stack` with fresh ids in preorder, each allocated by appending to
    `parent`: the start stack as a core stack, whose ids copy None, or an
    LNode a push duplicates, each id linked to the id it duplicates."""
    copied = isinstance(stack, LNode)
    uid = len(parent)
    parent.append(stack.uid if copied else None)
    if level == 0:
        return LNode(uid, None)
    kids = None
    for child in stack.children if copied else stack:
        kids = Node(kids, _fresh(child, level - 1, parent))
    return LNode(uid, kids)


def instrument_lineage(run: Run) -> LineageRun:
    n = run.automaton.level
    parent: list[Optional[int]] = []
    snaps = [_fresh(run.at(0).stack, n, parent)]
    born = [len(parent) - 1]
    for tr, config in zip(run.transitions, run.configs[1:]):
        op = tr.op
        kids = _descend(snaps[-1], n - op.level).children
        if op.kind == "push":
            kids = Node(kids, _fresh(kids.top, op.level - 1, parent))
        else:  # pop or collapse: what the concrete step kept is a node of the chain
            keep = top_stack(config.stack, n, op.level).size
            while kids.size > keep:
                kids = kids.below
        snaps.append(_replace_top(snaps[-1], n - op.level, kids))
        born.append(len(parent) - 1)
    return LineageRun(run, tuple(snaps), parent, born)


def _descend(node: LNode, times: int) -> LNode:
    while times:  # `while`, as in core's descents
        node = node.children.top
        times -= 1
    return node


def _topmost_uid(lrun: LineageRun, t: int, k: int) -> int:
    n = lrun.run.automaton.level
    return _descend(lrun.snapshots[t], n - k).uid


def _second_topmost_uid(lrun: LineageRun, t: int, k: int) -> Optional[int]:
    """Id of the second topmost k-stack, or None if the (k+1)-stack is small."""
    n = lrun.run.automaton.level
    below = _descend(lrun.snapshots[t], n - k - 1).children.below
    return None if below is None else below.top.uid


def _alive(lrun: LineageRun, uid: int, t: int) -> int:
    """The element of `uid`'s copy-of chain alive at time t: ids decrease
    along the chain, which ends at an id of the start stack."""
    born, parent = lrun.born[t], lrun.parent
    while uid > born:
        uid = parent[uid]
    return uid


def _check_level(run: Run, level: int, lowest: int) -> None:
    n = run.automaton.level
    if not lowest <= level <= n:
        raise ValueError(f"level {level} outside {lowest}..{n}")


def _check_span(run: Run, i: int, j: Optional[int]) -> int:
    """The span's end, the run's end if `j` is None, once [i..j] is in the run."""
    m = len(run)
    j = m if j is None else j
    if not 0 <= i <= j <= m:
        raise IndexError(f"span [{i}..{j}] out of range 0..{m}")
    return j


def is_k_upper(lrun: LineageRun, k: int, i: int = 0, j: Optional[int] = None) -> bool:
    _check_level(lrun.run, k, 0)
    j = _check_span(lrun.run, i, j)
    final = _topmost_uid(lrun, j, k)
    initial = _topmost_uid(lrun, i, k)
    return _alive(lrun, final, i) == initial


def is_k_return(lrun: LineageRun, k: int, i: int = 0, j: Optional[int] = None) -> bool:
    _check_level(lrun.run, k, 1)
    j = _check_span(lrun.run, i, j)
    if j <= i:
        return False
    second = _second_topmost_uid(lrun, i, k - 1)
    if second is None:  # topmost k-stack of size < 2
        return False
    final = _topmost_uid(lrun, j, k - 1)
    if _alive(lrun, final, i) != second:
        return False
    for t in range(i, j):
        if _alive(lrun, final, t) == _topmost_uid(lrun, t, k - 1):
            return False
    return True


def remark_k_return(lrun: LineageRun, k: int, i: int = 0, j: Optional[int] = None) -> bool:
    """The one-line rephrasing: the final topmost k-stack is the traced
    initial topmost k-stack minus its top, removed in the last step.

    Equivalent to ``is_k_return`` on collapse-free runs only: a final
    collapse may expose the traced stack while removing several
    (k-1)-stacks at once, which this single-removal reading rejects."""
    _check_level(lrun.run, k, 1)
    j = _check_span(lrun.run, i, j)
    n = lrun.run.automaton.level
    if j <= i:
        return False
    last = lrun.run.transitions[j - 1].op
    if last.level != k or last.kind == "push":
        return False
    # a pop^k or collapse^k leaves a prefix of the children before it, so
    # the lengths and one trace per earlier child cover the removed top
    top_i = _descend(lrun.snapshots[i], n - k)
    top_j = _descend(lrun.snapshots[j], n - k)
    before = _descend(lrun.snapshots[j - 1], n - k)
    if _alive(lrun, top_j.uid, i) != top_i.uid:
        return False
    if not len(top_j.children) + 1 == len(before.children) == len(top_i.children):
        return False
    return all(_alive(lrun, c.uid, i) == c0.uid for c, c0 in zip(before.children, top_i.children))


class Starts(Set):
    """One column of the classification table: a set of start indices
    held as an int whose bit i is set iff i is a member.  Iteration is
    ascending, and it equals any set with the same members."""

    __slots__ = ("bits",)

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def __contains__(self, i) -> bool:
        return isinstance(i, int) and i >= 0 and self.bits >> i & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        # the binary digits, lowest first, as bytes 0 and 1 to select by
        digits = bin(self.bits)[:1:-1].encode().translate(_DIGIT_BYTES)
        return compress(range(len(digits)), digits)

    def __eq__(self, other) -> bool:
        if isinstance(other, Starts):
            return self.bits == other.bits
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return "Starts({" + ", ".join(map(str, self)) + "})"

    @classmethod
    def _from_iterable(cls, members) -> frozenset:
        return frozenset(members)  # the results of &, |, - and ^


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class ClassificationTable(NamedTuple):
    """Per (j, k): the starts {i : R[i..j] is k-upper} and {i : ... k-return}."""

    length: int
    level: int
    upper: dict[tuple[int, int], Starts]
    returns: dict[tuple[int, int], Starts]


def classification_table(lrun: LineageRun) -> ClassificationTable:
    """Every cell of ``is_k_upper`` and ``is_k_return`` for a run of m
    steps at level n, folded per k by ``_spans``: O(m * n + ids) steps of
    Python and O(m^2 * n) bits of int arithmetic, where asking the two
    cell by cell costs O(m^3 * n)."""
    n = lrun.run.automaton.level
    upper = {}
    returns = {}
    for k in range(n + 1):
        for j, (ups, rets) in enumerate(_spans(lrun, k)):
            upper[(j, k)] = Starts(ups)
            if k < n:
                returns[(j, k + 1)] = Starts(rets)
    return ClassificationTable(len(lrun.run), n, upper, returns)


def _spans(lrun: LineageRun, k: int) -> Iterator[tuple[int, int]]:
    """Per end j = 0..m, the bitmasks of the starts i at which R[i..j] is
    k-upper and at which it is a (k+1)-return (0 when k = n).

    rep(t), the element alive at t of the copy-of chain of the topmost
    k-stack at j, decides both: R[i..j] is k-upper iff rep(i) is the
    topmost k-stack at i, and a (k+1)-return iff rep(i) is the second
    topmost k-stack at i and rep(t) is not the topmost at any t in
    [i, j).  A k-stack keeps its place among the living ones and a copy
    is made above its source, so no older element of the chain is the
    topmost k-stack at t, nor the second topmost unless rep(t) is the
    topmost.  An id's column, the times at which an element of its chain
    is the topmost (and the second topmost) k-stack, is therefore its
    own times OR-ed with its copy-of parent's column.  Every id is folded
    once, and each cell is a mask and a shift of its top's column."""
    n, parent = lrun.run.automaton.level, lrun.parent
    tops = [_topmost_uid(lrun, t, k) for t in range(len(lrun.born))]
    own_top: dict[int, int] = {}
    own_second: dict[int, int] = {}
    for t, uid in enumerate(tops):
        own_top[uid] = own_top.get(uid, 0) | 1 << t
        if k < n and (second := _second_topmost_uid(lrun, t, k)) is not None:
            own_second[second] = own_second.get(second, 0) | 1 << t
    columns: dict[Optional[int], tuple[int, int]] = {None: (0, 0)}  # the start stack's ids copy None
    for j, uid in enumerate(tops):
        chain = []
        while uid not in columns:
            chain.append(uid)
            uid = parent[uid]
        ups, seconds = columns[uid]
        for uid in reversed(chain):
            ups |= own_top.get(uid, 0)
            seconds |= own_second.get(uid, 0)
            columns[uid] = ups, seconds
        exposed = (ups & ((1 << j) - 1)).bit_length()  # 1 + the last t < j with rep(t) topmost
        yield ups & ((2 << j) - 1), (seconds & ((1 << j) - 1)) >> exposed << exposed


def is_normalized(run: Run) -> bool:
    """Every letter-reading push step reads the distinguished value 0."""
    for label, tr in zip(run.labels, run.transitions):
        if label[0] is not None and tr.op.kind == "push" and label[1] != 0:
            return False
    return True


class DecompositionTree(NamedTuple):
    shape: str  # "return" | "upper"
    case: int
    level: int
    span: tuple[int, int]
    split: Optional[int] = None
    children: tuple["DecompositionTree", ...] = ()

    def render(self) -> str:
        """One line per node of this tree's shape, two spaces deeper per
        level from the root's two; the return derivation under an upper
        case 3 is left out.  The walk keeps its own stack."""
        lines = []
        todo = [(self, "  ")]
        while todo:
            node, indent = todo.pop()
            line = f"{indent}case {node.case} [{node.span[0]}..{node.span[1]}]"
            if node.split is not None:
                line += f" split {node.split}"
            lines.append(line)
            todo += [(c, indent + "  ") for c in reversed(node.children) if c.shape == node.shape]
        return "\n".join(lines)


def decompose_return(run: Run, r: int) -> Optional[DecompositionTree]:
    """Derivation of r-return-ness by recursion on the operation sequence.

    Case 1: a single pop^r step.  Case 2: a leading pop^k (k < r) or
    push^k (k != r) followed by an r-return.  Case 3: a leading push^k
    (k >= r) followed by a k-return composed with an r-return.  Collapse
    steps admit no case; the characterization covers collapse-free runs.
    """
    _check_level(run, r, 1)
    ops = run.operations()
    return _derive(ops, {}, "return", r, 0, len(ops))


def decompose_upper(run: Run, k: int) -> Optional[DecompositionTree]:
    """Derivation of k-upper-ness by recursion on the operation sequence.

    Case 1: only operations of level at most k (the empty run included).
    Case 2: a single push^r, r >= k+1.  Case 3: a leading push^r
    (r >= k+1) followed by an r-return.  Case 4: a composition of two
    nonempty k-upper runs.
    """
    _check_level(run, k, 0)
    ops = run.operations()
    return _derive(ops, {}, "upper", k, 0, len(ops))


def derivation(
    memo: dict, shape: str, run: Run, ops: tuple, level: int
) -> Optional[DecompositionTree]:
    """The run's `level`-upper or `level`-return derivation (`shape`), or
    None.  It reads only the run's operations `ops`, so `memo` keeps it by
    (shape, ops, automaton level, level) for runs of any start or machine
    (a level above the machine raises); a miss calls this module's
    ``decompose_*`` by name, so a wrapper set on them sees every miss."""
    key = (shape, ops, run.automaton.level, level)
    if key not in memo:
        memo[key] = (decompose_upper if shape == "upper" else decompose_return)(run, level)
    return memo[key]


def _derive(
    ops: tuple, memo: dict, shape: str, level: int, i: int, j: int
) -> Optional[DecompositionTree]:
    """The derivation of ops[i:j] as a `level`-upper or `level`-return run
    (`shape`), or None; `memo` holds each (shape, level, i, j) searched.
    Cases are tried in order, and a composition takes its leftmost split:
    upper case 4 splits into two parts of the same shape and level,
    return case 3 into a return at the level of the leading push (after
    it) and a `level`-return."""
    key = (shape, level, i, j)
    if key in memo:
        return memo[key]
    tree = composition = None  # composition: (case, level of the left part, its start)
    first = ops[i] if i < j else None
    if shape == "upper":
        if all(op.level <= level for op in ops[i:j]):
            tree = DecompositionTree(shape, 1, level, (i, j))
        elif first.kind == "push" and first.level > level:
            if j - i == 1:
                tree = DecompositionTree(shape, 2, level, (i, j))
            elif (sub := _derive(ops, memo, "return", first.level, i + 1, j)) is not None:
                tree = DecompositionTree(shape, 3, level, (i, j), children=(sub,))
        composition = (4, level, i)
    elif first is not None:
        if j - i == 1 and first.kind == "pop" and first.level == level:
            tree = DecompositionTree(shape, 1, level, (i, j))
        elif (first.kind == "pop" and first.level < level) or (
            first.kind == "push" and first.level != level
        ):
            if (sub := _derive(ops, memo, shape, level, i + 1, j)) is not None:
                tree = DecompositionTree(shape, 2, level, (i, j), children=(sub,))
        if first.kind == "push" and first.level >= level:
            composition = (3, first.level, i + 1)
    if tree is None and composition is not None:
        case, left_level, start = composition
        for m in range(start + 1, j):
            left = _derive(ops, memo, shape, left_level, start, m)
            if left is not None and (right := _derive(ops, memo, shape, level, m, j)) is not None:
                tree = DecompositionTree(shape, case, level, (i, j), m, (left, right))
                break
    memo[key] = tree
    return tree
