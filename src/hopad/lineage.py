"""Copy-lineage instrumentation of runs and run classification.

Every nested stack occurrence of every configuration of a run gets a
unique id, and ids count in creation order: an id was created after step
t exactly when it is larger than the last id created by step t.
Operations of level j leave the ids of all enclosing stacks (levels >=
j) untouched; a push duplicates the topmost (j-1)-stack with fresh ids,
each linked copy-of its source, and the rewritten top atom of the
duplicate is linked copy-of the atom it replaces; a pop or collapse keeps
the (j-1)-stacks the concrete step kept, destroys the ids of the others
and creates none.  The copy-of links form a forest, and the classifiers
below are reachability questions in it:

* a run is k-upper when the final topmost k-stack, traced backward
  through the forest, is the initial topmost k-stack;
* a run is a k-return when the final topmost (k-1)-stack traces back to
  the initial *second* topmost (k-1)-stack and the traced occurrence is
  never the topmost (k-1)-stack before the last step, which exposes it.

These are the definitions.  ``decompose_return`` and ``decompose_upper``
characterize collapse-free runs by recursion on the operation sequence;
the soundness checks classify with them, and the classifier-equivalence
suite tests them against the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .core import Run, top_stack


class LNode(NamedTuple):
    uid: int
    children: Optional[tuple]  # None at level 0


@dataclass(frozen=True)
class LineageRun:
    run: Run
    snapshots: tuple[LNode, ...]
    parent: Sequence[Optional[int]]  # id -> the id it copies, None for the start stack's
    born: Sequence[int]  # step t -> the last id created by step t


def _modify_top(node: LNode, depth: int, fn) -> LNode:
    if depth == 0:
        return fn(node)
    kids = node.children
    return LNode(node.uid, kids[:-1] + (_modify_top(kids[-1], depth - 1, fn),))


def _annotate(stack, level: int, parent: list) -> LNode:
    """The initial stack with fresh ids; appending to `parent` allocates one."""
    uid = len(parent)
    parent.append(None)
    if level == 0:
        return LNode(uid, None)
    return LNode(uid, tuple(_annotate(s, level - 1, parent) for s in stack))


def _copy(node: LNode, parent: list) -> LNode:
    """A duplicate of `node` with fresh ids, each linked copy-of the id it
    duplicates (the top atom to the atom it overwrites)."""
    uid = len(parent)
    parent.append(node.uid)
    if node.children is None:
        return LNode(uid, None)
    return LNode(uid, tuple(_copy(c, parent) for c in node.children))


def instrument_lineage(run: Run) -> LineageRun:
    n = run.automaton.level
    parent: list[Optional[int]] = []
    snaps = [_annotate(run.at(0).stack, n, parent)]
    born = [len(parent) - 1]
    for tr, config in zip(run.transitions, run.configs[1:]):
        op = tr.op
        if op.kind == "push":
            rewrite = lambda s: LNode(s.uid, s.children + (_copy(s.children[-1], parent),))  # noqa: E731
        else:  # pop or collapse: keep what the concrete step kept
            keep = top_stack(config.stack, n, op.level).size
            rewrite = lambda s: LNode(s.uid, s.children[:keep])  # noqa: E731
        snaps.append(_modify_top(snaps[-1], n - op.level, rewrite))
        born.append(len(parent) - 1)
    return LineageRun(run, tuple(snaps), parent, born)


def _descend(node: LNode, times: int) -> LNode:
    while times:  # `while`, as in core's descents
        node = node.children[-1]
        times -= 1
    return node


def _topmost_uid(lrun: LineageRun, t: int, k: int) -> int:
    n = lrun.run.automaton.level
    return _descend(lrun.snapshots[t], n - k).uid


def _second_topmost_uid(lrun: LineageRun, t: int, k: int) -> Optional[int]:
    """Id of the second topmost k-stack, or None if the (k+1)-stack is small."""
    n = lrun.run.automaton.level
    holder = _descend(lrun.snapshots[t], n - k - 1)
    if len(holder.children) < 2:
        return None
    return holder.children[-2].uid


def _alive(lrun: LineageRun, uid: int, t: int) -> int:
    """The element of `uid`'s copy-of chain alive at time t: ids decrease
    along the chain, which ends at an id of the start stack."""
    born, parent = lrun.born[t], lrun.parent
    while uid > born:
        uid = parent[uid]
    return uid


def is_k_upper(lrun: LineageRun, k: int, i: int = 0, j: Optional[int] = None) -> bool:
    if j is None:
        j = len(lrun.run)
    final = _topmost_uid(lrun, j, k)
    initial = _topmost_uid(lrun, i, k)
    return _alive(lrun, final, i) == initial


def is_k_return(lrun: LineageRun, k: int, i: int = 0, j: Optional[int] = None) -> bool:
    if j is None:
        j = len(lrun.run)
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
    n = lrun.run.automaton.level
    if j is None:
        j = len(lrun.run)
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


@dataclass
class ClassificationTable:
    """Per (j, k): the sets {i : R[i..j] is k-upper} and {i : ... k-return}."""

    length: int
    level: int
    upper: dict[tuple[int, int], frozenset[int]]
    returns: dict[tuple[int, int], frozenset[int]]


def classification_table(lrun: LineageRun) -> ClassificationTable:
    """Every cell of ``is_k_upper`` and ``is_k_return`` for a run of m
    steps at level n, in O(m^2 * n); asking the two cell by cell costs
    O(m^3 * n).

    Per (j, k), one walk t = j, j-1, ..., 0 down the copy-of chain of the
    topmost k-stack at j gives rep(t), the chain element alive at t.
    Ids strictly decrease along the chain, so the walk costs
    amortised O(1) per t.  The walk answers two columns:

    * R[i..j] is k-upper iff rep(i) is the topmost k-stack at i;
    * with L(j, k+1) the last t < j at which rep(t) is the topmost
      k-stack, R[i..j] is a (k+1)-return iff L(j, k+1) < i and rep(i) is
      the second topmost k-stack at i.
    """
    n = lrun.run.automaton.level
    m = len(lrun.run)
    parent, born = lrun.parent, lrun.born
    top = [[_topmost_uid(lrun, t, k) for k in range(n + 1)] for t in range(m + 1)]
    second = [[_second_topmost_uid(lrun, t, k) for k in range(n)] + [None] for t in range(m + 1)]
    upper = {}
    returns = {}
    for j in range(m + 1):
        for k in range(n + 1):
            rep = top[j][k]
            ups, rets = [j], []
            exposed = False  # rep(t) was topmost at some t in [i, j): L(j, k+1) >= i
            for t in range(j - 1, -1, -1):
                # every chain ends at an id of the start stack, born at 0
                while rep > born[t]:
                    rep = parent[rep]
                if rep == top[t][k]:
                    ups.append(t)
                    exposed = True
                elif not exposed and rep == second[t][k]:
                    rets.append(t)
            upper[(j, k)] = frozenset(ups)
            if k < n:
                returns[(j, k + 1)] = frozenset(rets)
    return ClassificationTable(m, n, upper, returns)


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
    ops = run.operations()
    return _derive(ops, {}, "return", r, 0, len(ops))


def decompose_upper(run: Run, k: int) -> Optional[DecompositionTree]:
    """Derivation of k-upper-ness by recursion on the operation sequence.

    Case 1: only operations of level at most k (the empty run included).
    Case 2: a single push^r, r >= k+1.  Case 3: a leading push^r
    (r >= k+1) followed by an r-return.  Case 4: a composition of two
    nonempty k-upper runs.
    """
    ops = run.operations()
    return _derive(ops, {}, "upper", k, 0, len(ops))


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
