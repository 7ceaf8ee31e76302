"""Source-set computation for k-upper runs and the two transfer checks.

For a normalized k-upper run and assumption sets on the typing of its
final spine pieces, the src sets name the descriptors of the *initial*
spine pieces from which the final important data values originate.  The
computation follows the run's shape: segments that never touch levels
above k pass the sets through unchanged; a push closes them backward
through composers over the initial pieces; a push followed by a return
closes over the descriptors of the post-push topmost k-stack that
realize the return; compositions chain right to left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import Run, recompose, spine, stack_values, top_stack
from .lineage import LineageRun, is_k_return, is_k_upper, is_normalized
from .monoid import phi_of_run
from .typesys import (
    NE,
    CheckReport,
    Level0TypeTable,
    StackTyping,
    _require_start,
    stack_typing,
    type_of_stack,
)


@dataclass(frozen=True)
class ProvenanceNode:
    case: int
    span: tuple[int, int]
    split: Optional[int] = None
    children: tuple["ProvenanceNode", ...] = ()

    def render(self, indent: str = "") -> str:
        head = f"{indent}case {self.case} [{self.span[0]}..{self.span[1]}]"
        if self.split is not None:
            head += f" split {self.split}"
        return "\n".join([head] + [c.render(indent + "  ") for c in self.children])


@dataclass(frozen=True)
class SrcResult:
    k: int
    sets: Mapping[int, frozenset[int]]  # level -> descriptor ids, k+1..n
    provenance: ProvenanceNode


def _promotions_through(uni, target: int, r: int, typings: Mapping[int, dict], k: int):
    """Candidates realizing `target` (a level-r descriptor) as a composer
    over the pieces s^r..s^k: level-k descriptors of s^k whose level-r
    drop is the target and whose intermediate slots hold."""
    out = []
    for cand in typings[k]:
        if cand == NE:
            continue
        d = uni.desc(cand)
        if uni.goal(d.goal).r < r + 1:
            continue
        if uni.drop(cand, r) != target:
            continue
        if all(
            all(t in typings[i] for t in uni.psi_at(d, i)) for i in range(k + 1, r + 1)
        ):
            out.append(d)
    return out


def compute_src(
    lrun: LineageRun,
    k: int,
    sigmas: Mapping[int, Sequence[int]],
    table: Level0TypeTable,
) -> SrcResult:
    """Source sets of a k-upper run for final assumption sets `sigmas`
    (level -> descriptor ids over levels k+1..n)."""
    run = lrun.run
    aut = run.automaton
    if aut.uses_collapse:
        raise ValueError("src sets cover collapse-free automata only")
    n = aut.level
    uni = table.universe
    if not is_k_upper(lrun, k):
        raise ValueError(f"the run is not {k}-upper")
    final = type_of_stack(run.last.stack, k, table)
    for i in range(k + 1, n + 1):
        for sid in sigmas.get(i, ()):
            if sid not in final.typing(i):
                raise ValueError(f"assumption {sid} not in the final level-{i} typing")

    def piece_typings(idx: int) -> dict[int, dict]:
        st = type_of_stack(run.at(idx).stack, k, table)
        return {i: st.typing(i) for i in range(k, n + 1)}

    def rec(i: int, j: int, sig: Mapping[int, frozenset]) -> tuple[dict, ProvenanceNode]:
        ops = [run.transitions[t].op for t in range(i, j)]
        if all(op.level <= k for op in ops):
            src = {lvl: frozenset(sig.get(lvl, ())) for lvl in range(k + 1, n + 1)}
            return src, ProvenanceNode(1, (i, j))
        first = ops[0]
        if j - i == 1 and first.kind == "push" and first.level >= k + 1:
            r = first.level
            typ = piece_typings(i)
            src = {
                lvl: set(sig.get(lvl, ())) if lvl != r else set()
                for lvl in range(k + 1, n + 1)
            }
            for sid in sig.get(r, ()):
                if sid == NE:
                    continue
                for d in _promotions_through(uni, sid, r, typ, k):
                    for lvl in range(k + 1, r + 1):
                        src[lvl] |= set(uni.psi_at(d, lvl))
            return (
                {lvl: frozenset(v) for lvl, v in src.items()},
                ProvenanceNode(2, (i, j)),
            )
        if (
            first.kind == "push"
            and first.level >= k + 1
            and is_k_return(lrun, first.level, i + 1, j)
        ):
            r = first.level
            typ = piece_typings(i)
            tail_phi = phi_of_run(table.monoid, run.subrun(i + 1, j))
            goal_id = uni.intern_goal(
                tail_phi,
                r,
                tuple(tuple(sorted(sig.get(lvl, ()))) for lvl in range(n, r, -1)),
                run.at(j).state,
            )
            post_top = top_stack(run.at(i + 1).stack, n, k)
            post_typing = stack_typing(post_top, k, table)
            q1 = run.at(i + 1).state
            src = {lvl: set() for lvl in range(k + 1, n + 1)}
            for lvl in range(k + 1, r + 1):
                src[lvl] |= set(sig.get(lvl, ()))
            # the level-r slot of a realizing descriptor holds against the
            # recomposed partial stack s^r : ... : s^k
            pieces = spine(run.at(i).stack, n, k)
            partial = recompose(pieces[n - r :])
            partial_typing = stack_typing(partial, r, table)
            for rho_id in post_typing:
                if rho_id == NE:
                    continue
                rho = uni.desc(rho_id)
                if rho.state != q1 or rho.goal != goal_id:
                    continue
                if not all(
                    all(t in typ[lvl] for t in uni.psi_at(rho, lvl))
                    for lvl in range(k + 1, n + 1)
                    if lvl != r
                ):
                    continue
                if not all(t in partial_typing for t in uni.psi_at(rho, r)):
                    continue
                for lvl in range(k + 1, n + 1):
                    if lvl != r:
                        src[lvl] |= set(uni.psi_at(rho, lvl))
                for lam in uni.psi_at(rho, r):
                    if lam == NE:
                        continue
                    for d in _promotions_through(uni, lam, r, typ, k):
                        for lvl in range(k + 1, r + 1):
                            src[lvl] |= set(uni.psi_at(d, lvl))
            return (
                {lvl: frozenset(v) for lvl, v in src.items()},
                ProvenanceNode(3, (i, j)),
            )
        for m in range(i + 1, j):
            if is_k_upper(lrun, k, i, m) and is_k_upper(lrun, k, m, j):
                right, right_prov = rec(m, j, sig)
                left, left_prov = rec(i, m, right)
                return left, ProvenanceNode(4, (i, j), split=m, children=(left_prov, right_prov))
        raise ValueError(f"no decomposition case applies on [{i}..{j}]")

    sets, prov = rec(0, len(run), {i: frozenset(sigmas.get(i, ())) for i in range(k + 1, n + 1)})
    return SrcResult(k, sets, prov)


def _run_hypotheses(lrun: LineageRun, k: int, runs, report: CheckReport) -> None:
    """Name the run-level hypotheses of both transfer checks that fail."""
    _require_start(runs, lrun.run.at(0))
    if not is_normalized(lrun.run):
        report.errors.append("run is not normalized")
    if not is_k_upper(lrun, k):
        report.errors.append(f"run is not {k}-upper")


def _usable_values(run: Run, k: int, n: int, values, barred, report: CheckReport) -> list[int]:
    """The distinct nonzero values outside `barred` (read by the run) and
    the initial topmost k-stack, in order; the others are named in the
    report's errors."""
    init_topk = stack_values(top_stack(run.at(0).stack, n, k), k)
    usable = []
    for d in sorted(set(values)):
        if d == 0:
            report.errors.append("d=0 is the normalization value")
        elif d in barred:
            report.errors.append(f"d={d} is read by the run")
        elif d in init_topk:
            report.errors.append(f"d={d} occurs in the initial topmost {k}-stack")
        else:
            usable.append(d)
    return usable


def _important(st: StackTyping, k: int, n: int, sets: Mapping[int, Sequence[int]]) -> frozenset:
    """The values important in the typing under `sets` (level -> descriptor ids)."""
    return frozenset().union(
        *(st.typing(i).get(sid, ()) for i in range(k + 1, n + 1) for sid in sets.get(i, ()))
    )


def check_origin(
    lrun: LineageRun,
    k: int,
    sigmas: Mapping[int, Sequence[int]],
    table: Level0TypeTable,
    values: Sequence[int],
    runs: Sequence[LineageRun],
) -> CheckReport:
    """The origin transfer for each data value d of `values`.

    Part 1 (exact): d important in a final piece under the assumption
    sets implies d important in an initial piece under the src sets.
    Part 2 (bounded search): when d is important under src initially,
    some normalized k-upper run with matching read class, final topmost
    k-stack, and held assumptions reads d or keeps it important.  The
    search goes through `runs`, which must be every normalized run from
    the run's start up to the bound, with lineage; a run starting
    elsewhere raises ValueError.  A failed hypothesis is named in the
    report's errors: on the run (normalized, k-upper) it skips every
    value, on a value (0, or stored in the initial topmost k-stack) it
    skips that value.
    """
    run = lrun.run
    report = CheckReport("origin")
    _run_hypotheses(lrun, k, runs, report)
    if report.errors:
        return report
    n = table.automaton.level
    fresh = _usable_values(run, k, n, values, (), report)
    if not fresh:
        return report

    src = compute_src(lrun, k, sigmas, table)
    at_end = _important(type_of_stack(run.last.stack, k, table), k, n, sigmas)
    at_start = _important(type_of_stack(run.at(0).stack, k, table), k, n, src.sets)
    report.checked += len(fresh)
    report.hard_failures += [
        f"k={k} d={d}: important in a final piece but in no initial piece under src"
        for d in fresh
        if d in at_end and d not in at_start
    ]
    report.verified += len(at_end & at_start & set(fresh))
    wanted = [d for d in fresh if d in at_start]
    if not wanted:
        return report
    # search the runs from the run's own start until every wanted value
    # is read or kept important by a transferred run
    missing = set(wanted)
    target_topk = top_stack(run.last.stack, n, k)
    phi_r = phi_of_run(table.monoid, run)
    for lc in runs:
        if not missing:
            break
        cand = lc.run
        if not (
            is_k_upper(lc, k)
            and phi_of_run(table.monoid, cand) == phi_r
            and cand.last.state == run.last.state
            and top_stack(cand.last.stack, n, k) == target_topk
        ):
            continue
        ct = type_of_stack(cand.last.stack, k, table)
        if all(sid in ct.typing(i) for i in range(k + 1, n + 1) for sid in sigmas.get(i, ())):
            missing -= {val for _, val in cand.read_word} | _important(ct, k, n, sigmas)
    report.verified += len(wanted) - len(missing)
    report.unwitnessed += [
        f"k={k} d={d}: important under src but no transferred run" for d in wanted if d in missing
    ]
    return report


def _split(st: StackTyping, k: int, n: int, d: int, d_prime: int) -> Optional[tuple[int, int]]:
    """The first (level, descriptor) of the typing whose important values
    hold exactly one of d and d', or None when they are indistinguishable."""
    for i in range(k + 1, n + 1):
        for sid, idv in st.typing(i).items():
            if (d in idv) != (d_prime in idv):
                return i, sid
    return None


def check_idv_upper(
    lrun: LineageRun,
    k: int,
    table: Level0TypeTable,
    values: Sequence[int],
    runs: Sequence[LineageRun],
) -> CheckReport:
    """Indistinguishability transfer along a k-upper run, for every pair
    d < d' of `values`.

    Hypotheses (violations are named in the report's errors, not counted
    as failures): the run is normalized and k-upper; d and d' are
    nonzero, unread, absent from the initial topmost k-stack, and
    indistinguishable in every initial idv set; among `runs` the run is
    the only one with its end state and read class.  A failed hypothesis
    skips the pairs it concerns.  Conclusion checked: both stay absent
    from the final topmost k-stack and remain indistinguishable in every
    final idv set.  `runs` must be every normalized run from the run's
    start up to the bound, with lineage, so uniqueness is known only up
    to that bound; a run starting elsewhere raises ValueError.
    """
    run = lrun.run
    report = CheckReport("idv-upper")
    _run_hypotheses(lrun, k, runs, report)
    if report.errors:
        return report
    n = table.automaton.level
    reads = {val for _, val in run.read_word}
    init = type_of_stack(run.at(0).stack, k, table)
    pairs = []
    for d, d_prime in itertools.combinations(_usable_values(run, k, n, values, reads, report), 2):
        split = _split(init, k, n, d, d_prime)
        if split is None:
            pairs.append((d, d_prime))
        else:
            report.errors.append(
                f"hypothesis: d={d}, d'={d_prime} distinguishable at level {split[0]} "
                f"descriptor {split[1]}"
            )
    if not pairs:
        return report

    # uniqueness hypothesis, among the runs up to the bound
    phi_r = phi_of_run(table.monoid, run)
    for cand in (lc.run for lc in runs):
        if (
            cand.last.state == run.last.state
            and phi_of_run(table.monoid, cand) == phi_r
            and (cand.labels, cand.transitions) != (run.labels, run.transitions)
        ):
            report.errors.append(
                "hypothesis: another normalized run with the same end state and read class"
            )
            return report

    final_topk = stack_values(top_stack(run.last.stack, n, k), k)
    final = type_of_stack(run.last.stack, k, table)
    for d, d_prime in pairs:
        report.checked += 1
        if d in final_topk or d_prime in final_topk:
            report.hard_failures.append(
                f"k={k}: d={d} or d'={d_prime} appears in the final topmost k-stack"
            )
        elif split := _split(final, k, n, d, d_prime):
            report.hard_failures.append(
                f"k={k}: d={d}, d'={d_prime} distinguishable at final level {split[0]} "
                f"descriptor {split[1]}"
            )
        else:
            report.verified += 1
    return report
