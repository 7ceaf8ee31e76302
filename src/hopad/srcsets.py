"""Source-set computation for k-upper runs and the two transfer checks.

For a normalized k-upper run, under the assumption sets given by the
whole typing of its final spine pieces (levels k+1..n), the src sets
name the descriptors of the *initial* spine pieces from which the final
important data values originate.  The computation follows the run's
k-upper derivation (``decompose_upper``): segments that never touch
levels above k pass the sets through unchanged; a push closes them
backward through composers over the initial pieces, whose realizers come
from ``Universe.realizers``; a push followed by a return closes over the
descriptors of the post-push topmost k-stack that realize the return;
compositions chain right to left.  Derivations, typings and the runs the
transfer checks search come from a :class:`~hopad.typesys.StartRuns`.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import Run, stack_values, top_stack
from .lineage import DecompositionTree, is_normalized
from .monoid import classify_word
from .typesys import NE, CheckReport, StackTyping, StartRuns, _held, _important, _witnesses


class SrcResult(NamedTuple):
    k: int
    final: Mapping[int, frozenset[int]]  # level -> the final typing's descriptor ids, k+1..n
    sets: Mapping[int, frozenset[int]]  # level -> descriptor ids, k+1..n
    provenance: DecompositionTree


def _promote(uni, src: dict, members, r: int, st: StackTyping, k: int) -> None:
    """Add to `src` the sets, levels k+1..r, of every composer realizing
    the level-r descriptors `members` over the pieces s^r..s^k: the union
    over the realizers of each member in s^k (``Universe.realizers``)
    whose intermediate slots hold."""
    members = set(members) - {NE}
    if not members:
        return
    index = uni.realizers(st.typing(k), r)
    for member in members:
        for cand in index.get(member, ()):
            psis = {i: uni.psi_at(uni.desc(cand), i) for i in range(k + 1, r + 1)}
            if _held(st, psis):
                for i, ids in psis.items():
                    src[i] |= set(ids)


def _src(node: DecompositionTree, sig: dict, run: Run, k: int, start: StartRuns) -> dict:
    """The src sets of the derivation `node` of a k-upper subrun, for the
    assumption sets `sig` (level -> frozenset, k+1..n) at its end."""
    if node.case == 1:
        return sig
    if node.case == 4:
        left, right = node.children
        return _src(left, _src(right, sig, run, k, start), run, k, start)
    table, uni, n = start.table, start.table.universe, run.automaton.level
    i, j = node.span
    r = run.transitions[i].op.level
    st = start.typing(run.at(i).stack, k)
    if node.case == 2:  # a single push^r
        src = {lvl: set(ids) if lvl != r else set() for lvl, ids in sig.items()}
        members = sig[r]
    else:  # case 3: push^r followed by an r-return
        src = {lvl: set(ids) if lvl <= r else set() for lvl, ids in sig.items()}
        goal_id = uni.intern_goal(
            classify_word(table.monoid, (a for a, _ in run.labels[i + 1 : j] if a is not None)),
            r,
            (sig[lvl] for lvl in range(n, r, -1)),
            run.at(j).state,
        )
        # after the push, the level-r piece is the whole topmost r-stack
        # before it, against which a realizer's level-r slot holds
        after = start.typing(run.at(i + 1).stack, k)
        members = set()
        for _, _, psis in _witnesses(uni, after, run.at(i + 1).state, goal_id):
            members |= set(psis.pop(r))
            for lvl, ids in psis.items():
                src[lvl] |= set(ids)
    _promote(uni, src, members, r, st, k)
    return {lvl: frozenset(ids) for lvl, ids in src.items()}


def compute_src(run: Run, k: int, start: StartRuns) -> SrcResult:
    """Source sets of a k-upper run for the assumption sets of its final
    typing (every descriptor of levels k+1..n), by induction on the run's
    k-upper derivation (`decompose_upper`).  The derivation and the
    typings come from `start`, the runs of the run's start."""
    aut = run.automaton
    if aut.uses_collapse:
        raise ValueError("src sets cover collapse-free automata only")
    tree = start.upper(run, k)
    if tree is None:
        raise ValueError(f"the run is not {k}-upper")
    final = start.typing(run.last.stack, k)
    sig = {i: frozenset(final.typing(i)) for i in range(k + 1, aut.level + 1)}
    return SrcResult(k, sig, _src(tree, sig, run, k, start), tree)


def _hypotheses(run: Run, k: int, start: StartRuns, values, bar_reads=False) -> tuple:
    """The report of a transfer check, with its failed hypotheses named in
    its errors, and the values it may use: none if the run is not
    normalized or not k-upper (by its derivation, ``decompose_upper``),
    else the distinct nonzero values outside the initial topmost k-stack
    and, with `bar_reads`, not read by the run, in order.  A run that does
    not start at `start`'s configuration raises ValueError."""
    if run.at(0) != start.config:
        raise ValueError("the run does not start at the start configuration")
    report = CheckReport()
    if not is_normalized(run):
        report.errors.append("run is not normalized")
    if start.upper(run, k) is None:
        report.errors.append(f"run is not {k}-upper")
    if report.errors:
        return report, []
    barred = start.reads(run) if bar_reads else ()
    init_topk = stack_values(top_stack(run.at(0).stack, start.table.automaton.level, k), k)
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
    return report, usable


def check_origin(run: Run, k: int, start: StartRuns, values: Sequence[int]) -> CheckReport:
    """The origin transfer for each data value d of `values`.

    Part 1 (exact): d important in a final piece under the assumption
    sets, the run's final typing at levels k+1..n (``compute_src``),
    implies d important in an initial piece under the src sets.
    Part 2 (bounded search): when d is important under src initially,
    some normalized k-upper run with matching read class, final topmost
    k-stack, and held assumptions reads d or keeps it important.  The
    search goes through the runs of `start`, which must be every
    normalized run from the run's start up to the bound; a run starting
    elsewhere raises ValueError.  A failed hypothesis is named in the
    report's errors: on the run (normalized, k-upper) it skips every
    value, on a value (0, or stored in the initial topmost k-stack) it
    skips that value.
    """
    report, fresh = _hypotheses(run, k, start, values)
    if not fresh:
        return report
    n = start.table.automaton.level
    src = compute_src(run, k, start)
    at_end = _important(start.typing(run.last.stack, k), src.final)
    at_start = _important(start.typing(start.config.stack, k), src.sets)
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
    # search the runs with the run's end state and read class until every
    # wanted value is read or kept important by a transferred run
    missing = set(wanted)
    target_topk = top_stack(run.last.stack, n, k)
    for cand in start.runs_with(run.last.state, start.phi(run)):
        if not missing:
            break
        if top_stack(cand.last.stack, n, k) != target_topk or start.upper(cand, k) is None:
            continue
        ct = start.typing(cand.last.stack, k)
        if _held(ct, src.final):
            missing -= start.reads(cand) | _important(ct, src.final)
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
    run: Run,
    k: int,
    start: StartRuns,
    values: Sequence[int],
) -> CheckReport:
    """Indistinguishability transfer along a k-upper run, for every pair
    d < d' of `values`.

    Hypotheses (violations are named in the report's errors, not counted
    as failures): the run is normalized and k-upper; d and d' are
    nonzero, unread, absent from the initial topmost k-stack, and
    indistinguishable in every initial idv set; among the runs of
    `start` the run is the only one with its end state and read class.
    A failed hypothesis skips the pairs it concerns.  Conclusion
    checked: both stay absent from the final topmost k-stack and remain
    indistinguishable in every final idv set.  The runs of `start` must
    be every normalized run from the run's start up to the bound, so
    uniqueness is known only up to that bound; a run starting elsewhere
    raises ValueError.
    """
    report, usable = _hypotheses(run, k, start, values, bar_reads=True)
    if not usable:
        return report
    n = start.table.automaton.level
    init = start.typing(start.config.stack, k)
    pairs = []
    for d, d_prime in itertools.combinations(usable, 2):
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
    alike = start.runs_with(run.last.state, start.phi(run))
    if any((c.labels, c.transitions) != (run.labels, run.transitions) for c in alike):
        report.errors.append(
            "hypothesis: another normalized run with the same end state and read class"
        )
        return report

    final_topk = stack_values(top_stack(run.last.stack, n, k), k)
    final = start.typing(run.last.stack, k)
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
