"""Run descriptors, composers, the level-0 saturation fixpoint, and
compositional stack typing with important-data-value tracking.

A run descriptor of level k summarizes, for a k-stack, how a return can
start from a configuration having that k-stack on top: per-level
assumption sets on the surrounding stack pieces, a start state, and a
goal (read-word class in a finite monoid, return level r, assumption
sets promised for the surviving pieces, end state).  Descriptors and
goals are interned per :class:`Universe`: structural equality implies
identical id, and assumption sets are stored as sorted id tuples.

The saturation rules close the level-0 table under four constructions:
a pop step alone (1a), a pop step chained with a continuation descriptor
of the exposed stack (1b), and a push step whose pushed atom's
descriptor is discharged through a composer against descriptors of the
same entry, without (2a) or with (2b) a same-level continuation.  The
`idv` flag rides along: it marks descriptors whose described runs can
actually use the atom's own data value.

A composer realizes each non-ne member of a level-r slot by a
lower-level descriptor whose level-r drop it is.  One realizer index,
:meth:`Universe.realizers`, finds the drops of every saturation rule,
of :func:`goal_space` and of the src sets' promotion (``srcsets``).
:func:`check_composer` decides the composer condition on its own and
is the oracle the tests hold both production paths to.

Rule 1a's free slots and :func:`goal_space`'s promised sets range over
one slot universe per level (``_slot_options``): {}, {ne} and each
singleton level-i drop of the table.  Slots of two or more descriptors
are not shown complete.  At level <= 2 that is all there is: no
descriptor lives at level n, so the level-n universe is exactly {ne}.

The two soundness checks take a :class:`StartRuns`: the runs of one start
configuration, with what the checks ask of each worked out once.  One
witness search (``_witnesses``) serves :func:`find_witness` and the src
sets' push-then-return case.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import Atom, Automaton, Configuration, Run, Stack, spine
from .lineage import DecompositionTree, derivation
from .monoid import FiniteMonoid, phi_of_run

NE = 0  # interned id of the "nonempty" marker
COMPOSER_STATE_CAP = 50_000  # distinct composer vectors one push slot may reach
DESCRIPTOR_CAP = 50_000  # descriptors one saturation may intern


class Goal(NamedTuple):
    m: str
    r: int
    sigmas: tuple[tuple[int, ...], ...]  # levels n..r+1
    q: str


class RunDescriptor(NamedTuple):
    level: int
    psis: tuple[tuple[int, ...], ...]  # levels n..level+1
    state: str
    goal: int


class ResourceCapExceeded(RuntimeError):
    def __init__(self, message: str, stats: "SaturationStats"):
        super().__init__(message)
        self.stats = stats


class SaturationStats(NamedTuple):
    passes: int = 0
    descriptors: int = 0
    goals: int = 0
    table_pairs: int = 0


class Universe:
    """Interning pool for the descriptors and goals of one saturation."""

    def __init__(self, level: int):
        self.level = level
        self.descriptors: list[Optional[RunDescriptor]] = [None]  # id 0 = ne
        self._desc_ids: dict[RunDescriptor, int] = {}
        self.goals: list[Goal] = []
        self._goal_ids: dict[Goal, int] = {}

    def desc(self, did: int) -> RunDescriptor:
        d = self.descriptors[did]
        if d is None:
            raise ValueError("the ne marker has no descriptor structure")
        return d

    def goal(self, gid: int) -> Goal:
        return self.goals[gid]

    def intern_goal(
        self, m: str, r: int, sigmas: Iterable[Iterable[int]], q: str
    ) -> int:
        sigmas = tuple(tuple(sorted(set(s))) for s in sigmas)
        if not 1 <= r <= self.level:
            raise ValueError(f"return level {r} out of range 1..{self.level}")
        if len(sigmas) != self.level - r:
            raise ValueError(f"goal at level {r} needs {self.level - r} result sets")
        for idx, s in enumerate(sigmas):
            self._check_members(s, self.level - idx)
        g = Goal(m, r, sigmas, q)
        gid = self._goal_ids.get(g)
        if gid is None:
            gid = len(self.goals)
            self.goals.append(g)
            self._goal_ids[g] = gid
        return gid

    def intern_desc(
        self, level: int, psis: Iterable[Iterable[int]], state: str, goal_id: int
    ) -> int:
        psis = tuple(tuple(sorted(set(p))) for p in psis)
        if len(psis) != self.level - level:
            raise ValueError(
                f"descriptor at level {level} needs {self.level - level} assumption sets"
            )
        for idx, p in enumerate(psis):
            self._check_members(p, self.level - idx)
        if self.goal(goal_id).r < level + 1:
            raise ValueError("goal return level must exceed the descriptor level")
        d = RunDescriptor(level, psis, state, goal_id)
        did = self._desc_ids.get(d)
        if did is None:
            if len(self.descriptors) > DESCRIPTOR_CAP:
                raise ResourceCapExceeded(
                    f"descriptor cap {DESCRIPTOR_CAP} exceeded",
                    SaturationStats(descriptors=len(self.descriptors) - 1, goals=len(self.goals)),
                )
            self.descriptors.append(d)
            did = len(self.descriptors) - 1
            self._desc_ids[d] = did
        return did

    def _check_members(self, ids: Iterable[int], level: int) -> None:
        for i in ids:
            if i != NE and self.desc(i).level != level:
                raise ValueError(f"id {i} is not a level-{level} descriptor")

    def psi_at(self, d: RunDescriptor, i: int) -> tuple[int, ...]:
        return d.psis[self.level - i]

    def sigma_at(self, g: Goal, i: int) -> tuple[int, ...]:
        return g.sigmas[self.level - i]

    def drop(self, did: int, k: int) -> Optional[int]:
        """The level-k descriptor with the same high slots, state and goal,
        or None when the goal's return level forbids it."""
        d = self.desc(did)
        if d.level >= k:
            raise ValueError(f"cannot drop a level-{d.level} descriptor to level {k}")
        if self.goal(d.goal).r < k + 1:
            return None
        return self.intern_desc(k, d.psis[: self.level - k], d.state, d.goal)

    def realizers(self, dids: Iterable[int], k: int) -> dict[int, list[int]]:
        """The realizer index of `dids`: each level-k drop to the
        descriptors of `dids` that drop to it, in order.  ne and the
        descriptors whose goal forbids the drop are left out."""
        index: dict[int, list[int]] = {}
        for did in dids:
            if did != NE and (dropped := self.drop(did, k)) is not None:
                index.setdefault(dropped, []).append(did)
        return index

    def struct_key(self, did: int):
        """Order-independent structural form, for cross-run comparisons."""
        if did == NE:
            return "ne"
        d = self.desc(did)
        g = self.goal(d.goal)
        return (
            d.level,
            tuple(
                tuple(sorted((self.struct_key(x) for x in p), key=repr)) for p in d.psis
            ),
            d.state,
            (
                g.m,
                g.r,
                tuple(
                    tuple(sorted((self.struct_key(x) for x in s), key=repr))
                    for s in g.sigmas
                ),
                g.q,
            ),
        )

    def render_goal(self, gid: int) -> str:
        g = self.goal(gid)
        parts = [f"(goal {g.m} {g.r}"]
        for idx, s in enumerate(g.sigmas):
            parts.append(f"(sigma {self.level - idx}{_render_ids(s)})")
        parts.append(f"{g.q})")
        return " ".join(parts)

    def render(self, did: int) -> str:
        if did == NE:
            return "(ne)"
        d = self.desc(did)
        parts = [f"(desc"]
        for idx, p in enumerate(d.psis):
            parts.append(f"(psi {self.level - idx}{_render_ids(p)})")
        parts.append(d.state)
        parts.append(f"{self.render_goal(d.goal)})")
        return " ".join(parts)


def _render_ids(ids: Sequence[int]) -> str:
    return "".join(f" {'ne' if i == NE else i}" for i in ids)


class Level0TypeTable:
    """Fixpoint map (stack symbol, has-data) -> {descriptor id: idv flag}."""

    __slots__ = (
        "automaton", "monoid", "universe", "entries", "stats",
        "_typing_cache", "_goal_space", "__weakref__",
    )

    def __init__(
        self,
        automaton: Automaton,
        monoid: FiniteMonoid,
        universe: Universe,
        entries: dict[tuple[str, bool], dict[int, bool]],
        stats: SaturationStats,
    ):
        self.automaton = automaton
        self.monoid = monoid
        self.universe = universe
        self.entries = entries
        self.stats = stats
        self._typing_cache: dict = {}
        self._goal_space: Optional[list[int]] = None


def saturate_level0(aut: Automaton, monoid: FiniteMonoid) -> Level0TypeTable:
    """Least fixpoint of the four level-0 rules, by chaotic iteration.

    Rules apply in the order of `aut.transitions`; the result does not
    depend on that order (asserted by the shuffled-order tests).
    """
    if aut.uses_collapse:
        raise ValueError("the type system covers collapse-free automata only")
    unmapped = aut.input_alphabet - monoid.letter_map.keys()
    if unmapped:
        raise ValueError(f"monoid {monoid.name} maps no letter {' '.join(sorted(unmapped))}")
    n = aut.level
    uni = Universe(n)
    entries: dict[tuple[str, bool], dict[int, bool]] = {
        (sym, hd): {} for sym in sorted(aut.stack_alphabet) for hd in (False, True)
    }
    passes = 0
    changed = True

    def phi(letter: Optional[str]) -> str:
        return monoid.identity if letter is None else monoid.letter_map[letter]

    def add(key: tuple[str, bool], did: int, flag: bool) -> None:
        nonlocal changed
        cur = entries[key].get(did)
        if cur is None:
            entries[key][did] = flag
            changed = True
        elif flag and not cur:
            entries[key][did] = True
            changed = True

    def targets(tr) -> list[tuple[tuple[str, bool], bool]]:
        # rule 1's data guard: a letter-reading pop needs a stored value
        if tr.letter is None:
            return [((tr.symbol, False), False), ((tr.symbol, True), False)]
        return [((tr.symbol, True), True)]

    pops = [t for t in aut.transitions if t.op.kind == "pop"]
    pushes = [t for t in aut.transitions if t.op.kind == "push"]

    cap = None  # the message of a cap hit, raised with the stats
    try:
        while changed:
            changed = False
            passes += 1
            # rule 1a: the pop step itself is a k-return
            opts = _slot_options(uni, entries)
            for tr in pops:
                k = tr.op.level
                for high in itertools.product(*(opts[i] for i in range(n, k, -1))):
                    gid = uni.intern_goal(phi(tr.letter), k, high, tr.target)
                    psis = high + ((NE,),) + ((),) * (k - 1)
                    did = uni.intern_desc(0, psis, tr.state, gid)
                    for key, flag in targets(tr):
                        add(key, did, flag)
            # rule 1b: pop chained with a continuation descriptor of the
            # exposed k-stack (instantiated from level-k drops of the table)
            seen_dids = sorted({d for entry in entries.values() for d in entry})
            for tr in pops:
                k = tr.op.level
                landing = [sid for sid in seen_dids if uni.desc(sid).state == tr.target]
                for tau_id in uni.realizers(landing, k):
                    tau = uni.desc(tau_id)
                    g = uni.goal(tau.goal)
                    gid = uni.intern_goal(
                        monoid.mul(phi(tr.letter), g.m), g.r, g.sigmas, g.q
                    )
                    psis = tau.psis + ((tau_id,),) + ((),) * (k - 1)
                    did = uni.intern_desc(0, psis, tr.state, gid)
                    for key, flag in targets(tr):
                        add(key, did, flag)
            # rules 2a/2b: push discharged through a composer
            for tr in pushes:
                k = tr.op.level
                pushed_key = (tr.op.symbol, tr.letter is not None)
                for hd in (False, True):
                    src_key = (tr.symbol, hd)
                    src_entry = entries[src_key]
                    if not entries[pushed_key]:
                        continue
                    drop_index = uni.realizers(src_entry, k)
                    chi_index: dict[tuple, list[int]] = {}
                    for did in src_entry:
                        d = uni.desc(did)
                        if uni.goal(d.goal).r <= k:
                            chi_index.setdefault((d.state, d.psis[: n - k]), []).append(did)
                    for tau_id in list(entries[pushed_key]):
                        tau = uni.desc(tau_id)
                        if tau.state != tr.target:
                            continue  # the continuation starts where the push lands
                        g1 = uni.goal(tau.goal)
                        m1 = monoid.mul(phi(tr.letter), g1.m)
                        if g1.r != k:
                            gid = uni.intern_goal(m1, g1.r, g1.sigmas, g1.q)
                            chis: Sequence[Optional[int]] = (None,)
                        else:
                            chis = chi_index.get((g1.q, g1.sigmas), ())
                            if not chis:
                                continue
                        for phi_by_level, used_flag in _discharges(
                            uni, uni.psi_at(tau, k), src_entry, drop_index, k
                        ):
                            for chi_id in chis:
                                chi, flag = None, used_flag
                                if chi_id is not None:
                                    chi = uni.desc(chi_id)
                                    g2 = uni.goal(chi.goal)
                                    gid = uni.intern_goal(
                                        monoid.mul(m1, g2.m), g2.r, g2.sigmas, g2.q
                                    )
                                    flag = used_flag or src_entry[chi_id]
                                psis = _merge_psis(uni, n, k, tau, phi_by_level, chi)
                                add(src_key, uni.intern_desc(0, psis, tr.state, gid), flag)
    except ResourceCapExceeded as exc:
        cap = str(exc)
    pairs = sum(len(e) for e in entries.values())
    stats = SaturationStats(passes, len(uni.descriptors) - 1, len(uni.goals), pairs)
    if cap is not None:
        raise ResourceCapExceeded(cap, stats)
    return Level0TypeTable(aut, monoid, uni, entries, stats)


def _slot_options(uni: Universe, entries) -> dict[int, list[tuple[int, ...]]]:
    """Per level 2..n, the sets a free slot ranges over: {}, {ne} and the
    singleton of each level-i drop of the descriptors of `entries`."""
    seen = sorted({did for entry in entries.values() for did in entry})
    return {
        i: sorted({(), (NE,)} | {(x,) for x in uni.realizers(seen, i)})
        for i in range(2, uni.level + 1)
    }


def _merge_psis(uni, n, k, tau, phi_by_level, chi) -> tuple:
    psis = []
    for i in range(n, 0, -1):
        if i > k:
            psis.append(uni.psi_at(tau, i))
        else:
            merged = set(phi_by_level.get(i, ()))
            if i < k:
                merged |= set(uni.psi_at(tau, i))
            if chi is not None:
                merged |= set(uni.psi_at(chi, i))
            psis.append(tuple(sorted(merged)))
    return tuple(psis)


def _discharges(uni, psi_k, flags, drop_index, k):
    """Composers for the level-k slot against level-0 descriptors.

    ne members are dischargeable for free; every other member needs a
    level-0 descriptor of the entry whose level-k drop is it.  A choice
    only reaches the produced descriptor through the union of the chosen
    contributions (levels 1..k) and the disjunction of their idv flags,
    so choices are deduplicated on exactly that, member by member.

    Yields (per-level contribution sets for levels 1..k, flag).
    """
    empty = tuple(() for _ in range(k))
    states: dict[tuple, bool] = {empty: False}
    for member in psi_k:
        if member == NE:
            continue
        matches = drop_index.get(member, ())
        if not matches:
            return
        contribs = set()
        for did in matches:
            d = uni.desc(did)
            contribs.add(
                (tuple(uni.psi_at(d, i) for i in range(1, k + 1)), flags[did])
            )
        nxt: dict[tuple, bool] = {}
        for vec, flag in states.items():
            for cvec, cflag in contribs:
                merged = tuple(
                    tuple(sorted(set(v) | set(c))) for v, c in zip(vec, cvec)
                )
                nf = flag or cflag
                nxt[merged] = nxt.get(merged, False) or nf
        if len(nxt) > COMPOSER_STATE_CAP:
            raise ResourceCapExceeded(
                f"composer state space exceeds {COMPOSER_STATE_CAP}", SaturationStats()
            )
        states = nxt
    for vec, flag in states.items():
        yield {i: vec[i - 1] for i in range(1, k + 1)}, flag


def check_composer(
    uni: Universe,
    k: int,
    l: int,
    phis: Sequence[Iterable[int]],
    psi_k: Iterable[int],
) -> Optional[dict[int, int]]:
    """Decide whether (phis; psi_k) is a composer for levels k down to l.

    `phis` lists the candidate sets for levels k, k-1, ..., l.  Returns
    the witness assignment (each non-ne member of psi_k to its chosen
    level-l descriptor) or None.  Rule 2 discharges ne for free, rule 1
    requires each member to be the level-k drop of its chosen level-l
    element, and rule 3 forces the per-level exact unions.
    """
    phis = [frozenset(p) for p in phis]
    if len(phis) != k - l + 1:
        raise ValueError(f"need sets for levels {k}..{l}")
    members = tuple(sorted(set(psi_k)))
    options = []
    for member in members:
        if member == NE:
            options.append((None,))
            continue
        cands = tuple(
            c
            for c in phis[-1]
            if c != NE and uni.desc(c).level == l and uni.drop(c, k) == member
        )
        if not cands:
            return None
        options.append(cands)
    for combo in itertools.product(*options):
        chosen = {m: c for m, c in zip(members, combo) if c is not None}
        if frozenset(chosen.values()) != phis[-1]:
            continue
        ok = True
        for idx, i in enumerate(range(k, l, -1)):
            union = set()
            for c in chosen.values():
                union |= set(uni.psi_at(uni.desc(c), i))
            if frozenset(union) != phis[idx]:
                ok = False
                break
        if ok:
            return chosen
    return None


# ---------------------------------------------------------------------------
# compositional stack typing

Typing = dict  # descriptor id -> frozenset of important data values


def atom_typing(atom: Atom, table: Level0TypeTable) -> Typing:
    entry = table.entries.get((atom.symbol, atom.data is not None), {})
    own = frozenset((atom.data,)) if atom.data is not None else frozenset()
    return {
        did: (own if flag else frozenset()) for did, flag in entry.items()
    }


def combine_types(rest: Typing, top: Typing, k: int, table: Level0TypeTable) -> Typing:
    """Typing of t^k : t^(k-1) from the typings of the two parts.

    A descriptor of the top part promotes when its level-k assumption
    set holds in the rest; ne is always present (the result is
    nonempty).  Important values of a promoted descriptor are those of
    every witness plus those of the assumption descriptors it consumed.
    """
    uni = table.universe
    out: dict[int, set] = {NE: set()}
    for did, idv in top.items():
        if did == NE:
            continue
        need = uni.psi_at(uni.desc(did), k)
        # a descriptor whose goal retires at its return level has no drop
        if all(t in rest for t in need) and (pid := uni.drop(did, k)) is not None:
            acc = out.setdefault(pid, set())
            acc |= idv
            for t in need:
                acc |= rest[t]
    return {did: frozenset(v) for did, v in out.items()}


def stack_typing(stack: Stack, level: int, table: Level0TypeTable) -> Typing:
    """type() and idv() of a concrete stack: a k-stack's typing combines
    the typing of the stack below its top with that of its top, memoised
    per node, so a push adds O(level) entries.  Empty stacks (None) have
    empty type, nonempty ones always contain ne.

    The walk down `below` is iterative, as in ``core.Node.__hash__``, so
    stacks as wide as a long run type without deep recursion."""
    if stack is None:
        return {}
    if level == 0:
        return atom_typing(stack, table)
    cache = table._typing_cache
    untyped = []
    node = stack
    acc: Typing = {}
    while node is not None:
        cached = cache.get((node, level))
        if cached is not None:
            acc = cached
            break
        untyped.append(node)
        node = node.below
    for node in reversed(untyped):
        acc = combine_types(acc, stack_typing(node.top, level - 1, table), level, table)
        cache[(node, level)] = acc
    return acc


class StackTyping(NamedTuple):
    """Typings of the spine pieces s^n .. s^k of a stack."""

    level: int
    k: int
    typings: tuple

    def typing(self, i: int) -> Typing:
        return self.typings[self.level - i]


def type_of_stack(stack: Stack, k: int, table: Level0TypeTable) -> StackTyping:
    n = table.automaton.level
    pieces = spine(stack, n, k)
    typings = tuple(
        stack_typing(piece, lvl, table)
        for piece, lvl in zip(pieces, range(n, k - 1, -1))
    )
    return StackTyping(n, k, typings)


def _held(st: StackTyping, sets: Mapping[int, Iterable[int]]) -> bool:
    """Every assumption set of `sets` (level -> descriptor ids) holds:
    its descriptors are in the typing of that level."""
    return all(t in st.typing(i) for i, ids in sets.items() for t in ids)


def _important(st: StackTyping, sets: Mapping[int, Iterable[int]]) -> frozenset:
    """The values important in the typing under `sets` (level -> descriptor ids)."""
    return frozenset().union(*(st.typing(i).get(t, ()) for i, ids in sets.items() for t in ids))


def _witnesses(uni: Universe, st: StackTyping, state: str, goal_id: int):
    """The descriptors of the level-k typing of `st` that start in `state`
    with goal `goal_id` and whose assumption sets, levels k+1..n, hold in
    `st`; yields (descriptor id, important values, assumption sets)."""
    for did, idv in st.typing(st.k).items():
        if did == NE:
            continue
        desc = uni.desc(did)
        if desc.state == state and desc.goal == goal_id:
            psis = {i: uni.psi_at(desc, i) for i in range(st.k + 1, st.level + 1)}
            if _held(st, psis):
                yield did, idv, psis


def _promised(uni: Universe, g: Goal) -> dict[int, tuple[int, ...]]:
    """The goal's promised assumption sets, level -> descriptor ids, r+1..n."""
    return {i: uni.sigma_at(g, i) for i in range(g.r + 1, uni.level + 1)}


# ---------------------------------------------------------------------------
# the runs of one start configuration, and the two soundness checks


class StartRuns:
    """The runs of one start configuration up to a bound, and what the
    soundness checks ask of them, each worked out once, on first ask:
    per run its monoid class and read values, per (stack, level) its
    typing.  Runs, which hash in O(length), are keyed by identity and
    held by their entries; stacks by value, so equal ones share a typing.
    A given run starting elsewhere raises ValueError.  Its derivations go
    into the ``lineage.derivation`` memo `derived`, which the StartRuns
    of many start configurations and machines may share."""

    def __init__(
        self,
        config: Configuration,
        table: Level0TypeTable,
        runs: Sequence[Run],
        derived: dict[tuple, Optional[DecompositionTree]],
    ):
        for run in runs:
            if run.at(0) != config:
                raise ValueError("a given run does not start at the start configuration")
        self.config, self.table, self.runs = config, table, runs
        self._facts: dict[int, tuple] = {}  # id(run) -> (run, operations, class, reads)
        self._derived = derived
        self._typed: dict[tuple[Stack, int], StackTyping] = {}
        self._classes: Optional[dict[tuple[str, str], list[Run]]] = None

    def _of(self, run: Run) -> tuple:
        facts = self._facts.get(id(run))
        if facts is None:
            reads = frozenset(d for _, d in run.read_word)
            phi = phi_of_run(self.table.monoid, run)
            facts = self._facts[id(run)] = (run, run.operations(), phi, reads)
        return facts

    def phi(self, run: Run) -> str:
        return self._of(run)[2]

    def reads(self, run: Run) -> frozenset:
        return self._of(run)[3]

    def upper(self, run: Run, k: int) -> Optional[DecompositionTree]:
        """The run's k-upper derivation, or None."""
        return derivation(self._derived, "upper", run, self._of(run)[1], k)

    def returns(self, run: Run, r: int) -> Optional[DecompositionTree]:
        """The run's r-return derivation, or None."""
        return derivation(self._derived, "return", run, self._of(run)[1], r)

    def typing(self, stack: Stack, k: int) -> StackTyping:
        """``type_of_stack(stack, k, table)``."""
        typing = self._typed.get((stack, k))
        if typing is None:
            typing = self._typed[(stack, k)] = type_of_stack(stack, k, self.table)
        return typing

    def runs_with(self, state: str, m: str) -> list[Run]:
        """The runs ending in `state` with monoid class `m`, in order."""
        if self._classes is None:
            self._classes = {}
            for run in self.runs:
                self._classes.setdefault((run.last.state, self.phi(run)), []).append(run)
        return self._classes.get((state, m), [])

    def agrees(self, run: Run, goal_id: int) -> bool:
        """phi matches, the run is an r-return into the right state, and the
        final spine pieces above r carry the promised descriptor sets."""
        uni = self.table.universe
        g = uni.goal(goal_id)
        return (
            self.phi(run) == g.m
            and run.last.state == g.q
            and self.returns(run, g.r) is not None
            and _held(self.typing(run.last.stack, g.r), _promised(uni, g))
        )


class CheckReport:
    __slots__ = ("hard_failures", "unwitnessed", "errors", "verified", "checked")

    def __init__(self):
        self.hard_failures: list = []
        self.unwitnessed: list = []
        self.errors: list = []
        self.verified = 0
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.hard_failures and not self.errors


def goal_space(table: Level0TypeTable) -> list[int]:
    """Goals the soundness checks quantify over: every goal materialized
    during saturation plus all goals whose promised sets come from rule
    1a's slot universe (sets of two or more descriptors only if
    saturation materialized them)."""
    uni = table.universe
    n = table.automaton.level
    out = {d.goal for d in uni.descriptors[1:] if d is not None}
    level_opts = _slot_options(uni, table.entries)
    for r in range(1, n + 1):
        for m in table.monoid.carrier:
            for q in sorted(table.automaton.states):
                for vec in itertools.product(
                    *(level_opts[i] for i in range(n, r, -1))
                ):
                    out.add(uni.intern_goal(m, r, vec, q))
    return sorted(out)


def find_witness(start: StartRuns, k: int, goal_id: int, d: Optional[int] = None) -> Optional[int]:
    """A descriptor of type(s^k) of the start configuration matching its
    state and the goal, with all assumption sets held by the spine
    pieces; when a data value `d` is given, it must additionally be
    important under the descriptor or one of its assumption descriptors."""
    st = start.typing(start.config.stack, k)
    for did, idv, psis in _witnesses(start.table.universe, st, start.config.state, goal_id):
        if d is None or d in idv or d in _important(st, psis):
            return did
    return None


def _describe_run(run: Run) -> str:
    ops = ",".join(str(op) for op in run.operations())
    word = " ".join(f"{a}@{d}" for a, d in run.read_word)
    return f"len={len(run)} ops=[{ops}] word=[{word}]"


def _correspondence(start: StartRuns, values, hard, soft):
    """For each distinct value d of `values`, every goal and every level
    k below its return level: the runs that agree with the goal (and,
    for a value d, use it: read it or keep it important under the
    promised sets) against a descriptor of type(s^k) witnessing it (and
    carrying d); None stands for no value.  Runs without a witness are
    hard failures, a witness without runs is unwitnessed; `hard` and
    `soft` format those lines from k, d, goal and run or witness.  A
    value 0 is named in the report's errors and skipped."""
    report = CheckReport()
    table, uni = start.table, start.table.universe
    if table._goal_space is None:  # the starts of a machine share its table
        table._goal_space = goal_space(table)
    goals = []
    for gid in table._goal_space:
        g = uni.goal(gid)
        agreeing = [run for run in start.runs_with(g.q, g.m) if start.agrees(run, gid)]
        goals.append((gid, g, _promised(uni, g), agreeing))
    for d in sorted(set(values)):
        if d == 0:
            report.errors.append("d must differ from the normalization value 0")
            continue
        for gid, g, promised, hits in goals:
            if d is not None:
                hits = [
                    run for run in hits
                    if d in start.reads(run)
                    or d in _important(start.typing(run.last.stack, g.r), promised)
                ]
            for k in range(0, g.r):
                report.checked += 1
                witness = find_witness(start, k, gid, d)
                if hits and witness is None:
                    run = _describe_run(hits[0])
                    line = hard.format(k=k, d=d, goal=uni.render_goal(gid), run=run)
                    report.hard_failures.append(line)
                elif witness is not None and not hits:
                    line = soft.format(k=k, d=d, goal=uni.render_goal(gid), witness=witness)
                    report.unwitnessed.append(line)
                elif witness is not None:
                    report.verified += 1
    return report


def check_run2type(start: StartRuns) -> CheckReport:
    """Both directions of the run/descriptor correspondence over the runs
    of `start`, every run from its configuration up to a bound.

    1=>2 (hard): every given run agreeing with a goal must be witnessed
    by a matching descriptor with held assumption sets.
    2=>1 (soft): every witnessed (goal, level) pair should exhibit an
    agreeing run within the bound; misses are reported as unwitnessed.
    """
    return _correspondence(
        start, (None,),
        "k={k} goal={goal} has an agreeing run ({run}) but no witnessing descriptor",
        "k={k} goal={goal} witnessed by descriptor {witness} but no agreeing run",
    )


def check_idv(start: StartRuns, values: Sequence[int]) -> CheckReport:
    """The important-data-value correspondence for each distinct value d
    of `values`, over the runs of `start` (every normalized run from its
    configuration up to the bound); a value 0 is named in the report's
    errors and skipped."""
    return _correspondence(
        start, values,
        "k={k} d={d} goal={goal} used by {run} but no descriptor carries it",
        "k={k} d={d} goal={goal} carried by descriptor {witness} "
        "but no agreeing normalized run uses it",
    )
