"""The benchmark's workloads: inputs made from a seed, job lists, and checks.

A workload is a fixed list of jobs.  Each job is one call into hopad's
public functions (or a short chain of them); the benchmark times the call
and then checks its output against a reference, outside the timed region.
Every pass over a workload builds its runs, lineage runs and typing
tables afresh: only the machines returned by ``build_machines`` are
shared between passes, because a user's process builds them once too.

The three workloads stress different layers (see README.md):

* ``verify-differential`` -- many short words through ``core`` and the
  ``ulang`` oracle; enumeration, lineage and typing are bypassed.
* ``verify-enum`` -- five enumeration-backed suites of ``harness``;
  runs are at most 6 steps, so ``core``'s width and length costs vanish.
* ``long-runs`` -- a few long inputs: wide stacks, long runs, the cubic
  classification table and typing of deep stacks; enumeration bypassed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
MODULES = ("core", "ulang", "lineage", "monoid", "typesys", "srcsets", "harness")

# The seed of `hopad verify`'s acceptance run.  verify-enum always runs
# its suites at this seed: the suites' random machine corpus depends on
# the seed, and one pass costs from 7 s to 33 s depending on it, so a
# seed-driven corpus would measure the corpus rather than the code.
SUITE_SEED = 20260808
ENUM_SUITES = ("classifier-equivalence", "run2type", "idv", "origin", "idv-upper")

WORD_LETTERS = ("[", "]", "$")
EXHAUSTIVE_LENGTH = 5
NEAR_MEMBER_WORDS = 10_000
NEAR_MEMBER_LENGTH = 20

W_REPS = 3
W_SIZES = (4, 5, 6)
DEEP_OPENS = 1600
CLASSIFY_PREFIXES = (20, 40, 80)
TYPE_OPENS = (100, 400)
SCALING_METRICS = tuple(
    f"core.{loop}.us_per_step.k{k}" for loop in ("execute_word", "step_loop") for k in W_SIZES
) + ("core.execute_word.scaling_exp", "core.step_loop.scaling_exp", "lineage.classification_table.scaling_exp")


def load_hopad() -> SimpleNamespace:
    """Import hopad's modules from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "hopad" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hopad sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("hopad")
    if Path(package.__file__).resolve().parent != (src / "hopad").resolve():
        raise SystemExit(f"bench: imported hopad from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"hopad.{m}") for m in MODULES})


def build_machines(hopad: SimpleNamespace, workload: str) -> dict:
    """The machines a workload builds once and reuses unchanged."""
    if workload == "verify-enum":
        return {}  # the suites build their own corpus inside every call
    u = hopad.ulang.build_u_recognizer()
    if workload == "verify-differential":
        return {"u": u}
    return {
        "u": u,
        "fragment": hopad.core.decollapse(u),
        "monoid": hopad.monoid.shape_monoid(),
    }


class Job(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    size: Optional[Callable[[Any], int]] = None  # work size, for scaling fits


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class Workload:
    """Base class: ``jobs()`` yields one pass; checks consult ``expected``.

    With ``expected=None`` the checks record what they see into
    ``recorded`` instead; ``record_reference.py`` writes that out.
    """

    name = ""
    exercises: tuple[str, ...] = ()  # tracer keys every pass must call

    def __init__(self, hopad, seed: int, machines: dict, expected: Optional[dict]):
        self.h = hopad
        self.m = machines
        self.expected = expected
        self.recorded: dict = {}

    def matches(self, key: str, value) -> bool:
        if self.expected is None:
            self.recorded[key] = value
            return True
        return self.expected.get(key) == value

    def jobs(self):
        raise NotImplementedError

    def scaling(self, sizes: dict) -> dict:
        """Per-layer scaling metrics from the untraced pass's job sizes."""
        return {}


# ---------------------------------------------------------------------------
# verify-differential


def exhaustive_words(max_len: int):
    symbols = [(a, d) for a in WORD_LETTERS for d in (0, 1, 2)]
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def near_member_words(rng: random.Random, count: int, max_len: int) -> list:
    """Members of the bracket-mirror language with 0-3 small edits."""
    words = []
    for _ in range(count):
        body, depth = [], 0
        for _ in range(rng.randint(0, (max_len - 1) // 2)):
            if depth and rng.random() < 0.45:
                body.append("]")
                depth -= 1
            else:
                body.append("[")
                depth += 1
        word = [(a, rng.randint(1, 6)) for a in body]
        opens: list[int] = []
        for i, (a, _) in enumerate(word):
            if a == "[":
                opens.append(i)
            else:
                opens.pop()
        mirrored = opens[-1] + 1 if opens else 0
        word.append(("$", rng.randint(0, 6)))
        word += [("]" if word[i][0] == "[" else "[", word[i][1]) for i in range(mirrored - 1, -1, -1)]
        for _ in range(rng.randint(0, 3)):
            pos = rng.randrange(len(word))
            roll = rng.random()
            if roll < 0.4:
                word[pos] = (word[pos][0], rng.randint(0, 6))
            elif roll < 0.6:
                word[pos] = (rng.choice(WORD_LETTERS), word[pos][1])
            elif roll < 0.8:
                del word[pos]
            else:
                word.insert(pos, (rng.choice(WORD_LETTERS), rng.randint(0, 6)))
            if not word:
                break
        words.append(tuple(word[:max_len]))
    return words


class VerifyDifferential(Workload):
    name = "verify-differential"
    exercises = (
        "core.execute_word",
        "core.step",
        "core.extend_run",
        "core.apply_operation.push",
        "core.apply_operation.pop",
        "core.apply_operation.collapse",
        "ulang.in_u",
    )

    def __init__(self, hopad, seed, machines, expected):
        super().__init__(hopad, seed, machines, expected)
        rng = random.Random(f"{seed}:verify-differential")
        self.seeded = near_member_words(rng, NEAR_MEMBER_WORDS, NEAR_MEMBER_LENGTH)

    def jobs(self):
        # bound when the pass starts, so that a traced pass binds the wrappers
        execute_word, in_u = self.h.core.execute_word, self.h.ulang.in_u
        u = self.m["u"]
        for word in itertools.chain(exhaustive_words(EXHAUSTIVE_LENGTH), self.seeded):
            yield Job(
                "word",
                lambda w=word: (execute_word(u, w).accepted, in_u(w).member),
                lambda verdicts: verdicts[0] == verdicts[1],
            )


# ---------------------------------------------------------------------------
# verify-enum


def suite_ok(line: str) -> bool:
    fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
    return fields.get("status") == "pass" and fields.get("hard") == "0"


class VerifyEnum(Workload):
    name = "verify-enum"
    exercises = (
        "core.step",
        "core.extend_run",
        "lineage.instrument_lineage",
        "lineage.is_k_upper",
        "lineage.is_k_return",
        "lineage.remark_k_return",
        "lineage.decompose_upper",
        "lineage.decompose_return",
        "monoid.phi_of_run",
        "typesys.saturate_level0",
        "typesys.stack_typing",
        "typesys.type_of_stack",
        "typesys.find_witness",
        "typesys.check_run2type",
        "typesys.check_idv",
        "srcsets.compute_src",
        "srcsets.check_origin",
        "srcsets.check_idv_upper",
        "harness.enumerate_runs",
    ) + tuple(f"harness.suite.{s}" for s in ENUM_SUITES)

    def jobs(self):
        for suite in ENUM_SUITES:
            yield Job(
                suite,
                lambda s=suite: self.h.harness.run_suites([s], seed=SUITE_SEED),
                lambda report, s=suite: self._check(s, report.lines),
            )

    def _check(self, suite: str, lines: list) -> bool:
        # the reference lines include the checked= counts, byte for byte
        return self.matches(suite, lines) and all(suite_ok(l) for l in lines if l.startswith("suite="))


# ---------------------------------------------------------------------------
# long-runs


def mirrored_member(word: tuple) -> tuple:
    """``word $ mirror``: a member when ``word`` is balanced but for a
    trailing run of unmatched opens ending on its last letter."""
    mirror = tuple(("]" if a == "[" else "[", d) for a, d in reversed(word))
    return word + (("$", 0),) + mirror


def table_text(table) -> str:
    parts = [f"m={table.length} n={table.level}"]
    for name, sets in (("upper", table.upper), ("return", table.returns)):
        for key in sorted(sets):
            parts.append(f"{name}{key}:{sorted(sets[key])}")
    return "\n".join(parts)


def typing_text(typing: dict, uni, unlabel: dict) -> str:
    """A typing in a form independent of interning order and of the seed's
    relabelling of data values."""
    items = sorted(
        (repr(uni.struct_key(did)), sorted(unlabel[v] for v in idv)) for did, idv in typing.items()
    )
    return repr(items)


def saturation_text(table) -> str:
    uni = table.universe
    return repr(
        sorted(
            (key, sorted((repr(uni.struct_key(did)), flag) for did, flag in entry.items()))
            for key, entry in table.entries.items()
        )
    )


def log_log_slope(points: list) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(size) for _, size in points]
    ys = [math.log(seconds) for seconds, _ in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class LongRuns(Workload):
    name = "long-runs"
    exercises = (
        "core.execute_word",
        "core.step",
        "core.extend_run",
        "core.apply_operation.push",
        "core.apply_operation.pop",
        "core.apply_operation.collapse",
        "lineage.instrument_lineage",
        "lineage.classification_table",
        "typesys.saturate_level0",
        "typesys.stack_typing",
        "typesys.type_of_stack",
    )

    def __init__(self, hopad, seed, machines, expected):
        super().__init__(hopad, seed, machines, expected)
        ulang = hopad.ulang
        rng = random.Random(f"{seed}:long-runs")
        # an injective relabelling of data values: membership, classification
        # and typing depend on equalities only, so references stay valid
        top = 2 * len(ulang.gen_w(max(W_SIZES), W_REPS)) + 2 * DEEP_OPENS + 2
        fresh = rng.sample(range(1, 50 * top), top + 1)
        self.label = dict(zip(range(top + 1), fresh))
        self.unlabel = {v: k for k, v in self.label.items()}

        def relabel(word):
            return tuple((a, self.label[d]) for a, d in word)

        def w(k):
            return ulang.decorate_distinct(ulang.gen_w(k, W_REPS))

        self.accept = {f"w{k}": relabel(mirrored_member(w(k))) for k in W_SIZES}
        # a non-member that fails late: one mirrored value replaced near the end
        late = list(self.accept["w5"])
        pos = rng.randrange(len(late) * 9 // 10, len(late))
        late[pos] = (late[pos][0], self.label[top])
        self.accept["w5-late"] = tuple(late)
        opens = tuple(("[", i) for i in range(1, DEEP_OPENS + 1))
        self.accept[f"deep{DEEP_OPENS}"] = relabel(mirrored_member(opens))
        self.prefixes = {m: relabel(w(3)[:m]) for m in CLASSIFY_PREFIXES}
        self.opens = {n: relabel(tuple(("[", i) for i in range(1, n + 1))) for n in TYPE_OPENS}
        self.members = {key: ulang.in_u(word).member for key, word in self.accept.items()}

    def jobs(self):
        core, lineage, typesys = self.h.core, self.h.lineage, self.h.typesys
        u, fragment = self.m["u"], self.m["fragment"]
        done: dict = {}  # outputs later jobs of this pass consume

        for key, word in self.accept.items():
            yield Job(
                f"accept:{key}",
                lambda word=word: core.execute_word(u, word),
                lambda out, key=key: out.accepted == self.members[key],
                size=lambda out: len(out.run),
            )

        for m, prefix in self.prefixes.items():

            def lineage_job(prefix=prefix, m=m):
                done[m] = lineage.instrument_lineage(core.execute_word(u, prefix).run)
                return done[m]

            yield Job(
                f"lineage:{m}",
                lineage_job,
                lambda lrun, prefix=prefix: lrun.run.read_word == prefix,
            )
            yield Job(
                f"classify:{m}",
                lambda m=m: lineage.classification_table(done.pop(m)),
                lambda table, m=m: self.matches(f"classify:{m}", digest(table_text(table))),
                size=lambda table: table.length,
            )

        def saturate():
            done["table"] = typesys.saturate_level0(fragment, self.m["monoid"])
            return done["table"]

        yield Job(
            "saturate",
            saturate,
            lambda table: self.matches("saturate", digest(saturation_text(table))),
        )
        for n, word in self.opens.items():

            def type_job(word=word):
                table = done["table"]
                stack = core.execute_word(fragment, word).run.configs[-1].stack
                return [typesys.type_of_stack(stack, k, table) for k in range(fragment.level + 1)]

            yield Job(f"type:{n}", type_job, lambda typings, n=n: self._check_typings(n, typings, done["table"]))

    def _check_typings(self, n: int, typings: list, table) -> bool:
        text = "\n".join(
            typing_text(st.typing(i), table.universe, self.unlabel)
            for st in typings
            for i in range(st.k, st.level + 1)
        )
        return self.matches(f"type:{n}", digest(text))

    def step_loop(self, word) -> tuple[float, int]:
        """Seconds and steps to drive ``core.step`` over a member word
        without recording the run."""
        core, u = self.h.core, self.m["u"]
        step = core.step
        config = core.initial_configuration(u)
        pos = steps = 0
        start = time.perf_counter()
        while pos < len(word) or config.state not in u.accepting:
            res = step(u, config, word[pos] if pos < len(word) else None)
            if not isinstance(res, core.Step):
                raise RuntimeError(f"step loop stuck after {steps} steps: {res.reason}")
            config = res.config
            steps += 1
            if res.label[0] is not None:
                pos += 1
        return time.perf_counter() - start, steps

    def scaling(self, sizes: dict) -> dict:
        out = {}
        execute = [sizes[f"accept:w{k}"] for k in W_SIZES]
        loop = [self.step_loop(self.accept[f"w{k}"]) for k in W_SIZES]
        for name, points in (("core.execute_word", execute), ("core.step_loop", loop)):
            for k, (seconds, steps) in zip(W_SIZES, points):
                out[f"{name}.us_per_step.k{k}"] = seconds / steps * 1e6
            out[f"{name}.scaling_exp"] = log_log_slope(points)
        for (_, exec_steps), (_, loop_steps) in zip(execute, loop):
            if exec_steps != loop_steps:
                raise RuntimeError(f"step loop took {loop_steps} steps, execute_word {exec_steps}")
        out["lineage.classification_table.scaling_exp"] = log_log_slope(
            [sizes[f"classify:{m}"] for m in CLASSIFY_PREFIXES]
        )
        return out


WORKLOADS = {w.name: w for w in (VerifyDifferential, VerifyEnum, LongRuns)}
