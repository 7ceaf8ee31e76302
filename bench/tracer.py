"""Call tracing for the benchmark's traced run.

The tracer wraps a fixed set of hopad's public functions.  Modules bind
functions at import time (``from .core import step, extend_run`` in
``harness``, the ``lineage`` names in ``typesys`` and ``srcsets``, the
re-exports in ``hopad``), so each wrapper replaces its function in every
hopad module namespace that holds it, not only in its home module.

Each call is a span: the wrapper times it, and a stack of open spans lets
it charge the span's time to its parent, so that a function's self time
is its time minus the time of its traced callees.  Spans are aggregated
per key as they close (calls, inclusive time, self time); at millions of
calls per workload a stored span per call would dominate the run.
Inclusive time counts only the outermost call of a recursive function.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

# (module, function) pairs the traced run wraps.
TRACED = (
    ("core", "execute_word"),
    ("core", "step"),
    ("core", "apply_operation"),
    ("core", "extend_run"),
    ("ulang", "in_u"),
    ("lineage", "instrument_lineage"),
    ("lineage", "is_k_upper"),
    ("lineage", "is_k_return"),
    ("lineage", "remark_k_return"),
    ("lineage", "decompose_upper"),
    ("lineage", "decompose_return"),
    ("lineage", "classification_table"),
    ("monoid", "phi_of_run"),
    ("typesys", "saturate_level0"),
    ("typesys", "stack_typing"),
    ("typesys", "type_of_stack"),
    ("typesys", "find_witness"),
    ("typesys", "check_run2type"),
    ("typesys", "check_idv"),
    ("srcsets", "compute_src"),
    ("srcsets", "check_origin"),
    ("srcsets", "check_idv_upper"),
    ("harness", "enumerate_runs"),
    ("harness", "run_suites"),
)

CALLS, TOTAL, SELF, DEPTH = range(4)


def _apply_operation_key(args, kwargs) -> str:
    op = args[2] if len(args) > 2 else kwargs["op"]
    return f"core.apply_operation.{op.kind}"


def _run_suites_key(args, kwargs) -> str:
    selection = (args[0] if args else kwargs.get("selection")) or ("all",)
    return "harness.suite." + "+".join(selection)


# Functions whose spans are keyed by an argument rather than by name.
SPLIT_KEYS = {
    "core.apply_operation": _apply_operation_key,
    "harness.run_suites": _run_suites_key,
}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.

    ``observe(args, kwargs, result)``, when given, sees every traced call.
    """

    def __init__(self, observe: Optional[Callable] = None):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, depth]
        self.runs_enumerated = 0
        self.spaces: set[int] = set()  # hashes of distinct enumeration spaces
        self.lineage_runs: set[int] = set()  # hashes of distinct instrumented runs
        self.descriptors = 0
        self._open: list[list[float]] = []  # child time of each open span
        self._patched: list = []
        self._observe = observe
        self._after = {
            "harness.enumerate_runs": self._after_enumerate,
            "lineage.instrument_lineage": self._after_instrument,
            "typesys.saturate_level0": self._after_saturate,
        }

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name == "hopad" or name.startswith("hopad.")]
        for module_name, function_name in TRACED:
            original = getattr(sys.modules[f"hopad.{module_name}"], function_name)
            wrapper = self._wrap(original, f"{module_name}.{function_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        open_spans, stats, clock = self._open, self.stats, time.perf_counter
        key_of = SPLIT_KEYS.get(name)
        after = self._after.get(name)
        observe = self._observe

        def traced(*args, **kwargs):
            key = name if key_of is None else key_of(args, kwargs)
            rec = stats.get(key)
            if rec is None:
                rec = stats[key] = [0, 0.0, 0.0, 0]
            children = [0.0]
            open_spans.append(children)
            rec[DEPTH] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                rec[DEPTH] -= 1
                rec[CALLS] += 1
                rec[SELF] += elapsed - children[0]
                if rec[DEPTH] == 0:
                    rec[TOTAL] += elapsed
                if open_spans:
                    open_spans[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _after_enumerate(self, args, kwargs, runs) -> None:
        space = args[0] if args else kwargs["space"]
        self.spaces.add(hash(space))
        self.runs_enumerated += len(runs)

    def _after_instrument(self, args, kwargs, lrun) -> None:
        run = lrun.run  # a deterministic run is fixed by its start and its steps
        self.lineage_runs.add(hash((run.automaton, run.configs[0], run.labels, run.transitions)))

    def _after_saturate(self, args, kwargs, table) -> None:
        self.descriptors += table.stats.descriptors

    def metric(self, name: str) -> float:
        """The value of a per-layer metric measured by the tracer."""
        if name == "typesys.descriptors":
            return self.descriptors
        if name == "harness.enumerate_runs.runs":
            return self.runs_enumerated
        if name == "harness.enumerate_runs.distinct_space_ratio":
            return _ratio(len(self.spaces), self.calls("harness.enumerate_runs"))
        if name == "lineage.instrument_lineage.distinct_run_ratio":
            return _ratio(len(self.lineage_runs), self.calls("lineage.instrument_lineage"))
        key, stat = name.rsplit(".", 1)
        index = {"calls": CALLS, "total_s": TOTAL, "self_s": SELF}[stat]
        return self.stats.get(key, [0, 0.0, 0.0, 0])[index]

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[CALLS]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
