"""Tests of the benchmark itself: run with ``python -m pytest bench``.

The tests that drive whole workloads take a few minutes.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

HOPAD = workloads.load_hopad()
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def make(name, seed=7):
    return workloads.WORKLOADS[name](
        HOPAD, seed, workloads.build_machines(HOPAD, name), workloads.load_reference().get(name, {})
    )


def hopad_modules():
    return [m for n, m in sys.modules.items() if n == "hopad" or n.startswith("hopad.")]


def test_tracer_replaces_every_binding_and_restores_it():
    originals = [getattr(sys.modules[f"hopad.{m}"], f) for m, f in TRACED]
    holders = {
        (module.__name__, attr)
        for module in hopad_modules()
        for attr, value in vars(module).items()
        if any(value is fn for fn in originals)
    }
    assert ("hopad.harness", "step") in holders  # bound by `from .core import`
    with Tracer():
        for module in hopad_modules():
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals), f"{module.__name__}.{attr} untraced"
    for module_name, attr in holders:
        assert any(getattr(sys.modules[module_name], attr) is fn for fn in originals)


def test_every_declared_per_layer_metric_is_measured():
    tracer = Tracer()
    measured_elsewhere = set(workloads.SCALING_METRICS) | {"trace.overhead_s"}
    for metric in SPEC["per_layer"]:
        if metric["name"] not in measured_elsewhere:
            tracer.metric(metric["name"])  # raises on a name it cannot measure


def test_inputs_follow_the_seed():
    first, again, other = make("long-runs", 3), make("long-runs", 3), make("long-runs", 4)
    assert first.accept == again.accept and first.accept != other.accept
    words = workloads.near_member_words(random.Random(3), 200, 20)
    assert words == workloads.near_member_words(random.Random(3), 200, 20)
    assert words != workloads.near_member_words(random.Random(4), 200, 20)
    assert all(len(w) <= 20 for w in words)


def test_suite_lines_are_checked_against_the_reference():
    enum = make("verify-enum")
    line = enum.expected["idv"][0]
    assert enum._check("idv", [line])
    assert not enum._check("idv", [line.replace("checked=", "checked=1")])
    assert not enum._check("origin", [line])


def test_speed_sampler_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 3 and sampler.spent > 0 and sampler.factor() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "long-runs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def traced_run(name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=workloads.ROOT, env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    spans = {}
    for line in lines:
        if line.startswith("span "):
            _, key, calls = line.split()[:3]
            spans[key] = int(calls.split("=")[1])
    return json.loads(lines[-1]), spans


def is_count(metric):
    return metric.endswith(".calls") or metric in ("harness.enumerate_runs.runs", "typesys.descriptors")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_cover_the_workload(name):
    first, spans = traced_run(name, 1)
    second, _ = traced_run(name, 2)
    assert first["correct"] and second["correct"]
    counts = {m: v["value"] for m, v in first["metrics"].items() if is_count(m)}
    assert counts == {m: v["value"] for m, v in second["metrics"].items() if is_count(m)}
    missing = [key for key in workloads.WORKLOADS[name].exercises if spans.get(key, 0) < 1]
    assert not missing, f"{name} never called {missing}"


class ReuseGuard:
    """Observes traced calls; flags a run, lineage run or typing table that
    an earlier pass already handed to hopad."""

    def __init__(self):
        self.types = (HOPAD.core.Run, HOPAD.lineage.LineageRun, HOPAD.typesys.Level0TypeTable)
        self.earlier: dict = {}
        self.current: dict = {}
        self.reused: list = []

    def next_pass(self):
        self.earlier.update(self.current)
        self.current = {}

    def __call__(self, args, kwargs, result):
        for obj in (*args, *kwargs.values(), result):
            if isinstance(obj, HOPAD.core.Outcome):
                obj = obj.run
            if isinstance(obj, self.types):
                ref = self.earlier.get(id(obj))
                if ref is not None and ref() is obj:
                    self.reused.append(type(obj).__name__)
                self.current[id(obj)] = weakref.ref(obj)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_no_pass_reuses_program_state(name):
    workload = make(name)
    guard = ReuseGuard()
    with Tracer(observe=guard):
        for _ in range(2):
            assert run_pass(workload).failed == 0
            assert guard.current, "the guard saw no runs or tables"
            guard.next_pass()
    assert not guard.reused, f"{name} reused {sorted(set(guard.reused))} across passes"
