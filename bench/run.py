"""Run a workload of the hopad benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``verify-differential``, ``verify-enum``, ``long-runs`` or ``all``
(each workload in turn, in its own process).  Run from the repository root;
hopad is imported from ``src``.

The load is a closed loop: one caller in one thread sends the next job
when the previous one returns.  ``--trace 0`` times whole passes over the
workload's job list for about S seconds and prints the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` times one untraced pass, then traces
passes and prints the per-layer metrics.  Human-readable lines come
first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import speed
import workloads
from tracer import Tracer

PROBES_PER_PASS = 5
MAX_LOGGED_FAILURES = 5


@dataclass
class PassResult:
    wall_s: float = 0.0  # time inside the jobs' calls into hopad
    speed: float = 1.0  # nominal seconds per measured second (speed.py)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # per-layer, traced passes only
    spans: dict = field(default_factory=dict)  # tracer key -> [calls, total_s, self_s, depth]


class NoSampler:
    spent = 0.0


def run_pass(workload: workloads.Workload, sizes: dict | None = None, sampler=NoSampler) -> PassResult:
    """One pass over the job list; a job that raises or whose output fails
    its check counts as failed.  ``sizes`` collects (seconds, size) per
    sized job.  Time spent in ``sampler``'s samples is not counted."""
    result = PassResult()
    clock = time.perf_counter
    for job in workload.jobs():
        result.attempted += 1
        elapsed = None
        sampled, start = sampler.spent, clock()
        try:
            out = job.run()
            elapsed = clock() - start - (sampler.spent - sampled)
            ok = job.check(out)
        except Exception as exc:  # a failing job is data for error_rate
            if elapsed is None:
                elapsed = clock() - start - (sampler.spent - sampled)
            ok, out = False, f"{type(exc).__name__}: {exc}"
        result.wall_s += elapsed
        if not ok:
            result.failed += 1
            if len(result.failures) < MAX_LOGGED_FAILURES:
                result.failures.append(f"{job.name}: {str(out)[:200]}")
        elif sizes is not None and job.size is not None:
            sizes[job.name] = (elapsed, job.size(out))
    return result


def keep_going(passes: list, started: float, seconds: float) -> bool:
    """Whether another pass of the usual length still fits in the budget."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / len(passes) <= seconds


def setup_probes(workload: str, count: int) -> list[tuple[float, float]]:
    """(normalised, raw) times from starting a process to its first job;
    each probe is normalised by its own reference-loop time (speed.py)."""
    probe = workloads.BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        ready, loop = map(float, done.stdout.split())
        samples.append(((ready - start) * speed.NOMINAL_S / loop, ready - start))
    return samples


def git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # e.g. a checkout without git metadata


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "hopad").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def environment(load1: float) -> str:
    return (
        f"env python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
        f"loadavg1={load1:.2f} commit={git_commit()} src_sha256={source_digest()}"
    )


def measure_untraced(workload, args) -> tuple[dict, list, dict]:
    # set-up probes are spread over the run, a few before each pass, so
    # that they see the same mix of CPU speeds as the passes
    probes, passes, started = [], [], time.perf_counter()
    while not passes or keep_going(passes, started, args.seconds):
        probes += setup_probes(workload.name, PROBES_PER_PASS)
        with speed.SpeedSampler() as sampler:
            passes.append(run_pass(workload, sampler=sampler))
        passes[-1].speed = sampler.factor()
    metrics = {
        "setup_s": statistics.median(normalised for normalised, _ in probes),
        "wall_s": statistics.median(p.wall_s * p.speed for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_raw_s": statistics.median(raw for _, raw in probes),
        "wall_raw_s": statistics.median(p.wall_s for p in passes),
        "speed_factor": statistics.median(p.speed for p in passes),
    }
    return metrics, passes, raw


def measure_traced(workload, args, names: list) -> tuple[dict, list, dict]:
    started = time.perf_counter()
    sizes: dict = {}
    untraced = run_pass(workload, sizes)
    measured = dict.fromkeys(workloads.SCALING_METRICS, 0.0)
    measured.update(workload.scaling(sizes))
    traced = []
    while not traced or keep_going(traced, started, args.seconds):
        with Tracer() as tracer:
            traced.append(run_pass(workload))
        measured["trace.overhead_s"] = traced[-1].wall_s - untraced.wall_s
        traced[-1].metrics = {n: measured[n] if n in measured else tracer.metric(n) for n in names}
        traced[-1].spans = tracer.stats
    metrics = {n: statistics.median(p.metrics[n] for p in traced) for n in names}
    return metrics, [untraced] + traced, {}


def run_workload(args) -> int:
    load1 = os.getloadavg()[0]
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    hopad = workloads.load_hopad()
    workload = workloads.WORKLOADS[args.workload](
        hopad, args.seed, workloads.build_machines(hopad, args.workload),
        workloads.load_reference().get(args.workload, {}),
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, passes, raw = measure_traced(workload, args, [m["name"] for m in declared])
    else:
        values, passes, raw = measure_untraced(workload, args)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"jobs_per_pass={passes[0].attempted}")
    print(environment(load1))
    for failure in (f for p in passes for f in p.failures):
        print(f"failed {failure}", file=sys.stderr)
    for key, (calls, total, self_s, _) in sorted(passes[-1].spans.items()):
        print(f"span {key} calls={calls} total_s={total:.6g} self_s={self_s:.6g}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{name} {value:.6g}")
    if not args.trace:  # failures reported beside the metrics, never 0-valued
        print(f"error_rate {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
