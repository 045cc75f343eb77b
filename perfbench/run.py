"""partialsat benchmark: one seeded, closed-loop, single-client workload per
run.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the ops run until `--seconds` of op time is measured (and
at least 100 ops ran) and the end-to-end metrics are reported; with `--trace 1` a fixed corpus of
cycles runs once untraced and once traced, and the per-layer metrics are
reported.  Every answer is checked against the benchmark's own reference
(`ref.py`); a wrong answer makes the run exit 1.  The last line of stdout
is the result object; files go to `.perfbench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import layers
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 15
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
WALL_CAP_S = 120.0  # stop adding cycles after this much wall time


def child_env() -> dict[str, str]:
    """The CLI children's environment: no PARTIALSAT_* overrides, a fixed
    hash seed, and the checkout's sources first on the import path."""
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG") if k in os.environ}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_self() -> None:
    """Re-execute under a fixed hash seed and without PARTIALSAT_*
    variables, so set iteration order and every default budget are the
    same on every run."""
    dirty = any(k.startswith("PARTIALSAT_") for k in os.environ)
    if os.environ.get("PYTHONHASHSEED") == "0" and not dirty:
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARTIALSAT_")}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


class Setup:
    """Wall time of a fresh interpreter running `import partialsat`.  One
    untimed warm-up spawn fills the bytecode cache; the timed spawns are
    spread over the run, so a burst of load on the host hits few of them."""

    def __init__(self, env):
        self.cmd = [sys.executable, "-c", "import partialsat"]
        self.env = env
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, capture_output=True)
        return time.perf_counter() - start

    def keep_up(self, fraction: float) -> None:
        """Take samples until `fraction` of the SETUP_SPAWNS are done."""
        while len(self.samples) < min(SETUP_SPAWNS, math.ceil(SETUP_SPAWNS * fraction)):
            self.samples.append(self._spawn())


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "partialsat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """Ops of one run: times, named-op groups, shapes, failures, errors."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.named: dict[str, list[float]] = defaultdict(list)
        self.shapes: dict[str, list[dict]] = defaultdict(list)
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.probes: dict[str, str] = {}
        self.span_count = 0

    def timed(self, call, op):
        start = time.perf_counter()
        try:
            raw, ok = call(op), True
        except Exception as exc:  # any exception is a failed op, never a crash
            raw, ok = exc, False
        return ok, raw, time.perf_counter() - start

    def settle(self, op, ok, raw, dt, record=True) -> None:
        """Extract and check one op's answer, outside the timed region."""
        if ok:
            try:
                answer = self.wl.answer(op, raw)
            except Exception as exc:
                ok, raw = False, exc
        if not ok:
            self.failures.append(f"{op.name}: {type(raw).__name__}: {raw}")
        else:
            errors = self.wl.check(op, answer)
            if errors:
                self.wrong.append(f"{op.name} {op.data.get('argv', '')}: {errors[0]}")
        if record:
            cost = dt if ok else math.inf
            self.times.append(cost)
            self.named[op.name].append(cost)
            self.shapes[op.name].append(op.shape)


def cycle_ops(wl, seed: int, k: int, ids) -> list:
    """Cycle `k` of a run, in a seeded random order: each op family is
    spread over the run's whole length, so a slow phase of the host lands
    on every family alike instead of on one family's block of ops."""
    rng = random.Random(f"{seed}:{wl.name}:{k}")
    ops = wl.cycle(rng, k, lambda: next(ids))
    rng.shuffle(ops)
    return ops


def untraced(wl, run: Run, seed: int, seconds: float, setup: Setup) -> float:
    """Closed loop over whole cycles until `seconds` of op time is
    measured and at least MIN_OPS ops ran, with the set-up spawns spread
    between ops; returns the op time."""
    ids = itertools.count()
    measured, k = 0.0, 0
    wall_start = time.perf_counter()
    while ((measured < seconds or len(run.times) < MIN_OPS)
           and time.perf_counter() - wall_start < WALL_CAP_S):
        done = []
        for op in cycle_ops(wl, seed, k, ids):
            ok, raw, dt = run.timed(wl.run, op)
            done.append((op, ok, raw, dt))
            measured += dt
            setup.keep_up(measured / seconds)
        for op, ok, raw, dt in done:
            run.settle(op, ok, raw, dt)
        k += 1
    setup.keep_up(1.0)
    return measured


def traced(wl, run: Run, ps, seed: int) -> dict[str, float]:
    """The fixed trace corpus: untraced, then traced; plus the probes and
    the touch calls.  Returns the per-layer metrics."""
    ids = itertools.count()
    ops = [op for k in range(wl.trace_cycles) for op in cycle_ops(wl, seed, k, ids)]
    is_cli = wl.name == "cli"
    inproc = wl.run_inprocess if is_cli else wl.run
    spawner = wl if is_cli else workloads.Cli(ps, sys.executable, child_env(), ROOT,
                                               run_dir(wl.name, seed))
    touch_calls, touch_spawn = workloads.touch(ps, spawner)
    spawn_ops = ops if is_cli else [touch_spawn] * 3

    plain = []
    for op in ops:
        ok, raw, dt = run.timed(wl.run, op)
        run.settle(op, ok, raw, dt)
        plain.append(dt)
    # untraced in-process times: the base of the overhead and of spawn_s
    baseline = [run.timed(inproc, op)[2] for op in ops] if is_cli else plain
    spawned = [run.timed(spawner.run, op)[2] for op in spawn_ops] if not is_cli else plain
    spawn_inproc = baseline if is_cli else [run.timed(spawner.run_inprocess, op)[2]
                                            for op in spawn_ops]

    tracer = Tracer()
    layers.install(tracer, ps)
    traced_times = []
    deep_decided = 0
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            ok, raw, dt = run.timed(inproc, op)
            run.settle(op, ok, raw, dt, record=False)
            traced_times.append(dt)
        tracer.op_id = -1
        for name, call in touch_calls:
            call()
        tracer.op_id = -2
        for name, call in wl.probes():
            try:
                call()
            except Exception as exc:  # a probe's failure is its finding
                run.probes[name] = type(exc).__name__
                continue
            run.probes[name] = "decided"
            if name.startswith("deep_"):
                deep_decided += 1
    finally:
        tracer.unwrap()

    metrics = layers.reduce(tracer)
    metrics["formula.deep_inputs_decided"] = deep_decided
    metrics["cli.spawn_s"] = statistics.median(s - r for s, r in zip(spawned, spawn_inproc))
    untraced_rate = len(ops) / sum(baseline)
    traced_rate = len(ops) / sum(traced_times)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.tsv.gz")
    run.span_count = len(tracer.spans)
    return metrics


def run_dir(workload: str, seed: int) -> Path:
    path = OUT / f"{workload}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def shape_summary(shapes: dict[str, list[dict]]) -> dict:
    """Per op family: count and min/median/max of every shape statistic."""
    out = {}
    for name, rows in sorted(shapes.items()):
        stats = {"ops": len(rows)}
        for key in sorted({k for row in rows for k in row}):
            vals = [row[key] for row in rows if key in row]
            stats[key] = [min(vals), statistics.median(vals), max(vals)]
        out[name] = stats
    return out


def main(argv: list[str]) -> int:
    pin_self()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verdict", "allsat", "cnf", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "partialsat" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partialsat as ps
    import partialsat.cli  # noqa: F401  (loads ps.cli for the CLI workload)

    if not Path(ps.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported partialsat from {ps.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(ps, sys.executable, env, ROOT, run_dir(args.workload, args.seed))
    else:
        wl = cls(ps)
    run = Run(wl)
    started = time.perf_counter()

    if args.trace:
        metrics = traced(wl, run, ps, args.seed)
        units = dict(layers.METRICS)
        measured = None
    else:
        setup = Setup(env)
        measured = untraced(wl, run, args.seed, args.seconds, setup)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                   else resource.RUSAGE_SELF)
        finite = [t for t in run.times if math.isfinite(t)]
        p50, p90 = quantile(run.times, 0.5), quantile(run.times, 0.9)
        # a failed op misses every limit; a quantile landing on one reads as
        # the whole measured time
        metrics = {
            "ops_per_s": len(run.times) / measured,
            "op_p50_ms": 1e3 * (p50 if math.isfinite(p50) else measured),
            "op_p90_ms": 1e3 * (p90 if math.isfinite(p90) else measured),
            "decided_ratio": len(finite) / len(run.times),
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "decided_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

    attempted = len(run.times)
    failed = sum(1 for t in run.times if not math.isfinite(t))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "budgets": wl.BUDGETS,
        "samples": {"ops": attempted, "setup_spawns": 0 if args.trace else SETUP_SPAWNS},
        "measured_op_s": measured,
        "wall_s": time.perf_counter() - started,
        "shapes": shape_summary(run.shapes),
    }
    if args.trace:
        meta["samples"]["spans"] = run.span_count
        meta["samples"]["trace_cycles"] = wl.trace_cycles
        meta["probes"] = run.probes
    named = {
        name: {"ops": len(ts), "median_ms": 1e3 * statistics.median(ts),
               "max_ms": 1e3 * max(ts)}
        for name, ts in sorted(run.named.items())
    }
    correct = not run.wrong
    report = {"meta": meta, "named_ops": named, "metrics": metrics,
              "failures": run.failures, "wrong": run.wrong}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    shutil.rmtree(run_dir(args.workload, args.seed))  # generated inputs only

    print(f"# partialsat benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={attempted} failed={failed} wrong={len(run.wrong)}")
    print("# meta " + json.dumps({k: v for k, v in meta.items() if k != "shapes"}))
    print("# shapes " + json.dumps(meta["shapes"]))
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    for name, row in named.items():
        print(f"# op {name}: n={row['ops']} median={row['median_ms']:.3f} ms "
              f"max={row['max_ms']:.3f} ms")
    for line in run.failures[:10]:
        print(f"# failed: {line}")
    for line in run.wrong[:10]:
        print(f"# WRONG: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(2)
