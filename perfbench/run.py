#!/usr/bin/env python3
"""orientkit benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {evaluate,rpn,augment,roc} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root (or any checkout of it); the package is
imported from `src/` next to this directory and from nowhere else.

--trace 0 sets up the workload SETUP_TRIALS times (fresh import of
orientkit plus the seeded inputs; `setup_s` is the median), makes one
untimed warm-up call, then repeats the user's call for S seconds and
reports the median items per second and the peak resident memory of the
process plus its largest child (the evaluate pool's workers). Times are
rescaled to nominal host speed (see hostspeed.py). Every call's output
is checked after its timed region.

--trace 1 is the separate traced run. It traces all four workloads with
the given seed, so that every per-layer metric is measured on every
traced run, and reports each as `<workload>.<layer metric>`. Spans and
counters are also written to .perfbench/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracer import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("evaluate", "rpn", "augment", "roc")
TIMED_JOBS = {"evaluate": 2}  # the only parallelism is the program's own pool
SETUP_TRIALS = 7
MIN_REPS = 3
TRACE_REPS = 3


def pin_environment() -> None:
    # ORIENTKIT_JOBS would silently override --jobs; BLAS pools would add
    # threads the workloads do not ask for.
    os.environ.pop("ORIENTKIT_JOBS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def import_orientkit():
    """A fresh import of the package and its CLI from SRC."""
    for name in [m for m in sys.modules if m == "orientkit" or m.startswith("orientkit.")]:
        del sys.modules[name]
    ok = importlib.import_module("orientkit")
    importlib.import_module("orientkit.cli")
    if not Path(ok.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"orientkit imported from {ok.__file__}, not from {SRC}")
    return ok


def stop_children() -> None:
    """Wait for every process this run started, the program's included.

    Pool workers are joined by their executors; this also joins any
    multiprocessing child still listed, and stops the forkserver and
    resource-tracker daemons that a spawn or forkserver pool would leave
    running until the interpreter exits.
    """
    for child in multiprocessing.active_children():
        child.join()
    for daemon in (multiprocessing.forkserver._forkserver,
                   multiprocessing.resource_tracker._resource_tracker):
        stop = getattr(daemon, "_stop", None)
        if stop is not None:
            stop()


def environment() -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha}


def call_and_check(wl, out_dir: Path, jobs, checks) -> None:
    """One untimed call whose output is checked, then removed."""
    wl.check(wl.call(out_dir, jobs), checks)
    shutil.rmtree(out_dir, ignore_errors=True)


def timed_run(name: str, seed: int, seconds: float, work: Path, checks) -> dict:
    mod = importlib.import_module(f"wl_{name}")
    jobs = TIMED_JOBS.get(name)
    host = HostSpeed(jobs or 1)
    try:
        setup, raw, rates, slowdowns, wl = [], [], [], [], None
        for trial in range(SETUP_TRIALS):
            wl, elapsed, slowdown = host.timed(
                lambda: mod.Workload(import_orientkit(), seed, work / f"inputs{trial}"))
            setup.append(elapsed / slowdown)
        call_and_check(wl, work / "warmup", jobs, checks)

        while sum(raw) < seconds or len(raw) < MIN_REPS:
            out_dir = work / f"out{len(raw)}"
            out, elapsed, slowdown = host.timed(lambda: wl.call(out_dir, jobs), jobs or 1)
            raw.append(elapsed)
            rates.append(wl.items / elapsed * slowdown)
            slowdowns.append(slowdown)
            wl.check(out, checks)
            shutil.rmtree(out_dir, ignore_errors=True)
        # Before the reference helper exits: only the program's children count.
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        host.close()

    q1, median, q3 = statistics.quantiles([wl.items / t for t in raw], n=4)
    print(f"# {name}: {len(raw)} timed calls of {wl.items} {mod.ITEM}s; raw items/s quartiles "
          f"{q1:.6g} {median:.6g} {q3:.6g}; host slowdown median "
          f"{statistics.median(slowdowns):.3f} range {min(slowdowns):.3f}..{max(slowdowns):.3f}; "
          "setup trials "
          + " ".join(f"{s:.4f}" for s in setup))
    return {
        "items_per_s": (statistics.median(rates), "items/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def trace_workload(name: str, ok, seed: int, work: Path, checks):
    wl = importlib.import_module(f"wl_{name}").Workload(ok, seed, work / "inputs")
    jobs = TIMED_JOBS.get(name)
    # The inner pass traces every layer in one process; with a pool, an outer
    # pass at the timed job count traces only the spans that stay in this process.
    passes = [("inner", 1 if jobs else None, True)]
    if jobs and jobs > 1:
        passes.append(("outer", jobs, False))
    tracers = {p: Tracer() for p, _, _ in passes}
    walls: dict[str, list[float]] = {p: [] for p, _, _ in passes}
    untraced: list[float] = []
    call_and_check(wl, work / "warmup", jobs, checks)
    last = None
    for rep in range(TRACE_REPS):
        t0 = perf_counter()
        out = wl.call(work / "plain", jobs)
        untraced.append(perf_counter() - t0)
        wl.check(out, checks)
        shutil.rmtree(work / "plain", ignore_errors=True)
        for pname, pjobs, inner in passes:
            tr, out_dir = tracers[pname], work / f"{pname}{rep}"
            with patched(tr, wl.trace_targets(inner)):
                t0 = perf_counter()
                with tr.span("call"):
                    out = wl.call(out_dir, pjobs, tr)
                walls[pname].append(perf_counter() - t0)
            wl.check(out, checks)
            if pname == "inner":
                if last is not None:
                    shutil.rmtree(work / f"inner{rep - 1}", ignore_errors=True)
                last = out
            else:
                shutil.rmtree(out_dir, ignore_errors=True)

    inner, outer = tracers["inner"], tracers.get("outer")
    metrics = wl.layer_metrics(inner, outer, TRACE_REPS, last)
    wall = inner.total_s("call") / TRACE_REPS
    unexplained = inner.self_s("call") / TRACE_REPS
    metrics.update({
        "wall_s": (wall, "s"),
        "unexplained_s": (unexplained, "s"),
        "explained_ratio": (1.0 - unexplained / wall, "ratio"),
        "trace_overhead_s": (
            statistics.median(walls[passes[-1][0]]) - statistics.median(untraced), "s"),
    })
    spans = {p: tr.as_dict() for p, tr in tracers.items()}
    return {f"{name}.{k}": v for k, v in metrics.items()}, spans


def traced_run(first: str, seed: int, work: Path, checks, env: dict) -> dict:
    ok = import_orientkit()
    metrics, document = {}, {"env": env, "seed": seed, "trace_reps": TRACE_REPS, "workloads": {}}
    for name in (first,) + tuple(w for w in WORKLOADS if w != first):
        layer, spans = trace_workload(name, ok, seed, work / name, checks)
        metrics.update(layer)
        document["workloads"][name] = {
            "passes": spans, "metrics": {k: v for k, (v, _) in layer.items()}}
    out = ROOT / ".perfbench" / f"trace-{first}-seed{seed}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"# spans and counters written to {out.relative_to(ROOT)}")
    return dict(sorted(metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    if not (SRC / "orientkit" / "__init__.py").is_file():
        print(f"error: no orientkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import Checks

    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          + f" trace={args.trace}")
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        if args.trace:
            metrics = traced_run(args.workload, args.seed, work, checks, env)
        else:
            metrics = timed_run(args.workload, args.seed, args.seconds, work, checks)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>16.6f} {unit}")
    print(f"{'failed_ratio':<56} {checks.failed / checks.attempted:>16.6f} "
          f"ratio ({checks.failed} of {checks.attempted} checked operations)")
    for failure in checks.first_failures:
        print(f"# check failed: {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
