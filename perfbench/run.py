#!/usr/bin/env python3
"""Benchmark of unimoments: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
The workloads, metric names and units are those of ``BENCHMARK.json``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones.  The end-to-end times are scaled to
a reference host speed (``bench_speed``).  Every run writes its raw numbers,
spans and run metadata to ``perfbench/results/``.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Set-up is timed this many times per run, each in a fresh interpreter.
SETUP_SAMPLES = 7
# Load safety: the program starts one process per requested worker and has
# no upper bound of its own, so never ask for more than this.
WORKERS = min(2, os.cpu_count() or 1)

sys.path[:0] = [str(SRC), str(HERE)]

import bench_speed  # noqa: E402  (needs nothing from unimoments)


def _bench_modules():
    """Import the package from this checkout's src/, then the benchmark's modules."""
    import unimoments

    if Path(unimoments.__file__).resolve().parent != SRC / "unimoments":
        raise ImportError(f"unimoments was imported from {unimoments.__file__}, not {SRC}")
    import bench_trace
    import bench_workloads

    return bench_trace, bench_workloads


def _time_setup(args) -> tuple[float, float]:
    """Seconds from interpreter start to imported package and generated inputs.

    Returns the wall time and the time at reference host speed.  The set-up
    interpreter probes the host's speed on its own CPU while it imports and
    builds, and reports that speed and when it finished, on the system-wide
    monotonic clock, less the time its samples took.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--size", args.size]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[-1])
    elapsed = report["ended"] - started
    return elapsed, elapsed * report["speed"]


def measure(workload, seconds: float, trace: bool, bt, bw):
    """Run passes until the next one would end after ``seconds``.

    Untraced runs make at least one pass.  Traced runs alternate an
    untraced and a traced pass, and make at least one of each.
    """
    passes, layers, traces = [], [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        bw.reset_caches()
        if traced:
            with bt.Tracer() as tracer:
                result = bw.run_pass(workload)
            layers.append(bt.layer_metrics(tracer, workload.k_big, workload.k_mid,
                                           result.output_bytes))
            traces.append(tracer.dump())
        else:
            result = bw.run_pass(workload)
        result.traced = traced
        passes.append(result)
        elapsed = time.perf_counter() - started
        if len(passes) >= (2 if trace else 1) and elapsed + result.wall_s > seconds:
            return passes, layers, traces


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def metrics_of(passes, layers, setup_samples, trace: bool, bt) -> dict[str, float]:
    """The run's metrics; ``setup_samples`` are (wall, reference-speed) pairs."""
    untraced = [p for p in passes if not p.traced]
    if not trace:
        return {
            "setup_s": statistics.median(ref for _wall, ref in setup_samples),
            "wall_ref_s": statistics.median(p.wall_ref_s for p in untraced),
            "core_ref_s": statistics.median(p.core_ref_s for p in untraced),
            "peak_rss_mb": _peak_rss_mib(),
        }
    values = bt.median_metrics(layers)
    values["trace.overhead_s"] = (statistics.median(p.wall_ref_s for p in passes if p.traced)
                                  - statistics.median(p.wall_ref_s for p in untraced))
    return values


def wall_clock_medians(passes, setup_samples) -> dict[str, float]:
    """Medians of the times as the clock read them, before scaling to reference speed."""
    untraced = [p for p in passes if not p.traced]
    return {
        "setup_wall_s": statistics.median(wall for wall, _ref in setup_samples),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "core_s": statistics.median(p.core_s for p in untraced),
    }


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "unimoments").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "env": {name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MOMENTS_WORKERS")},
        "workers": WORKERS,
        "seed": seed,
    }


def run_one(args) -> int:
    try:
        setup_samples = [_time_setup(args) for _ in range(SETUP_SAMPLES)]
        bt, bw = _bench_modules()
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = bw.build(args.workload, args.seed, args.size, WORKERS)
    passes, layers, traces = measure(workload, args.seconds, bool(args.trace), bt, bw)
    values = metrics_of(passes, layers, setup_samples, bool(args.trace), bt)

    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    wall_clock = wall_clock_medians(passes, setup_samples)

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(args.seed),
        "operations": [op.label for op in workload.ops],
        "setup_samples_s": setup_samples,
        "passes": [vars(p) for p in passes],
        "metrics": {name: dict(m, kind=bt.metric_kind(name)) for name, m in metrics.items()},
        "wall_clock_medians_s": wall_clock,
        "traces": traces,
    }, indent=1) + "\n")

    n_traced = sum(p.traced for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  workers {WORKERS}  "
          f"passes {len(passes) - n_traced} untraced, {n_traced} traced")
    if args.trace:
        print("spans are recorded in this process only: work done in pool workers "
              "is self time of the span that started the pool")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{'error_rate':26s} {len(failures) / attempted:.6g}  "
          f"({len(failures)} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name:26s} {m['value']:.6g} {m['unit']}")
    print("as the clock read them:   "
          + "  ".join(f"{name} {value:.4g} s" for name, value in wall_clock.items()))
    print(f"results written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for spec in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", spec["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {spec['name']} exited with code {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{spec['name']}/{name}": m
                                    for name, m in result["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; a pass that would end later "
                             "is not started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "unimoments" / "__init__.py").is_file():
        print(f"error: no unimoments package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if "MOMENTS_WORKERS" in os.environ:
        print("error: unset MOMENTS_WORKERS; the benchmark's load must not depend on it",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        with bench_speed.SpeedProbe() as probe:
            probe.start()
            _bt, bw = _bench_modules()
            bw.build(args.workload, args.seed, args.size, WORKERS)
            speed, sampling = probe.stop()
            ended = time.clock_gettime(time.CLOCK_MONOTONIC) - sampling
        print(json.dumps({"ended": ended, "speed": speed}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
