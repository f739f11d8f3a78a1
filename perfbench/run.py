"""Benchmark of polarispec: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-large-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                # every workload, one process each
    python3 perfbench/run.py --trace 1      # the traced run: per-layer metrics

One workload runs in this process (a closed loop: each op starts when the
previous one and its check have ended).  The run repeats whole rounds of
the workload's ops until ``--seconds`` have passed, checks every output,
and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The package is imported from ``src/`` of the checkout; nothing is
installed.  See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli-large-grid", "finite-bath", "bath-dictionary")

# One thread for BLAS/LAPACK (the machine has 2 cores; see README.md).
# Set before numpy is imported, here and in every child process.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Median time from a fresh interpreter to polarispec and its CLI imported."""
    cmd = [sys.executable, "-c", "import polarispec, polarispec.cli"]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    import polarispec

    if not os.path.abspath(polarispec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: polarispec imported from {polarispec.__file__}, not {SRC}")
    import checks as ck
    import workloads
    from tracing import Tracer, span_cost

    setup_s = None if trace else measure_setup()
    workdir = os.path.join(OUT, f"{name}-seed{seed}")
    warm, ops = workloads.build(name, seed, workdir)
    warm.call()
    workloads.remove_outputs(warm)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    times, errors, failures = [], [], Counter()
    samples = attempted = failed = rounds = 0
    busy = 0.0
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < seconds:
            for op in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.op(op.name) if tracer else contextlib.nullcontext():
                        result = op.call()
                    elapsed = time.perf_counter() - t0
                    busy += elapsed
                    samples += op.check(result)
                    times.append(elapsed)
                except (ck.KnownFault, ck.OpFailed) as exc:
                    failed += 1
                    failures[(op.name, str(exc))] += 1
                    times.append(math.inf)  # a failed op misses any latency limit
                except ck.CheckError as exc:
                    errors.append(f"{op.name}: {exc}")
                    times.append(elapsed)
                except Exception as exc:  # the program raised: count the op as failed
                    failed += 1
                    failures[(op.name, f"{type(exc).__name__}: {exc}")] += 1
                    times.append(math.inf)
                finally:
                    workloads.remove_outputs(op)
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for (op_name, cause), count in sorted(failures.items()):
        print(f"FAILED {count}x {op_name}: {cause}")
    for line in errors:
        print(f"CHECK FAILED {line}")
    print(f"{name}: {rounds} rounds, {attempted} ops attempted, {failed} failed, seed {seed}")
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{name}-seed{seed}.json"))
        metrics = tracer.layer_metrics(rounds, span_cost())
        metrics["trace.op_p50_s"] = (statistics.median(times), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "samples_per_s": (samples / busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polarispec", "__init__.py")):
        print(f"error: no polarispec package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload != "all":  # the workloads' own lines already name every metric
        for key, metric in result["metrics"].items():
            print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
