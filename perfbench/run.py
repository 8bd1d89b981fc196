"""qsde benchmark: four workloads, end-to-end metrics, and a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the program is imported from ``src/``.
A run starts a few set-up-only interpreters, then one measuring interpreter
(``worker.py``, one BLAS thread) that sets up and repeats the workload for
the rest of ``--seconds``.  After each iteration the worker times a fixed
reference kernel that does not use qsde, serially and, for a pool workload,
on the pool's number of processes.  This host's speed drifts by tens of per cent within
minutes, so the time metrics divide each iteration's wall and CPU time by
the reference time around it: ``wall_ref`` is the work's wall time in
reference-kernel units, which stays put while the host speeds up or slows
down, and moves when the program does.  The seconds as measured are in
the report line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over the run's iterations (``setup_s`` over its set-up samples).
With ``--trace 1`` untraced and traced iterations alternate, and the last
line carries the per-layer metrics of the traced ones plus the tracing
overhead.  The line before the last is a JSON report with machine info,
per-iteration figures and the SHA-256 of each iteration's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
SEED = 20260811
SETUP_SAMPLES = 5   # set-up-only processes per run, besides the measuring worker's own
OVERRUN_S = 100     # a worker may run this long past its budget; a run must end within 180 s

sys.path.insert(0, str(HERE))
from layers import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402

WORKLOADS = {                      # name -> (QSDE_WORKERS, lanes x steps)
    "mollow_scan": (1, 201 * 10_000),
    "traj_linear": (1, 4096 * 4000),
    "moments_pairs": (1, 1024 * 4000),
    "traj_nonlinear_pool": (2, 1024 * 4000),
}


class WorkerError(RuntimeError):
    pass


def _env(workers: int) -> dict:
    env = dict(os.environ)
    # One BLAS thread per process; BLAS threads x pool workers <= nproc.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["QSDE_WORKERS"] = str(workers)
    return env


def _workers(workload: str) -> int:
    return max(1, min(WORKLOADS[workload][0], len(os.sched_getaffinity(0))))


def _worker(workload: str, seed: int, *flags: str, seconds: float = 0.0) -> tuple[float, dict]:
    """Run one worker process; return (set-up seconds, its report)."""
    out = WORK_DIR / f"{workload}-{os.getpid()}"
    workers = _workers(workload)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--seconds", str(seconds),
           "--workers", str(workers), *flags]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(workers),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = max(seconds, 0.0) + OVERRUN_S
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} worker exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["setup_done"] - start, report


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Return (result line, report) for one workload."""
    deadline = time.monotonic() + seconds
    setups = []
    if not trace:
        setups = [_worker(workload, seed, "--setup-only")[0] for _ in range(SETUP_SAMPLES)]
    flags = ("--trace",) if trace else ()
    setup_s, report = _worker(workload, seed, *flags, seconds=deadline - time.monotonic())
    setups.append(setup_s)

    done = report["iterations"]
    failures = report["errors"] + [f for r in done for f in r["failures"]]
    digests = sorted({r["digest"] for r in done})
    if len(digests) > 1:
        failures.append(f"outputs differ between iterations of one seed: {digests}")
    failed = len(report["errors"]) + sum(bool(r["failures"]) for r in done)
    attempted = len(done) + len(report["errors"])
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (trace and not traced):
        raise WorkerError("; ".join(report["errors"]) or f"{workload}: no complete iteration")

    lane_steps = WORKLOADS[workload][1]
    if trace:
        metrics, count_failures = layer_metrics(traced)
        failures += count_failures
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                       - _median([r["wall_s"] for r in plain]))
        wanted = PER_LAYER
    else:
        metrics = {
            "setup_s": _median(setups),
            "wall_ref": _median([r["wall_s"] / r["ref_s"] for r in plain]),
            "cpu_ref": _median([r["cpu_s"] / r["ref_s"] for r in plain]),
            "peak_rss_mb": report["peak_rss_mb"],
            "steps_per_ref": _median([lane_steps * r["ref_s"] / r["wall_s"] for r in plain]),
        }
        wanted = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    wall_s = _median([r["wall_s"] for r in plain])
    report = {
        "workload": workload,
        "seed": seed,
        "machine": report["machine"],
        "failed_frac": failed / attempted,
        "failures": failures,
        "digests": digests,
        "setup_s": setups,
        "seconds": {  # medians over untraced iterations, as measured
            "wall_s": wall_s,
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "ref_s": _median([r["ref_s"] for r in plain]),
            "steps_per_s": lane_steps / wall_s,
        },
        "iterations": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "ref_s")} for r in done],
    }
    return result, report


def _print_table(workload: str, result: dict, report: dict):
    print(f"== {workload} (seed {report['seed']}): {result['attempted']} iterations, "
          f"failed_frac {report['failed_frac']:.3g}, correct {result['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"   {name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print("   as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in report["seconds"].items()),
          file=sys.stderr)
    for failure in report["failures"]:
        print(f"   FAIL {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsde" / "__init__.py").is_file():
        print(f"error: no qsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_table(name, result, report)
            print(json.dumps(report))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
