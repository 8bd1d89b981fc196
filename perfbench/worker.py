"""One benchmark run of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --seconds S
                                [--workers K] [--trace] [--setup-only]

The set-up phase (interpreter start, imports, config parse, coefficient
build) ends at the monotonic time reported as ``setup_done``; the parent
measures set-up time from just before it started this process.  Then the
workload repeats in this process until another iteration would overrun
``--seconds``.  Each iteration records its wall time, the user plus system
CPU time of this process and of its reaped children (pool workers), and the
time of a fixed reference kernel (``reference_seconds``), averaged over its
runs just before and just after the iteration, which measures how fast the
host ran at that moment.  The report ends with the larger of the two
peak resident set sizes.

With ``--trace`` the set-up is traced, and the iterations alternate between
untraced and traced; a traced iteration installs a fresh tracer that starts
from the set-up's spans and counters, so each traced record covers set-up
plus one iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped child.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _kernel():
    """Fixed numpy work, independent of qsde, about 0.2 s on one core.

    Half is thousands of small-array operations in a Python loop, shaped like
    trajectory stepping; half is a large complex exponential and product,
    shaped like a spectrum scan.
    """
    import numpy as np

    v = np.ones((256, 2), dtype=complex)
    m = 0.999 * np.eye(2, dtype=complex)
    for _ in range(4000):
        v = v @ m + 1e-3 * v
        v /= np.sqrt((np.abs(v) ** 2).sum(axis=1))[:, None]
    # Blocks of 201 x 500 keep its memory to a few MB, below any workload's peak.
    nu = np.linspace(0.0, 20.0, 201)
    t = np.linspace(0.0, 50.0, 500)
    for _ in range(16):
        v = np.exp(1j * np.outer(nu, t)) @ np.ones(t.size)
    return v


def reference_seconds(workers: int) -> float:
    """Wall time of the reference kernel in this process, then, for a pool
    workload, once on each of ``workers`` forked processes at the same time."""
    start = time.perf_counter()
    _kernel()
    if workers > 1:
        pids = []
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _kernel()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            if status != 0:
                raise RuntimeError(f"reference kernel process exited with status {status}")
    return time.perf_counter() - start


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSDE_WORKERS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {name: os.environ.get(name) for name in threads},
    }


def _iteration(workloads, name, cfg, coeffs, out: Path, setup_trace) -> dict:
    tracer = None
    if setup_trace is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.spans = {span: list(v) for span, v in setup_trace.spans.items()}
        tracer.counters = dict(setup_trace.counters)
        tracer.install()
    try:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        outcome = workloads.run(name, cfg, coeffs, out)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
              "failures": outcome.failures, "digest": outcome.digest}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import qsde
    if Path(qsde.__file__).resolve().parent.parent != SRC:
        print(f"qsde imported from {qsde.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import workloads

    setup_trace = None
    if args.trace:
        from tracer import Tracer
        setup_trace = Tracer()
        setup_trace.install()
    try:
        cfg, coeffs = workloads.setup(args.workload, args.seed)
    finally:
        if setup_trace is not None:
            setup_trace.uninstall()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    deadline = setup_done + args.seconds
    iterations, errors = [], []
    reference_seconds(args.workers)        # warm-up
    ref_before = reference_seconds(args.workers)
    while True:
        traced = args.trace and sum(r["traced"] for r in iterations) < len(iterations) / 2
        started = time.monotonic()
        try:
            record = _iteration(workloads, args.workload, cfg, coeffs, Path(args.out),
                                setup_trace if traced else None)
            ref_after = reference_seconds(args.workers)
        except Exception:
            errors.append(traceback.format_exc(limit=3).strip())
            break
        record["ref_s"] = (ref_before + ref_after) / 2
        iterations.append(record)
        ref_before = ref_after
        now = time.monotonic()
        complete = not args.trace or 0 < sum(r["traced"] for r in iterations) < len(iterations)
        # Stop when another iteration like the last would overrun the deadline.
        if complete and now + (now - started) > deadline:
            break
    print(json.dumps({
        "setup_done": setup_done,
        "iterations": iterations,
        "errors": errors,
        "peak_rss_mb": _peak_rss_mb(),
        "machine": _machine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
