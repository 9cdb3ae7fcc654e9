"""One benchmark process: set up a workload, time one pass, check it.

Started by ``run_bench.py`` once per pass, so every pass pays what a fresh
``l1net`` invocation pays.  ``--spawned-ns`` is the parent's
``time.monotonic_ns()`` just before it started this process; set-up time runs
from there, through interpreter start, imports and input building, to the
first timed call.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import tracing
import workloads


def fingerprint(root) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository when
        # the checkout itself is not one.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced pass's spans here")
    parser.add_argument("--fingerprint", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        start_ns = time.monotonic_ns()
        record = {"setup_s": (start_ns - args.spawned_ns) * 1e-9}
        if args.setup_only:
            print(json.dumps(record))
            return 0
        try:
            result = workload.run()
            error = None
        except Exception:
            result = None
            error = traceback.format_exc()
        wall_s = (time.monotonic_ns() - start_ns) * 1e-9

    if error is None:
        attempted, failed, info = workload.check(result, wall_s)
    else:
        print(error, file=sys.stderr)
        attempted = failed = workload.n_ops
        info = {"rate": (0, wall_s)}
    record.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        info=info,
    )
    if tracer is not None:
        record["layers"] = tracing.layer_stats(tracer.names, tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    if args.fingerprint:
        record["fingerprint"] = fingerprint(workloads.ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
