"""l1net benchmark runner.

    python3 bench/run_bench.py --workload {sweep,audit,derivatives} --seed N \
        --seconds S --trace {0,1}

Runs passes of one workload, each in a fresh worker process started one after
another (closed loop, one process at a time, BLAS pinned to one thread),
until the next pass would end after ``--seconds``; at least
``MIN_PASSES`` passes run.  Prints every metric by name with its unit,
then, as the last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced passes.
With ``--trace 1`` traced and untraced passes alternate, and the metrics are
the per-layer split from the traced passes plus the tracing overhead.

Writes the details (fingerprint, every sample, the trials.csv sha256) to
``bench/out/<workload>-trace<0|1>.json`` and, in traced mode, the spans of
the last traced pass to ``bench/out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep", "audit", "derivatives")
MIN_PASSES = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# What one operation of ``ops_per_s`` is, per workload.
OPS_UNIT = {
    "sweep": "trials_per_s",
    "audit": "green_rows_per_s",
    "derivatives": "rows_per_s",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sparsity.train.calls": "count",
    "sparsity.train.self_s": "s",
    "sparsity.train.diverged": "count",
    "sparsity.project_l1.calls": "count",
    "sparsity.project_l1.busy_s": "s",
    "sparsity.project_l1.us_per_call": "us",
    "sparsity.project_l1.sort_frac": "ratio",
    **{
        f"net.{fn}.{stat}": unit
        for fn in ("forward_batch", "grad_input_batch", "laplacian_batch")
        for stat, unit in (("rows", "count"), ("busy_s", "s"), ("ns_per_row", "ns"))
    },
    **{f"net.laplacian_batch.ns_per_row.L{L}": "ns" for L in (2, 3, 4)},
    **{
        f"net.{fn}.{stat}": unit
        for fn in ("forward", "grad_input", "grad_params", "laplacian_input")
        for stat, unit in (("calls", "count"), ("us_per_call", "us"))
    },
    "evaluate.green_identity_check.calls": "count",
    "evaluate.green_identity_check.busy_s": "s",
    "evaluate.green_identity_check.self_s": "s",
    "evaluate.finite_diff_gradient.busy_s": "s",
    "evaluate.finite_diff_laplacian.busy_s": "s",
    "evaluate.finite_diff_grad_params.busy_s": "s",
    "evaluate.l2_prediction_error.self_s": "s",
    "evaluate.l2_gradient_error.self_s": "s",
    "datagen.synthesize.busy_s": "s",
    "datagen.sample_truncated_normal.calls": "count",
    "datagen.sample_truncated_normal.draws": "count",
    "datagen.sample_truncated_normal.busy_s": "s",
    "bounds.verify_bounds.busy_s": "s",
    "bounds.verify_bounds.self_s": "s",
    "bounds.bound_report.calls": "count",
    "cli.run_experiment.self_s": "s",
    "cli.run_verification.self_s": "s",
    "cli.report_bounds.busy_s": "s",
    "trace.wall_s": "s",
    "trace.span_self_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """A worker failed to start, crashed or ran out of time."""


def _spawn(workload, seed, *, trace=False, setup_only=False, fingerprint=False,
           spans=None, deadline):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if fingerprint:
        cmd.append("--fingerprint")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    """Median, the highest of p90/p95/p99/p99.9 with at least ten samples
    above it (``None`` when there are fewer than 100), and the count."""
    values = sorted(values)
    n = len(values)
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            tail = {"p": p, "value": values[min(n - 1, math.ceil(n * p / 100.0) - 1)]}
            break
    return {"median": statistics.median(values), "tail": tail, "n": n}


def _rate(record) -> float:
    units, seconds = record["info"]["rate"]
    return units / seconds if seconds > 0 else 0.0


def _merge_layers(records) -> dict:
    """Sum the per-function totals of several traced passes."""
    total = {}
    for rec in records:
        for name, st in rec["layers"]["functions"].items():
            agg = total.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                          "work": 0, "errors": {}, "tags": {}})
            for key in ("calls", "busy_ns", "self_ns", "work"):
                agg[key] += st[key]
            for err, count in st["errors"].items():
                agg["errors"][err] = agg["errors"].get(err, 0) + count
            for tag, t in st["tags"].items():
                tagg = agg["tags"].setdefault(tag, {"calls": 0, "busy_ns": 0, "work": 0})
                for key in tagg:
                    tagg[key] += t[key]
    return total


def _layer_value(name, funcs, passes) -> float:
    """One ``<module>.<function>.<stat>[.<tag>]`` metric, per traced pass;
    ratios of a function never called are 0."""
    module, fn, stat, *tag = name.split(".")
    st = funcs.get(f"{module}.{fn}", {})
    if tag:
        st = st.get("tags", {}).get(tag[0], {})
    calls, work, busy = st.get("calls", 0), st.get("work", 0), st.get("busy_ns", 0)
    if stat == "calls":
        return calls / passes
    if stat in ("rows", "draws"):
        return work / passes
    if stat == "busy_s":
        return busy * 1e-9 / passes
    if stat == "self_s":
        return st.get("self_ns", 0) * 1e-9 / passes
    if stat == "diverged":
        return st.get("errors", {}).get("TrainingDivergenceError", 0) / passes
    if stat == "us_per_call":
        return busy * 1e-3 / calls if calls else 0.0
    if stat == "ns_per_row":
        return busy / work if work else 0.0
    if stat == "sort_frac":
        return st.get("tags", {}).get("sort", {}).get("calls", 0) / calls if calls else 0.0
    raise KeyError(name)


def _layer_metrics(records) -> dict:
    """Per-layer metrics over the traced passes, per pass."""
    passes = len(records)
    funcs = _merge_layers(records)
    m = {name: _layer_value(name, funcs, passes)
         for name in PER_LAYER if not name.startswith("trace.")}
    m["trace.wall_s"] = sum(rec["wall_s"] for rec in records) / passes
    m["trace.span_self_s"] = sum(st["self_ns"] for st in funcs.values()) * 1e-9 / passes
    covered_s = sum(rec["layers"]["covered_ns"] for rec in records) * 1e-9 / passes
    m["trace.uncovered_s"] = m["trace.wall_s"] - covered_s
    return m


def _print_metric(name, unit, summary):
    tail = summary["tail"]
    tail_txt = (f"p{tail['p']:g} {tail['value']:.6g}" if tail
                else "no percentile with >=10 samples above")
    print(f"  {name:<22} median {summary['median']:.6g} {unit:<4} {tail_txt}  (n={summary['n']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one l1net benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "l1net" / "__init__.py").is_file():
        print(f"error: no l1net sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    spans_path = OUT / f"spans-{args.workload}.json" if args.trace else None

    plain, traced, durations = [], [], []
    while True:
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        expected = statistics.median(durations) if durations else 0.0
        if enough and time.monotonic() - begin + expected > args.seconds:
            break
        trace_next = bool(args.trace) and len(traced) < len(plain)
        started = time.monotonic()
        rec = _spawn(args.workload, args.seed, trace=trace_next,
                     fingerprint=not plain and not traced,
                     spans=spans_path if trace_next else None, deadline=deadline)
        durations.append(time.monotonic() - started)
        (traced if trace_next else plain).append(rec)
    setups = [rec["setup_s"] for rec in plain]
    for _ in range(SETUP_SAMPLES - len(setups)):
        setups.append(_spawn(args.workload, args.seed, setup_only=True,
                             deadline=deadline)["setup_s"])

    records = plain + traced
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    samples = {
        "setup_s": setups,
        "wall_s": [rec["wall_s"] for rec in plain],
        "ops_per_s": [_rate(rec) for rec in plain],
        "peak_rss_mb": [rec["peak_rss_mb"] for rec in plain],
    }
    summaries = {name: summarize(vals) for name, vals in samples.items()}
    green = [s for rec in plain for s in rec["info"].get("green_check_s", [])]
    if green:
        summaries["green_check_s"] = summarize(green)
    fingerprint = records[0]["fingerprint"]

    print(f"l1net benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced passes, one process each")
    print(f"  fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    for name, unit in END_TO_END.items():
        _print_metric(name, unit, summaries[name])
    _print_metric(OPS_UNIT[args.workload], "1/s", summaries["ops_per_s"])
    if "green_check_s" in summaries:
        _print_metric("green_check_s", "s", summaries["green_check_s"])
        green_violations = sum(rec["info"].get("green_violations", 0) for rec in records)
        print(f"  green_identity rows over tolerance (recorded, not gated): {green_violations}")
    print(f"  {'failed_frac':<22} {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    shas = sorted({rec["info"]["trials_csv_sha256"] for rec in records
                   if "trials_csv_sha256" in rec["info"]})
    if shas:
        print(f"  trials.csv sha256 {', '.join(shas)}")

    correct = failed == 0
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint, "summaries": summaries,
        "samples": samples, "attempted": attempted, "failed": failed,
        "trials_csv_sha256": shas,
    }
    if args.trace:
        layers = _layer_metrics(traced)
        traced_wall = statistics.median(rec["wall_s"] for rec in traced)
        plain_wall = summaries["wall_s"]["median"]
        layers["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        print("  per-layer split (per traced pass):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<44} {layers[name]:.6g} {unit}")
        print(f"  span self time {layers['trace.span_self_s']:.6g} s + uncovered "
              f"{layers['trace.uncovered_s']:.6g} s = traced wall {layers['trace.wall_s']:.6g} s")
        details["layers"] = layers
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": summaries[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
