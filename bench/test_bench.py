"""Tests of the benchmark itself: ``python -m pytest bench``.

Each output check must catch a fault planted in the program.  The faults are
planted by monkeypatching public l1net functions from here; the sources are
never edited.
"""

import json

import numpy as np

import run_bench
import tracing
import workloads
from l1net import bounds, cli, net, sparsity


def _failed(workload) -> int:
    attempted, failed, _ = workload.check(workload.run(), 1.0)
    assert attempted == workload.n_ops
    return failed


def test_derivatives_check_passes_clean_outputs():
    assert _failed(workloads.Derivatives(0)) == 0


def test_derivatives_check_catches_scaled_laplacian(monkeypatch):
    exact = net.laplacian_batch
    monkeypatch.setattr(net, "laplacian_batch", lambda f, X: 1.02 * exact(f, X))
    assert _failed(workloads.Derivatives(0)) > 0


def test_sweep_check_catches_projection_overshoot(monkeypatch):
    exact = sparsity.project_l1
    monkeypatch.setattr(sparsity, "project_l1", lambda v, r: exact(v, 1.01 * r))
    assert _failed(workloads.Sweep(0)) > 0


def test_audit_check_catches_halved_bound(monkeypatch):
    exact = bounds.grad_l1_bound
    monkeypatch.setattr(bounds, "grad_l1_bound", lambda r, L: 0.5 * exact(r, L))
    assert _failed(workloads.Audit(0)) > 0


def test_tracer_wraps_every_binding_and_restores_it():
    original_train = cli.train
    X = np.random.default_rng(0).normal(size=(50, 3))
    f = net.Network((np.ones((4, 3)), np.ones((1, 4))), net.Activation.SOFTPLUS)
    with tracing.Tracer() as tracer:
        assert cli.train is not original_train
        assert cli.train.__wrapped__ is original_train
        net.laplacian_batch(f, X)
    assert cli.train is original_train
    stats = tracing.layer_stats(tracer.names, tracer.spans)
    lap = stats["functions"]["net.laplacian_batch"]
    assert lap["calls"] == 1 and lap["work"] == 50 and "L2" in lap["tags"]
    total_self = sum(s["self_ns"] for s in stats["functions"].values())
    assert total_self == stats["covered_ns"]


def test_benchmark_json_matches_runner():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run_bench.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER
