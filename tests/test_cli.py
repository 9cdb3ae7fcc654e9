import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from l1net import bounds, cli, evaluate
from l1net.cli import (
    ConfigError,
    ExperimentConfig,
    RadiusRule,
    aggregates_to_csv,
    config_to_dict,
    load_config,
    main,
    report_bounds,
    run_experiment,
    run_verification,
    suites_to_csv,
    trials_to_csv,
)
from l1net.net import Activation, load_network
from l1net.datagen import DataSpec, read_dataset_csv

TRIAL_HEADER = "n,repeat,activation,L,seed,pred_l2,grad_l2,final_train_loss,l1_norm_final"
AGG_HEADER = "n,activation,L,pred_l2_mean,pred_l2_std,grad_l2_mean,grad_l2_std"


def _write_config(tmp_path, **overrides):
    doc = {
        "teacher": {"d": 12, "s": 3, "h": 4},
        "train": {"step_size": 0.05, "iterations": 150, "batch_size": "full"},
        "n_grid": [20, 30],
        "n_test": 500,
        "repeats": 2,
        "activations": ["softplus"],
        "depths": [2],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_default_config_matches_dataclass_defaults():
    cfg = load_config(None)
    assert cfg == ExperimentConfig()
    assert cfg.d == 100 and cfg.s == 5 and cfg.h == 10
    assert cfg.n_grid == (50, 60, 70, 80, 90, 100)
    assert cfg.repeats == 100
    assert cfg.n_test == 10_000
    assert cfg.activations == (Activation.SOFTPLUS, Activation.RELU)
    assert cfg.depths == (2, 3)
    assert cfg.radius_rule == RadiusRule("teacher_multiplier", 1.1)
    assert cfg.data.noise_std == 0.1
    assert cfg.train.iterations == 1000


def test_config_round_trip_through_dict(tmp_path):
    cfg = load_config(None)
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    again = load_config(str(path))
    assert again == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"teacher": {"d": 10, "sparsity": 2}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"surprise": 1}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"teacher": {"d": 5, "s": 9}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"radius_rule": {"absolute": -2.0}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # verify settings that used to escape as tracebacks, the last one only
    # after the bound and finite-difference audit had run
    for verify in ({"green_pairs": 0}, {"trials": 0}, {"green_m": 5000}):
        path.write_text(json.dumps({"verify": verify}))
        with pytest.raises(ConfigError):
            load_config(str(path))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", str(path), "--out", out]) == 1
    # train settings that used to pass the loader and then die with a
    # ValueError traceback at the first trial of a run
    for train in ({"step_size": 0.0}, {"step_size": -0.1}, {"iterations": 0},
                  {"batch_size": 0}):
        path.write_text(json.dumps({"train": train}))
        with pytest.raises(ConfigError):
            load_config(str(path))
    assert main(["run", "--config", str(path), "--out", out]) == 1
    # numbers that used to be truncated (fractions), read as 1 (true),
    # accepted as text, or escape as an OverflowError traceback (Infinity
    # in an integer field, an integer too large for a float field)
    inf = float("inf")
    for doc in ({"repeats": 2.5}, {"train": {"iterations": 10.5}},
                {"train": {"batch_size": 2.7}}, {"verify": {"trials": 16.9}},
                {"master_seed": 1.5}, {"repeats": inf}, {"train": {"batch_size": inf}},
                {"verify": {"trials": inf}}, {"teacher": {"s": True}},
                {"data": {"x_std": "2"}}, {"radius_rule": {"absolute": "2"}},
                {"b0": 10**400}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["run", "--config", str(path), "--out", out]) == 1
    # an integral float is still an integer
    path.write_text(json.dumps({"n_test": 1e4, "train": {"batch_size": 32.0}}))
    cfg = load_config(str(path))
    assert cfg.n_test == 10_000 and type(cfg.n_test) is int
    assert cfg.train.batch_size == 32 and type(cfg.train.batch_size) is int


def test_radius_rule_forms(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"radius_rule": {"absolute": 3.5}}))
    cfg = load_config(str(path))
    assert cfg.radius_rule.radius_for(99.0) == 3.5
    path.write_text(json.dumps({"radius_rule": {"teacher_multiplier": 2.0}}))
    cfg = load_config(str(path))
    assert cfg.radius_rule.radius_for(4.0) == 8.0


def _tiny_cfg(**overrides):
    path_free = {
        "d": 12, "s": 3, "h": 4,
        "n_grid": (20, 30), "n_test": 500, "repeats": 2,
        "activations": (Activation.SOFTPLUS,), "depths": (2,),
    }
    path_free.update(overrides)
    base = ExperimentConfig()
    import dataclasses

    return dataclasses.replace(
        base,
        train=dataclasses.replace(base.train, iterations=150),
        **path_free,
    )


def test_run_experiment_shapes_and_determinism():
    cfg = _tiny_cfg()
    out1 = run_experiment(cfg)
    out2 = run_experiment(cfg)
    assert trials_to_csv(out1.trials) == trials_to_csv(out2.trials)
    assert aggregates_to_csv(out1.aggregates) == aggregates_to_csv(out2.aggregates)
    # 2 n values x 1 activation x 1 depth x 2 repeats
    assert len(out1.trials) == 4
    assert len(out1.aggregates) == 2
    assert out1.metadata["n_diverged"] == 0


def test_trials_csv_layout():
    cfg = _tiny_cfg()
    out = run_experiment(cfg)
    lines = trials_to_csv(out.trials).strip().splitlines()
    assert lines[0] == TRIAL_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 20 and int(first[1]) == 0
    assert first[2] == "softplus" and int(first[3]) == 2
    for value in first[5:]:
        assert math.isfinite(float(value))


def test_aggregates_match_trials():
    cfg = _tiny_cfg(
        repeats=3, activations=(Activation.SOFTPLUS, Activation.RELU), depths=(2, 3)
    )
    out = run_experiment(cfg)
    lines = aggregates_to_csv(out.aggregates).strip().splitlines()
    assert lines[0] == AGG_HEADER
    by_cell = {}
    for t in out.trials:
        by_cell.setdefault((t.n, t.activation, t.L), []).append(t)
    assert [(r.n, r.activation, r.L) for r in out.aggregates] == list(by_cell)
    for row in out.aggregates:
        cell = by_cell[(row.n, row.activation, row.L)]
        assert len(cell) == 3
        preds = np.array([t.pred_l2 for t in cell])
        grads = np.array([t.grad_l2 for t in cell])
        np.testing.assert_allclose(row.pred_l2_mean, preds.mean(), rtol=1e-12)
        np.testing.assert_allclose(row.pred_l2_std, preds.std(), rtol=1e-12)
        np.testing.assert_allclose(row.grad_l2_mean, grads.mean(), rtol=1e-12)
        np.testing.assert_allclose(row.grad_l2_std, grads.std(), rtol=1e-12)


def test_different_master_seed_changes_trials():
    out1 = run_experiment(_tiny_cfg(master_seed=0))
    out2 = run_experiment(_tiny_cfg(master_seed=1))
    assert trials_to_csv(out1.trials) != trials_to_csv(out2.trials)


def test_parallel_jobs_match_serial():
    cfg = _tiny_cfg()
    serial = run_experiment(cfg, jobs=1)
    parallel = run_experiment(cfg, jobs=2)
    assert trials_to_csv(serial.trials) == trials_to_csv(parallel.trials)


def test_noiseless_runs_beat_noisy_ones():
    """With a generous radius, a real iteration budget and enough samples,
    removing label noise must improve the mean prediction error."""
    import dataclasses

    base = ExperimentConfig()

    def cfg(noise):
        return dataclasses.replace(
            base, d=8, s=3, h=3,
            n_grid=(300,), n_test=2000, repeats=3,
            activations=(Activation.SOFTPLUS,), depths=(2,),
            radius_rule=RadiusRule("teacher_multiplier", 2.0),
            data=DataSpec(noise_std=noise),
            train=dataclasses.replace(base.train, iterations=2000),
        )

    noisy = run_experiment(cfg(0.2)).aggregates[0].pred_l2_mean
    quiet = run_experiment(cfg(0.0)).aggregates[0].pred_l2_mean
    assert quiet < noisy


def test_run_command_writes_outputs(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_dir = tmp_path / "results"
    code = main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    trials = (out_dir / "trials.csv").read_text()
    assert trials.splitlines()[0] == TRIAL_HEADER
    agg = (out_dir / "aggregate.csv").read_text()
    assert agg.splitlines()[0] == AGG_HEADER
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["n_trials"] == 4
    assert meta["n_diverged"] == 0
    assert meta["config"]["teacher"]["d"] == 12
    assert "package_version" in meta


def test_run_command_repeat_and_seed_overrides(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(out_a),
                 "--repeats", "1", "--seed", "7"]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out_b),
                 "--repeats", "1", "--seed", "7"]) == 0
    assert (out_a / "trials.csv").read_text() == (out_b / "trials.csv").read_text()
    assert len((out_a / "trials.csv").read_text().strip().splitlines()) == 3


def test_run_exit_3_when_cell_diverges(tmp_path, capsys):
    cfg_path = _write_config(
        tmp_path,
        train={"step_size": 1e180, "iterations": 5, "batch_size": "full"},
        radius_rule={"absolute": 1e200},
        n_grid=[20],
        repeats=2,
    )
    out_dir = tmp_path / "div"
    code = main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 3
    lines = (out_dir / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[5] == "nan"
    agg_line = (out_dir / "aggregate.csv").read_text().strip().splitlines()[1]
    assert agg_line.split(",")[3] == "nan"


def test_usage_errors_exit_1(tmp_path):
    with pytest.raises(SystemExit) as first:
        main([])
    assert first.value.code == 1
    with pytest.raises(SystemExit) as second:
        main(["frobnicate"])
    assert second.value.code == 1
    # readable config failures return 1 without raising
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_bounds_command(tmp_path):
    cfg_path = _write_config(tmp_path, n_grid=[20, 30], depths=[2])
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--config", cfg_path, "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "bounds.json").read_text())
    reports = doc["reports"]
    assert len(reports) == 2  # one per (L, n)
    entry = reports[0]
    assert entry["L"] == 2 and entry["n"] == 20
    assert entry["b0_source"] == "config"
    assert entry["inputs"]["P"] == 12 * 4 + 4 * 1
    assert set(entry["report"]) == {
        "lip_param", "lip_l2pn", "sup_model", "grad_l1", "divergence",
        "c1", "rademacher", "model_convergence", "derivative_convergence",
        "log_factor_clamped",
    }


def test_bounds_json_is_strict_when_bounds_overflow(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"depths": [50], "radius_rule": {"absolute": 1e8}}))
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--config", str(path), "--out", str(out_dir)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads((out_dir / "bounds.json").read_text(), parse_constant=reject)
    reports = [entry["report"] for entry in doc["reports"]]
    assert sum(value == "inf" for r in reports for value in r.values()) > 0
    # the library keeps the float
    assert report_bounds(load_config(str(path)))[0]["report"]["grad_l1"] == math.inf


def test_bounds_command_b0_sources(tmp_path):
    cfg_path = _write_config(tmp_path, n_grid=[20], depths=[2])
    out_override = tmp_path / "b_override"
    assert main(["bounds", "--config", cfg_path, "--out", str(out_override),
                 "--b0", "2.5"]) == 0
    doc = json.loads((out_override / "bounds.json").read_text())
    assert doc["reports"][0]["b0_source"] == "override"
    assert doc["reports"][0]["inputs"]["b0"] == 2.5

    # a trained model file switches b0 to an empirical estimate
    gen_dir = tmp_path / "gen"
    assert main(["datagen", "--config", cfg_path, "--out", str(gen_dir)]) == 0
    out_model = tmp_path / "b_model"
    assert main(["bounds", "--config", cfg_path, "--out", str(out_model),
                 "--model", str(gen_dir / "teacher.json")]) == 0
    doc = json.loads((out_model / "bounds.json").read_text())
    assert doc["reports"][0]["b0_source"] == "estimated"
    assert doc["reports"][0]["inputs"]["b0"] > 0.0


def test_report_bounds_per_n_entries():
    cfg = _tiny_cfg(n_grid=(100, 10_000))
    entries = report_bounds(cfg)
    assert [e["n"] for e in entries] == [100, 10_000]
    a, b = entries
    # sqrt(n) decay beats the log-factor growth over a 100x gap in n
    assert b["report"]["model_convergence"] < a["report"]["model_convergence"]
    # the derivative bound is NOT raw-monotone at small n (its log factor
    # can outpace n^(-1/4)); the rate itself is checked after analytic
    # compensation in the acceptance suite
    assert b["report"]["derivative_convergence"] > 0.0
    assert b["report"]["derivative_convergence"] != a["report"]["derivative_convergence"]
    # n-independent bounds stay fixed across the grid
    for key in ("lip_param", "sup_model", "grad_l1", "divergence", "c1"):
        assert a["report"][key] == b["report"][key]


def test_datagen_command(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_dir = tmp_path / "gen"
    assert main(["datagen", "--config", cfg_path, "--out", str(out_dir),
                 "--n", "25"]) == 0
    ds = read_dataset_csv(out_dir / "dataset.csv", DataSpec())
    assert ds.n == 25 and ds.d == 12
    teacher = load_network(out_dir / "teacher.json")
    assert teacher.input_dim == 12
    assert np.all(teacher.layers[0][:, 3:] == 0.0)
    assert main(["datagen", "--config", cfg_path, "--out", str(out_dir),
                 "--activation", "bogus"]) == 1


def _verify_overrides():
    # green_tol is widened because the unit runs use m=10^4 samples where
    # Monte-Carlo noise alone exceeds the 5% default (that gate runs at
    # m=10^6 in the acceptance suite)
    return {
        "verify": {
            "trials": 16, "depths": [2], "dims": [5], "green_m": 10_000,
            "green_pairs": 1, "green_tol": 0.35,
        }
    }


def test_verify_command_passes_and_writes_csv(tmp_path):
    cfg_path = _write_config(tmp_path, **_verify_overrides())
    out_dir = tmp_path / "verify"
    assert main(["verify", "--config", cfg_path, "--out", str(out_dir)]) == 0
    lines = (out_dir / "verify.csv").read_text().strip().splitlines()
    assert lines[0] == "suite,trials,violations,worst_ratio"
    suites = [line.split(",")[0] for line in lines[1:]]
    assert "bound_grad_l1_L2_d5" in suites
    assert "fd_grad_params_L2_d5" in suites
    assert "green_identity_d1" in suites
    for line in lines[1:]:
        assert int(line.split(",")[2]) == 0


def _scaled(fn, factor):
    def faulty(*args):
        out = fn(*args)
        return [factor * part for part in out] if isinstance(out, list) else factor * out
    return faulty


# One planted fault per suite: (module, function, factor, the suite that
# must catch it and no other suite may flag)
FAULTS = [
    (bounds, "grad_l1_bound", 0.5, "bound_grad_l1"),
    (cli, "grad_params", 1.001, "fd_grad_params"),
    (cli, "grad_input", 1.001, "fd_grad_input"),
    (cli, "laplacian_input", 1.02, "fd_laplacian_input"),
    (evaluate, "_laplacian", -1.0, "green_identity_d3"),
]


@pytest.mark.parametrize(
    "module, name, factor, suite", FAULTS, ids=[fault[-1] for fault in FAULTS]
)
def test_verify_command_detects_injected_bug(tmp_path, monkeypatch, module, name,
                                             factor, suite):
    monkeypatch.setattr(module, name, _scaled(getattr(module, name), factor))
    cfg_path = _write_config(tmp_path, **_verify_overrides())
    out_dir = tmp_path / "verify_bug"
    assert main(["verify", "--config", cfg_path, "--out", str(out_dir)]) == 2
    lines = (out_dir / "verify.csv").read_text().strip().splitlines()
    failing = [l.split(",")[0] for l in lines[1:] if int(l.split(",")[2]) > 0]
    assert failing and all(row.startswith(suite) for row in failing)


def test_run_verification_deterministic():
    cfg = _tiny_cfg(
        verify=ExperimentConfig().verify.__class__(
            trials=10, depths=(2,), dims=(5,), green_m=10_000, green_pairs=1,
            green_tol=0.35,
        )
    )
    rows_a, ok_a = run_verification(cfg)
    rows_b, ok_b = run_verification(cfg)
    assert ok_a and ok_b
    assert suites_to_csv(rows_a) == suites_to_csv(rows_b)


def test_package_imports_without_scipy():
    # scipy is a test-only dependency; the package and its six modules must
    # import without it
    modules = "l1net, l1net.bounds, l1net.cli, l1net.datagen, l1net.evaluate, " \
        "l1net.net, l1net.sparsity"
    code = (f"import sys, {modules}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"
