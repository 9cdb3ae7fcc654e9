import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from l1net import bounds, cli, datagen, evaluate, sparsity
from l1net.bounds import SuiteRow, _tally
from l1net.datagen import sample_truncated_normal
from l1net import net as net_module
from l1net.evaluate import (
    finite_diff_gradient,
    finite_diff_laplacian,
)
from l1net.net import (
    Architecture,
    Network,
    _gaussian_layers,
    forward,
    grad_input,
    grad_params_batch,
    laplacian_input,
)
from l1net.sparsity import TrainConfig, project_l1
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
from l1net.net import Activation, load_network, save_network
from l1net.datagen import DataSpec, read_dataset_csv

TRIAL_HEADER = "n,repeat,activation,L,seed,pred_l2,grad_l2,final_train_loss,l1_norm_final"
AGG_HEADER = "n,activation,L,pred_l2_mean,pred_l2_std,grad_l2_mean,grad_l2_std"


def _write_config(tmp_path, **overrides):
    doc = {
        "teacher": {"d": 12, "s": 3, "h": 4},
        "train": {"step_size": 0.05, "iterations": 150},
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


def _one_config_error(capsys):
    """The stderr of a failed command: exactly one config-error line."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("l1net: config error: ")
    return line


# One row per config rejection: a config document, datagen flags and the
# message of the one config-error line.  A repeated entry would repeat its
# work and its rows (trials.csv once held each trial four times).
_BAD_CONFIGS = [
    ({"radius_rule": {"bogus": 2.0}}, [], "unknown radius rule kind 'bogus'"),
    ({"verify": {"depths": [1]}}, [], "verify.depths must be non-empty with every L >= 2"),
    ({"verify": {"dims": [0]}}, [], "verify.dims must be non-empty and positive"),
    ({"verify": {"green_tol": 0.0}}, [], "verify.green_tol must be positive and finite"),
    ({"teacher": {"h": 0}}, [], "teacher d and h must be positive"),
    ({"n_grid": []}, [], "n_grid must be non-empty"),
    ({"n_grid": [60, 50]}, [], "n_grid must be strictly ascending"),
    ({"n_grid": [0, 50]}, [], "n_grid entries must be positive"),
    ({"n_test": 0}, [], "n_test must be at least 1"),
    ({"activations": []}, [], "activations must be non-empty"),
    ({"depths": [2, 1]}, [], "depths must be non-empty with every L >= 2"),
    ({"b1_exponent": 3}, [], "b1_exponent must be 1 or 2"),
    ({"b0": -1.0}, [], "b0 must be non-negative and finite"),
    ({"data": [1.0]}, [], "data must be a JSON object"),
    ({"radius_rule": {"absolute": 1.0, "teacher_multiplier": 2.0}}, [],
     'radius_rule must be {"absolute": r} or {"teacher_multiplier": m}'),
    ({}, ["--n", "0"], "--n must be at least 1"),
    ({}, ["--depth", "1"], "--depth must be at least 2"),
    ({"depths": [2, 2]}, [], "depths must not repeat an entry"),
    ({"activations": ["relu", "relu"]}, [], "activations must not repeat an entry"),
    ({"verify": {"depths": [2, 2]}}, [], "verify.depths must not repeat an entry"),
    ({"verify": {"dims": [3, 3]}}, [], "verify.dims must not repeat an entry"),
    ({"train": {"iterations": 2.5}}, [], "train.iterations must be an integer, got 2.5"),
    ({"data": {"x_std": 0.0}}, [], "data.x_std must be positive and finite"),
]


def test_config_rejects_bad_values(tmp_path, capsys):
    path = tmp_path / "bad.json"
    out = tmp_path / "out"
    for doc, flags, message in _BAD_CONFIGS:
        path.write_text(json.dumps(doc))
        if not flags:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                load_config(str(path))
        capsys.readouterr()
        assert main(["datagen", "--config", str(path), "--out", str(out), *flags]) == 1
        assert _one_config_error(capsys) == f"l1net: config error: {message}"
        assert not out.exists()
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
    for train in ({"step_size": 0.0}, {"step_size": -0.1}, {"iterations": 0}):
        path.write_text(json.dumps({"train": train}))
        with pytest.raises(ConfigError):
            load_config(str(path))
    assert main(["run", "--config", str(path), "--out", out]) == 1
    # every step uses the full training set, so a batch size is an unknown key
    for train in ({"batch_size": "full"}, {"batch_size": 32}):
        path.write_text(json.dumps({"train": train}))
        with pytest.raises(ConfigError, match=r"^unknown key\(s\) in train: batch_size$"):
            load_config(str(path))
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", out]) == 1
        assert _one_config_error(capsys).endswith(": unknown key(s) in train: batch_size")
        assert not os.path.exists(out)
    # numbers that used to be truncated (fractions), read as 1 (true),
    # accepted as text, or escape as an OverflowError traceback (Infinity
    # in an integer field, an integer too large for a float field)
    inf = float("inf")
    for doc in ({"repeats": 2.5}, {"train": {"iterations": 10.5}},
                {"verify": {"trials": 16.9}},
                {"master_seed": 1.5}, {"repeats": inf}, {"train": {"iterations": inf}},
                {"verify": {"trials": inf}}, {"teacher": {"s": True}},
                {"data": {"x_std": "2"}}, {"radius_rule": {"absolute": "2"}},
                {"b0": 10**400}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["run", "--config", str(path), "--out", out]) == 1
    # files that used to escape as UnicodeDecodeError and RecursionError
    # tracebacks (a UTF-16 byte-order mark, a 50 000-deep list), and tuple
    # fields given as a string or a number, once read letter by letter
    # ("unknown activation 's'") or as "'int' object is not iterable"
    capsys.readouterr()
    deep = "[" * 50_000 + "]" * 50_000
    for content, words in ((b"\xff\xfe{}", "config is not valid JSON"),
                           ('{"n_grid": %s}' % deep, "config is not valid JSON"),
                           ('{"activations": "softplus"}', "activations must be a list"),
                           ('{"verify": {"depths": 3}}', "verify.depths must be a list")):
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(ConfigError, match=words):
            load_config(str(path))
        assert main(["bounds", "--config", str(path), "--out", out]) == 1
        assert words in _one_config_error(capsys)
        assert not os.path.exists(out)
    # an integral float is still an integer
    path.write_text(json.dumps({"n_test": 1e4, "train": {"iterations": 32.0}}))
    cfg = load_config(str(path))
    assert cfg.n_test == 10_000 and type(cfg.n_test) is int
    assert cfg.train.iterations == 32 and type(cfg.train.iterations) is int


_HUGE_SIZES = [
    (command, doc, flags, field)
    for commands, doc, flags, field in (
        (["run"], {"repeats": 1e300}, [], "repeats"),
        (["run", "bounds", "datagen"], {"teacher": {"d": 1e300, "s": 1}}, [], "d"),
        (["run", "bounds", "datagen"], {"teacher": {"h": 1e30}}, [], "h"),
        (["run", "bounds", "datagen"], {"depths": [1e300]}, [], "depths"),
        (["run"], {"n_test": 1e30}, [], "n_test"),
        (["verify"], {"verify": {"trials": 1e30}}, [], "verify.trials"),
        (["verify"], {"verify": {"dims": [1e30]}}, [], "verify.dims"),
        (["verify"], {"verify": {"depths": [1e300]}}, [], "verify.depths"),
        # each field fits alone, but not a product of them
        (["bounds"], {"teacher": {"d": 1e18, "s": 1}}, [], "d * h"),
        (["run"], {"n_test": 1e17}, [], "n_test * d"),
        # datagen's size flags, alone and in the products they shape
        (["datagen"], {}, ["--n", str(2 ** 63 - 1)], "--n"),
        (["datagen"], {}, ["--depth", str(2 ** 63 - 1)], "--depth"),
        (["datagen"], {}, ["--n", str(10 ** 17)], "--n * d"),
        (["datagen"], {"teacher": {"d": 5, "h": 1000}}, ["--n", str(10 ** 16)], "--n * h"),
    )
    for command in commands
]


@pytest.mark.parametrize("command, doc, flags, field", _HUGE_SIZES, ids=[
    f"{command}-doc{i}-{field}" for i, (command, _, _, field) in enumerate(_HUGE_SIZES)])
def test_sizes_numpy_cannot_index_are_config_errors(tmp_path, capsys, command, doc, flags,
                                                    field):
    # Each used to end in an OverflowError or a numpy ValueError traceback,
    # or in an empty "not enough memory:" line
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 1
    assert _one_config_error(capsys).startswith(f"l1net: config error: {field} is too large")
    assert not out.exists()


_TEACHER = {"d": 5, "s": 2, "L": 2, "h": 3, "seed": 0}
_INPUTS = {"r": 2.0, "L": 3, "P": 100, "n": 50, "R": 10.0, "b0": 1.0, "b1": 10.0, "x_inf_sq": 9.0}
_SMALL_ARCH = Architecture.mlp(2, 2, 2, Activation.SOFTPLUS)
_SMALL_NETS = [Network(tuple(_gaussian_layers((1, 3, 1), np.random.default_rng(seed))),
                       Activation.SOFTPLUS) for seed in (1, 2)]


def _trained(seed):
    dataset = datagen.Dataset(np.eye(2), np.ones(2), DataSpec())
    net = sparsity.train(dataset, _SMALL_ARCH, TrainConfig(iterations=2), 1.0, seed)
    return sparsity.flatten(net).tolist()


@pytest.mark.parametrize("make, field, error", [
    (lambda v: ExperimentConfig(repeats=v).repeats, "repeats", ConfigError),
    (lambda v: ExperimentConfig(n_test=v).n_test, "n_test", ConfigError),
    (lambda v: ExperimentConfig(d=v).d, "d", ConfigError),
    (lambda v: ExperimentConfig(depths=(v,)).depths[0], "depths", ConfigError),
    (lambda v: cli.VerifyConfig(trials=v).trials, "verify.trials", ConfigError),
    (lambda v: TrainConfig(iterations=v).iterations, "iterations", ValueError),
    (lambda v: datagen.TeacherSpec(**{**_TEACHER, "L": v}).L, "L", ValueError),
    # every count the library takes goes through one check, net._integral
    pytest.param(lambda v: bounds.grad_l1_bound(2.0, v), "L", ValueError, id="bound-L"),
    pytest.param(lambda v: bounds.BoundInputs(**{**_INPUTS, "P": v}).P, "P", ValueError,
                 id="BoundInputs-P"),
    pytest.param(lambda v: bounds.BoundInputs(**{**_INPUTS, "n": v}).n, "n", ValueError,
                 id="BoundInputs-n"),
    pytest.param(lambda v: Architecture((v, 3, 1), Activation.RELU).layer_sizes[0],
                 "layer_sizes", ValueError, id="Architecture-layer_sizes"),
    pytest.param(lambda v: Architecture.mlp(3, 2, v, Activation.RELU).depth, "depth",
                 ValueError, id="Architecture.mlp-depth"),
    pytest.param(_trained, "seed", ValueError, id="train-seed"),
    pytest.param(lambda v: datagen.synthesize(_SMALL_NETS[0], v, DataSpec(),
                                              np.random.default_rng(0)).n,
                 "n", ValueError, id="synthesize-n"),
    pytest.param(lambda v: bounds.verify_bounds(_SMALL_ARCH, 1.0, v, 0, input_sup=1.0,
                                                slack=0.0)[0].trials,
                 "trials", ValueError, id="verify_bounds-trials"),
    pytest.param(lambda v: evaluate.green_identity_check(*_SMALL_NETS, DataSpec(), v,
                                                         np.random.default_rng(0)),
                 "m", ValueError, id="green_identity_check-m"),
])
def test_library_integer_fields_take_only_whole_numbers(make, field, error):
    # The JSON loader already rejected these; built in Python they used to be
    # truncated, overflow, or pass and fail later with a TypeError.
    for value in (2.5, 2.7, math.inf, math.nan, True, "8"):
        with pytest.raises(error, match=f"^{field} must be an integer") as info:
            make(value)
        assert type(info.value) is error
    whole = 10_000 if field == "m" else 8
    want = make(whole)
    assert want == whole or not isinstance(want, int)
    for value in (float(whole), np.int64(whole), np.float64(whole)):
        got = make(value)
        assert got == want and type(got) is type(want)


def test_radius_rule_forms(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"radius_rule": {"absolute": 3.5}}))
    cfg = load_config(str(path))
    assert cfg.radius_rule.radius_for(99.0) == 3.5
    path.write_text(json.dumps({"radius_rule": {"teacher_multiplier": 2.0}}))
    cfg = load_config(str(path))
    assert cfg.radius_rule.radius_for(4.0) == 8.0


@pytest.mark.parametrize("argv", [["run", "--jobs", "1"], ["run", "--jobs", "2"], ["bounds"]],
                         ids=["run_jobs1", "run_jobs2", "bounds"])
def test_overflowing_radius_is_a_config_error(tmp_path, capsys, argv):
    # a finite multiplier whose product with the teacher's L1 norm is inf
    cfg_path = _write_config(tmp_path, radius_rule={"teacher_multiplier": 1e308},
                             n_grid=[20], repeats=1, train={"iterations": 5})
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("l1net: config error: radius_rule") and err.count("\n") == 1
    assert not out.exists()


def _tiny_cfg(**overrides):
    path_free = {
        "d": 12, "s": 3, "h": 4,
        "n_grid": (20, 30), "n_test": 500, "repeats": 2,
        "activations": (Activation.SOFTPLUS,), "depths": (2,),
    }
    path_free.update(overrides)
    base = ExperimentConfig()
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


def test_pool_has_at_most_one_worker_per_block(monkeypatch):
    import concurrent.futures

    workers = []

    class SerialPool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # one (activation, depth) group per block: 2 x 2 groups of 4 trials
    cfg = _tiny_cfg(activations=(Activation.SOFTPLUS, Activation.RELU), depths=(2, 3))
    serial = run_experiment(cfg, jobs=1)
    assert workers == []
    pooled = run_experiment(cfg, jobs=10 ** 6)
    assert workers == [4]
    assert trials_to_csv(pooled.trials) == trials_to_csv(serial.trials)


def test_test_set_is_shared_across_activations(monkeypatch):
    cfg = _tiny_cfg(activations=(Activation.SOFTPLUS, Activation.RELU), depths=(2, 3))
    drawn = []  # weak references to the test sets drawn

    def counting_sampler(*args, size=None):
        test_set = size == (cfg.n_test, cfg.d)
        # one test set alive at a time, also while the next is drawn
        assert not test_set or all(ref() is None for ref in drawn)
        x = sample_truncated_normal(*args, size=size)
        if test_set:
            drawn.append(weakref.ref(x))
        return x

    monkeypatch.setattr(cli, "sample_truncated_normal", counting_sampler)
    monkeypatch.setattr(cli, "_HELD_TEST_SET", {})
    run_experiment(cfg, jobs=1)
    # one draw per depth, shared by both activations
    assert len(drawn) == len(cfg.depths)
    assert drawn[-1]() is not None
    # the bound report reads the teachers and radii, never the test sets
    cli._cell_data.cache_clear()
    cli._HELD_TEST_SET.clear()
    drawn.clear()
    report_bounds(cfg)
    assert drawn == []


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_bounds_draws_nothing(monkeypatch):
    # E max_i x_i^2 comes from quadrature; 10^5 sampled rows peaked at 18 MB
    calls = []

    def counting_sampler(*args, **kwargs):
        calls.append(kwargs.get("size"))
        return sample_truncated_normal(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_truncated_normal", counting_sampler)
    monkeypatch.setattr(datagen, "sample_truncated_normal", counting_sampler)
    cfg = ExperimentConfig()
    cli._cell_data.cache_clear()
    entries, peak = _traced_peak(lambda: report_bounds(cfg))
    assert calls == []
    assert peak <= 2 ** 20
    assert {e["inputs"]["x_inf_sq"] for e in entries} == {
        datagen._expected_max_sq(cfg.data, cfg.d)}


def test_fd_suite_memory_fits_cache_sized_stacks():
    # a 32-draw stack of L=4, d=100 perturbations peaked at 35.7 MB
    arch = Architecture.mlp(100, 10, 4, Activation.SOFTPLUS)
    rows, peak = _traced_peak(lambda: cli._fd_suite(ExperimentConfig(), arch, 40, 5))
    assert peak <= 10 * 2 ** 20
    assert all(row.violations == 0 for row in rows)


def test_fd_suite_axis_stacks_fit_the_block_budget(monkeypatch):
    # at d = 200 the (2d+1)-row axis stack of one draw holds 80 200 doubles
    d = 200
    draws = []
    for name in ("_fd_grad_params", "_fd_gradient", "_fd_laplacian"):
        def spy(layers, activation, X, step, work, oracle=getattr(cli, name)):
            draws.append(len(X))
            return oracle(layers, activation, X, step, work)
        monkeypatch.setattr(cli, name, spy)
    arch = Architecture.mlp(d, 10, 2, Activation.SOFTPLUS)
    rows = cli._fd_suite(ExperimentConfig(), arch, 4, 5)
    assert all(n * (2 * d + 1) * d <= net_module._BLOCK_ELEMS for n in draws)
    assert sum(draws) == 3 * 4 and all(row.violations == 0 for row in rows)


@pytest.mark.parametrize("L, d", [(2, 5), (4, 5), (2, 100), (4, 100)])
def test_fd_suite_substacks_move_no_bit(monkeypatch, L, d):
    # every draw's ratios, in 1-draw stacks and in whole 32-draw blocks
    monkeypatch.setattr(cli, "_tally", lambda ratios, slack: ratios)
    arch = Architecture.mlp(d, 10, L, Activation.SOFTPLUS)
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 1)
    single = cli._fd_suite(ExperimentConfig(), arch, 40, 6)
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 2 ** 40)
    whole = cli._fd_suite(ExperimentConfig(), arch, 40, 6)
    assert len(single) == 3 and all(len(r) == 40 for r in single.values())
    assert single == whole


def test_teacher_scored_once_per_activation_and_depth():
    cfg = _tiny_cfg(activations=(Activation.SOFTPLUS, Activation.RELU), depths=(2, 3))
    cli._teacher_scores.cache_clear()
    serial = run_experiment(cfg, jobs=1)
    assert cli._teacher_scores.cache_info().misses == 4
    # rows stay in (n, activation, L, repeat) order
    assert [(t.n, t.activation, t.L, t.repeat) for t in serial.trials] == [
        (n, act.value, L, repeat)
        for n in cfg.n_grid for act in cfg.activations for L in cfg.depths
        for repeat in range(cfg.repeats)
    ]
    parallel = run_experiment(cfg, jobs=2)
    assert trials_to_csv(serial.trials) == trials_to_csv(parallel.trials)
    assert aggregates_to_csv(serial.aggregates) == aggregates_to_csv(parallel.aggregates)


def test_noiseless_runs_beat_noisy_ones():
    """With a generous radius, a real iteration budget and enough samples,
    removing label noise must improve the mean prediction error."""
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


@pytest.mark.parametrize("flag, value, field", [("--seed", "-1", "master_seed"),
                                                ("--repeats", "0", "repeats")])
def test_bad_seed_or_repeats_flag_is_a_config_error(tmp_path, capsys, flag, value, field):
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path), "--out", str(out), flag, value]) == 1
    assert field in _one_config_error(capsys)
    assert not out.exists()


def test_run_exit_3_when_cell_diverges(tmp_path, capsys):
    cfg_path = _write_config(
        tmp_path,
        train={"step_size": 1e180, "iterations": 5},
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


def _overflow_config(tmp_path, step_size=1e180, radius=1e200):
    return _write_config(
        tmp_path, train={"step_size": step_size, "iterations": 5},
        radius_rule={"absolute": radius}, activations=["softplus", "relu"],
        depths=[2, 3],
    )


def test_run_scores_huge_students_without_warnings(tmp_path):
    out_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", _overflow_config(tmp_path), "--seed", "3",
                     "--out", str(out_dir)])
    assert code == 3  # some cells diverge in every repeat
    rows = [line.split(",") for line in
            (out_dir / "trials.csv").read_text().strip().splitlines()[1:]]
    scored = [row for row in rows if row[5] != "nan"]
    # one student trains to an L1 norm near 1e182 and still scores finitely;
    # every other trial is a diverged all-NaN row
    assert len(scored) == 1 and float(scored[0][8]) > 1e180
    assert all(math.isfinite(float(v)) for v in scored[0][5:])
    assert all(v == "nan" for row in rows if row not in scored for v in row[5:])


def test_run_with_overflowing_steps_records_divergence(tmp_path):
    # Steps of 1e150 times the gradient overflow the update or the
    # projection's sums, or land so far out that the radius is below an ulp
    # of their largest entry; such a trial is diverged, not a traceback and
    # not a student that the projection rounded onto the origin.
    out_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", _overflow_config(tmp_path, 1e150, 1e150),
                     "--seed", "3", "--out", str(out_dir)]) == 3
    rows = [line.split(",") for line in
            (out_dir / "trials.csv").read_text().strip().splitlines()[1:]]
    diverged = [row for row in rows if row[5] == "nan"]
    assert 0 < len(diverged) < len(rows)
    assert all(0.0 < float(row[8]) <= 1e150 * (1.0 + 1e-12)
               for row in rows if row not in diverged)


def test_block_with_nonfinite_predictions_is_diverged(tmp_path, monkeypatch):
    def huge_students(datasets, arch, cfg, radius, seeds):
        sizes = arch.layer_sizes
        return [Network(tuple(np.full((sizes[l + 1], sizes[l]), 1e200)
                              for l in range(arch.depth)), arch.activation)
                for _ in datasets]

    monkeypatch.setattr(cli, "_train_rows", huge_students)
    cfg = load_config(_write_config(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (trial,) = cli._run_block((cfg, 2, "softplus", ((20, 0),)))
    assert trial.diverged and math.isnan(trial.pred_l2) and math.isnan(trial.grad_l2)


def test_block_with_huge_first_layer_is_diverged(tmp_path, monkeypatch):
    # Only theta1 is about 1e300: the student's passes stay finite, but its
    # errors do not, so the row is diverged, without a warning.
    def huge_first_layer(datasets, arch, cfg, radius, seeds):
        sizes = arch.layer_sizes
        layers = [np.full((sizes[l + 1], sizes[l]), 0.1) for l in range(arch.depth)]
        layers[0] = np.full((sizes[1], sizes[0]), 1e300)
        return [Network(tuple(layers), arch.activation) for _ in datasets]

    monkeypatch.setattr(cli, "_train_rows", huge_first_layer)
    cfg = load_config(_write_config(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for act in ("softplus", "relu"):
            (trial,) = cli._run_block((cfg, 2, act, ((20, 0),)))
            assert trial.diverged and math.isnan(trial.grad_l2)


def test_trial_blocks_match_trials_trained_alone(monkeypatch):
    # 36 trials per (activation, depth) group: a block of 32 that spans all
    # three n, then one of 4
    cfg = _tiny_cfg(n_grid=(20, 33, 41), repeats=12,
                    activations=(Activation.SOFTPLUS, Activation.RELU))
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, iterations=40))
    want = trials_to_csv(run_experiment(cfg, jobs=1).trials)
    for jobs in (2, 3):
        assert trials_to_csv(run_experiment(cfg, jobs=jobs).trials) == want
    monkeypatch.setattr(cli, "_TRAIN_BLOCK", 1)  # each trial trained as train does
    assert trials_to_csv(run_experiment(cfg, jobs=1).trials) == want


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


# Exit codes of run, datagen, bounds, bounds --model and verify on the data law
# that sets one data key to each of _LAW_VALUES, at tiny budgets.  A law is
# rejected by every command (1, a config error from DataSpec) or accepted by
# every one.  An accepted law may still fail a check: run's students diverge
# (3) where the labels reach 1e150, and verify fails (2) where its finite
# differences lose the inputs' scale (x_std or mean 1e150) or where the box is
# too narrow for the Green identity (x_std 1e-150, cutoff_factor 1e-150 and
# below).
_LAW_VALUES = (0.0, 5e-324, 1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300,
               sys.float_info.max, -1.0)
_LAW_COMMANDS = ("run", "datagen", "bounds", "bounds --model", "verify")
_LAW_CODES = {
    "x_std": "11111 11111 11111 11111 00002 30002 11111 11111 11111 11111",
    "noise_std": "00000 00000 00000 00000 00000 30000 30000 30000 11111 11111",
    "mean": "00000 00000 00000 00000 00000 30002 11111 11111 11111 00000",
    "cutoff_factor": "11111 00002 00002 00002 00002 00000 00000 00000 11111 11111",
}


@pytest.fixture(scope="module")
def law_verdicts(tmp_path_factory):
    """Runs the whole grid once: (key, value, command) -> (exit code, faults).

    A fault is a warning, a traceback, a rejection that is not one config-error
    line or that leaves its output directory, or an accepted law whose bounds
    report has a non-finite input.
    """
    tmp_path = tmp_path_factory.mktemp("laws")
    overrides = _verify_overrides()
    overrides["verify"]["trials"] = 2
    tiny = dict(teacher={"d": 3, "s": 2, "h": 3}, n_grid=[10], n_test=50, repeats=1,
                train={"iterations": 5}, **overrides)
    model = tmp_path / "model"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["datagen", "--config", _write_config(tmp_path, **tiny),
                     "--out", str(model)]) == 0
    verdicts = {}
    for key, value in itertools.product(_LAW_CODES, _LAW_VALUES):
        cfg_path = _write_config(tmp_path, data={key: value}, **tiny)
        for command in _LAW_COMMANDS:
            out = tmp_path / f"{command}-{key}-{value!r}"
            argv = [command.split()[0], "--config", cfg_path, "--out", str(out)]
            if command == "bounds --model":
                argv += ["--model", str(model / "teacher.json")]
            err_buf = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err_buf), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
            err = err_buf.getvalue()
            faults = [f"warned: {w.message}" for w in caught]
            if "Traceback" in err:
                faults.append(err)
            if code == 1:
                if not (err.startswith("l1net: config error:") and err.count("\n") == 1):
                    faults.append(err)
                if out.exists():
                    faults.append("left its output directory")
            elif command.startswith("bounds"):
                doc = json.loads((out / "bounds.json").read_text())
                if not all(math.isfinite(e["inputs"]["x_inf_sq"]) for e in doc["reports"]):
                    faults.append("non-finite x_inf_sq")
            verdicts[key, value, command] = (code, faults)
    return verdicts


def _law_column(verdicts, command):
    """The command's exit codes over the grid, as in _LAW_CODES, with no fault."""
    faults = {(key, value): faults for (key, value, c), (_, faults) in verdicts.items()
              if c == command and faults}
    assert faults == {}, command
    return {key: "".join(str(verdicts[key, value, command][0]) for value in _LAW_VALUES)
            for key in _LAW_CODES}


def _law_column_expected(command):
    column = _LAW_COMMANDS.index(command)
    return {key: "".join(codes[column] for codes in row.split())
            for key, row in _LAW_CODES.items()}


def test_each_data_law_gets_one_verdict_in_every_command(law_verdicts):
    # none raises, prints a traceback or warns; a rejection is one line and
    # leaves no output directory, and every accepted law has a finite bound input
    for command in _LAW_COMMANDS:
        _law_column(law_verdicts, command)
    got = {}
    for key, value in itertools.product(_LAW_CODES, _LAW_VALUES):
        codes = "".join(str(law_verdicts[key, value, command][0])
                        for command in _LAW_COMMANDS)
        assert codes == "11111" or "1" not in codes, (key, value, codes)
        got.setdefault(key, []).append(codes)
    assert {key: " ".join(codes) for key, codes in got.items()} == _LAW_CODES


def test_run_and_datagen_on_extreme_data_values_run_or_reject(law_verdicts):
    # each law writes its files, ends with every cell diverged (run) or gives
    # one config-error line
    for command in ("run", "datagen"):
        assert _law_column(law_verdicts, command) == _law_column_expected(command)


def test_bounds_on_extreme_data_values_reports_or_rejects(law_verdicts):
    # each law gives a report with finite inputs or one config-error line
    assert _law_column(law_verdicts, "bounds") == _law_column_expected("bounds")
    # a tiny box or a mean near 0 still has a report; an infinite box does not
    assert law_verdicts["mean", 5e-324, "bounds"][0] == 0
    assert law_verdicts["cutoff_factor", 5e-324, "bounds"][0] == 0
    assert law_verdicts["x_std", sys.float_info.max, "bounds"][0] == 1


def test_bounds_model_on_unlabelable_data_is_a_config_error(law_verdicts):
    # b0 from a model draws a fresh dataset under the config's law, so a law
    # whose labels leave float64 is rejected as in run and datagen
    assert _law_column(law_verdicts, "bounds --model") == _law_column_expected("bounds --model")
    assert law_verdicts["noise_std", sys.float_info.max, "bounds --model"][0] == 1


def test_verify_on_extreme_data_values_passes_fails_or_rejects(law_verdicts):
    # each law passes, fails verification or gives one config-error line
    assert _law_column(law_verdicts, "verify") == _law_column_expected("verify")


@pytest.mark.parametrize("radius", [5e-324, 1e-300])
def test_bounds_at_a_tiny_radius_read_zero(tmp_path, radius):
    # at 5e-324 c1 overflows; the complexity and convergence bounds still read 0
    cfg_path = _write_config(tmp_path, radius_rule={"absolute": radius})
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--config", cfg_path, "--out", str(out_dir)]) == 0
    for entry in json.loads((out_dir / "bounds.json").read_text())["reports"]:
        report = entry["report"]
        assert report["rademacher"] == report["model_convergence"] == 0.0
        assert report["derivative_convergence"] == 0.0


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


@pytest.mark.parametrize("b0", ["-1", "nan", "inf"])
def test_bounds_rejects_bad_b0(tmp_path, capsys, b0):
    cfg_path = _write_config(tmp_path, n_grid=[20], depths=[2])
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--config", cfg_path, "--out", str(out_dir), "--b0", b0]) == 1
    assert "--b0 must be non-negative and finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("model", ["wrong_d", "bad_json", "missing", "huge", "deep",
                                   "int_overflow", "far_residual"])
def test_bounds_rejects_unusable_model(tmp_path, capsys, model):
    # A model file that cannot be read, or a network that does not fit the
    # config or overflows on its test set, is a config error, not a traceback.
    # A 50 000-deep list and a weight of 10^400 written as an integer used to
    # escape as RecursionError and OverflowError tracebacks.  A finite model
    # output that is too far from finite labels leaves an infinite b0.
    data = {"noise_std": 1e307, "mean": 1e6} if model == "far_residual" else {}
    cfg_path = _write_config(tmp_path, n_grid=[20], depths=[2], data=data)
    path = tmp_path / "model.json"
    rng = np.random.default_rng(18)
    if model == "bad_json":
        path.write_text('{"activation": "softplus", "layers": [[1.0,')
    elif model == "deep":
        path.write_text('{"activation": "softplus", "layers": %s}'
                        % ("[" * 50_000 + "]" * 50_000))
    elif model != "missing":
        d, scale = (5, 1.0) if model == "wrong_d" else (12, 1e160)
        save_network(Network((scale * rng.normal(size=(10, d)),
                              scale * rng.normal(size=(1, 10))), Activation.SOFTPLUS), path)
    if model == "int_overflow":
        path.write_text('{"activation": "softplus", "layers": [[[%d]], [[1.0]]]}' % 10 ** 400)
    if model == "far_residual":  # -1.75e302 x_1 is about -1.75e308; labels reach 3e307
        first = np.zeros((1, 12))
        first[0, 0] = 1.0
        save_network(Network((first, np.full((1, 1), -1.75e302)), Activation.SOFTPLUS), path)
    out_dir = tmp_path / "bounds"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", "--config", cfg_path, "--out", str(out_dir),
                     "--model", str(path)]) == 1
    _one_config_error(capsys)
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "bounds", "verify", "datagen"])
def test_out_that_is_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    # These used to die with FileExistsError or NotADirectoryError
    # tracebacks; ``run`` only after the whole sweep had trained.
    trained = []
    monkeypatch.setattr(cli, "_train_rows", lambda *a: trained.append(a))
    cfg_path = _write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert "is not a directory" in _one_config_error(capsys)
    assert trained == [] and blocker.read_text() == ""


def test_failed_write_is_a_config_error(tmp_path, capsys):
    # The nearest existing ancestor is a directory, yet the write fails: a
    # dangling symlink as --out, a directory where the output file goes.
    cfg_path = _write_config(tmp_path)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    assert main(["datagen", "--config", cfg_path, "--out", str(dangling)]) == 1
    assert "cannot write" in _one_config_error(capsys)
    (tmp_path / "out" / "bounds.json").mkdir(parents=True)
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert "cannot write" in _one_config_error(capsys)


@pytest.mark.parametrize("command", ["run", "bounds", "datagen"])
def test_refused_allocation_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # A teacher of width 1e9 used to end in numpy's _ArrayMemoryError traceback
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    cli._cell_data.cache_clear()
    monkeypatch.setattr(cli, "make_teacher", refuse)
    out_dir = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path), "--out", str(out_dir)]) == 1
    line = _one_config_error(capsys)
    assert line == "l1net: config error: not enough memory: Unable to allocate 745. GiB for an array"
    assert not out_dir.exists()


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


def test_verify_fails_green_rows_with_a_nan_gap(tmp_path, monkeypatch):
    # a NaN gap (as 1 / x_std^2 = inf once gave) fails its row, not passes it
    nan = float("nan")
    monkeypatch.setattr(cli, "green_identity_check",
                        lambda *args: evaluate.GreenCheck(nan, nan, nan))
    rows, ok = run_verification(load_config(_write_config(tmp_path, **_verify_overrides())))
    green = [row for row in rows if row.suite.startswith("green_identity_")]
    assert not ok and len(green) == 3
    assert all(row.violations == row.trials == 2 and math.isnan(row.worst_ratio)
               for row in green)
    assert suites_to_csv(green).splitlines()[1] == "green_identity_d1,2,2,nan"


def _scaled(fn, factor):
    def faulty(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):  # (value, signal, Laplacian), one factor each
            return tuple(None if part is None else f * part for f, part in zip(factor, out))
        return [factor * part for part in out] if isinstance(out, list) else factor * out
    return faulty


# One planted fault per suite, and for the finite-difference suites one on
# each side of the comparison, the exact derivative and its oracle: (module,
# function, factor, the suite that must catch it and no other suite may
# flag).  The input-derivative pass returns a value, a first-layer signal (the
# gradient over theta_1) and a Laplacian, and takes one factor for each; so
# does the feature-major pass under it, whose Laplacian is the last hidden
# layer's cache (the Green check's Laplacian over theta_L).  The Lipschitz
# and divergence audits have no row: at this budget a halved bound passes
# both.
FAULTS = [
    (bounds, "grad_l1_bound", 0.5, "bound_grad_l1"),
    (bounds, "sup_model_bound", 0.5, "bound_sup_model"),
    (cli, "_grad_params_batch", 1.001, "fd_grad_params"),
    (cli, "_input_derivatives", (1.0, 1.001, 1.0), "fd_grad_input"),
    (cli, "_input_derivatives", (1.0, 1.0, 1.02), "fd_laplacian_input"),
    (cli, "_fd_grad_params", 1.001, "fd_grad_params"),
    (cli, "_fd_gradient", 1.001, "fd_grad_input"),
    (cli, "_fd_laplacian", 1.02, "fd_laplacian_input"),
    (evaluate, "_input_pass", (1.0, 1.0, -1.0), "green_identity_d3"),
]


@pytest.mark.parametrize(
    "module, name, factor, suite", FAULTS,
    ids=[f"{suite}_oracle" if name.startswith("_fd_") else suite for _, name, _, suite in FAULTS],
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


def test_verify_gates_are_pinned():
    assert cli._VERIFY_RADIUS == 5.0
    assert cli._VERIFY_HIDDEN == 10
    assert cli._FD_GRAD_STEP == 1e-4
    assert cli._FD_LAP_STEP == 1e-3
    assert cli._FD_GRAD_TOL == 1e-5
    assert cli._FD_LAP_TOL == 1e-4
    assert cli._BOUND_SLACK == 1e-9
    assert [f.name for f in dataclasses.fields(cli.VerifyConfig)] == [
        "trials", "depths", "dims", "green_m", "green_pairs", "green_tol"]


_PINNED_GATES = {"radius": 5.0, "hidden": 10, "fd_grad_step": 1e-4, "fd_lap_step": 1e-3,
                 "fd_grad_tol": 1e-5, "fd_lap_tol": 1e-4, "slack": 1e-9}


@pytest.mark.parametrize("key", list(_PINNED_GATES))
def test_config_cannot_set_verify_gates(tmp_path, key):
    # not even to the pinned value: a gate is no config key
    overrides = _verify_overrides()
    overrides["verify"][key] = _PINNED_GATES[key]
    cfg_path = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=key):
        load_config(cfg_path)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# -- serial references for the stacked verify suites: one draw at a time,
# through the public single-sample routines

def _serial_ball_net(arch, r, rng):
    layers = _gaussian_layers(arch.layer_sizes, rng)
    flat = project_l1(np.concatenate([w.ravel() for w in layers]), r)
    cuts = np.cumsum([w.size for w in layers])[:-1]
    return Network(tuple(part.reshape(w.shape) for part, w in
                         zip(np.split(flat, cuts), layers)), arch.activation)


def _serial_chain_net(arch, r, x):
    sizes = arch.layer_sizes
    k = int(np.argmax(np.abs(x)))
    layers = [np.zeros((sizes[l + 1], sizes[l])) for l in range(arch.depth)]
    layers[0][0, k] = r / arch.depth if x[k] >= 0.0 else -r / arch.depth
    for w in layers[1:]:
        w[0, 0] = r / arch.depth
    return Network(tuple(layers), arch.activation)


def _ratio(lhs, rhs):
    return 0.0 if lhs == 0.0 else (lhs / rhs if rhs > 0.0 else math.inf)


def _serial_verify_bounds(arch, r, trials, seed, input_sup, slack):
    L = arch.depth
    ratios = {"lipschitz_param": [], "sup_model": [], "grad_l1": [], "divergence": []}
    for index, stream in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(stream)
        x = rng.uniform(-input_sup, input_sup, size=arch.layer_sizes[0])
        x_inf = float(np.max(np.abs(x)))
        net_a = (_serial_chain_net(arch, r, x) if index % 8 == 7
                 else _serial_ball_net(arch, r, rng))
        net_b = _serial_ball_net(arch, r, rng)
        ta, tb = forward(net_a, x), forward(net_b, x)
        dist = math.sqrt(sum(float(((a - b) ** 2).sum())
                             for a, b in zip(net_a.layers, net_b.layers)))
        for name, lhs, rhs in (
            ("lipschitz_param", abs(ta.output - tb.output),
             bounds.lipschitz_param_bound(r, L, x_inf) * dist),
            ("sup_model", abs(ta.output), bounds.sup_model_bound(x_inf, r, L)),
            ("grad_l1", float(np.abs(grad_input(net_a, ta)).sum()),
             bounds.grad_l1_bound(r, L)),
            ("divergence", abs(laplacian_input(net_a, ta)), bounds.divergence_bound(r, L)),
        ):
            ratios[name].append(_ratio(lhs, rhs))
    return _tally(ratios, slack)


def _serial_fd_suite(cfg, arch, trials, seed):
    sizes = arch.layer_sizes
    tag = f"L{arch.depth}_d{sizes[0]}"
    ratios = {f"fd_{name}_{tag}": [] for name in
              ("grad_params", "grad_input", "laplacian_input")}
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        net = Network(tuple(_gaussian_layers(sizes, rng)), arch.activation)
        x = sample_truncated_normal(cfg.data.mean, cfg.data.x_std,
                                    cfg.data.cutoff_factor, rng, size=sizes[0])
        trace = forward(net, x)
        exact = grad_params_batch(net, x[None])
        approx = evaluate._fd_grad_params(*evaluate._fd_args(net, x, 1e-4))
        num = max(float(np.abs(a - e).max()) for a, e in zip(approx, exact))
        den = max(float(np.abs(e).max()) for e in exact)
        exact_g = grad_input(net, trace)
        approx_g = finite_diff_gradient(net, x, 1e-4)
        exact_l = laplacian_input(net, trace)
        approx_l = finite_diff_laplacian(net, x, 1e-3)
        for bucket, err in zip(ratios.values(), (
            num / max(den, 1e-12) / 1e-5,
            float(np.abs(approx_g - exact_g).max())
            / max(float(np.abs(exact_g).max()), 1e-12) / 1e-5,
            abs(approx_l - exact_l) / max(1.0, abs(exact_l)) / 1e-4,
        )):
            bucket.append(err)
    return _tally(ratios, 0.0)


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("d", [5, 100])
def test_stacked_verify_suites_match_serial_reference(L, d):
    # 45 draws: one full stack and a ragged one; the rows, worst ratios
    # included, must be exactly the serial ones
    cfg = ExperimentConfig()
    arch = Architecture.mlp(d, 10, L, Activation.SOFTPLUS)
    audit = bounds.verify_bounds(arch, 5.0, 45, 77, input_sup=10.0, slack=1e-9)
    assert list(audit) == _serial_verify_bounds(arch, 5.0, 45, 77, 10.0, 1e-9)
    rows = cli._fd_suite(cfg, arch, 45, 78)
    assert rows == _serial_fd_suite(cfg, arch, 45, 78)
    assert all(isinstance(row, SuiteRow) and row.trials == 45 for row in rows)


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


def test_cli_import_leaves_the_process_pool_out():
    # concurrent.futures.process and multiprocessing cost every start about
    # 25 ms; only run_experiment(jobs > 1) imports them.  concurrent.futures
    # alone costs 2.5 ms (and loads logging), so only a Green check pays its
    # import, for its one fill worker
    code = ("import sys, l1net.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures', 'concurrent.futures.process', 'multiprocessing')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


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
