"""Command-line interface: experiment sweeps, bound reports, and verification.

Subcommands:

* ``run``     teacher-student sweep over every (n, activation, depth) cell,
              writing per-trial and aggregate CSVs plus run metadata.
* ``bounds``  closed-form bound report for each (depth, n) pair in the grid.
* ``verify``  randomized property suites: bound audit, finite-difference
              derivative checks, Green-identity checks.
* ``datagen`` emit one synthetic dataset (CSV) and its teacher (JSON).

Every artifact is a deterministic function of the config file contents and
the master seed.  Seeds are derived by feeding
``(master_seed, stream_tag, activation_code, depth, n, repeat)`` tuples
into ``numpy.random.SeedSequence``; the per-trial seed recorded in the CSV
is the first 64-bit word of that sequence.

Exit codes: 0 success; 1 usage or config error; 2 verification failure;
3 every repeat of some experiment cell diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    Architecture,
    BoundInputs,
    SuiteRow,
    _rows_to_csv,
    _tally,
    bound_report,
    verify_bounds,
)
from .datagen import (
    DataSpec,
    TeacherSpec,
    make_teacher,
    sample_truncated_normal,
    synthesize,
    write_dataset_csv,
)
from .evaluate import (
    finite_diff_grad_params,
    finite_diff_gradient,
    finite_diff_laplacian,
    green_identity_check,
    l2_gradient_error,
    l2_prediction_error,
)
from .net import (
    Activation,
    Network,
    _gaussian_layers,
    forward,
    forward_batch,
    grad_input,
    grad_params,
    laplacian_input,
    load_network,
    save_network,
)
from .sparsity import TrainConfig, TrainingDivergenceError, param_l1_norm, train

__all__ = [
    "AggregateRow",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentOutcome",
    "RadiusRule",
    "TrainTemplate",
    "TrialResult",
    "VerifyConfig",
    "config_to_dict",
    "load_config",
    "main",
    "report_bounds",
    "run_experiment",
    "run_verification",
]


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


@dataclass(frozen=True)
class TrainTemplate:
    """Trainer settings shared by every trial (radius and seed are derived
    per trial)."""

    step_size: float = 0.05
    iterations: int = 1000
    batch_size: object = "full"

    def __post_init__(self):
        try:
            TrainConfig(1.0, **dataclasses.asdict(self))
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from None


@dataclass(frozen=True)
class RadiusRule:
    """Training radius: either an absolute value or a multiple of the
    teacher's L1 norm."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("absolute", "teacher_multiplier"):
            raise ConfigError(f"unknown radius rule kind {self.kind!r}")
        if not np.isfinite(self.value) or self.value <= 0.0:
            raise ConfigError("radius rule value must be positive and finite")

    def radius_for(self, teacher_l1: float) -> float:
        if self.kind == "absolute":
            return self.value
        return self.value * teacher_l1


@dataclass(frozen=True)
class VerifyConfig:
    """Settings for the ``verify`` subcommand."""

    trials: int = 1000
    radius: float = 5.0
    depths: tuple = (2, 3, 4)
    dims: tuple = (5, 100)
    hidden: int = 10
    green_m: int = 1_000_000
    green_pairs: int = 2
    fd_grad_step: float = 1e-4
    fd_lap_step: float = 1e-3
    fd_grad_tol: float = 1e-5
    fd_lap_tol: float = 1e-4
    green_tol: float = 0.05
    slack: float = 1e-9

    def __post_init__(self):
        for name, low in (("trials", 1), ("hidden", 1), ("green_m", 10_000),
                          ("green_pairs", 1)):
            if int(getattr(self, name)) < low:
                raise ConfigError(f"verify.{name} must be at least {low}")
        if not self.depths or any(int(L) < 2 for L in self.depths):
            raise ConfigError("verify.depths must be non-empty with every L >= 2")
        if not self.dims or any(int(d) < 1 for d in self.dims):
            raise ConfigError("verify.dims must be non-empty and positive")
        for name in ("fd_grad_step", "fd_lap_step", "fd_grad_tol", "fd_lap_tol",
                     "green_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"verify.{name} must be positive and finite")
        for name in ("radius", "slack"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"verify.{name} must be non-negative and finite")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full sweep definition; every field has a default."""

    d: int = 100
    s: int = 5
    h: int = 10
    data: DataSpec = DataSpec()
    train: TrainTemplate = TrainTemplate()
    n_grid: tuple = (50, 60, 70, 80, 90, 100)
    n_test: int = 10_000
    repeats: int = 100
    activations: tuple = (Activation.SOFTPLUS, Activation.RELU)
    depths: tuple = (2, 3)
    radius_rule: RadiusRule = RadiusRule("teacher_multiplier", 1.1)
    master_seed: int = 0
    b0: float = 1.0
    b1_exponent: int = 1
    verify: VerifyConfig = VerifyConfig()

    def __post_init__(self):
        if int(self.d) < 1 or int(self.h) < 1:
            raise ConfigError("teacher d and h must be positive")
        if not 1 <= int(self.s) <= int(self.d):
            raise ConfigError("teacher sparsity s must satisfy 1 <= s <= d")
        if not self.n_grid:
            raise ConfigError("n_grid must be non-empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError("n_grid must be strictly ascending")
        if any(int(n) < 1 for n in self.n_grid):
            raise ConfigError("n_grid entries must be positive")
        if int(self.repeats) < 1:
            raise ConfigError("repeats must be at least 1")
        if int(self.n_test) < 1:
            raise ConfigError("n_test must be at least 1")
        if not self.activations:
            raise ConfigError("activations must be non-empty")
        if not self.depths or any(int(L) < 2 for L in self.depths):
            raise ConfigError("depths must be non-empty with every L >= 2")
        if self.b1_exponent not in (1, 2):
            raise ConfigError("b1_exponent must be 1 or 2")
        if not np.isfinite(self.b0) or self.b0 < 0.0:
            raise ConfigError("b0 must be non-negative and finite")
        if int(self.master_seed) < 0:
            raise ConfigError("master_seed must be non-negative")


# -- config file handling -----------------------------------------------------


# The JSON layout groups the teacher shape under "teacher" and spells the
# radius rule as {"absolute": r} or {"teacher_multiplier": m}; every other
# key is a dataclass field name, with tuples as lists and activations as
# their string values.  Absent keys keep the dataclass defaults.
_TEACHER_KEYS = ("d", "s", "h")


def _check_keys(obj, section: str, allowed):
    """Strict key check: unknown keys are config errors, not typos to ignore."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {section}: {', '.join(sorted(unknown))}"
        )
    return obj


def _parse_radius_rule(obj) -> RadiusRule:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ConfigError(
            'radius_rule must be {"absolute": r} or {"teacher_multiplier": m}'
        )
    ((kind, value),) = obj.items()
    return RadiusRule(kind, _parse_number(value, 0.0, "radius_rule"))


def _parse_activation(value) -> Activation:
    try:
        return Activation(value)
    except ValueError:
        raise ConfigError(f"unknown activation {value!r}") from None


def _parse_number(value, default, key: str):
    """A JSON number of ``default``'s type: no bools or strings, and only
    integral values for an integer (``1e4`` but not ``2.5`` or ``Infinity``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(default, int) and not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return type(default)(value)


def _parse_value(default, value, key: str):
    """Convert one JSON value to the type of the field default it replaces."""
    if isinstance(default, RadiusRule):
        return _parse_radius_rule(value)
    if dataclasses.is_dataclass(default):
        return _parse_section(type(default), value, key)
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], v, key) for v in value)
    if isinstance(default, Activation):
        return _parse_activation(value)
    if isinstance(default, (int, float)):
        return _parse_number(value, default, key)
    return value if value == default else _parse_number(value, 0, key)  # batch_size


def _parse_section(cls, obj, section: str):
    _check_keys(obj, section, [f.name for f in dataclasses.fields(cls)])
    defaults = cls()
    return cls(**{
        key: _parse_value(getattr(defaults, key), value, key)
        for key, value in obj.items()
    })


def load_config(path=None) -> ExperimentConfig:
    """Load a JSON config file; ``None`` gives the built-in defaults.

    Unknown keys anywhere in the document are rejected.
    """
    if path is None:
        raw = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"teacher"}
    raw = dict(_check_keys(raw, "config", keys - set(_TEACHER_KEYS)))
    raw.update(_check_keys(raw.pop("teacher", {}), "teacher", _TEACHER_KEYS))
    try:
        return _parse_section(ExperimentConfig, raw, "config")
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, Activation):
        return value.value
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready echo of a config (used in run metadata)."""
    doc = _to_json(cfg)
    doc["teacher"] = {key: doc.pop(key) for key in _TEACHER_KEYS}
    doc["radius_rule"] = {cfg.radius_rule.kind: cfg.radius_rule.value}
    return doc


# -- seeding ------------------------------------------------------------------
#
# Stream tags keep independent uses of the master seed apart:
#   0 teacher weights (per depth), 1 shared test set (per depth),
#   2 trials, 3 x_inf_sq estimation, 4 b0 estimation, 5 verification suites.

_ACT_CODE = {Activation.SOFTPLUS: 0, Activation.RELU: 1}


def _seed_seq(*entropy) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(int(e) for e in entropy))


def _seed_u64(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# -- experiment sweep ---------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    n: int
    repeat_index: int
    activation: str
    L: int
    seed: int
    pred_l2: float
    grad_l2: float
    final_train_loss: float
    l1_norm_final: float

    @property
    def diverged(self) -> bool:
        return math.isnan(self.final_train_loss)


@dataclass(frozen=True)
class AggregateRow:
    n: int
    activation: str
    L: int
    pred_l2_mean: float
    pred_l2_std: float
    grad_l2_mean: float
    grad_l2_std: float


@dataclass(frozen=True)
class ExperimentOutcome:
    trials: tuple
    aggregates: tuple
    metadata: dict
    all_diverged_cells: tuple


@functools.lru_cache(maxsize=32)
def _cell_data(cfg: ExperimentConfig, L: int, act: Activation):
    """Teacher, shared test set and training radius for one (depth,
    activation) cell.

    The weight draw and the test set depend only on the depth, so both
    activations at a given depth share weights and test inputs; the radius
    (a function of the teacher's L1 norm) then matches across activations
    too.  Cached per process."""
    teacher = make_teacher(TeacherSpec(
        d=cfg.d, s=cfg.s, L=L, h=cfg.h,
        seed=_seed_u64(_seed_seq(cfg.master_seed, 0, L)),
    ), activation=act)
    rng = np.random.default_rng(_seed_seq(cfg.master_seed, 1, L))
    X_test = sample_truncated_normal(
        cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor, rng,
        size=(cfg.n_test, cfg.d),
    )
    return teacher, X_test, cfg.radius_rule.radius_for(param_l1_norm(teacher))


def _trial_dataset(cfg: ExperimentConfig, L: int, act: Activation, n: int,
                   repeat: int):
    """One trial's training set, its recorded seed and the seed sequence
    of its training stream."""
    ss = _seed_seq(cfg.master_seed, 2, _ACT_CODE[act], L, n, repeat)
    data_ss, train_ss = ss.spawn(2)
    dataset = synthesize(
        _cell_data(cfg, L, act)[0], n, cfg.data, np.random.default_rng(data_ss)
    )
    return dataset, _seed_u64(ss), train_ss


def _run_trial(task) -> TrialResult:
    cfg, L, act_value, n, repeat = task
    act = Activation(act_value)
    teacher, X_test, radius = _cell_data(cfg, L, act)
    dataset, seed, train_ss = _trial_dataset(cfg, L, act, n, repeat)
    arch = Architecture.mlp(cfg.d, cfg.h, L, act)
    tc = TrainConfig(radius, **dataclasses.asdict(cfg.train), seed=_seed_u64(train_ss))
    try:
        model = train(dataset, arch, tc)
    except TrainingDivergenceError:
        nan = float("nan")
        return TrialResult(n, repeat, act.value, L, seed, nan, nan, nan, nan)
    pred = l2_prediction_error(model, teacher, X_test).value
    grad = l2_gradient_error(model, teacher, X_test).value
    resid = forward_batch(model, dataset.X) - dataset.y
    final_loss = float(resid @ resid) / dataset.n
    return TrialResult(
        n, repeat, act.value, L, seed, pred, grad, final_loss,
        param_l1_norm(model),
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentOutcome:
    """Run every (n, activation, depth, repeat) trial of the sweep.

    Trials are independent; with ``jobs > 1`` they are distributed over a
    process pool.  Results are ordered by trial coordinates regardless of
    completion order, so the output is identical for any ``jobs``.
    """
    tasks = [
        (cfg, L, act.value, n, repeat)
        for n in cfg.n_grid
        for act in cfg.activations
        for L in cfg.depths
        for repeat in range(cfg.repeats)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (jobs * 8))
            trials = tuple(pool.map(_run_trial, tasks, chunksize=chunk))
    else:
        trials = tuple(_run_trial(task) for task in tasks)

    # Tasks run cell by cell, so each cell's repeats are one slice.
    aggregates = []
    all_diverged = []
    for start in range(0, len(trials), cfg.repeats):
        group = trials[start:start + cfg.repeats]
        cell = (group[0].n, group[0].activation, group[0].L)
        pred = np.array([t.pred_l2 for t in group])
        grad = np.array([t.grad_l2 for t in group])
        ok = ~np.isnan(pred)
        if ok.any():
            stats = [float(f(v[ok])) for v in (pred, grad) for f in (np.mean, np.std)]
        else:
            all_diverged.append(cell)
            stats = [float("nan")] * 4
        aggregates.append(AggregateRow(*cell, *stats))

    teacher_l1 = {}
    radius = {}
    for L in cfg.depths:
        teacher, _, rad = _cell_data(cfg, L, cfg.activations[0])
        teacher_l1[str(L)] = param_l1_norm(teacher)
        radius[str(L)] = rad
    metadata = {
        "package_version": __version__,
        "config": config_to_dict(cfg),
        "teacher_l1_norm": teacher_l1,
        "training_radius": radius,
        "n_trials": len(trials),
        "n_diverged": sum(1 for t in trials if t.diverged),
    }
    return ExperimentOutcome(trials, tuple(aggregates), metadata, tuple(all_diverged))


def trials_to_csv(trials) -> str:
    return _rows_to_csv(TrialResult, trials, header=(
        "n,repeat,activation,L,seed,pred_l2,grad_l2,final_train_loss,l1_norm_final"
    ))


def aggregates_to_csv(rows) -> str:
    return _rows_to_csv(AggregateRow, rows)


# -- bound report -------------------------------------------------------------


def _estimate_x_inf_sq(cfg: ExperimentConfig) -> float:
    """Monte-Carlo estimate of E max_i x_i^2 under the input law."""
    draws = 100_000
    rng = np.random.default_rng(_seed_seq(cfg.master_seed, 3))
    total = 0.0
    remaining = draws
    while remaining > 0:
        take = min(20_000, remaining)
        remaining -= take
        X = sample_truncated_normal(
            cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor, rng,
            size=(take, cfg.d),
        )
        total += float((np.abs(X).max(axis=1) ** 2).sum())
    return total / draws


def _estimate_b0(cfg: ExperimentConfig, model: Network) -> float:
    """Empirical loss-bound constant: max |model(x) - y| over a fresh
    synthetic test set drawn against the depth-matched teacher."""
    L = model.depth
    teacher = _cell_data(cfg, L, model.activation)[0]
    rng = np.random.default_rng(_seed_seq(cfg.master_seed, 4, L))
    ds = synthesize(teacher, cfg.n_test, cfg.data, rng)
    return float(np.abs(forward_batch(model, ds.X) - ds.y).max())


def report_bounds(cfg: ExperimentConfig, trained: Network = None,
                  b0_override: float = None) -> list:
    """Evaluate the full bound suite for every (depth, n) pair in the grid.

    ``b0`` comes from the override when given, else from ``trained`` (max
    absolute residual on a fresh test set), else from the config constant.
    The radius matches the experiment's radius rule applied to the same
    teacher the sweep would use.
    """
    x_inf_sq = _estimate_x_inf_sq(cfg)
    if b0_override is not None:
        b0, b0_source = float(b0_override), "override"
    elif trained is not None:
        b0, b0_source = _estimate_b0(cfg, trained), "estimated"
    else:
        b0, b0_source = cfg.b0, "config"
    entries = []
    for L in cfg.depths:
        radius = _cell_data(cfg, L, Activation.SOFTPLUS)[2]
        P = Architecture.mlp(cfg.d, cfg.h, L, Activation.SOFTPLUS).n_params
        for n in cfg.n_grid:
            inputs = BoundInputs(
                r=radius, L=L, P=P, n=n, R=cfg.data.input_bound,
                b0=b0, b1=cfg.data.score_bound, x_inf_sq=x_inf_sq,
            )
            report = bound_report(inputs, cfg.b1_exponent)
            entries.append({
                "L": L,
                "n": n,
                "b0_source": b0_source,
                "inputs": dataclasses.asdict(inputs),
                "report": report.to_dict(),
            })
    return entries


# -- verification suites ------------------------------------------------------


def _fd_suite(cfg: ExperimentConfig, arch: Architecture, trials: int, seed):
    """Exact derivatives vs finite differences over random draws.

    Relative error for the two gradients is the worst entry deviation over
    the largest entry magnitude; the Laplacian (a scalar that can pass
    through zero) is measured against ``max(1, |exact|)``.
    """
    v = cfg.verify
    sizes = arch.layer_sizes
    tag = f"L{arch.depth}_d{sizes[0]}"
    ratios = {f"fd_{name}_{tag}": [] for name in
              ("grad_params", "grad_input", "laplacian_input")}
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        net = Network(tuple(_gaussian_layers(sizes, rng)), arch.activation)
        x = sample_truncated_normal(
            cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor, rng,
            size=sizes[0],
        )
        trace = forward(net, x)

        exact = grad_params(net, trace)
        approx = finite_diff_grad_params(net, x, v.fd_grad_step)
        num = max(float(np.abs(a - e).max()) for a, e in zip(approx, exact))
        den = max(float(np.abs(e).max()) for e in exact)
        exact_g = grad_input(net, trace)
        approx_g = finite_diff_gradient(net, x, v.fd_grad_step)
        exact_l = laplacian_input(net, trace)
        approx_l = finite_diff_laplacian(net, x, v.fd_lap_step)
        errs = (
            num / max(den, 1e-12) / v.fd_grad_tol,
            float(np.abs(approx_g - exact_g).max())
            / max(float(np.abs(exact_g).max()), 1e-12) / v.fd_grad_tol,
            abs(approx_l - exact_l) / max(1.0, abs(exact_l)) / v.fd_lap_tol,
        )
        for bucket, err in zip(ratios.values(), errs):
            bucket.append(err)
    return _tally(ratios)


def _small_green_net(d: int, rng) -> Network:
    return Network(tuple(_gaussian_layers((d, 6, 1), rng)), Activation.SOFTPLUS)


def run_verification(cfg: ExperimentConfig) -> tuple:
    """All property suites; returns ``(rows, ok)``, with ``ok`` false when
    any :class:`SuiteRow` shows a violation."""
    v = cfg.verify
    rows = []
    for L in v.depths:
        for d in v.dims:
            arch = Architecture.mlp(d, v.hidden, L, Activation.SOFTPLUS)
            audit = verify_bounds(
                arch, v.radius, v.trials,
                _seed_u64(_seed_seq(cfg.master_seed, 5, 0, L, d)),
                input_sup=cfg.data.input_bound, slack=v.slack,
            )
            rows.extend(
                dataclasses.replace(row, suite=f"bound_{row.suite}_L{L}_d{d}")
                for row in audit.rows
            )
    for L in v.depths:
        for d in v.dims:
            arch = Architecture.mlp(d, v.hidden, L, Activation.SOFTPLUS)
            rows.extend(_fd_suite(
                cfg, arch, v.trials,
                _seed_u64(_seed_seq(cfg.master_seed, 5, 1, L, d)),
            ))
    green = {}
    for d in (1, 2, 3):
        rng = np.random.default_rng(_seed_seq(cfg.master_seed, 5, 2, d))
        gaps = green[f"green_identity_d{d}"] = []
        for _ in range(v.green_pairs):
            f = _small_green_net(d, rng)
            g = _small_green_net(d, rng)
            for a, b in ((f, g), (g, f)):
                gap = green_identity_check(a, b, cfg.data, v.green_m, rng).rel_gap
                gaps.append(gap / v.green_tol)
    rows.extend(_tally(green))
    ok = all(row.violations == 0 for row in rows)
    return rows, ok


def suites_to_csv(rows) -> str:
    return _rows_to_csv(SuiteRow, rows)


# -- argument parsing and entry point ------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="l1net",
        description="L1-constrained network experiments, bounds and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override the master seed")
        p.add_argument("--out", metavar="DIR", default="results",
                       help="output directory (default: results)")

    p_run = sub.add_parser("run", help="run the experiment sweep")
    add_common(p_run)
    p_run.add_argument("--repeats", type=int, metavar="N",
                       help="override the repeat count")
    p_run.add_argument("--jobs", type=int, metavar="N", default=1,
                       help="parallel worker processes (default: 1)")

    p_bounds = sub.add_parser("bounds", help="emit the closed-form bound report")
    add_common(p_bounds)
    p_bounds.add_argument("--model", metavar="PATH",
                          help="trained network JSON used to estimate b0")
    p_bounds.add_argument("--b0", type=float, metavar="B0",
                          help="override the loss-bound constant b0")

    p_verify = sub.add_parser("verify", help="run the property suites")
    add_common(p_verify)

    p_datagen = sub.add_parser("datagen", help="emit one synthetic dataset")
    add_common(p_datagen)
    p_datagen.add_argument("--n", type=int, metavar="N",
                           help="sample count (default: first n_grid entry)")
    p_datagen.add_argument("--depth", type=int, metavar="L",
                           help="teacher depth (default: first config depth)")
    p_datagen.add_argument("--activation", metavar="KIND",
                           help="teacher activation (default: softplus)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        updates["master_seed"] = args.seed
    if getattr(args, "repeats", None) is not None:
        if args.repeats < 1:
            raise ConfigError("--repeats must be at least 1")
        updates["repeats"] = args.repeats
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _write(out_dir, name: str, content) -> str:
    """Write text, or a dict as indented sorted strict JSON, to ``out_dir/name``."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(content)
    return path


def _cmd_run(args) -> int:
    cfg = _load(args)
    outcome = run_experiment(cfg, jobs=max(1, args.jobs))
    _write(args.out, "trials.csv", trials_to_csv(outcome.trials))
    _write(args.out, "aggregate.csv", aggregates_to_csv(outcome.aggregates))
    _write(args.out, "metadata.json", outcome.metadata)
    print(f"wrote {len(outcome.trials)} trials to {args.out}/trials.csv")
    print(f"wrote {len(outcome.aggregates)} aggregate rows to {args.out}/aggregate.csv")
    if outcome.all_diverged_cells:
        for cell in outcome.all_diverged_cells:
            print(f"all repeats diverged in cell (n={cell[0]}, "
                  f"activation={cell[1]}, L={cell[2]})", file=sys.stderr)
        return 3
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load(args)
    model = load_network(args.model) if args.model else None
    entries = report_bounds(cfg, trained=model, b0_override=args.b0)
    for report in (entry["report"] for entry in entries):  # strict JSON has no inf
        report.update({key: "inf" for key, v in report.items() if v == math.inf})
    path = _write(args.out, "bounds.json", {"reports": entries})
    print(f"wrote {len(entries)} bound reports to {path}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load(args)
    rows, ok = run_verification(cfg)
    path = _write(args.out, "verify.csv", suites_to_csv(rows))
    for row in rows:
        status = "ok" if row.violations == 0 else "FAIL"
        print(f"{status:4s} {row.suite}: {row.violations}/{row.trials} violations, "
              f"worst ratio {row.worst_ratio:.3g}")
    print(f"wrote {len(rows)} suite rows to {path}")
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return 2
    print("verification passed")
    return 0


def _cmd_datagen(args) -> int:
    cfg = _load(args)
    n = args.n if args.n is not None else cfg.n_grid[0]
    if n < 1:
        raise ConfigError("--n must be at least 1")
    L = args.depth if args.depth is not None else cfg.depths[0]
    if L < 2:
        raise ConfigError("--depth must be at least 2")
    act = Activation.SOFTPLUS
    if args.activation is not None:
        act = _parse_activation(args.activation)
    teacher = _cell_data(cfg, L, act)[0]
    dataset, _, _ = _trial_dataset(cfg, L, act, n, 0)
    os.makedirs(args.out, exist_ok=True)
    write_dataset_csv(dataset, os.path.join(args.out, "dataset.csv"))
    save_network(teacher, os.path.join(args.out, "teacher.json"))
    print(f"wrote {n} samples to {args.out}/dataset.csv "
          f"and the teacher to {args.out}/teacher.json")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "datagen": _cmd_datagen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"l1net: config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
