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
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    BoundInputs,
    SuiteRow,
    _draw_blocks,
    _rows_to_csv,
    _tally,
    bound_report,
    verify_bounds,
)
from .datagen import (
    DataSpec,
    TeacherSpec,
    _expected_max_sq,
    _integral,
    make_teacher,
    sample_truncated_normal,
    synthesize,
    write_dataset_csv,
)
from .evaluate import (
    _fd_grad_params,
    _fd_gradient,
    _fd_laplacian,
    _fd_workspace,
    _gradient_error,
    _prediction_error,
    _scores,
    green_identity_check,
)
from .net import (
    Activation,
    Architecture,
    Network,
    _gaussian_layers,
    _grad_params_batch,
    _hidden_batch,
    _input_derivatives,
    _pieces,
    forward_batch,
    load_network,
    save_network,
)
# ``train`` itself is not called here; bench/test_bench.py checks that the
# tracer rewraps this binding.
from .sparsity import TrainConfig, _train_rows, param_l1_norm, train  # noqa: F401

__all__ = [
    "AggregateRow",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentOutcome",
    "RadiusRule",
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


def _store_integers(cfg, prefix: str, scalars, tuples):
    """Store each named field of ``cfg`` (each entry, for ``tuples``) as an int;
    ConfigError naming the field where one is not a whole number."""
    for name in scalars:
        object.__setattr__(cfg, name, _integral(getattr(cfg, name), prefix + name, ConfigError))
    for name in tuples:
        object.__setattr__(cfg, name, tuple(
            _integral(v, prefix + name, ConfigError) for v in getattr(cfg, name)))


def _check_sizes(prefix: str, entries):
    """ConfigError naming the first key of ``entries`` (a field, or a product
    of fields) whose count, the length of the largest array or list it
    shapes, is more than numpy can index as float64 (whose bytes fit an intp)."""
    for name, count in entries.items():
        if count > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"{prefix}{name} is too large for a numpy array of float64")


# The pinned gates of ``verify``: the audited networks' L1 radius and hidden
# width, the finite-difference steps and tolerances, and the bound audit's
# relative slack.
_VERIFY_RADIUS = 5.0
_VERIFY_HIDDEN = 10
_FD_GRAD_STEP = 1e-4
_FD_LAP_STEP = 1e-3
_FD_GRAD_TOL = 1e-5
_FD_LAP_TOL = 1e-4
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling budget of the ``verify`` subcommand.  Its gates are pinned
    module constants (``_FD_GRAD_TOL`` and the rest) that no config sets;
    ``green_tol`` is the exception, because a Monte-Carlo gap has to follow
    ``green_m``."""

    trials: int = 1000
    depths: tuple = (2, 3, 4)
    dims: tuple = (5, 100)
    green_m: int = 1_000_000
    green_pairs: int = 2
    green_tol: float = 0.05

    def __post_init__(self):
        _store_integers(self, "verify.", ("trials", "green_m", "green_pairs"), ("depths", "dims"))
        for name, low in (("trials", 1), ("green_m", 10_000), ("green_pairs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"verify.{name} must be at least {low}")
        if not self.depths or any(L < 2 for L in self.depths):
            raise ConfigError("verify.depths must be non-empty with every L >= 2")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError("verify.dims must be non-empty and positive")
        if not 0.0 < self.green_tol < math.inf:
            raise ConfigError("verify.green_tol must be positive and finite")
        # a draw's largest finite-difference stack holds 2 h^2 d doubles
        _check_sizes("verify.", {"trials": self.trials, "depths": max(self.depths),
                                 "dims": 2 * _VERIFY_HIDDEN ** 2 * max(self.dims)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full sweep definition; every field has a default."""

    d: int = 100
    s: int = 5
    h: int = 10
    data: DataSpec = DataSpec()
    train: TrainConfig = TrainConfig()
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
        _store_integers(self, "", ("d", "s", "h", "n_test", "repeats", "master_seed",
                                   "b1_exponent"), ("n_grid", "depths"))
        if self.d < 1 or self.h < 1:
            raise ConfigError("teacher d and h must be positive")
        if not 1 <= self.s <= self.d:
            raise ConfigError("teacher sparsity s must satisfy 1 <= s <= d")
        if not self.n_grid:
            raise ConfigError("n_grid must be non-empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError("n_grid must be strictly ascending")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid entries must be positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.n_test < 1:
            raise ConfigError("n_test must be at least 1")
        if not self.activations:
            raise ConfigError("activations must be non-empty")
        if not self.depths or any(L < 2 for L in self.depths):
            raise ConfigError("depths must be non-empty with every L >= 2")
        if self.b1_exponent not in (1, 2):
            raise ConfigError("b1_exponent must be 1 or 2")
        if not np.isfinite(self.b0) or self.b0 < 0.0:
            raise ConfigError("b0 must be non-negative and finite")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        d, h, n = self.d, self.h, max(self.n_grid)
        _check_sizes("", {  # each field alone first, then the products that shape arrays
            "d": d, "h": h, "n_test": self.n_test, "n_grid": n, "repeats": self.repeats,
            "depths": max(self.depths), "d * h": d * h, "h * h": h * h * (max(self.depths) > 2),
            "n_test * d": self.n_test * d, "n_test * h": self.n_test * h, "n_grid * d": n * d,
            "n_grid * h": n * h, "n_grid * repeats": len(self.n_grid) * self.repeats})


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
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_parse_value(default[0], v, key) for v in value)
    if isinstance(default, Activation):
        return _parse_activation(value)
    return _parse_number(value, default, key)


def _parse_section(cls, obj, section: str):
    _check_keys(obj, section, [f.name for f in dataclasses.fields(cls)])
    defaults = cls()
    prefix = "" if cls is ExperimentConfig else f"{section}."
    return cls(**{
        key: _parse_value(getattr(defaults, key), value, prefix + key)
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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
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
#   2 trials, 4 b0 estimation, 5 verification suites.  Tag 3 (the retired
#   Monte-Carlo x_inf_sq estimate) stays reserved, so 4 and 5 keep their seeds.

_ACT_CODE = {Activation.SOFTPLUS: 0, Activation.RELU: 1}


def _seed_seq(*entropy) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(int(e) for e in entropy))


def _seed_u64(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# -- experiment sweep ---------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    n: int
    repeat: int
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


_HELD_TEST_SET = {}  # the one test set a process holds, keyed by (config, depth)


def _test_set(cfg: ExperimentConfig, L: int) -> np.ndarray:
    """The shared test inputs of depth ``L``, read-only.  A process holds one
    test set and lets it go before it draws the next."""
    if (cfg, L) not in _HELD_TEST_SET:
        _HELD_TEST_SET.clear()
        rng = np.random.default_rng(_seed_seq(cfg.master_seed, 1, L))
        X_test = sample_truncated_normal(cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor,
                                         rng, size=(cfg.n_test, cfg.d))
        X_test.flags.writeable = False
        _HELD_TEST_SET[cfg, L] = X_test
    return _HELD_TEST_SET[cfg, L]


@functools.lru_cache(maxsize=32)
def _cell_data(cfg: ExperimentConfig, L: int, act: Activation):
    """Teacher and training radius for one (depth, activation) cell.  The
    teacher's weights depend only on the depth, so both activations share
    them, and the radius (a function of their L1 norm) too.  Cached per
    process.  A rule whose product overflows or underflows is a config error."""
    teacher = make_teacher(TeacherSpec(
        d=cfg.d, s=cfg.s, L=L, h=cfg.h,
        seed=_seed_u64(_seed_seq(cfg.master_seed, 0, L)),
    ), activation=act)
    radius = cfg.radius_rule.radius_for(param_l1_norm(teacher))
    if not 0.0 < radius < math.inf:
        raise ConfigError(f"radius_rule gives training radius {radius!r} at depth {L}; "
                          "it must be positive and finite")
    return teacher, radius


@functools.lru_cache(maxsize=1)
def _teacher_scores(cfg: ExperimentConfig, L: int, act: Activation):
    """The teacher's outputs and first-layer backward signals on the cell's
    test set, read-only.  One cell is cached, enough for :func:`run_experiment`'s order."""
    scores = _scores(_cell_data(cfg, L, act)[0], _test_set(cfg, L))
    for array in scores:
        array.flags.writeable = False
    return scores


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


def _score(cfg: ExperimentConfig, L: int, act: Activation, cell, seed: int, dataset,
           model) -> TrialResult:
    """One trial's row: the student's errors on the test set of depth ``L``,
    or a diverged row when training left no student (``model`` is the
    :class:`TrainingDivergenceError`) or an error is not finite."""
    n, repeat = cell
    if isinstance(model, Network):
        teacher_values, teacher_delta = _teacher_scores(cfg, L, act)
        teacher_theta = _cell_data(cfg, L, act)[0].layers[0]
        # A huge student may overflow when scored; a non-finite error is divergence.
        with np.errstate(over="ignore", invalid="ignore"):
            values, delta = _scores(model, _test_set(cfg, L))
            resid = _input_derivatives(model.layers, model.activation, dataset.X, value=True,
                                       signal=False, laplacian=False)[0] - dataset.y
            pred = _prediction_error(values, teacher_values)
            grad = _gradient_error(model.layers[0], delta, teacher_theta, teacher_delta)
            if math.isfinite(pred) and math.isfinite(grad):
                return TrialResult(n, repeat, act.value, L, seed, pred, grad,
                                   float(resid @ resid) / dataset.n, param_l1_norm(model))
    nan = float("nan")
    return TrialResult(n, repeat, act.value, L, seed, nan, nan, nan, nan)


def _run_block(task) -> list:
    """Train one block of an (activation, depth) group's trials as one
    stacked loop, then score each student."""
    cfg, L, act_value, cells = task
    act = Activation(act_value)
    radius = _cell_data(cfg, L, act)[1]
    datasets, seeds, train_seqs = zip(*(_trial_dataset(cfg, L, act, n, repeat)
                                        for n, repeat in cells))
    models = _train_rows(datasets, Architecture.mlp(cfg.d, cfg.h, L, act), cfg.train, radius,
                         [_seed_u64(ss) for ss in train_seqs])
    return [_score(cfg, L, act, *trial) for trial in zip(cells, seeds, datasets, models)]


# Trials trained as one stacked loop: at most this many, of one (activation,
# depth) group.  Blocks of 100 trials gained less per trial than blocks of 20.
_TRAIN_BLOCK = 32


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentOutcome:
    """Run every (n, activation, depth, repeat) trial of the sweep.

    The trials of each (activation, depth) group are trained in blocks of
    at most ``_TRAIN_BLOCK`` consecutive (n, repeat) cells, each block as
    one stacked loop with the bits of trials trained alone; each group
    scores the teacher once per process.  Blocks run depth by depth, both
    activations of a depth back to back, so one test set is held at a time.
    With ``jobs > 1`` the blocks are distributed over a process pool of at
    most one worker per block; block composition never depends on ``jobs``.
    Trials are returned in (n, activation, depth, repeat) order, identical
    for any ``jobs``.
    """
    cells = list(itertools.product(cfg.n_grid, range(cfg.repeats)))
    blocks = [
        (cfg, L, act.value, tuple(cells[start:start + _TRAIN_BLOCK]))
        for L, act in itertools.product(cfg.depths, cfg.activations)
        for start in range(0, len(cells), _TRAIN_BLOCK)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            done = list(pool.map(_run_block, blocks))
    else:
        done = [_run_block(block) for block in blocks]
    by_cell = {(t.n, t.activation, t.L, t.repeat): t for block in done for t in block}
    trials = tuple(by_cell[n, act.value, L, repeat] for n, act, L, repeat in
                   itertools.product(cfg.n_grid, cfg.activations, cfg.depths,
                                     range(cfg.repeats)))

    # Trials are in cell order, so each cell's repeats are one slice.
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
        teacher, rad = _cell_data(cfg, L, cfg.activations[0])
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
    return _rows_to_csv(TrialResult, trials)


def aggregates_to_csv(rows) -> str:
    return _rows_to_csv(AggregateRow, rows)


# -- bound report -------------------------------------------------------------


def _estimate_b0(cfg: ExperimentConfig, model: Network) -> float:
    """Empirical loss-bound constant: max |model(x) - y| over a fresh
    synthetic test set drawn against the depth-matched teacher."""
    L = model.depth
    teacher = _cell_data(cfg, L, model.activation)[0]
    rng = np.random.default_rng(_seed_seq(cfg.master_seed, 4, L))
    ds = synthesize(teacher, cfg.n_test, cfg.data, rng)
    try:  # a model that does not fit the config, or whose pass or residual overflows
        with np.errstate(over="ignore"):
            b0 = float(np.abs(forward_batch(model, ds.X) - ds.y).max())
        if not math.isfinite(b0):
            raise ValueError(f"its largest residual is {b0}")
        return b0
    except ValueError as exc:
        raise ConfigError(f"cannot evaluate the model: {exc}") from None


def report_bounds(cfg: ExperimentConfig, trained: Network = None,
                  b0_override: float = None) -> list:
    """Evaluate the full bound suite for every (depth, n) pair in the grid.

    ``b0`` comes from the override when given, else from ``trained`` (max
    absolute residual on a fresh test set), else from the config constant.
    The radius matches the experiment's radius rule applied to the same
    teacher the sweep would use.
    """
    x_inf_sq = _expected_max_sq(cfg.data, cfg.d)
    if b0_override is not None:
        b0, b0_source = float(b0_override), "override"
    elif trained is not None:
        b0, b0_source = _estimate_b0(cfg, trained), "estimated"
    else:
        b0, b0_source = cfg.b0, "config"
    entries = []
    for L in cfg.depths:
        radius = _cell_data(cfg, L, Activation.SOFTPLUS)[1]
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
    """Exact derivatives vs finite differences over random draws, evaluated
    as stacks of networks whose largest perturbation stack (``2 h^2 d``
    doubles a draw) fits ``_BLOCK_ELEMS``; a draw keeps its unstacked bits.

    Relative error for the two gradients is the worst entry deviation over
    the largest entry magnitude; the Laplacian (a scalar that can pass
    through zero) is measured against ``max(1, |exact|)``.
    """
    sizes = arch.layer_sizes
    tag = f"L{arch.depth}_d{sizes[0]}"
    ratios = {f"fd_{name}_{tag}": [] for name in
              ("grad_params", "grad_input", "laplacian_input")}

    def draw(index, rng):
        layers = _gaussian_layers(sizes, rng)
        return (*layers, sample_truncated_normal(
            cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor, rng, size=sizes[0],
        ))

    per_draw = max(2 * sizes[l + 1] ** 2 * sizes[l] for l in range(len(sizes) - 2))
    work = None
    for stack in (block[piece] for block in _draw_blocks(seed, trials, draw)
                  for piece in _pieces(len(block), per_draw)):
        *layers, X = (np.stack(part) for part in zip(*stack))
        X = X[:, np.newaxis, :]
        work = work or _fd_workspace(sizes, len(X))  # the first stack is the largest
        acts, fds = _hidden_batch(layers, arch.activation, X)
        exact = _grad_params_batch(layers, acts, fds, np.ones((len(X), 1)), out=None)
        approx = _fd_grad_params(layers, arch.activation, X, _FD_GRAD_STEP, work)
        num = np.max([np.abs(a - e).max(axis=(1, 2)) for a, e in zip(approx, exact)], 0)
        den = np.max([np.abs(e).max(axis=(1, 2)) for e in exact], 0)
        _, delta, exact_l = _input_derivatives(layers, arch.activation, X, value=False,
                                               signal=True, laplacian=True)
        exact_g, exact_l = (delta @ layers[0])[:, 0], exact_l[:, 0]
        approx_g = _fd_gradient(layers, arch.activation, X, _FD_GRAD_STEP, work)
        approx_l = _fd_laplacian(layers, arch.activation, X, _FD_LAP_STEP, work)
        errs = (
            num / np.maximum(den, 1e-12) / _FD_GRAD_TOL,
            np.abs(approx_g - exact_g).max(axis=1)
            / np.maximum(np.abs(exact_g).max(axis=1), 1e-12) / _FD_GRAD_TOL,
            np.abs(approx_l - exact_l) / np.maximum(1.0, np.abs(exact_l)) / _FD_LAP_TOL,
        )
        for bucket, err in zip(ratios.values(), errs):
            bucket.extend(err.tolist())
    return _tally(ratios, 0.0)


def _small_green_net(d: int, rng) -> Network:
    return Network(tuple(_gaussian_layers((d, 6, 1), rng)), Activation.SOFTPLUS)


def run_verification(cfg: ExperimentConfig) -> tuple:
    """All property suites; returns ``(rows, ok)``, with ``ok`` false when
    any :class:`SuiteRow` shows a violation."""
    v = cfg.verify
    rows, fd_rows = [], []
    for L in v.depths:
        for d in v.dims:
            arch = Architecture.mlp(d, _VERIFY_HIDDEN, L, Activation.SOFTPLUS)
            audit = verify_bounds(
                arch, _VERIFY_RADIUS, v.trials,
                _seed_u64(_seed_seq(cfg.master_seed, 5, 0, L, d)),
                input_sup=cfg.data.input_bound, slack=_BOUND_SLACK,
            )
            rows.extend(
                dataclasses.replace(row, suite=f"bound_{row.suite}_L{L}_d{d}")
                for row in audit
            )
            fd_rows.extend(_fd_suite(
                cfg, arch, v.trials,
                _seed_u64(_seed_seq(cfg.master_seed, 5, 1, L, d)),
            ))
    rows.extend(fd_rows)
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
    rows.extend(_tally(green, 0.0))
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
    out = os.path.abspath(args.out)
    while not os.path.exists(out):  # the nearest existing ancestor of --out
        out = os.path.dirname(out)
    if not os.path.isdir(out):
        raise ConfigError(f"--out {args.out}: {out} exists and is not a directory")
    cfg = load_config(args.config)
    updates = {"master_seed": args.seed, "repeats": getattr(args, "repeats", None)}
    return dataclasses.replace(cfg, **{k: v for k, v in updates.items() if v is not None})


def _write(out_dir, name: str, content) -> str:
    """Write text, a dict as indented sorted strict JSON, or through a
    function of the path, to ``out_dir/name``; a failed write is a config
    error."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if callable(content):
            content(path)
        else:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
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
    if args.b0 is not None and not 0.0 <= args.b0 < math.inf:
        raise ConfigError("--b0 must be non-negative and finite")
    try:
        model = load_network(args.model) if args.model else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read the model: {exc}") from None
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
    _check_sizes("", {"--n": n, "--depth": L, "--n * d": n * cfg.d, "--n * h": n * cfg.h})
    act = Activation.SOFTPLUS
    if args.activation is not None:
        act = _parse_activation(args.activation)
    teacher = _cell_data(cfg, L, act)[0]
    dataset, _, _ = _trial_dataset(cfg, L, act, n, 0)
    _write(args.out, "dataset.csv", functools.partial(write_dataset_csv, dataset))
    _write(args.out, "teacher.json", functools.partial(save_network, teacher))
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
    except MemoryError as exc:
        print(f"l1net: config error: not enough memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
