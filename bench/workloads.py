"""The three benchmark workloads: ``sweep``, ``audit`` and ``derivatives``.

Each workload builds its inputs from a seed through l1net's public API
(``setup``), runs one pass of fixed work (``run``, the only timed part), and
checks that pass's outputs against an oracle (``check``, untimed).  ``check``
returns ``(attempted, failed, info)``: an operation fails when it raised or
when its result fails the check.  ``info["rate"]`` is the work the pass
carried as ``(units, seconds)``, from which the runner forms ``ops_per_s``.

The package is imported from the checkout's ``src/`` directory, never from an
installed copy, so the benchmark measures the code next to it.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import l1net  # noqa: E402
from l1net import cli, datagen, evaluate, net  # noqa: E402

if Path(l1net.__file__).resolve().parent.parent != SRC.resolve():
    raise ImportError(f"l1net was imported from {l1net.__file__}, not from {SRC}")

# Acceptance tolerances (tests/test_acceptance.py).
GRAD_TOL = 1e-5
LAP_TOL = 1e-4
FD_GRAD_STEP = 1e-4
FD_LAP_STEP = 1e-3


def _seed_u64(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# -- sweep ---------------------------------------------------------------------

SWEEP_REPEATS = 1


class Sweep:
    """A scaled ``l1net run``: the default grid, both activations and both
    depths, ``SWEEP_REPEATS`` repeats per cell, serial."""

    name = "sweep"

    def __init__(self, seed: int):
        self.cfg = cli.ExperimentConfig(repeats=SWEEP_REPEATS, master_seed=seed)
        c = self.cfg
        self.n_ops = len(c.n_grid) * len(c.activations) * len(c.depths) * c.repeats

    def run(self):
        return cli.run_experiment(self.cfg, jobs=1)

    def check(self, outcome, wall_s):
        csv = cli.trials_to_csv(outcome.trials)
        radius = outcome.metadata["training_radius"]
        failed = max(0, self.n_ops - len(outcome.trials))
        diverged = 0
        for t in outcome.trials:
            if t.diverged:
                diverged += 1
                continue
            errors = (t.pred_l2, t.grad_l2, t.final_train_loss)
            ok = all(math.isfinite(v) and v >= 0.0 for v in errors)
            ok &= t.l1_norm_final <= radius[str(t.L)] * (1.0 + 1e-12)
            failed += not ok
        return self.n_ops, failed, {
            "rate": (len(outcome.trials), wall_s),
            "trials_csv_sha256": hashlib.sha256(csv.encode("ascii")).hexdigest(),
            "diverged": diverged,
        }


# -- audit ---------------------------------------------------------------------

# Single-sample draws per architecture for the bound audit and the three
# finite-difference suites.  Chosen so that these m=1 suites take at least a
# third of a pass; the six 10^6-sample Green checks take most of the rest.
AUDIT_TRIALS = 450


class Audit:
    """A scaled ``l1net verify`` followed by ``l1net bounds``: the production
    architectures and Green sample size, ``AUDIT_TRIALS`` draws per suite and
    one Green pair per input dimension."""

    name = "audit"

    def __init__(self, seed: int):
        self.cfg = cli.ExperimentConfig(
            master_seed=seed,
            verify=cli.VerifyConfig(trials=AUDIT_TRIALS, green_pairs=1),
        )
        v = self.cfg.verify
        # Four bound rows and three finite-difference rows per architecture,
        # one Green row per input dimension, one bound report per (L, n).
        self.n_rows = len(v.depths) * len(v.dims) * (4 + 3) + 3
        self.n_ops = self.n_rows + len(self.cfg.depths) * len(self.cfg.n_grid)

    def run(self):
        green_s = []
        inner = cli.green_identity_check

        def timed_green(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                green_s.append(time.perf_counter() - start)

        cli.green_identity_check = timed_green
        try:
            rows, ok = cli.run_verification(self.cfg)
        finally:
            cli.green_identity_check = inner
        entries = cli.report_bounds(self.cfg)
        return rows, ok, entries, green_s

    def check(self, result, wall_s):
        """Bound-audit and finite-difference rows must show zero violations.

        Green rows must be present with a finite gap, but their verdict is
        recorded, not gated: at one pair per d the Monte-Carlo gap of a pair
        whose expectation is near zero exceeds the 5% tolerance for about
        one seed in ten, with no fault in the derivatives.
        """
        rows, _, entries, green_s = result
        failed = max(0, self.n_rows - len(rows))
        failed += max(0, self.n_ops - self.n_rows - len(entries))
        green_violations = 0
        for row in rows:
            if row.suite.startswith("green_identity"):
                failed += not math.isfinite(row.worst_ratio)
                green_violations += row.violations
            else:
                failed += row.violations != 0
        for entry in entries:
            values = list(entry["inputs"].values()) + [
                x for x in entry["report"].values() if not isinstance(x, bool)
            ]
            failed += not all(math.isfinite(x) for x in values)
        green_m = self.cfg.verify.green_m * len(green_s)
        return self.n_ops, failed, {
            "rate": (green_m, sum(green_s)),
            "green_check_s": green_s,
            "green_violations": green_violations,
        }


# -- derivatives ---------------------------------------------------------------

DERIV_DEPTHS = (2, 3, 4)
DERIV_BATCHES = 2
DERIV_ROWS = 10_000
DERIV_CHECK_ROWS = 8


class Derivatives:
    """Library traffic: value, input gradient and input Laplacian of
    sweep-shaped networks (d=100, h=10) at each depth and activation, over
    ``DERIV_BATCHES`` truncated-normal batches of ``DERIV_ROWS`` rows."""

    name = "derivatives"

    def __init__(self, seed: int):
        cfg = cli.ExperimentConfig()
        # Every input coordinate is relevant (s = d), so Laplacians are of
        # order one and a relative error in them shows against the
        # max(1, |exact|) denominator.
        self.nets = [
            datagen.make_teacher(
                datagen.TeacherSpec(d=cfg.d, s=cfg.d, L=L, h=cfg.h,
                                    seed=_seed_u64(seed, 0, L)),
                activation=act,
            )
            for L in DERIV_DEPTHS
            for act in cfg.activations
        ]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self.batches = [
            datagen.sample_truncated_normal(
                cfg.data.mean, cfg.data.x_std, cfg.data.cutoff_factor, rng,
                size=(DERIV_ROWS, cfg.d),
            )
            for _ in range(DERIV_BATCHES)
        ]
        self.n_ops = 3 * len(self.nets) * len(self.batches)

    def run(self):
        out = []
        for X in self.batches:
            for f in self.nets:
                out.append((
                    net.forward_batch(f, X),
                    net.grad_input_batch(f, X),
                    net.laplacian_batch(f, X),
                ))
        return out

    def check(self, result, wall_s):
        failed = 0
        pairs = [(X, f) for X in self.batches for f in self.nets]
        rows = np.linspace(0, DERIV_ROWS - 1, DERIV_CHECK_ROWS).astype(int)
        for (X, f), outputs in zip(pairs, result):
            failed += sum(not ok for ok in _check_outputs(f, X, outputs, rows))
        failed += 3 * max(0, len(pairs) - len(result))
        return self.n_ops, failed, {
            "rate": (DERIV_ROWS * len(result), wall_s),
        }


def _grad_rel_err(approx, exact) -> float:
    return float(np.abs(approx - exact).max()) / max(float(np.abs(exact).max()), 1e-12)


def _check_outputs(f, X, outputs, rows):
    """``(value_ok, gradient_ok, laplacian_ok)`` for one batch call triple.

    On the sampled rows the batch results must match the single-sample
    routines, and for softplus the finite-difference oracles too; finite
    differences are not valid across relu kinks, where instead the
    Laplacian must be exactly zero on every row."""
    value, grad, lap = outputs
    m = X.shape[0]
    value_ok = value.shape == (m,) and bool(np.all(np.isfinite(value)))
    grad_ok = grad.shape == X.shape and bool(np.all(np.isfinite(grad)))
    lap_ok = lap.shape == (m,) and bool(np.all(np.isfinite(lap)))
    softplus = f.activation is net.Activation.SOFTPLUS
    if not softplus:
        lap_ok &= bool(np.all(lap == 0.0))
    if not (value_ok and grad_ok and lap_ok):
        return value_ok, grad_ok, lap_ok
    for i in rows:
        x = X[i]
        trace = net.forward(f, x)
        value_ok &= abs(value[i] - trace.output) <= GRAD_TOL * max(1.0, abs(trace.output))
        grad_ok &= _grad_rel_err(grad[i], net.grad_input(f, trace)) <= GRAD_TOL
        exact_lap = net.laplacian_input(f, trace)
        lap_ok &= abs(lap[i] - exact_lap) <= LAP_TOL * max(1.0, abs(exact_lap))
        if softplus:
            fd_grad = evaluate.finite_diff_gradient(f, x, FD_GRAD_STEP)
            grad_ok &= _grad_rel_err(fd_grad, grad[i]) <= GRAD_TOL
            fd_lap = evaluate.finite_diff_laplacian(f, x, FD_LAP_STEP)
            lap_ok &= abs(fd_lap - lap[i]) <= LAP_TOL * max(1.0, abs(lap[i]))
    return value_ok, grad_ok, lap_ok


WORKLOADS = {w.name: w for w in (Sweep, Audit, Derivatives)}
