"""L1 geometry of the parameter vector and projected-gradient training.

The whole weight stack is treated as one flat vector; the training
constraint is an L1 ball of radius ``r`` around the origin in that vector.
Projection onto the ball uses the exact sort-based soft-threshold
construction, so every iterate of :func:`train` is feasible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .net import (
    Architecture,
    Network,
    _act_terms,
    _grad_params_batch,
    _hidden_batch,
    _integral,
)

__all__ = [
    "TrainConfig",
    "TrainingDivergenceError",
    "flatten",
    "param_l1_norm",
    "project_l1",
    "train",
    "unflatten",
]


def flatten(net: Network) -> np.ndarray:
    """Concatenate all layers row-major into one vector."""
    return np.concatenate([theta.ravel() for theta in net.layers])


def unflatten(values, arch: Architecture) -> Network:
    """Inverse of :func:`flatten` for a network of ``arch``; exact round trip.

    Raises ValueError unless ``values`` is a vector of ``arch.n_params`` entries.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (arch.n_params,):
        raise ValueError(
            f"architecture has {arch.n_params} parameters but values has shape {values.shape}"
        )
    return Network(tuple(_layer_views(values, arch.layer_sizes)), arch.activation)


def _layer_views(vec, sizes):
    """Layers of the widths ``sizes`` as views of a flat vector, or as layer
    stacks of the rows of a matrix."""
    layers = []
    offset = 0
    for cols, rows in zip(sizes, sizes[1:]):
        size = rows * cols
        shape = vec.shape[:-1] + (rows, cols)
        layers.append(vec[..., offset:offset + size].reshape(shape))
        offset += size
    return layers


def param_l1_norm(net: Network) -> float:
    """Sum of absolute values over every weight entry."""
    return float(sum(np.abs(theta).sum() for theta in net.layers))


def project_l1(v, r: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the L1 ball of radius ``r``.

    ``v`` is a vector, or a matrix whose rows are projected one by one
    (each row gets exactly the bits it would get alone).  A vector already
    inside the ball is returned unchanged (as a copy).  Otherwise the unique
    projection is the soft threshold ``sign(v) max(|v| - tau, 0)`` where
    ``tau`` comes from the sorted magnitudes: with ``u`` = ``|v|`` sorted
    descending, ``rho`` is the largest index with
    ``u_rho - (cumsum(u)_rho - r) / rho > 0`` and
    ``tau = (cumsum(u)_rho - r) / rho``.  O(P log P) from the sort.  At
    ``r = 0`` the ball is the origin.  Raises ``ValueError`` on a non-finite
    entry; a finite vector whose L1 norm overflows is still projected.
    """
    if not math.isfinite(r) or r < 0.0:
        raise ValueError("radius must be non-negative and finite")
    V = np.asarray(v, dtype=float)
    if V.ndim not in (1, 2):
        raise ValueError("v must be a vector or a matrix of rows")
    P = V.shape[-1]
    # A finite row whose L1 norm overflows is projected without a warning
    with np.errstate(over="ignore"):
        mag = np.abs(V)
        total = mag.sum(axis=-1, keepdims=True)
        # The tiny relative slack makes the projection idempotent in floating
        # point: re-projecting a result whose norm sits within rounding error of
        # r returns it bit for bit instead of shaving another ulp off.
        inside = total <= r * (1.0 + 1e-12)
        if inside.all():
            return V.copy()
        # A NaN or inf entry makes its row's sum non-finite; a finite row whose
        # sum overflows is still projected.
        if not np.isfinite(total).all() and not np.isfinite(V).all():
            raise ValueError("v contains non-finite entries")
        u = np.negative(mag)  # sorted ascending, these are -|v| sorted descending
        u.sort(axis=-1)
        np.negative(u, out=u)
        theta = u.cumsum(axis=-1)
        theta -= r
        theta /= _ranks(P)
        positive = u > theta
        # u_1 - theta_1 is r, so the first candidate always counts, also where
        # that difference is 0: at r = 0, or when r is below an ulp of u_1
        positive[..., 0] = True
        # theta at each row's last positive candidate, by its index in the flat array
        ends = np.arange(P - 1, V.size, P).reshape(total.shape)
        tau = theta.reshape(-1)[ends - positive[..., ::-1].argmax(axis=-1, keepdims=True)]
        tau[inside] = 0.0  # sign(v) |v| is v itself
        mag -= tau
        np.maximum(mag, 0.0, out=mag)
        mag *= np.sign(V, out=u)
        return mag


@functools.lru_cache(maxsize=16)
def _ranks(P):
    """The divisors ``1 .. P`` of the threshold candidates, read-only."""
    ranks = np.arange(1.0, P + 1.0)
    ranks.flags.writeable = False
    return ranks


class TrainingDivergenceError(RuntimeError):
    """Raised when the training loss, gradient or step stops being finite,
    or a step lands too far out of the ball for the projection to resolve."""

    def __init__(self, iteration: int):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    """Projected gradient descent settings shared by every trial (the radius
    and the seed are per trial).  Every step uses the full training set."""

    step_size: float = 0.05
    iterations: int = 1000

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size <= 0.0:
            raise ValueError("step_size must be positive and finite")
        object.__setattr__(self, "iterations", _integral(self.iterations, "iterations", ValueError))
        if self.iterations < 1:
            raise ValueError("iterations must be a positive integer")


def _init_flat(arch: Architecture, radius: float, rng) -> np.ndarray:
    flat = rng.normal(0.0, np.sqrt(2.0 / arch.layer_sizes[1]), size=arch.n_params)
    total = np.abs(flat).sum()
    if total > radius:
        flat *= radius / total
    return project_l1(flat, radius)


def train(dataset, arch: Architecture, cfg: TrainConfig, radius: float, seed: int) -> Network:
    """Fit a network to ``dataset`` by projected gradient descent inside the
    L1 ball of radius ``radius`` (positive and finite).

    One iteration = one gradient step on the mean squared error over the
    full training set followed by projection onto the ball, so every iterate
    (and the returned network) satisfies the radius constraint.  Initial
    weights are drawn from ``seed`` (a non-negative integer) for every layer
    from N(0, 2 / d_1), with ``d_1`` the first hidden width, rescaled onto the
    ball when they land outside it.  The run is a pure function of the arguments: identical
    inputs give a bit-identical network.

    Raises :class:`TrainingDivergenceError` if the training loss, its gradient
    or the gradient step becomes non-finite, or if a step lands so far out
    that the radius is below one ulp of its largest entry (the projection
    would then round to a point far inside the ball, often the origin).
    """
    (model,) = _train_rows([dataset], arch, cfg, radius, [seed])
    if isinstance(model, TrainingDivergenceError):
        raise model
    return model


def _train_rows(datasets, arch: Architecture, cfg: TrainConfig, radius: float, seeds) -> list:
    """:func:`train` for a block of trials as one loop over stacked networks.

    Row ``i`` trains on ``datasets[i]`` under ``cfg`` and ``radius`` from
    the random start of seed ``seeds[i]``, stepping on its full training
    set, and gets the bits it would get alone.  Returns per row its trained
    network, or the :class:`TrainingDivergenceError` that :func:`train`
    would raise; a diverged row stays in the stacks as the all-zero network,
    whose loss gradient is exactly 0, so every later step leaves it there.

    Each row's training set sits zero-padded in an ``(R, m, d)`` buffer:
    padding is exact, since s(0) = 0 and a zero residual add exact zeros to
    the gradient.  The first-layer and output products run per row on the real
    rows only, because their BLAS bits depend on the row count.
    """
    if not math.isfinite(radius) or radius <= 0.0:
        raise ValueError("radius must be positive and finite")
    seeds = [_integral(seed, "seed", ValueError) for seed in seeds]
    if any(seed < 0 for seed in seeds):
        raise ValueError("seed must be a non-negative integer")
    Xs, ys = [], []
    for dataset in datasets:
        X = np.asarray(dataset.X, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("dataset is empty")
        if X.shape[1] != arch.layer_sizes[0]:
            raise ValueError(
                f"dataset has {X.shape[1]} features but architecture expects "
                f"{arch.layer_sizes[0]}"
            )
        Xs.append(X)
        ys.append(np.asarray(dataset.y, dtype=float))
    R, r = len(Xs), radius
    flat = np.empty((R, arch.n_params))
    for i, seed in enumerate(seeds):
        flat[i] = _init_flat(arch, r, np.random.default_rng(seed))
    ns = [X.shape[0] for X in Xs]  # the sample count of each row
    # Buffers and layer views, allocated once and written in place each step; the
    # padding of Xb, yb, z and out stays zero (z takes s(z) in place, and s(0) is 0.0)
    m = max(ns)
    Xb, yb = np.zeros((R, m, arch.layer_sizes[0])), np.zeros((R, m))
    for i in range(R):
        Xb[i, :ns[i]], yb[i, :ns[i]] = Xs[i], ys[i]
    z, out = np.zeros((R, m, arch.layer_sizes[1])), np.zeros((R, m, 1))
    scale = np.array([[2.0 / n] for n in ns])
    grad, stepped = np.empty_like(flat), np.empty_like(flat)
    layers = _layer_views(flat, arch.layer_sizes)
    grads = _layer_views(grad, arch.layer_sizes)
    diverged = np.zeros(R, dtype=int)

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for it in range(1, cfg.iterations + 1):
            for j, n in enumerate(ns):
                np.matmul(Xb[j, :n], layers[0][j].T, out=z[j, :n])
            h, fd, _ = _act_terms(arch.activation, z, 1, None, value=True)  # h is z
            acts, fds = _hidden_batch(layers[1:], arch.activation, h)
            for j, n in enumerate(ns):
                np.matmul(acts[-1][j, :n], layers[-1][j].T, out=out[j, :n])
            resid = out[..., 0] - yb
            _grad_params_batch(layers, [Xb] + acts, [fd] + fds, scale * resid, out=grads)
            # flat - step_size * grad, not finite if grad is not
            np.subtract(flat, np.multiply(grad, cfg.step_size, out=stepped), out=stepped)
            # The spacing of a non-finite entry is NaN, so not below r
            top = np.abs(stepped, out=grad).max(axis=1)
            ok = np.isfinite(np.einsum("ij,ij->i", resid, resid)) & (np.spacing(top) <= r)
            if not ok.all():
                diverged[~ok & (diverged == 0)] = it
                if diverged.all():
                    break
                stepped[~ok] = 0.0
            flat[...] = project_l1(stepped, r)

    return [TrainingDivergenceError(int(at)) if at else unflatten(row, arch)
            for at, row in zip(diverged, flat)]
