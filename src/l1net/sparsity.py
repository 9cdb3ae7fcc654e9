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

from .datagen import _integral
from .net import (
    Architecture,
    Network,
    _act_terms,
    _grad_params_batch,
    _hidden_batch,
)

__all__ = [
    "FlatParams",
    "TrainConfig",
    "TrainingDivergenceError",
    "flatten",
    "param_l1_norm",
    "project_l1",
    "train",
    "unflatten",
]


@dataclass(frozen=True, eq=False)
class FlatParams:
    """A parameter vector plus the layer shapes needed to fold it back."""

    values: np.ndarray
    shape_spec: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be a vector")
        shapes = tuple((int(a), int(b)) for a, b in self.shape_spec)
        total = sum(a * b for a, b in shapes)
        if total != values.size:
            raise ValueError(
                f"shape spec covers {total} entries but vector has {values.size}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape_spec", shapes)


def flatten(net: Network) -> FlatParams:
    """Concatenate all layers row-major into one vector."""
    vec = np.concatenate([theta.ravel() for theta in net.layers])
    return FlatParams(vec, tuple(theta.shape for theta in net.layers))


def unflatten(flat: FlatParams, activation) -> Network:
    """Inverse of :func:`flatten`; exact round trip."""
    return Network(tuple(_layer_views(flat.values, flat.shape_spec)), activation)


def _layer_views(vec, shapes):
    """Layers of a flat vector, or layer stacks of the rows of a matrix."""
    layers = []
    offset = 0
    for rows, cols in shapes:
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
    and the seed are per trial).  ``batch_size`` is either a positive integer
    or the string ``"full"``."""

    step_size: float = 0.05
    iterations: int = 1000
    batch_size: object = "full"

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size <= 0.0:
            raise ValueError("step_size must be positive and finite")
        object.__setattr__(self, "iterations", _integral(self.iterations, "iterations", ValueError))
        if self.iterations < 1:
            raise ValueError("iterations must be a positive integer")
        if self.batch_size != "full":
            object.__setattr__(
                self, "batch_size", _integral(self.batch_size, "batch_size", ValueError))
            if self.batch_size < 1:
                raise ValueError('batch_size must be a positive integer or "full"')


def _init_flat(arch: Architecture, radius: float, rng) -> np.ndarray:
    flat = rng.normal(0.0, np.sqrt(2.0 / arch.layer_sizes[1]), size=arch.n_params)
    total = np.abs(flat).sum()
    if total > radius:
        flat *= radius / total
    return project_l1(flat, radius)


def train(dataset, arch: Architecture, cfg: TrainConfig, radius: float, seed: int, *,
          init: Network = None, on_step=None) -> Network:
    """Fit a network to ``dataset`` by projected gradient descent inside the
    L1 ball of radius ``radius`` (positive and finite).

    One iteration = one gradient step on the current batch followed by
    projection onto the ball, so every iterate (and the returned network)
    satisfies the radius constraint.  Mini-batches are drawn by reshuffling
    the sample order at the start of each sweep.  Initial weights are drawn
    from ``seed`` (a non-negative integer) for every layer from N(0, 2 / d_1),
    with ``d_1`` the first hidden width, rescaled onto the ball when they
    land outside it; ``init`` overrides them (it must match ``arch``).  The
    run is a pure function of the arguments: identical inputs give a
    bit-identical network.  ``on_step`` is called as
    ``on_step(iteration, params_vector)`` after every projection.

    Raises :class:`TrainingDivergenceError` if the batch loss, its gradient
    or the gradient step becomes non-finite, or if a step lands so far out
    that the radius is below one ulp of its largest entry (the projection
    would then round to a point far inside the ball, often the origin).
    """
    flat = None
    if init is not None:
        if init.layer_sizes != tuple(arch.layer_sizes) or init.activation is not arch.activation:
            raise ValueError("init network does not match the architecture")
        flat = flatten(init).values
    step = None if on_step is None else (lambda it, rows: on_step(it, rows[0].copy()))
    (model,) = _train_rows([dataset], arch, cfg, radius, [seed], [flat], step)
    if isinstance(model, TrainingDivergenceError):
        raise model
    return model


def _train_rows(datasets, arch: Architecture, cfg: TrainConfig, radius: float, seeds,
                inits, on_step) -> list:
    """:func:`train` for a block of trials as one loop over stacked networks.

    Row ``i`` trains on ``datasets[i]`` under ``cfg`` and ``radius`` with
    seed ``seeds[i]`` from ``inits[i]``, a parameter vector, or from the
    seeded random start when that is None; it keeps its own permutation
    stream.
    ``on_step(iteration, rows)`` sees the iterates of the rows still
    training, one per row.  Returns per row its trained network, or the
    :class:`TrainingDivergenceError` that :func:`train` would raise; a
    diverged row is frozen and dropped from the stacks while the others go
    on, so every row gets the bits it would get alone.

    Each row's batch sits zero-padded in an ``(R, m, d)`` buffer: padding
    is exact, since s(0) = 0 and a zero residual add exact zeros to the
    gradient.  The first-layer and output products run per row on the real
    rows only, because their BLAS bits depend on the row count.
    """
    if not math.isfinite(radius) or radius <= 0.0:
        raise ValueError("radius must be positive and finite")
    if any(int(seed) < 0 for seed in seeds):
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
    shapes = tuple(
        (arch.layer_sizes[l + 1], arch.layer_sizes[l]) for l in range(arch.depth)
    )
    R, r = len(Xs), radius
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    flat = np.empty((R, arch.n_params))
    for i, init in enumerate(inits):
        if init is None:
            flat[i] = _init_flat(arch, r, rngs[i])
        else:
            flat[i] = project_l1(init, r) if np.abs(init).sum() > r else init
    ns = [X.shape[0] for X in Xs]
    batches = [n if cfg.batch_size == "full" else min(cfg.batch_size, n) for n in ns]
    sampled = {i for i in range(R) if batches[i] < ns[i]}
    orders, cursors = [None] * R, [0] * R
    # Buffers and layer views, written in place each step and cut down to the
    # live rows when a row diverges; the padding of Xb, yb, z and out stays zero
    m = max(batches)
    Xb, yb = np.zeros((R, m, arch.layer_sizes[0])), np.zeros((R, m))
    for i in set(range(R)) - sampled:  # full batches, fixed for the run
        Xb[i, :ns[i]], yb[i, :ns[i]] = Xs[i], ys[i]
    z, out = np.zeros((R, m, arch.layer_sizes[1])), np.zeros((R, m, 1))
    scale = np.array([[2.0 / b] for b in batches])
    grad, stepped = np.empty_like(flat), np.empty_like(flat)
    layers = _layer_views(flat, shapes)
    grads = _layer_views(grad, shapes)
    diverged = np.zeros(R, dtype=int)
    rows = list(range(R))  # the trial in each stack position, while it trains

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for it in range(1, cfg.iterations + 1):
            for j, i in enumerate(rows):
                if i in sampled:
                    n, b = ns[i], batches[i]
                    if orders[i] is None or cursors[i] + b > n:
                        orders[i] = rngs[i].permutation(n)
                        cursors[i] = 0
                    idx = orders[i][cursors[i]:cursors[i] + b]
                    cursors[i] += b
                    np.take(Xs[i], idx, axis=0, out=Xb[j, :b])
                    np.take(ys[i], idx, out=yb[j, :b])
            for j, b in enumerate([batches[i] for i in rows]):
                np.matmul(Xb[j, :b], layers[0][j].T, out=z[j, :b])
            h, fd, _ = _act_terms(arch.activation, z, 1)
            acts, fds, _ = _hidden_batch(layers[1:], arch.activation, h, 1)
            for j, b in enumerate([batches[i] for i in rows]):
                np.matmul(acts[-1][j, :b], layers[-1][j].T, out=out[j, :b])
            resid = out[..., 0] - yb
            _grad_params_batch(layers, [Xb] + acts, [fd] + fds, scale * resid, out=grads)
            # flat - step_size * grad, not finite if grad is not
            np.subtract(flat, np.multiply(grad, cfg.step_size, out=stepped), out=stepped)
            # The spacing of a non-finite entry is NaN, so not below r
            top = np.abs(stepped, out=grad).max(axis=1)
            ok = np.isfinite(np.einsum("ij,ij->i", resid, resid)) & (np.spacing(top) <= r)
            if not ok.all():
                diverged[np.array(rows)[~ok]] = it
                rows = [i for i, good in zip(rows, ok) if good]
                if not rows:
                    break
                flat, stepped, Xb, yb, z, out, scale = (
                    buf[ok] for buf in (flat, stepped, Xb, yb, z, out, scale)
                )
                grad = np.empty_like(flat)
                layers, grads = _layer_views(flat, shapes), _layer_views(grad, shapes)
            flat[...] = project_l1(stepped, r)
            if on_step is not None:
                on_step(it, flat)

    trained = dict(zip(rows, flat))
    return [
        TrainingDivergenceError(int(at)) if at
        else unflatten(FlatParams(trained[i], shapes), arch.activation)
        for i, at in enumerate(diverged)
    ]
