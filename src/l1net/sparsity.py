"""L1 geometry of the parameter vector and projected-gradient training.

The whole weight stack is treated as one flat vector; the training
constraint is an L1 ball of radius ``r`` around the origin in that vector.
Projection onto the ball uses the exact sort-based soft-threshold
construction, so every iterate of :func:`train` is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Architecture, Network, _grad_params_batch, _hidden_batch, _output

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
    layers = []
    offset = 0
    for rows, cols in shapes:
        size = rows * cols
        layers.append(vec[offset:offset + size].reshape(rows, cols))
        offset += size
    return layers


def param_l1_norm(net: Network) -> float:
    """Sum of absolute values over every weight entry."""
    return float(sum(np.abs(theta).sum() for theta in net.layers))


def project_l1(v, r: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the L1 ball of radius ``r``.

    If ``v`` is already inside the ball it is returned unchanged (as a
    copy).  Otherwise the unique projection is the soft threshold
    ``sign(v) max(|v| - tau, 0)`` where ``tau`` comes from the sorted
    magnitudes: with ``u`` = ``|v|`` sorted descending, ``rho`` is the
    largest index with ``u_rho - (cumsum(u)_rho - r) / rho > 0`` and
    ``tau = (cumsum(u)_rho - r) / rho``.  O(P log P) from the sort.
    """
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError("radius must be positive and finite")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("v must be a vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    mag = np.abs(v)
    # The tiny relative slack makes the projection idempotent in floating
    # point: re-projecting a result whose norm sits within rounding error of
    # r returns it bit for bit instead of shaving another ulp off.
    if mag.sum() <= r * (1.0 + 1e-12):
        return v.copy()
    u = np.sort(mag)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    candidates = u - (cumulative - r) / ranks
    rho = np.nonzero(candidates > 0.0)[0][-1]
    tau = (cumulative[rho] - r) / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - tau, 0.0)


class TrainingDivergenceError(RuntimeError):
    """Raised when the training loss or gradient stops being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    """Projected gradient descent settings.

    ``batch_size`` is either a positive integer or the string ``"full"``.
    Initial weights are drawn for every layer from N(0, 2 / d_1), with
    ``d_1`` the first hidden width, rescaled onto the L1 ball of radius
    ``radius`` when they land outside it.
    """

    radius: float
    step_size: float = 0.05
    iterations: int = 1000
    batch_size: object = "full"
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        if not np.isfinite(self.step_size) or self.step_size <= 0.0:
            raise ValueError("step_size must be positive and finite")
        if int(self.iterations) < 1:
            raise ValueError("iterations must be a positive integer")
        object.__setattr__(self, "iterations", int(self.iterations))
        if self.batch_size != "full":
            if int(self.batch_size) < 1:
                raise ValueError('batch_size must be a positive integer or "full"')
            object.__setattr__(self, "batch_size", int(self.batch_size))
        if int(self.seed) < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))


def _init_flat(arch: Architecture, radius: float, rng) -> np.ndarray:
    sizes = arch.layer_sizes
    std = np.sqrt(2.0 / sizes[1])
    parts = [
        rng.normal(0.0, std, size=(sizes[l + 1], sizes[l])).ravel()
        for l in range(arch.depth)
    ]
    flat = np.concatenate(parts)
    total = np.abs(flat).sum()
    if total > radius:
        flat *= radius / total
    return project_l1(flat, radius)


def _mse_and_grad(flat, shapes, activation, X, y):
    """Mean squared error over the batch and its gradient, flattened."""
    layers = _layer_views(flat, shapes)
    acts, fds, _ = _hidden_batch(layers, activation, X, 1)
    resid = _output(layers, acts) - y
    m = X.shape[0]
    grads = _grad_params_batch(layers, acts, fds, (2.0 / m) * resid)
    return float(resid @ resid) / m, np.concatenate([g.ravel() for g in grads])


def train(dataset, arch: Architecture, cfg: TrainConfig, *, init: Network = None,
          on_step=None) -> Network:
    """Fit a network to ``dataset`` by projected gradient descent.

    One iteration = one gradient step on the current batch followed by
    projection onto the L1 ball, so every iterate (and the returned
    network) satisfies the radius constraint.  Mini-batches are drawn by
    reshuffling the sample order at the start of each sweep.  The run is a
    pure function of ``(dataset, arch, cfg, init)``: identical inputs give
    a bit-identical network.

    ``init`` overrides the random initialization (it must match ``arch``).
    ``on_step`` is called as ``on_step(iteration, params_vector)`` after
    every projection.

    Raises :class:`TrainingDivergenceError` if the batch loss or gradient
    becomes non-finite.
    """
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if X.shape[1] != arch.layer_sizes[0]:
        raise ValueError(
            f"dataset has {X.shape[1]} features but architecture expects "
            f"{arch.layer_sizes[0]}"
        )
    shapes = tuple(
        (arch.layer_sizes[l + 1], arch.layer_sizes[l]) for l in range(arch.depth)
    )
    rng = np.random.default_rng(cfg.seed)
    if init is not None:
        if init.layer_sizes != tuple(arch.layer_sizes) or init.activation is not arch.activation:
            raise ValueError("init network does not match the architecture")
        flat = flatten(init).values.copy()
        if np.abs(flat).sum() > cfg.radius:
            flat = project_l1(flat, cfg.radius)
    else:
        flat = _init_flat(arch, cfg.radius, rng)

    batch = n if cfg.batch_size == "full" else min(cfg.batch_size, n)
    order = None
    cursor = 0

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for it in range(1, cfg.iterations + 1):
            if batch == n:
                Xb, yb = X, y
            else:
                if order is None or cursor + batch > n:
                    order = rng.permutation(n)
                    cursor = 0
                idx = order[cursor:cursor + batch]
                cursor += batch
                Xb, yb = X[idx], y[idx]
            loss, grad = _mse_and_grad(flat, shapes, arch.activation, Xb, yb)
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise TrainingDivergenceError(it)
            flat = project_l1(flat - cfg.step_size * grad, cfg.radius)
            if on_step is not None:
                on_step(it, flat.copy())

    return unflatten(FlatParams(flat, shapes), arch.activation)
