"""L2 error estimators, a Monte-Carlo Green-identity check, and
finite-difference oracles for the exact derivative routines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datagen import DataSpec, sample_truncated_normal
from .net import (
    Activation,
    Network,
    _act_terms,
    _check_batch,
    _grad_input,
    _hidden_batch,
    _laplacian,
    _output,
    forward,
    forward_batch,
    grad_input_batch,
)

__all__ = [
    "ErrorEstimate",
    "GreenCheck",
    "finite_diff_grad_params",
    "finite_diff_gradient",
    "finite_diff_laplacian",
    "green_identity_check",
    "l2_gradient_error",
    "l2_prediction_error",
]


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte-Carlo estimate of a squared L2 distance over a test set."""

    value: float
    n_test: int
    kind: str

    def __post_init__(self):
        if self.kind not in ("prediction_l2", "gradient_l2"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if self.n_test < 1:
            raise ValueError("n_test must be at least 1")
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError("value must be non-negative and finite")


def _check_test_set(model, teacher, X_test):
    X = np.asarray(X_test, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X_test must be a non-empty matrix")
    if model.input_dim != X.shape[1] or teacher.input_dim != X.shape[1]:
        raise ValueError("model/teacher input dimension does not match X_test")
    return X


def l2_prediction_error(model: Network, teacher: Network, X_test) -> ErrorEstimate:
    """``(1/m) sum_j (model(x_j) - teacher(x_j))^2``."""
    X = _check_test_set(model, teacher, X_test)
    diff = forward_batch(model, X) - forward_batch(teacher, X)
    return ErrorEstimate(float(diff @ diff) / X.shape[0], X.shape[0], "prediction_l2")


def l2_gradient_error(model: Network, teacher: Network, X_test) -> ErrorEstimate:
    """``(1/m) sum_j |grad model(x_j) - grad teacher(x_j)|_2^2``."""
    X = _check_test_set(model, teacher, X_test)
    diff = grad_input_batch(model, X) - grad_input_batch(teacher, X)
    return ErrorEstimate(
        float((diff * diff).sum()) / X.shape[0], X.shape[0], "gradient_l2"
    )


class GreenCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_gap: float


def _green_f_terms(f: Network, X, score):
    """``grad f`` and ``lap f + grad f . score`` per row, from one pass."""
    _, fds, sds = _hidden_batch(f.layers, f.activation, X, 2)
    gf = _grad_input(f.layers, fds)
    return gf, _laplacian(f.layers, fds, sds) + np.einsum("md,md->m", gf, score)


def _green_g_terms(g: Network, X):
    """``grad g`` and ``g`` per row, from one pass."""
    acts, fds, _ = _hidden_batch(g.layers, g.activation, X, 1)
    return _grad_input(g.layers, fds), _output(g.layers, acts)


# Rows drawn per chunk of a Green check; bounds its peak memory.
_GREEN_CHUNK = 100_000


def green_identity_check(f: Network, g: Network, dspec: DataSpec, m: int,
                         rng) -> GreenCheck:
    """Monte-Carlo check of the integration-by-parts identity

        -E[grad f . grad g] = E[(lap f + grad f . score) g]

    under the truncated-normal input law.  Both sides are sample means over
    the same ``m`` draws; ``rel_gap = |lhs - rhs| / max(|lhs|, |rhs|, 1e-12)``.
    The identity ignores the boundary term, which is negligible because the
    density mass near the truncation cutoff is vanishing (about ``e^-50``
    at 10 sigma); the gap reported is empirical, not an exactness claim.

    The draws are taken ``_GREEN_CHUNK`` (100k) rows at a time, which
    bounds peak memory.  Each chunk makes one hidden-layer pass per
    network: f's pass yields its gradient and Laplacian, which are reduced
    to per-row terms before g's pass yields its gradient and output, so the
    two networks' caches are never alive at once.

    Softplus networks only: a relu network has an almost-everywhere zero
    Laplacian and the identity degenerates.
    """
    if f.activation is not Activation.SOFTPLUS or g.activation is not Activation.SOFTPLUS:
        raise ValueError("green_identity_check requires softplus networks")
    if f.input_dim != g.input_dim:
        raise ValueError("f and g must share an input dimension")
    if int(m) < 10_000:
        raise ValueError("m must be at least 10^4")
    m = int(m)
    d = f.input_dim
    inv_var = 1.0 / (dspec.x_std ** 2)
    lhs_sum = 0.0
    rhs_sum = 0.0
    remaining = m
    while remaining > 0:
        take = min(_GREEN_CHUNK, remaining)
        remaining -= take
        X = _check_batch(f, sample_truncated_normal(
            dspec.mean, dspec.x_std, dspec.cutoff_factor, rng, size=(take, d)
        ))
        score = -(X - dspec.mean) * inv_var
        gf, rhs_f = _green_f_terms(f, X, score)
        gg, g_out = _green_g_terms(g, X)
        lhs_sum += -float(np.einsum("md,md->", gf, gg))
        rhs_sum += float(rhs_f @ g_out)
    lhs = lhs_sum / m
    rhs = rhs_sum / m
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    return GreenCheck(lhs, rhs, gap)


# -- finite-difference oracles -------------------------------------------------
#
# Central differences evaluated through the batched forward pass.  These are
# independent of the closed-form derivative routines above (they only call
# forward_batch) and exist to cross-check them.


def finite_diff_gradient(net: Network, x, step: float) -> np.ndarray:
    """``(f(x + h e_i) - f(x - h e_i)) / 2h`` for every coordinate."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    d = x.size
    eye = np.eye(d) * step
    outs = forward_batch(net, np.vstack([x + eye, x - eye]))
    return (outs[:d] - outs[d:]) / (2.0 * step)


def finite_diff_laplacian(net: Network, x, step: float) -> float:
    """``sum_i (f(x + h e_i) - 2 f(x) + f(x - h e_i)) / h^2``."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    d = x.size
    eye = np.eye(d) * step
    outs = forward_batch(net, np.vstack([x + eye, x - eye, x[np.newaxis, :]]))
    center = outs[-1]
    return float((outs[:d] - 2.0 * center + outs[d:2 * d]).sum()) / (step * step)


def finite_diff_grad_params(net: Network, x, step: float) -> list:
    """Central differences of the output w.r.t. every weight entry.

    Perturbing ``theta_l[k, j]`` by ``+-step`` shifts the preactivation
    ``z_l[k]`` by ``+-step * h_{l-1}[j]`` and nothing else, so all
    perturbations of one layer are propagated as a single batch from that
    layer instead of re-running the full forward pass per entry.  This is
    arithmetically the difference quotient of the perturbed output (up to
    one rounding in the preactivation) and keeps the oracle fast enough for
    thousand-draw sweeps.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    trace = forward(net, x)
    L = net.depth
    grads = []
    for l in range(1, L):
        theta = net.layers[l - 1]
        d_out, d_in = theta.shape
        h_prev = trace.activations[l - 1]
        z_base = h_prev[np.newaxis, :] @ theta.T
        shift = step * h_prev
        batch = d_out * d_in
        z_plus = np.broadcast_to(z_base, (d_out, d_in, d_out)).copy()
        z_minus = z_plus.copy()
        rows = np.arange(d_out)
        z_plus[rows, :, rows] += shift[np.newaxis, :]
        z_minus[rows, :, rows] -= shift[np.newaxis, :]
        z_all = np.vstack([z_plus.reshape(batch, d_out), z_minus.reshape(batch, d_out)])
        a = _act_terms(net.activation, z_all, 0)[0]
        acts = _hidden_batch(net.layers[l:], net.activation, a, 0)[0]
        outs = _output(net.layers, acts)
        grads.append(
            ((outs[:batch] - outs[batch:]) / (2.0 * step)).reshape(d_out, d_in)
        )
    h_last = trace.activations[L - 1]
    base = float(net.layers[-1][0] @ h_last)
    plus = base + step * h_last
    minus = base - step * h_last
    grads.append(((plus - minus) / (2.0 * step))[np.newaxis, :])
    return grads
