"""L2 error estimators, a Monte-Carlo Green-identity check, and
finite-difference oracles for the exact derivative routines.

The gradient error forms no d-wide gradient: with ``delta`` the (m, h)
backward signal of the first hidden layer, ``grad f - grad g = [delta_f -
delta_g, delta_g] [theta1_f; theta1_f - theta1_g]``, and with ``R`` the QR
factor of the right factor's transpose, a row's squared gap is that of its
row of ``[delta_f - delta_g, delta_g] R^T`` (also for d < 2h).  Differences
keep a near-teacher error accurate and identical networks' error exactly 0."""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .datagen import DataSpec, _accept, _propose
from .net import (
    Activation,
    Network,
    _act_terms,
    _check_batch,
    _hidden_batch,
    _input_derivatives,
    _integral,
    _output,
    _overflow_is_an_error,
    _pieces,
    _row_blocks,
    forward_batch,
)

__all__ = [
    "GreenCheck",
    "finite_diff_grad_params",
    "finite_diff_gradient",
    "finite_diff_laplacian",
    "green_identity_check",
    "l2_gradient_error",
    "l2_prediction_error",
]


def _check_test_set(model, teacher, X_test):
    X = np.asarray(X_test, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X_test must be a non-empty matrix")
    if model.input_dim != X.shape[1] or teacher.input_dim != X.shape[1]:
        raise ValueError("model/teacher input dimension does not match X_test")
    return X


def _prediction_error(values, teacher_values) -> float:
    """:func:`l2_prediction_error` from the two networks' outputs."""
    diff = values - teacher_values
    return float(diff @ diff) / len(diff)


def _gradient_error(theta, delta, teacher_theta, teacher_delta) -> float:
    """:func:`l2_gradient_error` from the two networks' first layers (h, d)
    and first-hidden-layer backward signals (m, h); inf or NaN on overflow."""
    if np.abs(theta).max() > np.abs(teacher_theta).max():  # the terms grow with f's theta1
        theta, delta, teacher_theta, teacher_delta = teacher_theta, teacher_delta, theta, delta
    r = np.linalg.qr(np.concatenate([theta, theta - teacher_theta]).T, mode="r")
    gap = np.concatenate([delta - teacher_delta, teacher_delta], axis=1) @ r.T
    gap *= gap
    return float(gap.sum()) / len(gap)


def _finite(error, *args) -> float:
    """``error(*args)``, or ValueError where it overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = error(*args)
    if not math.isfinite(value):
        raise ValueError("L2 error overflows float64")
    return value


def l2_prediction_error(model: Network, teacher: Network, X_test) -> float:
    """``(1/m) sum_j (model(x_j) - teacher(x_j))^2``; ValueError on overflow."""
    X = _check_test_set(model, teacher, X_test)
    return _finite(_prediction_error, forward_batch(model, X), forward_batch(teacher, X))


def l2_gradient_error(model: Network, teacher: Network, X_test) -> float:
    """``(1/m) sum_j |grad model(x_j) - grad teacher(x_j)|_2^2`` in first-layer
    space (module docstring), exactly 0 for identical networks; ValueError on overflow."""
    X = _check_batch(model, _check_test_set(model, teacher, X_test))
    h = max(len(model.layers[0]), len(teacher.layers[0]))
    terms = []
    for net in (model, teacher):  # zero units widen the narrower network exactly
        with _overflow_is_an_error("gradient pass"):
            delta = _input_derivatives(net.layers, net.activation, X, value=False, signal=True,
                                       laplacian=False)[1]
        pad = h - delta.shape[1]
        terms += [np.pad(net.layers[0], ((0, pad), (0, 0))), np.pad(delta, ((0, 0), (0, pad)))]
    return _finite(_gradient_error, *terms)


class GreenCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_gap: float


def _green_f_terms(f: Network, X, score):
    """``grad f`` and ``lap f + grad f . score`` per row, from one pass."""
    _, delta, lap = _input_derivatives(f.layers, f.activation, X, value=False, signal=True,
                                       laplacian=True)
    gf = delta @ f.layers[0]
    return gf, lap + np.einsum("md,md->m", gf, score)


def _scores(net: Network, X) -> tuple:
    """Outputs and first-hidden-layer backward signals of ``net`` on the rows
    of ``X``, from one pass."""
    return _input_derivatives(net.layers, net.activation, X, value=True, signal=True,
                              laplacian=False)[:2]


def green_identity_check(f: Network, g: Network, dspec: DataSpec, m: int,
                         rng) -> GreenCheck:
    """Monte-Carlo check of the integration-by-parts identity

        -E[grad f . grad g] = E[(lap f + grad f . score) g]

    under the truncated-normal input law.  Both sides are sample means over
    the same ``m`` draws; ``rel_gap = |lhs - rhs| / max(|lhs|, |rhs|, 1e-12)``.
    The identity ignores the boundary term, which is negligible only when the
    density mass near the truncation cutoff vanishes (about ``e^-50`` at the
    default 10 sigma); the gap reported is empirical, not an exactness claim.
    In a narrow box the dropped term is not small: at ``cutoff_factor`` 1,
    correct networks show gaps of 65-71% at 10^4 draws, so all three of
    ``verify``'s Green rows fail (worst ratios 1.86-2.03 at ``green_tol`` 0.35).

    The draws are taken one ``net._pieces`` piece (2^17 doubles) at a time,
    so memory does not grow with ``m``, and each piece's rows are evaluated
    in cache-sized row blocks whose terms join the running sums at once.
    Each block makes one input-derivative pass per network: f's pass yields
    its gradient and Laplacian (it skips f's last hidden value, which nothing
    reads), reduced to per-row terms before g's pass yields its signal and
    output, so the two networks' caches never coexist.
    Block size moves only the grouping of the sums, so the last digits.

    The generator fills the next piece's proposals on a second thread while
    this piece is evaluated (:func:`_fill_beside`).  Pieces are drawn as
    :func:`datagen.sample_truncated_normal` would draw them, one after the
    other from ``rng``, and nothing past the last piece, so the result and
    ``rng``'s state afterwards are those of a serial loop, bit for bit.

    Softplus networks only: a relu network has an almost-everywhere zero
    Laplacian and the identity degenerates.
    """
    if f.activation is not Activation.SOFTPLUS or g.activation is not Activation.SOFTPLUS:
        raise ValueError("green_identity_check requires softplus networks")
    if f.input_dim != g.input_dim:
        raise ValueError("f and g must share an input dimension")
    m = _integral(m, "m", ValueError)
    if m < 10_000:
        raise ValueError("m must be at least 10^4")
    d = f.input_dim
    inv_var = 1.0 / (dspec.x_std ** 2)
    law = (dspec.mean, dspec.x_std, dspec.cutoff_factor, rng)
    sizes = [(rows.stop - rows.start) * d for rows in _pieces(m, d)]  # doubles per piece
    buffers = [np.empty(sizes[0]) for _ in sizes[:2]]
    lhs_sum = 0.0
    rhs_sum = 0.0
    _propose(buffers[0], *law)
    for i, size in enumerate(sizes):
        X = _accept(buffers[i % 2][:size], *law).reshape(-1, d)
        join = (lambda: None) if i + 1 == len(sizes) else _fill_beside(
            buffers[(i + 1) % 2][:sizes[i + 1]], law)
        try:
            for rows in _row_blocks(f.layers, len(X)):
                x = X[rows]
                gf, rhs_f = _green_f_terms(f, x, -(x - dspec.mean) * inv_var)
                g_out, delta = _scores(g, x)
                lhs_sum -= float(np.einsum("md,md->", gf, delta @ g.layers[0]))
                rhs_sum += float(rhs_f @ g_out)
        finally:
            join()
    lhs = lhs_sum / m
    rhs = rhs_sum / m
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    return GreenCheck(lhs, rhs, gap)


def _fill_beside(out, law):
    """Start ``datagen._propose(out, *law)`` on a new thread, and return a
    function that waits for it and re-raises what it raised.  The thread
    allocates no array, and it calls no public function, so a tracer that
    wraps those with one span stack sees only the caller's thread."""
    raised = []

    def fill():
        try:
            _propose(out, *law)
        except BaseException as exc:  # handed to the caller's thread by join
            raised.append(exc)

    thread = threading.Thread(target=fill)
    thread.start()

    def join():
        thread.join()
        if raised:
            raise raised[0]

    return join


# -- finite-difference oracles -------------------------------------------------
#
# Central differences from forward values only, independent of the closed-form
# derivative routines above, to cross-check them.  Each private oracle takes a
# stack of networks at one input each, X (T, 1, d), and a workspace from
# ``_fd_workspace`` that holds its perturbed stack and value pass; it returns
# fresh arrays.  The public ones are its unstacked case, X (1, d).


def _fd_workspace(sizes, draws):
    """Three flat buffers (see :func:`_values`) for any oracle's stacks of ``draws`` networks."""
    stacks = [(2 * sizes[0] + 1) * max(sizes[:-1])] + [
        2 * sizes[l] * sizes[l - 1] * max(sizes[l:-1]) for l in range(1, len(sizes) - 1)]
    return tuple(np.empty(draws * max(stacks)) for _ in range(3))


def _values(layers, activation, X, work):
    """Outputs ``f(x_i)`` for every row, from a row-major value-only pass in
    ``work``'s three flat buffers: the first two take turns holding a layer
    (``X`` may lie in the first), and the third holds ``exp(-|z|)``."""
    for i, theta in enumerate(layers[:-1]):
        shape = X.shape[:-1] + theta.shape[-2:-1]
        z = np.matmul(X, theta.swapaxes(-1, -2), out=np.ndarray(shape, buffer=work[1 - i % 2]))
        X = _act_terms(activation, z, 0, np.ndarray(shape, buffer=work[2]), value=True)[0]
    return _output(layers, [X])


def _fd_args(net: Network, x, step: float) -> tuple:
    if step <= 0.0:
        raise ValueError("step must be positive")
    X = _check_batch(net, np.asarray(x, dtype=float).reshape(1, -1))
    return net.layers, net.activation, X, step, _fd_workspace(net.layer_sizes, 1)


def _axis_outputs(layers, activation, X, step, work, center):
    """Outputs at ``X + step e_i`` and at ``X - step e_i`` for every coordinate
    i, and at ``X`` when ``center``, from a stack built in ``work[0]``."""
    d = X.shape[-1]
    eye = np.eye(d) * step
    stack = np.ndarray(X.shape[:-2] + (2 * d + center, d), buffer=work[0])
    np.add(X, eye, out=stack[..., :d, :])
    np.subtract(X, eye, out=stack[..., d:2 * d, :])
    stack[..., 2 * d:, :] = X  # no row unless center
    outs = _values(layers, activation, stack, work)
    return outs[..., :d], outs[..., d:2 * d], outs[..., 2 * d:]


def _fd_gradient(layers, activation, X, step, work):
    plus, minus, _ = _axis_outputs(layers, activation, X, step, work, False)
    return (plus - minus) / (2.0 * step)


def _fd_laplacian(layers, activation, X, step, work):
    plus, minus, center = _axis_outputs(layers, activation, X, step, work, True)
    return (plus - 2.0 * center + minus).sum(axis=-1) / (step * step)


def _fd_grad_params(layers, activation, X, step, work):
    acts = _hidden_batch(layers, activation, X)[0]
    grads = []
    for l in range(1, len(layers)):
        theta = layers[l - 1]
        d_out, d_in = theta.shape[-2:]
        z_base = (acts[l - 1] @ theta.swapaxes(-1, -2))[..., 0, :, np.newaxis]
        lead = z_base.shape[:-2]
        moved = step * acts[l - 1]
        # a[..., 0 or 1, k, j, :] is h_l with theta_l[k, j] moved by +step or
        # -step: h_l (= s(z_l)) but for entry k, s(z_l[k] +- step h_{l-1}[j])
        a = np.ndarray(lead + (2, d_out, d_in, d_out), buffer=work[0])
        np.copyto(a, acts[l][..., np.newaxis, np.newaxis, :])
        z = np.stack([z_base + moved, z_base - moved], axis=-3,
                     out=np.ndarray(lead + (2, d_out, d_in), buffer=work[1]))
        rows = np.arange(d_out)
        h = _act_terms(activation, z, 0, np.ndarray(z.shape, buffer=work[2]), value=True)[0]
        a[..., rows, :, rows] = np.moveaxis(h, -2, 0)
        a = a.reshape(lead + (2 * d_out * d_in, d_out))
        outs = _values(layers[l:], activation, a, work).reshape(lead + (2,) + theta.shape[-2:])
        grads.append((outs[..., 0, :, :] - outs[..., 1, :, :]) / (2.0 * step))
    h_last = acts[-1]
    base = _output(layers, acts)[..., np.newaxis]
    grads.append(((base + step * h_last) - (base - step * h_last)) / (2.0 * step))
    return grads


def finite_diff_gradient(net: Network, x, step: float) -> np.ndarray:
    """``(f(x + h e_i) - f(x - h e_i)) / 2h`` for every coordinate."""
    return _fd_gradient(*_fd_args(net, x, step))


def finite_diff_laplacian(net: Network, x, step: float) -> float:
    """``sum_i (f(x + h e_i) - 2 f(x) + f(x - h e_i)) / h^2``."""
    return float(_fd_laplacian(*_fd_args(net, x, step)))


def finite_diff_grad_params(net: Network, x, step: float) -> list:
    """Central differences of the output w.r.t. every weight entry.

    Perturbing ``theta_l[k, j]`` by ``+-step`` shifts the preactivation
    ``z_l[k]`` by ``+-step * h_{l-1}[j]`` and nothing else, so all
    perturbations of one layer are propagated as a single batch from that
    layer instead of re-running the full forward pass per entry; of each
    perturbed ``h_l`` only the moved entry is evaluated again.  This is the
    difference quotient of the perturbed output (up to one rounding in the
    preactivation) and keeps the oracle fast enough for thousand-draw sweeps.
    """
    return _fd_grad_params(*_fd_args(net, x, step))
