"""Dense feed-forward networks with exact first- and second-order input derivatives.

A network is an immutable stack of weight matrices ``theta_l`` of shape
``(d_l, d_{l-1})`` with a single linear output, evaluated as

    f(x) = theta_L s(theta_{L-1} s( ... s(theta_1 x) ... ))

where ``s`` acts elementwise.  There are no bias terms.  Each job has one
batched core and one layout.  Weight gradients, and the finite-difference
oracles' perturbed stacks in :mod:`evaluate`, take row-major batches,
``(m, h)`` per layer: a forward pass that caches ``s'(z_l)``, then one
backward vector-Jacobian product.  Everything taken at the inputs (values,
the first hidden layer's backward signal, input gradients and Laplacians)
comes from one feature-major pass, ``(h, m)`` per layer with rows last, that
computes only what it is asked for: the last hidden layer's value only for
``f(x)``, a backward product for the signal (times ``theta_1``, the input
gradient), and a Laplacian propagated forward layer by layer together with
a factor ``J`` of ``w = min(d, h_1)`` columns whose ``J J^T`` is the Gram
matrix of the input Jacobian (second-order Taylor-mode differentiation, the
"Forward Laplacian").  Every contraction is a matrix multiply and there is
no autodiff tape.  The single-sample routines (``forward``, which returns a
:class:`ForwardTrace`, then ``grad_input`` and ``laplacian_input``) evaluate
that trace's one input row through the same pass.

Supported activations:

* ``softplus``: ``s(z) = log(1 + exp(z)) - log 2``, shifted so ``s(0) = 0``.
  Its first derivative is the logistic sigmoid (inside ``[0, 1]``) and its
  second derivative is ``sig(z) (1 - sig(z))`` (inside ``[0, 1/4]``).  With
  ``e = exp(-|z|)`` (never overflows), ``s(z) = max(z, 0) + log1p(e) - log 2``
  and ``s'(z) = (1 if z >= 0 else e) / (1 + e)``, and ``s'' = s' (1 - s')``.
* ``relu``: ``s(z) = max(z, 0)`` with the subgradient convention
  ``s'(0) = 0`` and ``s'' = 0`` everywhere, so Laplacians are exactly zero.

One kernel, :func:`_act_terms`, serves every hidden layer of every pass, on
either layout.  It takes a layer's product ``z``, writes ``s(z)`` over it when
the caller wants the value (``z`` is left as it was otherwise), and returns
the slopes up to the order asked for; softplus keeps ``e`` in a caller's
scratch array or a fresh one.  ``s(0)`` is exactly 0.0, so zero padding in a
stack stays zero.

Every count the package takes (a depth, width, sample size, seed or trial
count) is checked by one rule, :func:`_integral`, kept here because every
other module imports this one.  ``bounds.c1`` is a formula in ``log P`` and
takes its ``P`` as any real above 1.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)

__all__ = [
    "Activation",
    "Architecture",
    "ForwardTrace",
    "Network",
    "forward",
    "forward_batch",
    "grad_input",
    "grad_input_batch",
    "grad_params_batch",
    "laplacian_batch",
    "laplacian_input",
    "load_network",
    "save_network",
]


class Activation(enum.Enum):
    """Nonlinearity applied at every hidden layer."""

    SOFTPLUS = "softplus"
    RELU = "relu"


def _integral(value, name: str, error):
    """``value`` as an int; ``error`` naming the field ``name`` when it is a
    bool, not a number, or not a finite whole number."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _act_terms(kind, z, order, scratch, *, value):
    """``(s(z), s'(z), s''(z))`` with the slopes above ``order`` None.  With
    ``value``, ``s(z)`` is written over ``z`` and returned as ``z``; without
    it ``z`` keeps its bytes and ``s(z)`` is None.  Softplus holds
    ``exp(-|z|)``, then ``s''``, in ``scratch`` (None, or an array shaped like
    ``z``)."""
    if kind is Activation.RELU:
        first = (z > 0.0).astype(float) if order > 0 else None
        second = np.zeros_like(z) if order > 1 else None
        return np.maximum(z, 0.0, out=z) if value else None, first, second
    if kind is not Activation.SOFTPLUS:
        raise ValueError(f"unknown activation: {kind!r}")
    # One e = exp(-|z|) serves every term (see the module docstring).  Each
    # step writes in place; log1p(e) takes an array of its own only while s'
    # still needs e.
    e = np.abs(z, out=scratch)
    np.exp(np.negative(e, out=e), out=e)
    first = second = None
    if order > 0:
        first = np.minimum(z, 0.0)
        np.exp(first, out=first)
    if value:
        np.add(np.maximum(z, 0.0, out=z), np.log1p(e, out=None if order else e), out=z)
        z -= _LOG2
    if order > 0:
        e += 1.0
        first /= e
    if order > 1:
        second = np.multiply(np.subtract(1.0, first, out=e), first, out=e)
    return z if value else None, first, second


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable weight stack.  ``layers[l]`` has shape ``(d_{l+1}, d_l)``.

    At least two layers are required and the final layer must have a single
    output row.  Weight arrays are copied and marked read-only on
    construction, so a Network can be shared freely across threads.
    """

    layers: tuple
    activation: Activation

    def __post_init__(self):
        if not isinstance(self.activation, Activation):
            raise ValueError("activation must be an Activation member")
        layers = tuple(self.layers)
        if len(layers) < 2:
            raise ValueError("a network needs at least two layers")
        frozen = []
        prev_out = None
        for i, theta in enumerate(layers):
            arr = np.asarray(theta, dtype=float)
            if arr.ndim != 2:
                raise ValueError(f"layer {i} is not a matrix")
            if arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValueError(f"layer {i} has an empty dimension")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {i} contains non-finite weights")
            if prev_out is not None and arr.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i} expects {arr.shape[1]} inputs but layer "
                    f"{i - 1} produces {prev_out}"
                )
            prev_out = arr.shape[0]
            frozen.append(_freeze(arr))
        if frozen[-1].shape[0] != 1:
            raise ValueError("output layer must have exactly one row")
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def depth(self) -> int:
        """Number of weight layers L."""
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[1]

    @property
    def layer_sizes(self) -> tuple:
        """Widths ``(d_0, d_1, ..., d_L)`` with ``d_L = 1``."""
        return (self.layers[0].shape[1],) + tuple(th.shape[0] for th in self.layers)

    @property
    def n_params(self) -> int:
        return int(sum(th.size for th in self.layers))


@dataclass(frozen=True)
class Architecture:
    """Layer widths plus activation, without weights."""

    layer_sizes: tuple
    activation: Activation

    def __post_init__(self):
        sizes = tuple(_integral(s, "layer_sizes", ValueError) for s in self.layer_sizes)
        if len(sizes) < 3:
            raise ValueError("architecture needs at least two weight layers")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if sizes[-1] != 1:
            raise ValueError("output width must be 1")
        object.__setattr__(self, "layer_sizes", sizes)
        if not isinstance(self.activation, Activation):
            raise ValueError("activation must be an Activation member")

    @classmethod
    def mlp(cls, input_dim: int, hidden: int, depth: int, activation: Activation):
        """Uniform-width architecture with ``depth`` weight layers."""
        depth = _integral(depth, "depth", ValueError)
        return cls((input_dim,) + (hidden,) * (depth - 1) + (1,), activation)

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return int(sum(sizes[i + 1] * sizes[i] for i in range(len(sizes) - 1)))


def _gaussian_layers(sizes, rng) -> list:
    """Layerwise N(0, 2/fan_in) weight draws for the widths ``sizes``."""
    return [
        rng.normal(0.0, np.sqrt(2.0 / sizes[l]), size=(sizes[l + 1], sizes[l]))
        for l in range(len(sizes) - 1)
    ]


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """One forward pass: the input as a read-only (1, d) ``row``, its
    ``output`` f(x), and the ``network`` it came from, which the derivative
    routines check against the network they are handed."""

    row: np.ndarray
    output: float
    network: Network


def forward(net: Network, x) -> ForwardTrace:
    """Evaluate ``f(x)`` at one input vector; ValueError where the pass
    overflows float64."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != net.input_dim:
        raise ValueError(
            f"input must be a vector of length {net.input_dim}, got shape {x.shape}"
        )
    X = _freeze(_check_batch(net, x[np.newaxis, :]))
    return ForwardTrace(row=X, output=float(_outputs(net, X)[0]), network=net)


def _trace_row(net: Network, trace: ForwardTrace) -> np.ndarray:
    if trace.network is not net:
        raise ValueError("trace was not produced by forward() on this network")
    return trace.row


def grad_input(net: Network, trace: ForwardTrace) -> np.ndarray:
    """Exact input gradient ``theta_1^T (s'(z_1) * theta_2^T (... theta_L^T))``;
    ValueError where it overflows float64."""
    return _input_gradients(net, _trace_row(net, trace))[0]


def laplacian_input(net: Network, trace: ForwardTrace) -> float:
    """Exact input Laplacian ``sum_i d^2 f / dx_i^2`` (see
    :func:`laplacian_batch`); exactly 0.0 for relu, ValueError on overflow."""
    return float(_laplacians(net, _trace_row(net, trace))[0])


# -- batched core ------------------------------------------------------------
#
# X has shape (m, d), one row per sample.  Each core also takes a stack of T
# networks of one shape, as weights (T, d_out, d_in) and inputs (T, m, d):
# every network's matmuls keep their 2-D shapes in the stack, so its results
# keep their unstacked bits.


def _hidden_batch(layers, activation, X):
    """Row-major hidden activations and activation slopes ``s'`` per layer,
    ``(m, d_l)`` each; ``acts[0]`` is ``X``."""
    acts, fds = [X], []
    for theta in layers[:-1]:
        value, first, _ = _act_terms(activation, acts[-1] @ theta.swapaxes(-1, -2), 1, None,
                                     value=True)
        fds.append(first)
        acts.append(value)
    return acts, fds


def _grad_params_batch(layers, acts, fds, weights, *, out):
    """Gradient of ``sum_i weights_i f(x_i)`` w.r.t. every weight matrix,
    written into the arrays of ``out`` (one per layer) unless it is None, from
    the row-major backward signals ``D_l = df/dz_l``: the output layer's is the
    weights themselves, then ``D_l = s'(z_l) * G_l`` with ``G_{L-1} = D_L
    theta_L`` and ``G_{l-1} = D_l theta_l``."""
    deltas = [weights[..., np.newaxis]]
    g = deltas[0] * layers[-1]
    for l in range(len(fds), 0, -1):
        deltas.insert(0, fds[l - 1] * g)
        if l > 1:
            g = deltas[0] @ layers[l - 1]
    out = [None] * len(layers) if out is None else out
    return [np.matmul(d.swapaxes(-1, -2), a, out=o)
            for d, a, o in zip(deltas, acts, out)]


def _output(layers, acts):
    return (acts[-1] @ layers[-1].swapaxes(-1, -2))[..., 0]


def _input_derivatives(layers, activation, X, *, value, signal, laplacian):
    """``(f, delta, lap)``: outputs ``(..., m)`` when ``value``, the first
    hidden layer's backward signal as C-contiguous ``(..., m, h_1)`` rows when
    ``signal`` (times ``theta_1``, the input gradients), and input Laplacians
    ``(..., m)`` when ``laplacian`` (see :func:`laplacian_batch`), None where
    not asked, from one feature-major pass: every cache is ``(..., h, m)``
    with rows last and ``J`` is ``(..., w, h, m)``, so each step is one matrix
    product over every row.  The last hidden layer's value is taken only for
    ``f``, and every result is contracted from C-contiguous ``(m, h)`` rows.
    A Laplacian that overflows raises ValueError."""
    order = 2 if laplacian else int(signal)
    fds, sds, a = [], [], X.swapaxes(-1, -2)
    for l, theta in enumerate(layers[:-1], 1):
        a, first, second = _act_terms(activation, theta @ a, order, None,
                                      value=value or l < len(layers) - 1)
        fds.append(first)
        sds.append(second)
    f = delta = lap = None
    if value:
        f = _output(layers, [np.ascontiguousarray(a.swapaxes(-1, -2))])
    if signal:
        delta = fds[-1] * layers[-1].swapaxes(-1, -2)
        for theta, first in zip(layers[-2:0:-1], fds[-2::-1]):
            delta = first * (theta.swapaxes(-1, -2) @ delta)
        delta = np.ascontiguousarray(delta.swapaxes(-1, -2))
    if laplacian:
        lap = sds[0] * np.einsum("...jd,...jd->...j", layers[0], layers[0])[..., np.newaxis]
        for k in range(1, len(layers) - 1):
            theta = layers[k][..., np.newaxis, :, :]
            if k == 1:  # J_2 = theta_2 diag(s'_1) C: (w h_2 x h_1)(h_1 x m)
                c = np.linalg.qr(layers[0].swapaxes(-1, -2), mode="r")[..., np.newaxis, :]
                b = theta * c
                jac = (b.reshape(b.shape[:-3] + (-1, b.shape[-1])) @ fds[0]).reshape(
                    b.shape[:-1] + fds[0].shape[-1:])
            else:
                jac *= fds[k - 1][..., np.newaxis, :, :]
                jac = theta @ jac
            lap = fds[k] * (layers[k] @ lap) + sds[k] * np.square(jac).sum(axis=-3)
        lap = _output(layers, [np.ascontiguousarray(lap.swapaxes(-1, -2))])
        if not np.all(np.isfinite(lap)):
            raise ValueError("input Laplacian overflows float64")
    return f, delta, lap


# Doubles in one cache-sized piece (1 MB), such as a row block: a row holds its input,
# four h-wide buffers and, past one hidden layer, two w x h Jacobian-factor arrays.
_BLOCK_ELEMS = 2 ** 17


def _piece_len(per_item):
    """Items of ``per_item`` doubles in one piece: as many as fit ``_BLOCK_ELEMS``, at least one."""
    return max(1, _BLOCK_ELEMS // per_item)


def _pieces(n, per_item):
    """Slices over ``range(n)``, ``_piece_len(per_item)`` items each."""
    step = _piece_len(per_item)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _row_blocks(layers, m):
    """Slices covering ``range(m)`` in cache-sized blocks of rows."""
    h = max(theta.shape[-2] for theta in layers[:-1])
    w = min(layers[0].shape[-2:]) if len(layers) > 2 else 0
    return _pieces(m, layers[0].shape[-1] + h * (4 + 2 * w))


@contextlib.contextmanager
def _overflow_is_an_error(what: str):
    """Raise ValueError naming ``what`` where the block overflows or makes a
    NaN (``inf - inf``), instead of a warning and an inf or NaN result."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{what} overflows float64") from None


def _check_batch(net, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"batch must have shape (m, {net.input_dim}), got {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite entries")
    return X


def _outputs(net, X):
    with _overflow_is_an_error("forward pass"):
        return _input_derivatives(net.layers, net.activation, X, value=True, signal=False,
                                  laplacian=False)[0]


def _input_gradients(net, X):
    grad = np.empty(X.shape)
    with _overflow_is_an_error("gradient pass"):
        for rows in _row_blocks(net.layers, X.shape[0]):
            grad[rows] = _input_derivatives(net.layers, net.activation, X[rows], value=False,
                                            signal=True, laplacian=False)[1] @ net.layers[0]
    return grad


def _laplacians(net, X):
    lap = np.zeros(X.shape[0])
    if net.activation is not Activation.RELU:
        with np.errstate(all="ignore"):
            for rows in _row_blocks(net.layers, X.shape[0]):
                lap[rows] = _input_derivatives(net.layers, net.activation, X[rows], value=False,
                                               signal=False, laplacian=True)[2]
    return lap


def forward_batch(net: Network, X) -> np.ndarray:
    """Outputs ``f(x_i)`` for every row of X, shape (m,); ValueError on overflow."""
    return _outputs(net, _check_batch(net, X))


def grad_input_batch(net: Network, X) -> np.ndarray:
    """Input gradients for every row of X, shape (m, d); ValueError on overflow."""
    return _input_gradients(net, _check_batch(net, X))


def grad_params_batch(net: Network, X) -> list:
    """Gradient of ``sum_i f(x_i)`` over the rows of X w.r.t. every weight
    matrix, one array per layer and shaped like it: ``D_l^T H_{l-1}``, the
    backward signals ``D_l = df/dz_l`` (see :func:`_grad_params_batch`) against the
    layer inputs, one row per sample; ValueError on overflow."""
    X = _check_batch(net, X)
    with _overflow_is_an_error("gradient pass"):
        acts, fds = _hidden_batch(net.layers, net.activation, X)
        return _grad_params_batch(net.layers, acts, fds, np.ones(X.shape[0]), out=None)


def laplacian_batch(net: Network, X) -> np.ndarray:
    """Exact input Laplacians ``sum_i d^2 f / dx_i^2`` for every row of X,
    shape (m,), propagated forward.

    The input Jacobian of layer k is ``dz_k/dx = A_{k-1} ... A_1 theta_1``
    with ``A_k = theta_{k+1} diag(s'(z_k))``, and the Laplacians ``lap_k`` of
    ``h_k`` need only the diagonal of its Gram matrix.  With ``R`` the QR
    factor of ``theta_1^T`` and ``C = R^T`` (``w = min(d, h_1)`` columns,
    ``C C^T = theta_1 theta_1^T`` at any rank), one pass from the input carries
    ``J_k = A_{k-1} ... A_1 C``, whose Gram matrix is the same:

        J_2 = A_1 C,  J_{k+1} = A_k J_k
        lap_1 = s''(z_1) |rows(theta_1)|^2
        lap_{k+1} = s'(z_{k+1}) theta_{k+1} lap_k + s''(z_{k+1}) |rows(J_{k+1})|^2

    and ``lap f = theta_L lap_{L-1}`` (second-order Taylor-mode
    differentiation; no backward pass, no finite differences, and neither
    the Jacobian nor its Gram matrix is formed).  Cost is O(d h w) per
    network plus O(w h^2) per row and layer, over cache-sized row blocks.
    For relu ``s''`` is identically zero and every result is exactly 0.0.  A
    Laplacian that overflows raises ValueError.
    """
    return _laplacians(net, _check_batch(net, X))


# -- serialization -----------------------------------------------------------


def save_network(net: Network, path):
    """Write ``net`` as one line of JSON with 17 significant digits per weight.

    17 significant decimal digits uniquely identify a float64, so
    :func:`load_network` reproduces the weights bit for bit.
    """
    layers = ",".join(
        "[" + ",".join("[" + ",".join(format(v, ".17g") for v in row) + "]" for row in theta) + "]"
        for theta in net.layers
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{"activation": "%s", "layers": [%s]}\n' % (net.activation.value, layers))


def load_network(path) -> Network:
    """Read a network written by :func:`save_network`; ValueError when the
    file does not hold one."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid network JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"activation", "layers"}:
        raise ValueError('network JSON must have exactly "activation" and "layers"')
    try:
        kind = Activation(obj["activation"])
    except ValueError:
        raise ValueError(f"unknown activation {obj['activation']!r}") from None
    layers = obj["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError('"layers" must be a non-empty list')
    mats = []
    for i, rows in enumerate(layers):
        # Ragged or non-numeric rows fail here; Network checks the shapes.
        try:
            mats.append(np.array(rows, dtype=float))
        except (TypeError, ValueError):
            raise ValueError(f"layer {i} is not a rectangular list of rows") from None
        except OverflowError:
            raise ValueError(f"layer {i} has a weight too large for float64") from None
    return Network(tuple(mats), kind)
