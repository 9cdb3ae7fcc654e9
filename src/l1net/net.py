"""Dense feed-forward networks with exact first- and second-order input derivatives.

A network is an immutable stack of weight matrices ``theta_l`` of shape
``(d_l, d_{l-1})`` with a single linear output, evaluated as

    f(x) = theta_L s(theta_{L-1} s( ... s(theta_1 x) ... ))

where ``s`` acts elementwise.  There are no bias terms.  Every evaluation
and derivative routine is a view of one batched core: a forward value pass
that caches ``s'(z_l)`` and ``s''(z_l)`` per layer (only the orders the
caller uses), one backward vector-Jacobian product for input and weight
gradients, and a Laplacian propagated forward layer by layer together with
the Gram matrix ``J J^T`` of the input Jacobian (second-order Taylor-mode
differentiation, the "Forward Laplacian"), so every contraction is a matrix
multiply and there is no autodiff tape.  The single-sample routines
(``forward``, which returns a :class:`ForwardTrace`, then ``grad_input`` and
``laplacian_input``) evaluate that trace's one input row through the same
core.

Supported activations:

* ``softplus``: ``s(z) = log(1 + exp(z)) - log 2``, shifted so ``s(0) = 0``.
  Its first derivative is the logistic sigmoid (inside ``[0, 1]``) and its
  second derivative is ``sig(z) (1 - sig(z))`` (inside ``[0, 1/4]``).  One
  fused kernel serves all three: with ``e = exp(-|z|)`` (never overflows),
  ``s(z) = max(z, 0) + log1p(e) - log 2`` and
  ``s'(z) = (1 if z >= 0 else e) / (1 + e)``, and ``s'' = s' (1 - s')``.
* ``relu``: ``s(z) = max(z, 0)`` with the subgradient convention
  ``s'(0) = 0`` and ``s'' = 0`` everywhere, so Laplacians are exactly zero.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
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
    "network_from_json",
    "network_to_json",
    "save_network",
]


class Activation(enum.Enum):
    """Nonlinearity applied at every hidden layer."""

    SOFTPLUS = "softplus"
    RELU = "relu"


def _softplus_terms(z, order):
    # One e = exp(-|z|) (which cannot overflow) serves every term:
    # s = max(z, 0) + log1p(e) - log 2 and s' = exp(min(z, 0)) / (1 + e),
    # whose numerator is 1 for z >= 0 and e otherwise.  Each step writes in
    # place, so no array beyond e, value and first is allocated.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    value = np.log1p(e)
    first = np.maximum(z, 0.0)
    value += first
    value -= _LOG2
    if order < 1:
        return value, None, None
    np.minimum(z, 0.0, out=first)
    np.exp(first, out=first)
    e += 1.0
    first /= e
    if order < 2:
        return value, first, None
    np.subtract(1.0, first, out=e)
    e *= first
    return value, first, e


def _relu_terms(z, order):
    value = np.maximum(z, 0.0)
    first = (z > 0.0).astype(float) if order > 0 else None
    return value, first, np.zeros_like(value) if order > 1 else None


def _act_value_in_place(kind, z, e):
    """``s(z)`` written over ``z``, with ``e`` (shaped like ``z``; fresh when
    None) as scratch: the value operations of :func:`_act_terms`, so the same bits."""
    if kind is Activation.RELU:
        return np.maximum(z, 0.0, out=z)
    e = np.abs(z, out=e)
    np.log1p(np.exp(np.negative(e, out=e), out=e), out=e)
    np.add(np.maximum(z, 0.0, out=z), e, out=z)
    return np.subtract(z, _LOG2, out=z)


def _act_terms(kind, z, order=2):
    """``(s(z), s'(z), s''(z))``; derivatives above ``order`` are None."""
    if kind is Activation.SOFTPLUS:
        return _softplus_terms(z, order)
    if kind is Activation.RELU:
        return _relu_terms(z, order)
    raise ValueError(f"unknown activation: {kind!r}")


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
        sizes = tuple(int(s) for s in self.layer_sizes)
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
        if depth < 2:
            raise ValueError("depth must be at least 2")
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
    with _overflow_is_an_error("forward pass"):
        acts = _hidden_batch(net.layers, net.activation, X, 0)[0]
        return ForwardTrace(row=X, output=float(net.layers[-1][0] @ acts[-1][0]), network=net)


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
# Row-major batches: X has shape (m, d) and every per-layer cache below has
# shape (m, d_l).  The single-sample routines above call these helpers on
# one row.  Each also takes a stack of T networks of one shape, as
# weights (T, d_out, d_in) and inputs (T, m, d): every network's matmuls keep
# their 2-D shapes in the stack, so its results keep their unstacked bits.


def _hidden_batch(layers, activation, X, order=2):
    """Hidden activations and activation slopes ``s'``, ``s''`` per layer;
    ``acts[0]`` is ``X``.  Slopes above ``order`` are not computed and
    appear as None."""
    acts, fds, sds = [X], [], []
    for theta in layers[:-1]:
        z = acts[-1] @ theta.swapaxes(-1, -2)
        value, first, second = _act_terms(activation, z, order)
        fds.append(first)
        sds.append(second)
        acts.append(value)
    return acts, fds, sds


def _backward(layers, fds, seed):
    """Backward signals ``df/dz_l`` for the hidden layers ``l = 1 .. L-1``.

    ``seed`` is the cotangent of the last hidden layer ``h_{L-1}``, one row
    per sample; each step is ``D_l = s'(z_l) * G_l`` then
    ``G_{l-1} = D_l theta_l``.
    """
    deltas = [None] * len(fds)
    g = seed
    for l in range(len(fds), 0, -1):
        deltas[l - 1] = fds[l - 1] * g
        if l > 1:
            g = deltas[l - 1] @ layers[l - 1]
    return deltas


def _input_signal(layers, fds):
    """The first hidden layer's backward signal; times ``theta_1``, the input gradient."""
    return _backward(layers, fds, np.broadcast_to(layers[-1], fds[-1].shape))[0]


def _grad_input(layers, fds):
    return _input_signal(layers, fds) @ layers[0]


def _grad_params_batch(layers, acts, fds, weights, *, out=None):
    """Gradient of ``sum_i weights_i f(x_i)`` w.r.t. every weight matrix,
    written into the arrays of ``out`` (one per layer) when given."""
    weights = weights[..., np.newaxis]
    # the output layer's signal is the weights themselves
    deltas = _backward(layers, fds, weights * layers[-1]) + [weights]
    out = [None] * len(layers) if out is None else out
    return [np.matmul(d.swapaxes(-1, -2), a, out=o)
            for d, a, o in zip(deltas, acts, out)]


def _output(layers, acts):
    return (acts[-1] @ layers[-1].swapaxes(-1, -2))[..., 0]


def _values(layers, activation, X, work):
    """Outputs ``f(x_i)`` for every row, from a value-only pass into fresh arrays
    or ``work``'s three flat buffers: the first two take turns holding a layer
    (``X`` may lie in the first), and the third holds ``exp(-|z|)``."""
    for i, theta in enumerate(layers[:-1]):
        shape = X.shape[:-1] + theta.shape[-2:-1]
        z, e = (None, None) if work is None else (
            np.ndarray(shape, buffer=work[1 - i % 2]), np.ndarray(shape, buffer=work[2]))
        X = _act_value_in_place(activation, np.matmul(X, theta.swapaxes(-1, -2), out=z), e)
    return _output(layers, [X])


def _laplacian(layers, fds, sds):
    """Forward-propagated input Laplacian (see :func:`laplacian_batch`)."""
    theta1 = layers[0][..., np.newaxis, :, :]
    lap = sds[0] * np.einsum("...jd,...jd->...j", theta1, theta1)
    gram = layers[0] @ layers[0].swapaxes(-1, -2) if len(layers) > 2 else None
    for k in range(1, len(layers) - 1):
        theta = layers[k]
        a = theta[..., np.newaxis, :, :] * fds[k - 1][..., np.newaxis, :]
        # G_1 is shared by every row: one product over all of a network's rows
        ag = (a @ gram if gram.ndim == a.ndim else
              (a.reshape(a.shape[:-3] + (-1, a.shape[-1])) @ gram).reshape(a.shape))
        sq = np.einsum("...ij,...ij->...i", ag, a)
        lap = fds[k] * (lap @ theta.swapaxes(-1, -2)) + sds[k] * sq
        if k < len(layers) - 2:
            gram = ag @ a.swapaxes(-1, -2)
    lap = _output(layers, [lap])
    if not np.all(np.isfinite(lap)):
        raise ValueError("input Laplacian overflows float64")
    return lap


# Doubles in one cache-sized piece (1 MB), such as a row block: a row holds its input,
# four h-wide buffers and, past one hidden layer, three h x h Gram-recursion matrices.
_BLOCK_ELEMS = 2 ** 17


def _pieces(n, per_item):
    """Slices over ``range(n)``: as many items of ``per_item`` doubles as fit ``_BLOCK_ELEMS``."""
    step = max(1, _BLOCK_ELEMS // per_item)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _row_blocks(layers, m):
    """Slices covering ``range(m)`` in cache-sized blocks of rows."""
    h = max(theta.shape[-2] for theta in layers[:-1])
    return _pieces(m, layers[0].shape[-1] + h * (4 + 3 * h * (len(layers) > 2)))


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


def _input_gradients(net, X):
    with _overflow_is_an_error("gradient pass"):
        fds = _hidden_batch(net.layers, net.activation, X, 1)[1]
        return _grad_input(net.layers, fds)


def _laplacians(net, X):
    lap = np.zeros(X.shape[0])
    if net.activation is not Activation.RELU:
        with np.errstate(all="ignore"):
            for rows in _row_blocks(net.layers, X.shape[0]):
                _, fds, sds = _hidden_batch(net.layers, net.activation, X[rows])
                lap[rows] = _laplacian(net.layers, fds, sds)
    return lap


def forward_batch(net: Network, X) -> np.ndarray:
    """Outputs ``f(x_i)`` for every row of X, shape (m,); ValueError on overflow."""
    X = _check_batch(net, X)
    with _overflow_is_an_error("forward pass"):
        return _values(net.layers, net.activation, X, None)


def grad_input_batch(net: Network, X) -> np.ndarray:
    """Input gradients for every row of X, shape (m, d); ValueError on overflow."""
    return _input_gradients(net, _check_batch(net, X))


def grad_params_batch(net: Network, X) -> list:
    """Gradient of ``sum_i f(x_i)`` over the rows of X w.r.t. every weight
    matrix, one array per layer and shaped like it: ``D_l^T H_{l-1}``, the
    backward signals ``D_l = df/dz_l`` (see :func:`_backward`) against the
    layer inputs, one row per sample; ValueError on overflow."""
    X = _check_batch(net, X)
    with _overflow_is_an_error("gradient pass"):
        acts, fds, _ = _hidden_batch(net.layers, net.activation, X, 1)
        return _grad_params_batch(net.layers, acts, fds, np.ones(X.shape[0]))


def laplacian_batch(net: Network, X) -> np.ndarray:
    """Exact input Laplacians ``sum_i d^2 f / dx_i^2`` for every row of X,
    shape (m,), propagated forward.

    With ``J_k = dz_k/dx``, its Gram matrix ``G_k = J_k J_k^T`` and ``lap_k``
    the vector of Laplacians of ``h_k``, one pass from the input carries

        G_1 = theta_1 theta_1^T,  G_{k+1} = A_k G_k A_k^T,  A_k = theta_{k+1} diag(s'(z_k))
        lap_1 = s''(z_1) |rows(theta_1)|^2
        lap_{k+1} = s'(z_{k+1}) theta_{k+1} lap_k + s''(z_{k+1}) diag(G_{k+1})

    and ``lap f = theta_L lap_{L-1}``, as ``diag(G_k) = |rows(J_k)|^2``
    (second-order Taylor-mode differentiation; no backward pass, no finite
    differences, and ``J_k`` is never formed).  Cost is O(h^2 d) per network
    plus O(h^3) per row and layer, over cache-sized row blocks.  For relu
    ``s''`` is identically zero and every result is exactly 0.0.  A Laplacian
    that overflows raises ValueError.
    """
    return _laplacians(net, _check_batch(net, X))


# -- serialization -----------------------------------------------------------


def network_to_json(net: Network) -> str:
    """Serialize to JSON with 17 significant digits per weight.

    17 significant decimal digits uniquely identify a float64, so
    ``network_from_json(network_to_json(net))`` reproduces the weights
    bit for bit.
    """
    def fmt(v):
        return format(v, ".17g")

    layer_parts = []
    for theta in net.layers:
        rows = ",".join("[" + ",".join(fmt(v) for v in row) + "]" for row in theta)
        layer_parts.append("[" + rows + "]")
    return (
        '{"activation": "%s", "layers": [%s]}'
        % (net.activation.value, ",".join(layer_parts))
    )


def network_from_json(text: str) -> Network:
    """Parse a network serialized by :func:`network_to_json`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid network JSON: {exc}") from exc
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
    return Network(tuple(mats), kind)


def save_network(net: Network, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(network_to_json(net))
        fh.write("\n")


def load_network(path) -> Network:
    with open(path, "r", encoding="ascii") as fh:
        return network_from_json(fh.read())
