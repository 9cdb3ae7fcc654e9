"""Dense feed-forward networks with exact first- and second-order input derivatives.

A network is an immutable stack of weight matrices ``theta_l`` of shape
``(d_l, d_{l-1})`` with a single linear output, evaluated as

    f(x) = theta_L s(theta_{L-1} s( ... s(theta_1 x) ... ))

where ``s`` acts elementwise.  There are no bias terms.  Every evaluation
and derivative routine is a view of one batched core: a forward value pass
that caches ``s'(z_l)`` and ``s''(z_l)`` per layer (only the orders the
caller uses), one backward vector-Jacobian product for input and weight
gradients, and a Laplacian propagated forward layer by layer together with
the input Jacobian (second-order Taylor-mode differentiation, the "Forward
Laplacian"), so every contraction is a matrix multiply and there is no
autodiff tape.  The single-sample routines (``forward``, which caches a
:class:`ForwardTrace`, then ``grad_input``, ``grad_params`` and
``laplacian_input``) are the ``m = 1`` rows of the batched ones.

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
    "activation_eval",
    "forward",
    "forward_batch",
    "grad_input",
    "grad_input_batch",
    "grad_params",
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


def _act_terms(kind, z, order=2):
    """``(s(z), s'(z), s''(z))``; derivatives above ``order`` are None."""
    if kind is Activation.SOFTPLUS:
        return _softplus_terms(z, order)
    if kind is Activation.RELU:
        return _relu_terms(z, order)
    raise ValueError(f"unknown activation: {kind!r}")


def activation_eval(kind: Activation, z) -> tuple:
    """Evaluate an activation with its first and second derivative.

    Returns ``(value, first, second)``.  Scalar input gives floats; array
    input gives arrays of the same shape.  Non-finite input is rejected.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    terms = _act_terms(kind, np.atleast_1d(arr))
    if arr.ndim == 0:
        return tuple(float(t[0]) for t in terms)
    return terms


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
    """Cached quantities from one forward pass at a single input.

    ``activations[l]`` is ``h_l`` (with ``h_0`` the input), and
    ``first_derivs`` / ``second_derivs`` hold ``s'(z_l)`` / ``s''(z_l)`` for
    the hidden layers ``l = 1 .. L-1``.  The originating network is kept so
    derivative routines can verify the trace matches the network they are
    handed.
    """

    activations: tuple
    first_derivs: tuple
    second_derivs: tuple
    output: float
    network: Network


def forward(net: Network, x) -> ForwardTrace:
    """Evaluate ``f(x)`` and cache everything the derivative routines need."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != net.input_dim:
        raise ValueError(
            f"input must be a vector of length {net.input_dim}, got shape {x.shape}"
        )
    X = _check_batch(net, x[np.newaxis, :])
    acts, fds, sds = (
        tuple(_freeze(a[0]) for a in arrays)
        for arrays in _hidden_batch(net.layers, net.activation, X)
    )
    return ForwardTrace(
        activations=acts, first_derivs=fds, second_derivs=sds,
        output=float(net.layers[-1][0] @ acts[-1]), network=net,
    )


def _require_trace(net: Network, trace: ForwardTrace) -> list:
    """Check that ``trace`` came from ``net``; return its activations and
    slopes ``s'``, ``s''`` as lists of (1, d_l) rows for the batched core."""
    if trace.network is not net:
        raise ValueError("trace was not produced by forward() on this network")
    cached = (trace.activations, trace.first_derivs, trace.second_derivs)
    return [[v[np.newaxis, :] for v in vectors] for vectors in cached]


def grad_params(net: Network, trace: ForwardTrace) -> list:
    """Exact gradient of the output w.r.t. every weight matrix.

    The gradient w.r.t. ``theta_l`` is the outer product ``D_l h_{l-1}^T``
    of the backward signal ``D_l = df/dz_l`` (see :func:`_backward`) with
    the layer input.  Returns one array per layer, shaped like that layer.
    """
    acts, fds, _ = _require_trace(net, trace)
    return _grad_params_batch(net.layers, acts, fds, np.ones(1))


def grad_input(net: Network, trace: ForwardTrace) -> np.ndarray:
    """Exact input gradient ``theta_1^T (s'(z_1) * theta_2^T (... theta_L^T))``."""
    _, fds, _ = _require_trace(net, trace)
    return _grad_input(net.layers, fds)[0]


def laplacian_input(net: Network, trace: ForwardTrace) -> float:
    """Exact input Laplacian ``sum_i d^2 f / dx_i^2``, propagated forward.

    With ``J_k = dz_k/dx`` and ``lap_k`` the vector of Laplacians of
    ``h_k``, one pass from the input carries

        J_1 = theta_1,      J_{k+1} = theta_{k+1} diag(s'(z_k)) J_k
        lap_1 = s''(z_1) |rows(J_1)|^2
        lap_{k+1} = s'(z_{k+1}) theta_{k+1} lap_k + s''(z_{k+1}) |rows(J_{k+1})|^2

    and ``lap f = theta_L lap_{L-1}`` (second-order Taylor-mode
    differentiation; no backward pass and no finite differences).  Cost is
    O(L h^2 d).  For relu ``s''`` is identically zero and the result is
    exactly 0.0.
    """
    _, fds, sds = _require_trace(net, trace)
    return float(_laplacian(net.layers, fds, sds)[0])


# -- batched core ------------------------------------------------------------
#
# Row-major batches: X has shape (m, d) and every per-layer cache below has
# shape (m, d_l).  The single-sample routines above are the m = 1 rows of
# these helpers.


def _hidden_batch(layers, activation, X, order=2):
    """Hidden activations and activation slopes ``s'``, ``s''`` per layer;
    ``acts[0]`` is ``X``.  Slopes above ``order`` are not computed and
    appear as None."""
    acts, fds, sds = [X], [], []
    for theta in layers[:-1]:
        value, first, second = _act_terms(activation, acts[-1] @ theta.T, order)
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


def _grad_input(layers, fds):
    seed = np.broadcast_to(layers[-1][0], fds[-1].shape)
    return _backward(layers, fds, seed)[0] @ layers[0]


def _grad_params_batch(layers, acts, fds, weights):
    """Gradient of ``sum_i weights_i f(x_i)`` w.r.t. every weight matrix."""
    deltas = _backward(layers, fds, np.outer(weights, layers[-1][0]))
    grads = [d.T @ a for d, a in zip(deltas, acts)]
    grads.append((weights @ acts[-1])[np.newaxis, :])
    return grads


def _output(layers, acts):
    return (acts[-1] @ layers[-1].T).ravel()


def _laplacian(layers, fds, sds):
    """Forward-propagated input Laplacian (see :func:`laplacian_input`)."""
    jac = layers[0]
    lap = sds[0] * np.einsum("jd,jd->j", jac, jac)
    for k in range(1, len(layers) - 1):
        theta = layers[k]
        jac = (theta * fds[k - 1][:, np.newaxis, :]) @ jac
        lap = fds[k] * (lap @ theta.T) + sds[k] * np.einsum("mjd,mjd->mj", jac, jac)
    return lap @ layers[-1][0]


def _check_batch(net, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"batch must have shape (m, {net.input_dim}), got {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite entries")
    return X


def forward_batch(net: Network, X) -> np.ndarray:
    """Outputs ``f(x_i)`` for every row of X, shape (m,)."""
    acts = _hidden_batch(net.layers, net.activation, _check_batch(net, X), 0)[0]
    return _output(net.layers, acts)


def grad_input_batch(net: Network, X) -> np.ndarray:
    """Input gradients for every row of X, shape (m, d)."""
    fds = _hidden_batch(net.layers, net.activation, _check_batch(net, X), 1)[1]
    return _grad_input(net.layers, fds)


def laplacian_batch(net: Network, X) -> np.ndarray:
    """Input Laplacians for every row of X, shape (m,).

    Memory scales as O(m h d) for the batched Jacobian ``J_k``; chunk large
    batches at the call site.
    """
    _, fds, sds = _hidden_batch(net.layers, net.activation, _check_batch(net, X))
    return _laplacian(net.layers, fds, sds)


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
