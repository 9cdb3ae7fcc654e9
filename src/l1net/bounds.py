"""Closed-form capacity and convergence bounds plus a randomized audit.

All bounds are driven by the scalar inputs collected in
:class:`BoundInputs`: the L1 radius ``r``, depth ``L``, parameter count
``P``, sample size ``n``, input sup-norm bound ``R``, loss bound ``b0``,
score bound ``b1`` and ``E ||x||_inf^2``, which the command line computes
from the input law by quadrature.
:func:`verify_bounds` hammers the pointwise inequalities (parameter
Lipschitz, sup bound, gradient L1 bound, Laplacian bound) with random
networks sampled inside the ball.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .net import (
    Architecture,
    _gaussian_layers,
    _input_derivatives,
)
from .sparsity import _layer_views, project_l1

__all__ = [
    "BoundInputs",
    "BoundReport",
    "SuiteRow",
    "bound_report",
    "c1",
    "derivative_convergence_bound",
    "divergence_bound",
    "grad_l1_bound",
    "lipschitz_param_bound",
    "log_factor",
    "model_convergence_bound",
    "rademacher_bound",
    "sup_model_bound",
    "verify_bounds",
]


def _check_depth(L):
    L = int(L)
    if L < 2:
        raise ValueError("L must be at least 2")
    return L


def _inf_on_overflow(bound):
    """A bound too large for a float is +inf, a vacuous but valid bound,
    instead of an ``OverflowError`` from ``**`` or a NaN from ``0 * inf``
    (an underflowed factor times an overflowed one).  Representable values
    are returned untouched."""

    @functools.wraps(bound)
    def wrapper(*args, **kwargs):
        try:
            value = bound(*args, **kwargs)
        except OverflowError:
            return math.inf
        return math.inf if math.isnan(value) else value

    return wrapper


@_inf_on_overflow
def lipschitz_param_bound(r: float, L: int, x_inf: float) -> float:
    """Lipschitz constant of f(x) in the parameters at a fixed input:
    ``sqrt(L) (r/(L-1))^(L-1) |x|_inf``."""
    L = _check_depth(L)
    return math.sqrt(L) * (r / (L - 1)) ** (L - 1) * x_inf


@_inf_on_overflow
def sup_model_bound(R: float, r: float, L: int) -> float:
    """``sup |f(x)| <= R (r/L)^L`` over the ball and the input box."""
    L = _check_depth(L)
    return R * (r / L) ** L


@_inf_on_overflow
def grad_l1_bound(r: float, L: int) -> float:
    """``|grad_x f|_1 <= (r/L)^L`` for any network in the ball."""
    L = _check_depth(L)
    return (r / L) ** L


@_inf_on_overflow
def divergence_bound(r: float, L: int) -> float:
    """``|lap_x f| <= (L/4)(r/L)^L max_{k in 2..L-1} (r/k)^k``.

    For L = 2 the max runs over an empty set and is taken to be 1, so the
    bound reduces to ``(L/4)(r/L)^L``.

    Known limit: at L = 2 this is not a bound once ``r > 27/8``.  The
    Laplacian is cubic in the weights (``theta_2 s''(0) theta_1^2`` on a single
    path) while ``r^2/8`` is quadratic: weights ``r/2`` per layer give
    ``r^3/32`` at x = 0 (3.906 at r = 5, against 3.125), and the split
    ``theta_2 = r/3, theta_1 = 2r/3`` gives ``r^3/27`` (4.63).
    """
    L = _check_depth(L)
    inner = max(((r / k) ** k for k in range(2, L)), default=1.0)
    return (L / 4.0) * (r / L) ** L * inner


def c1(R: float, r: float, L: int, P: int) -> float:
    """The constant ``R / (6 r L^(3/2) sqrt(2 log P))``."""
    L = _check_depth(L)
    if r <= 0.0:
        raise ValueError("r must be positive")
    if P <= 1:
        raise ValueError("P must exceed 1 (log P must be positive)")
    return R / (6.0 * r * L ** 1.5 * math.sqrt(2.0 * math.log(P)))


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs shared by the complexity and convergence bounds;
    ``x_inf_sq`` is ``E ||x||_inf^2`` under the input law."""

    r: float
    L: int
    P: int
    n: int
    R: float
    b0: float
    b1: float
    x_inf_sq: float

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r <= 0.0:
            raise ValueError("r must be positive and finite")
        object.__setattr__(self, "L", _check_depth(self.L))
        if int(self.P) <= 1:
            raise ValueError("P must exceed 1")
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "P", int(self.P))
        object.__setattr__(self, "n", int(self.n))
        if not np.isfinite(self.R) or self.R <= 0.0:
            raise ValueError("R must be positive and finite")
        for name in ("b0", "b1", "x_inf_sq"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be non-negative and finite")


def log_factor(inputs: BoundInputs) -> tuple:
    """The parenthesized factor ``1 + log(c1 sqrt(n)) sqrt(x_inf_sq)``.

    When ``c1 sqrt(n) <= 1`` the log is non-positive and the raw factor can
    dip below 1, which would turn the complexity bound vacuous (or
    negative); it is clamped at 1 in that regime, before the log is taken,
    so a ``c1`` that underflows to 0 is clamped too.  Where ``c1 sqrt(n)``
    overflows (a tiny ``r``), its log is taken as a sum of logs, so the factor
    is finite for every positive finite ``r``.  Returns ``(factor, clamped)``.
    """
    scale = c1(inputs.R, inputs.r, inputs.L, inputs.P) * math.sqrt(inputs.n)
    if scale <= 1.0:
        return 1.0, True
    log_scale = math.log(scale) if scale < math.inf else (  # c1 is c1(r = 1) / r
        math.log(c1(inputs.R, 1.0, inputs.L, inputs.P)) + math.log(inputs.n) / 2
        - math.log(inputs.r))
    return 1.0 + log_scale * math.sqrt(inputs.x_inf_sq), False


@_inf_on_overflow
def rademacher_bound(inputs: BoundInputs) -> float:
    """Empirical complexity of the ball:
    ``24 r (r/(L-1))^(L-1) sqrt(2 L log P / n)`` times the log factor."""
    factor, _ = log_factor(inputs)
    r, L = inputs.r, inputs.L
    return (
        24.0 * r * (r / (L - 1)) ** (L - 1)
        * math.sqrt(2.0 * L * math.log(inputs.P) / inputs.n)
        * factor
    )


def model_convergence_bound(inputs: BoundInputs) -> float:
    """Expected excess risk bound: exactly ``4 b0`` times the complexity
    (0 when ``b0`` is 0, even if the complexity overflowed)."""
    if inputs.b0 == 0.0:
        return 0.0
    return 4.0 * inputs.b0 * rademacher_bound(inputs)


@_inf_on_overflow
def derivative_convergence_bound(inputs: BoundInputs, b1_exponent: int) -> float:
    """Expected squared-L2 gradient error bound, rate ``n^(-1/4)``.

    Two published variants differ in whether the score bound enters as
    ``(1 + b1)`` or ``(1 + b1^2)``; select with ``b1_exponent``.
    """
    if b1_exponent not in (1, 2):
        raise ValueError("b1_exponent must be 1 or 2")
    r, L = inputs.r, inputs.L
    factor, _ = log_factor(inputs)
    inner_sq = max(((r / k) ** (2 * k) for k in range(2, L)), default=1.0)
    quarter = inputs.n ** -0.25
    term1 = quarter * (r / L) ** (2 * L) * (2.0 + (L * L / 8.0) * inner_sq)
    term2 = 0.0 if inputs.b0 == 0.0 else (
        48.0 * (1.0 + inputs.b1 ** b1_exponent) * inputs.b0
        * r * (r / (L - 1)) ** (L - 1)
        * math.sqrt(2.0 * L * math.log(inputs.P)) * quarter * factor
    )
    return term1 + term2


@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated on one set of inputs.

    ``log_factor_clamped`` records whether the complexity log factor was
    clamped at 1 (small-n regime).
    """

    lip_param: float
    lip_l2pn: float
    sup_model: float
    grad_l1: float
    divergence: float
    c1: float
    rademacher: float
    model_convergence: float
    derivative_convergence: float
    log_factor_clamped: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def bound_report(inputs: BoundInputs, b1_exponent: int) -> BoundReport:
    """Evaluate the full suite on one set of inputs (``b1_exponent`` as in
    :func:`derivative_convergence_bound`).

    The pointwise Lipschitz bound is reported at the worst input
    (``x_inf = R``), and ``lip_l2pn`` at the RMS ``sqrt(x_inf_sq)``.
    """
    _, clamped = log_factor(inputs)
    return BoundReport(
        lip_param=lipschitz_param_bound(inputs.r, inputs.L, inputs.R),
        lip_l2pn=lipschitz_param_bound(inputs.r, inputs.L, math.sqrt(inputs.x_inf_sq)),
        sup_model=sup_model_bound(inputs.R, inputs.r, inputs.L),
        grad_l1=grad_l1_bound(inputs.r, inputs.L),
        divergence=divergence_bound(inputs.r, inputs.L),
        c1=c1(inputs.R, inputs.r, inputs.L, inputs.P),
        rademacher=rademacher_bound(inputs),
        model_convergence=model_convergence_bound(inputs),
        derivative_convergence=derivative_convergence_bound(inputs, b1_exponent),
        log_factor_clamped=clamped,
    )


# -- randomized audit --------------------------------------------------------


@dataclass(frozen=True)
class SuiteRow:
    """One checked property: ``worst_ratio`` is the worst observed value over
    its allowed limit, so a ratio above 1 is a violation in every suite."""

    suite: str
    trials: int
    violations: int
    worst_ratio: float


def _tally(ratios: dict, slack: float) -> list:
    """One :class:`SuiteRow` per ``{suite: [observed/allowed ratio per
    trial]}`` entry: ratios above ``1 + slack``, or NaN, are violations, and
    ``worst_ratio`` is the largest ratio, floored at 0, or NaN if one is."""
    return [
        SuiteRow(suite, len(r), int(sum(not x <= 1.0 + slack for x in r)),
                 math.nan if any(map(math.isnan, r)) else max([0.0, *r]))
        for suite, r in ratios.items()
    ]


_CSV_FORMATS = {"str": "%s", "int": "%d", "float": "%.17g"}


def _rows_to_csv(cls, rows) -> str:
    """CSV text, one line per dataclass row of type ``cls`` under a header
    of its field names; floats print exactly (``%.17g``)."""
    fields = dataclasses.fields(cls)
    fmt = ",".join(_CSV_FORMATS[f.type] for f in fields)
    lines = [",".join(f.name for f in fields)]
    lines.extend(fmt % tuple(getattr(row, f.name) for f in fields) for row in rows)
    return "\n".join(lines) + "\n"


# Trials evaluated as one stack of networks by verify_bounds and the
# finite-difference suite of ``l1net verify``.
_DRAW_BLOCK = 32


def _draw_blocks(seed, trials: int, draw):
    """Lists of ``draw(index, rng)`` over the trials, at most ``_DRAW_BLOCK``
    long; every trial draws from its own stream spawned from ``seed``.  The
    streams are spawned a block at a time: ``spawn`` goes on counting its
    children, so they are those of one ``spawn(trials)``, and memory does not
    grow with ``trials``."""
    parent = np.random.SeedSequence(seed)
    for start in range(0, int(trials), _DRAW_BLOCK):
        streams = parent.spawn(min(_DRAW_BLOCK, int(trials) - start))
        yield [draw(start + k, np.random.default_rng(stream)) for k, stream in enumerate(streams)]


def _gaussian_flat(arch: Architecture, rng) -> np.ndarray:
    """Layerwise N(0, 2/fan_in) draw, flattened (not yet projected)."""
    return np.concatenate([w.ravel() for w in _gaussian_layers(arch.layer_sizes, rng)])


def _chain_flat(arch: Architecture, r: float, x: np.ndarray) -> np.ndarray:
    """Near-extremal ball member, flattened: mass r/L per layer on a single
    path.

    Equal mass per layer maximizes the product of layer norms (AM-GM), which
    is exactly the quantity the sup/gradient bounds cap, so these draws push
    the audit ratios toward 1 (relu attains the gradient bound exactly).
    The first weight is sign-aligned with the largest input coordinate to
    keep every preactivation non-negative.
    """
    per_layer = r / arch.depth
    k = int(np.argmax(np.abs(x)))
    flat = np.zeros(arch.n_params)
    first, *rest = _layer_views(flat, arch.layer_sizes)
    first[0, k] = per_layer if x[k] >= 0.0 else -per_layer
    for layer in rest:
        layer[0, 0] = per_layer
    return flat


def verify_bounds(arch: Architecture, r: float, trials: int, seed: int, *,
                  input_sup: float, slack: float) -> tuple:
    """Randomized audit of the pointwise inequalities.

    Per trial an input is drawn uniformly from the box
    ``|x|_inf <= input_sup`` and two networks are sampled inside the ball
    (Gaussian draw followed by L1 projection; every eighth trial swaps the
    first one for the near-extremal single-path net so the audit actually
    exercises the tight end of each inequality); then each inequality is
    checked at relative slack ``slack``.  Returns a :class:`SuiteRow` per
    bound: ``lipschitz_param`` (against the parameter distance of the pair),
    ``sup_model``, ``grad_l1`` and ``divergence``.  Trials use per-trial RNG
    streams spawned from ``seed``, so the audit is deterministic and
    order-independent; ``_DRAW_BLOCK`` trials at a time are projected and
    evaluated as one stack of networks.  ``r = 0`` degenerates to all-zero
    networks whose outputs, gradients and Laplacians are exactly zero.
    """
    if int(trials) < 1:
        raise ValueError("trials must be at least 1")

    def draw(index, rng):
        x = rng.uniform(-input_sup, input_sup, size=arch.layer_sizes[0])
        chain = index % 8 == 7
        net_a = _chain_flat(arch, r, x) if chain else _gaussian_flat(arch, rng)
        return x, net_a, _gaussian_flat(arch, rng)

    L = arch.depth
    ratios = {}
    for block in _draw_blocks(seed, trials, draw):
        xs, nets_a, nets_b = zip(*block)
        # Chain nets lie in the ball already, and projection keeps them as is.
        flats = project_l1(np.stack(nets_a + nets_b), r)
        net_a = _layer_views(flats[:len(xs)], arch.layer_sizes)
        net_b = _layer_views(flats[len(xs):], arch.layer_sizes)
        X = np.stack(xs)[:, np.newaxis, :]
        x_inf = np.abs(X).max(axis=(1, 2)).tolist()
        out_a, delta, lap = _input_derivatives(net_a, arch.activation, X, value=True,
                                               signal=True, laplacian=True)
        out_a, grad = out_a[:, 0], delta @ net_a[0]
        out_b = _input_derivatives(net_b, arch.activation, X, value=True, signal=False,
                                   laplacian=False)[0][:, 0]
        dist = np.sqrt(sum(((a - b) ** 2).sum(axis=(1, 2)) for a, b in zip(net_a, net_b)))
        checks = {
            "lipschitz_param": (np.abs(out_a - out_b), dist * [
                lipschitz_param_bound(r, L, x) for x in x_inf]),
            "sup_model": (np.abs(out_a), [sup_model_bound(x, r, L) for x in x_inf]),
            "grad_l1": (np.abs(grad).sum(axis=(1, 2)), grad_l1_bound(r, L)),
            "divergence": (np.abs(lap[:, 0]), divergence_bound(r, L)),
        }
        for name, (lhs, rhs) in checks.items():
            ratios.setdefault(name, []).extend(
                0.0 if a == 0.0 else (a / b if b > 0.0 else math.inf)
                for a, b in zip(lhs.tolist(), np.broadcast_to(rhs, lhs.shape).tolist())
            )
    return tuple(_tally(ratios, slack))
