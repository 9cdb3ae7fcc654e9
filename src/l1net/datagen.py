"""Synthetic teacher networks and truncated-normal regression data.

Inputs are drawn i.i.d. per coordinate from a normal truncated at
``cutoff_factor`` standard deviations; observation noise uses the same
truncation rule with its own scale.  Teachers are random dense networks
whose first layer touches only the first ``s`` input coordinates, so the
remaining ``d - s`` coordinates are exactly irrelevant.  Counts (``n``, the
teacher's shape and seed) are checked by ``net._integral``, the package's one
integer check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .net import Activation, Network, _gaussian_layers, _integral, _pieces, forward_batch

__all__ = [
    "DataSpec",
    "Dataset",
    "TeacherSpec",
    "make_teacher",
    "read_dataset_csv",
    "sample_truncated_normal",
    "synthesize",
    "write_dataset_csv",
]


# The widest tail, in standard deviations, that ``_expected_max_sq`` reads:
# past ``sqrt(2 ln(d 2^53))`` the mass ``d P(|x_1| > t)`` is below double
# precision, and d is at most the float64 count numpy can index (about 2^60).
_WIDEST_TAIL = math.sqrt(2.0 * math.log(np.iinfo(np.intp).max // 8 * 2.0 ** 53))


@dataclass(frozen=True)
class DataSpec:
    """Input and noise distribution settings.

    ``noise_std = 0`` is allowed and means noiseless labels.  The input
    support is the box ``|x_i - mean| <= cutoff_factor * x_std``.
    """

    x_std: float = 1.0
    noise_std: float = 0.1
    cutoff_factor: float = 10.0
    mean: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.x_std) or self.x_std <= 0.0:
            raise ValueError("x_std must be positive and finite")
        if not np.isfinite(self.noise_std) or self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative and finite")
        if not np.isfinite(self.cutoff_factor) or self.cutoff_factor <= 0.0:
            raise ValueError("cutoff_factor must be positive and finite")
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
        # Every scale a command derives from the law must be a finite float:
        # the Green check's 1 / x_std^2, the box (the bound audit draws across
        # it), the score bound, the square of the draws' reach (E max_i x_i^2,
        # and room for a network's gain) and the noise box.  Python floats
        # overflow to inf without a warning, numpy scalars would warn.
        s, c = float(self.x_std), float(self.cutoff_factor)
        var, R, reach = s * s, c * s, abs(float(self.mean)) + s * max(1.0, min(c, _WIDEST_TAIL))
        if not (var > 0.0 and 1.0 / var < math.inf and R > 0.0 and 2.0 * R < math.inf
                and max(c / s, reach * reach, c * float(self.noise_std)) < math.inf):
            raise ValueError(
                f"{self} leaves float64: x_std^2 and R = cutoff_factor * x_std must be "
                "positive, and 1 / x_std^2, 2R, cutoff_factor / x_std, cutoff_factor * "
                f"noise_std and (|mean| + x_std * max(1, min(cutoff_factor, {_WIDEST_TAIL:.3g})))^2"
                " finite")

    @property
    def input_bound(self) -> float:
        """Half-width of the input box: sup_i |x_i - mean|."""
        return self.cutoff_factor * self.x_std

    @property
    def score_bound(self) -> float:
        """Sup-norm bound on the score, attained on the box boundary."""
        return self.cutoff_factor / self.x_std


@dataclass(frozen=True)
class TeacherSpec:
    """Shape of a sparse teacher: ambient dim d, s relevant coordinates,
    L weight layers of width h, and the seed for the weight draw."""

    d: int
    s: int
    L: int
    h: int
    seed: int = 0

    def __post_init__(self):
        for name in ("d", "s", "L", "h", "seed"):
            object.__setattr__(self, name, _integral(getattr(self, name), name, ValueError))
        if self.d < 1 or self.h < 1:
            raise ValueError("d and h must be positive")
        if not 1 <= self.s <= self.d:
            raise ValueError("s must satisfy 1 <= s <= d")
        if self.L < 2:
            raise ValueError("L must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix and labels, with the input law they were drawn from."""

    X: np.ndarray
    y: np.ndarray
    data_spec: DataSpec

    def __post_init__(self):
        X = np.array(np.asarray(self.X, dtype=float), order="C")
        y = np.array(np.asarray(self.y, dtype=float), order="C")
        if X.ndim != 2:
            raise ValueError("X must be a matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be a vector with one entry per row of X")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if not _in_box(X, self.data_spec.mean, self.data_spec.input_bound * (1.0 + 1e-12)).all():
            raise ValueError("X contains entries outside the truncation box")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _in_box(x, mean, bound) -> np.ndarray:
    """``|x - mean| <= bound`` entrywise, in cache-sized pieces through one scratch buffer."""
    flat, keep, pieces = x.reshape(-1), np.empty(x.size, bool), _pieces(x.size, 1)
    scratch = np.empty(pieces[0].stop if pieces else 0)
    for piece in pieces:
        part = np.subtract(flat[piece], mean, out=scratch[:piece.stop - piece.start])
        np.less_equal(np.abs(part, out=part), bound, out=keep[piece])
    return keep.reshape(x.shape)


def _propose(out, mean, std, cutoff_factor, rng):
    """Fill the flat float64 array ``out`` with proposals for
    :func:`sample_truncated_normal` and return it, allocating nothing: the
    bits of ``rng.normal(mean, std)`` from ``cutoff_factor`` 1 up, else of
    ``rng.uniform(-cutoff_factor, cutoff_factor)``, which overflow to inf
    without a warning.  The generator fills with the GIL released."""
    if cutoff_factor >= 1.0:
        rng.standard_normal(out=out)
        with np.errstate(over="ignore"):
            out *= std
            out += mean
    else:
        rng.random(out=out)
        out *= cutoff_factor - -cutoff_factor  # the width uniform() scales by
        out -= cutoff_factor
    return out


def _keep(x, mean, std, cutoff_factor, rng):
    """Which proposals ``x`` (from :func:`_propose`) are kept.  Uniform
    proposals become draws in place, ``x = mean + std * u``, after their
    acceptance uniforms are drawn in cache-sized pieces; drawing them piece
    by piece reads the generator's stream as one whole draw would."""
    bound = cutoff_factor * std
    if cutoff_factor >= 1.0:
        return _in_box(x, mean, bound)
    keep = np.empty(len(x), bool)
    for piece in _pieces(len(x), 1):
        u = x[piece]
        weight = -0.5 * u * u
        accept = rng.random(len(u)) < np.exp(weight, out=weight)
        u *= std
        u += mean
        keep[piece] = _in_box(u, mean, bound) & accept
    return keep


def _accept(x, mean, std, cutoff_factor, rng):
    """Turn the proposals ``x`` (flat, from :func:`_propose`) into draws in
    place, redrawing rejects until none is left; returns ``x``."""
    bad = _keep(x, mean, std, cutoff_factor, rng)
    np.logical_not(bad, out=bad)
    while bad.any():
        redo = _propose(np.empty(int(bad.sum())), mean, std, cutoff_factor, rng)
        keep = _keep(redo, mean, std, cutoff_factor, rng)
        x[bad] = redo
        bad[bad] = ~keep
    return x


def sample_truncated_normal(mean: float, std: float, cutoff_factor: float, rng, size):
    """Normal draws conditioned on ``|x - mean| <= cutoff_factor * std``.

    Rejection sampling, deterministic given the generator state.  From
    ``cutoff_factor`` 1 up, proposals are normal draws kept when inside the
    box (at least 68% are).  Below 1 that rate falls like ``0.8 *
    cutoff_factor``, so proposals are uniform on the box instead, kept with
    probability ``exp(-u^2 / 2)`` for the standardized draw ``u`` (at least
    85% are).  Returns an array of shape ``size``.  The proposals are filled
    into the output (:func:`_propose`), then kept or redrawn
    (:func:`_accept`); masks are made in cache-sized pieces.
    """
    if not np.isfinite(std) or std <= 0.0:
        raise ValueError("std must be positive and finite")
    if not np.isfinite(cutoff_factor) or cutoff_factor <= 0.0:
        raise ValueError("cutoff_factor must be positive and finite")
    x = np.empty(size)
    _accept(_propose(x.reshape(-1), mean, std, cutoff_factor, rng), mean, std, cutoff_factor, rng)
    return x


# Gauss-Legendre nodes per smooth piece of ``_expected_max_sq``'s integrand.
# 1 - q^d has an edge layer about 1/d wide where the box ends; 128 nodes
# resolve it to 1e-11 relative up to d = 3000 (at d = 10^4 and a cutoff
# factor near 1 or below, to about 2e-6).
_MAX_SQ_NODES = 128
_SQRT2 = math.sqrt(2.0)


def _expected_max_sq(data_spec: DataSpec, d: int) -> float:
    """``E max_i x_i^2`` over ``d`` i.i.d. coordinates of the input law, by
    quadrature; draws nothing.

    ``E max_i x_i^2 = int_0^T 2t (1 - q(t)^d) dt`` with ``q(t) = P(|x_1| <=
    t)``, a difference of normal CDFs (``math.erf``/``erfc``, each tail from
    ``erfc`` so it keeps its digits).  q is smooth between its kinks, where
    t meets a box edge, so each piece between them takes ``_MAX_SQ_NODES``
    nodes.  T is the far box edge, or sooner the point past which
    ``d P(|x_1| > t)`` is below double precision (``erfc(u / sqrt 2) <=
    exp(-u^2 / 2)`` places it, never past ``_WIDEST_TAIL``), so a huge
    ``cutoff_factor`` does not spread the nodes.  The law of ``|x_1|`` does
    not depend on the mean's sign.  Nodes are placed on ``t / T`` in [0, 1]
    and every step is a Python float, so nothing warns; ``DataSpec`` keeps
    ``T^2`` finite and T positive.
    """
    m, s, c = abs(float(data_spec.mean)), float(data_spec.x_std), float(data_spec.cutoff_factor)
    T = m + s * min(c, math.sqrt(2.0 * math.log(d * 2.0 ** 53)), _WIDEST_TAIL)

    def mass(a, b):  # P(a <= z <= b) for a standard normal z, a <= b
        if b <= 0.0:  # by symmetry, a tail is always taken on the right
            a, b = -b, -a
        if a >= 0.0:
            return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
        return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))

    box = mass(-c, c)

    def gap(t):  # 1 - q(t)^d from p = P(|x_1| > t), exact where q = 0
        u_hi, u_lo = (min(max(u, -c), c) for u in ((t - m) / s, (-t - m) / s))
        p = min(1.0, (mass(u_hi, c) + mass(-c, u_lo)) / box)
        return 1.0 if p == 1.0 else -math.expm1(d * math.log1p(-p))

    kink = abs(m - s * c)  # where the near box edge meets |x| = t
    edges = [0.0, kink / T, 1.0] if 0.0 < kink < T else [0.0, 1.0]
    nodes, weights = np.polynomial.legendre.leggauss(_MAX_SQ_NODES)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        tau = (0.5 * (a + b) + 0.5 * (b - a) * nodes).tolist()
        total += 0.5 * (b - a) * float(weights @ [2.0 * t * gap(T * t) for t in tau])
    return T * T * total


def make_teacher(spec: TeacherSpec,
                 activation: Activation = Activation.SOFTPLUS) -> Network:
    """Random teacher with exactly ``d - s`` all-zero first-layer columns.

    Layer ``l`` is drawn N(0, 2 / fan_in) from a generator seeded with
    ``spec.seed``; the first-layer columns beyond the first ``s`` are then
    zeroed, making those input coordinates exactly irrelevant.  The weights
    are a pure function of ``spec``.
    """
    rng = np.random.default_rng(spec.seed)
    layers = _gaussian_layers((spec.d,) + (spec.h,) * (spec.L - 1) + (1,), rng)
    layers[0][:, spec.s:] = 0.0
    return Network(tuple(layers), activation)


def synthesize(teacher: Network, n: int, data_spec: DataSpec, rng) -> Dataset:
    """Draw ``n`` samples: truncated-normal inputs, teacher outputs plus
    truncated-normal noise (skipped entirely when ``noise_std`` is 0)."""
    n = _integral(n, "n", ValueError)
    if n < 1:
        raise ValueError("n must be positive")
    X = sample_truncated_normal(
        data_spec.mean, data_spec.x_std, data_spec.cutoff_factor, rng,
        size=(n, teacher.input_dim),
    )
    y = forward_batch(teacher, X)
    if data_spec.noise_std > 0.0:
        y = y + sample_truncated_normal(
            0.0, data_spec.noise_std, data_spec.cutoff_factor, rng, size=(n,)
        )
    return Dataset(X, y, data_spec)


# -- CSV ---------------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, path):
    """Header ``x1,...,xd,y``, then one line per sample with 17 significant
    digits per value, written line by line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(dataset.d)] + ["y"]) + "\n")
        for row, target in zip(dataset.X, dataset.y):
            fh.write(",".join(["%.17g" % v for v in row] + ["%.17g" % target]) + "\n")


def read_dataset_csv(path, data_spec: DataSpec) -> Dataset:
    """Parse a file written by :func:`write_dataset_csv` into one float
    array; exact round trip.  Blank lines are skipped."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(len(header) - 1)]:
            raise ValueError("unexpected dataset CSV header")
        d = len(header) - 1
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError("dataset CSV has no data rows")
        arr = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2, comments=None)
    if arr.shape[1] != d + 1:
        raise ValueError("dataset CSV row has wrong arity")
    return Dataset(arr[:, :d], arr[:, d], data_spec)
