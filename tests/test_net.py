import hashlib
import json

import numpy as np
import pytest
from scipy.special import expit

from l1net import evaluate
from l1net import net as net_module
from l1net.net import (
    Activation,
    Architecture,
    Network,
    forward,
    forward_batch,
    grad_input,
    grad_input_batch,
    grad_params_batch,
    laplacian_batch,
    laplacian_input,
    load_network,
    save_network,
)

# Shifted softplus values frozen from a 40-digit evaluation of
# log(1+exp(z)) - log(2) and its first two derivatives.
SOFTPLUS_TABLE = {
    -1.5: (-0.4917339025771929, 0.18242552380635634, 0.14914645207033286),
    -0.3: (-0.13879193609141819, 0.42555748318834102, 0.24445831169074587),
    0.7: (0.41003886832551255, 0.6681877721681661, 0.22171287329310905),
    2.25: (1.6570593783568019, 0.90465053510089051, 0.086257944442562981),
}

SIGMA_1 = 0.62011450695827752      # sigma(1)
SIGMA_M1 = -0.37988549304172248    # sigma(-1)


def _random_net(rng, d, h, L, activation=Activation.SOFTPLUS, scale=0.5):
    sizes = (d,) + (h,) * (L - 1) + (1,)
    layers = tuple(
        rng.normal(0.0, scale, size=(sizes[l + 1], sizes[l])) for l in range(L)
    )
    return Network(layers, activation)


def _terms(kind, z):
    """``(s(z), s'(z), s''(z))`` at one point, from the activation kernel."""
    return tuple(t[0] for t in net_module._act_terms(kind, np.array([z]), 2, None, value=True))


def test_softplus_at_zero_is_exact():
    v, d1, d2 = _terms(Activation.SOFTPLUS, 0.0)
    assert v == 0.0
    assert d1 == 0.5
    assert d2 == 0.25


def test_softplus_table():
    for z, expected in SOFTPLUS_TABLE.items():
        got = _terms(Activation.SOFTPLUS, z)
        np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_softplus_large_argument_stable():
    v, d1, d2 = _terms(Activation.SOFTPLUS, 50.0)
    assert abs(v - (50.0 - np.log(2.0))) <= 1e-9
    assert d1 <= 1.0 and 1.0 - d1 <= 1e-20
    assert d2 <= 1e-20
    np.testing.assert_allclose(v, 49.306852819440055, rtol=1e-15)
    # and nothing overflows way out in the tails
    v, d1, d2 = _terms(Activation.SOFTPLUS, 700.0)
    assert np.isfinite(v) and d1 == 1.0 and d2 == 0.0
    v, d1, d2 = _terms(Activation.SOFTPLUS, -700.0)
    assert np.isfinite(v) and d1 >= 0.0 and d2 >= 0.0


def test_softplus_kernel_matches_references():
    # np.logaddexp and scipy's expit are independent references.
    eps = np.finfo(float).eps
    tiny = np.finfo(float).tiny
    mags = np.concatenate([
        [0.0, 5e-324, 1e-310, tiny, 1e-300, 1e-17, 1e-8],
        np.geomspace(1e-6, 745.0, 400),
        [709.8, 710.0, 744.4, 745.0, 1e10, 1e300],
    ])
    z = np.concatenate([mags, -mags])
    v, d1, d2 = net_module._act_terms(Activation.SOFTPLUS, z.copy(), 2, None, value=True)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    # The shift by log 2 cancels near z = 0 in both, so the value is
    # compared on the scale of the unshifted log(1 + e^z).
    ref_v = np.logaddexp(0.0, z) - np.log(2.0)
    assert np.all(np.abs(v - ref_v) <= 4 * eps * (np.abs(ref_v) + np.log(2.0)))
    # Below tiny, subnormal results carry too few bits for a relative test.
    ref_d1 = expit(z)
    assert np.all(np.abs(d1 - ref_d1) <= 4 * eps * ref_d1 + tiny)
    ref_d2 = ref_d1 * (1.0 - ref_d1)
    assert np.all(np.abs(d2 - ref_d2) <= 4 * eps * ref_d2 + tiny)
    assert (v[0], d1[0], d2[0]) == (0.0, 0.5, 0.25)
    assert (v[mags.size], d1[mags.size], d2[mags.size]) == (0.0, 0.5, 0.25)
    for i in range(0, z.size, 37):
        assert _terms(Activation.SOFTPLUS, z[i]) == (v[i], d1[i], d2[i])


def test_relu_branches():
    assert _terms(Activation.RELU, -3.0) == (0.0, 0.0, 0.0)
    assert _terms(Activation.RELU, 2.5) == (2.5, 1.0, 0.0)
    # subgradient convention at the kink
    assert _terms(Activation.RELU, 0.0) == (0.0, 0.0, 0.0)


def test_act_terms_array_matches_one_point():
    z = np.array([-1.5, -0.3, 0.0, 0.7, 2.25])
    v, d1, d2 = net_module._act_terms(Activation.SOFTPLUS, z.copy(), 2, None, value=True)
    for i, zi in enumerate(z):
        vi, d1i, d2i = _terms(Activation.SOFTPLUS, zi)
        assert v[i] == vi and d1[i] == d1i and d2[i] == d2i


def _reference_terms(kind, z):
    """``(s(z), s'(z), s''(z))`` step by step, each in fresh arrays."""
    if kind is Activation.RELU:
        return np.maximum(z, 0.0), (z > 0.0).astype(float), np.zeros_like(z)
    e = np.exp(-np.abs(z))
    first = np.exp(np.minimum(z, 0.0)) / (1.0 + e)
    return np.log1p(e) + np.maximum(z, 0.0) - np.log(2.0), first, (1.0 - first) * first


@pytest.mark.parametrize("kind", list(Activation))
def test_slopes_without_the_value_keep_their_bits(kind):
    # The kernel's contract at every order: with the value, s(z) is written
    # over z and returned as z itself; without it z keeps its bytes; the
    # slopes up to the order take the reference's bits either way; and a
    # scratch array moves no bit.
    mags = np.array([0.0, 5e-324, 1e-300, 20.0, 745.0, 1e300])
    points = np.concatenate([mags, -mags])
    assert np.signbit(points[mags.size])  # -0.0 is covered
    stacks = np.random.default_rng(21).normal(0.0, 30.0, size=(4, 3, 7, 5))
    for z in (points, *stacks):
        want = [term.tobytes() for term in _reference_terms(kind, z)]
        for order in (0, 1, 2):
            for scratch in (None, np.full_like(z, np.nan)):
                before = z.tobytes()
                none, *slopes = net_module._act_terms(kind, z, order, scratch, value=False)
                assert none is None and z.tobytes() == before
                z_in = z.copy()
                value, *full = net_module._act_terms(kind, z_in, order, scratch, value=True)
                assert value is z_in and value.tobytes() == want[0]
                for k, (got, with_value) in enumerate(zip(slopes, full), 1):
                    if k > order:
                        assert got is None and with_value is None
                    else:
                        assert got.tobytes() == with_value.tobytes() == want[k]
    # s(0.0) is exactly 0.0 in place, so a stack's zero padding stays zero
    padding = net_module._act_terms(kind, np.zeros((3, 7, 5)), 1, None, value=True)[0]
    assert padding.tobytes() == bytes(padding.nbytes)


def test_network_validation():
    good = (np.ones((3, 2)), np.ones((1, 3)))
    net = Network(good, Activation.SOFTPLUS)
    assert net.depth == 2
    assert net.input_dim == 2
    assert net.layer_sizes == (2, 3, 1)
    assert net.n_params == 9

    with pytest.raises(ValueError):
        Network((np.ones((3, 2)),), Activation.SOFTPLUS)  # depth 1
    with pytest.raises(ValueError):
        Network((np.ones((3, 2)), np.ones((1, 4))), Activation.SOFTPLUS)
    with pytest.raises(ValueError):
        Network((np.ones((3, 2)), np.ones((2, 3))), Activation.SOFTPLUS)
    bad = (np.ones((3, 2)), np.full((1, 3), np.nan))
    with pytest.raises(ValueError):
        Network(bad, Activation.SOFTPLUS)
    with pytest.raises(ValueError):
        Network((np.ones(6), np.ones((1, 3))), Activation.SOFTPLUS)


def test_network_layers_are_frozen_copies():
    a = np.ones((3, 2))
    net = Network((a, np.ones((1, 3))), Activation.SOFTPLUS)
    a[0, 0] = 7.0
    assert net.layers[0][0, 0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        net.layers[0][0, 0] = 2.0


def test_mlp_architecture():
    arch = Architecture.mlp(100, 10, 3, Activation.SOFTPLUS)
    assert arch.layer_sizes == (100, 10, 10, 1)
    assert arch.depth == 3
    # parameter count: 100*10 + 10*10 + 10*1
    assert sum(a * b for a, b in zip(arch.layer_sizes, arch.layer_sizes[1:])) == 1110


def test_worked_example_forward_and_derivatives():
    """Hand-evaluated 1-2-1 softplus net: theta1 = [[1], [-1]], theta2 = [[1, 1]]."""
    net = Network(
        (np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])),
        Activation.SOFTPLUS,
    )
    trace0 = forward(net, np.array([0.0]))
    assert trace0.output == 0.0
    np.testing.assert_allclose(grad_input(net, trace0), [0.0], atol=0.0)
    np.testing.assert_allclose(laplacian_input(net, trace0), 0.5, rtol=1e-15)

    x1 = np.array([1.0])
    trace1 = forward(net, x1)
    np.testing.assert_allclose(trace1.output, SIGMA_1 + SIGMA_M1, rtol=1e-15)
    g = grad_params_batch(net, x1[None])
    np.testing.assert_allclose(g[1], [[SIGMA_1, SIGMA_M1]], rtol=1e-15)


def test_trace_from_other_network_rejected():
    rng = np.random.default_rng(0)
    net_a = _random_net(rng, 4, 5, 2)
    net_b = _random_net(rng, 4, 5, 2)
    trace = forward(net_a, np.zeros(4))
    with pytest.raises(ValueError):
        grad_input(net_b, trace)


def test_grad_params_shapes_match_layers():
    rng = np.random.default_rng(1)
    net = _random_net(rng, 6, 4, 3)
    grads = grad_params_batch(net, rng.normal(size=6)[None])
    assert len(grads) == net.depth
    for g, layer in zip(grads, net.layers):
        assert g.shape == layer.shape


def test_relu_laplacian_is_zero():
    rng = np.random.default_rng(2)
    net = _random_net(rng, 5, 8, 3, activation=Activation.RELU)
    for _ in range(20):
        trace = forward(net, rng.normal(size=5))
        assert laplacian_input(net, trace) == 0.0


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    for L in (2, 3, 4):
        for act in (Activation.SOFTPLUS, Activation.RELU):
            net = _random_net(rng, 7, 6, L, activation=act)
            X = rng.normal(size=(11, 7))
            f = forward_batch(net, X)
            G = grad_input_batch(net, X)
            lap = laplacian_batch(net, X)
            # the finite-difference oracles' row-major value pass, apart from
            # the input-derivative pass, gives the same bits
            work = evaluate._fd_workspace(net.layer_sizes, 1)
            assert f.tobytes() == evaluate._values(net.layers, act, X, work).tobytes()
            # the single-x routines are the one-row case of the same core,
            # but BLAS may block a one-row product differently, so the
            # last ulp can differ
            for i in range(11):
                trace = forward(net, X[i])
                np.testing.assert_allclose(f[i], trace.output, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(
                    G[i], grad_input(net, trace), rtol=1e-12, atol=1e-15
                )
                np.testing.assert_allclose(
                    lap[i], laplacian_input(net, trace), rtol=1e-12, atol=1e-15
                )


def _row_major_scores(layers, activation, X):
    """Reference: outputs and the first hidden layer's backward signal from
    (m, h) rows, a hidden pass then ``D_l = s'(z_l) * G_l``, ``G_{l-1} = D_l
    theta_l`` from ``G_{L-1} = theta_L``."""
    acts, fds = [X], []
    for theta in layers[:-1]:
        value, first, _ = net_module._act_terms(activation, acts[-1] @ theta.T, 1, None,
                                                value=True)
        acts.append(value)
        fds.append(first)
    g = np.broadcast_to(layers[-1], fds[-1].shape)
    for l in range(len(fds), 0, -1):
        delta = fds[l - 1] * g
        if l > 1:
            g = delta @ layers[l - 1]
    return (acts[-1] @ layers[-1].T)[:, 0], delta


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("d", [5, 100])
def test_stacked_core_matches_each_network(L, d):
    # A stack of T networks, one input row each, carries the bits of every
    # network's own single-sample value, gradients and Laplacian.
    rng = np.random.default_rng(L * 1000 + d)
    T = 5
    nets = [_random_net(rng, d, 10, L) for _ in range(T)]
    X = rng.normal(size=(T, 1, d))
    layers = [np.stack(thetas) for thetas in zip(*(n.layers for n in nets))]
    value, delta, lap = net_module._input_derivatives(
        layers, Activation.SOFTPLUS, X, value=True, signal=True, laplacian=True)
    grad = delta @ layers[0]
    acts, fds = net_module._hidden_batch(layers, Activation.SOFTPLUS, X)
    weights = net_module._grad_params_batch(layers, acts, fds, np.ones((T, 1)), out=None)
    assert value.shape == lap.shape == (T, 1) and grad.shape == (T, 1, d)
    for t, net in enumerate(nets):
        trace = forward(net, X[t, 0])
        assert value[t, 0] == trace.output
        np.testing.assert_array_equal(grad[t, 0], grad_input(net, trace))
        assert lap[t, 0] == laplacian_input(net, trace)
        for stacked, single in zip(weights, grad_params_batch(net, X[t, 0][None])):
            np.testing.assert_array_equal(stacked[t], single)
    # at the sweep's test-set shape (10 000 rows), the feature-major value and
    # signal keep the bits of the row-major pass, and so does the value alone
    X = rng.normal(size=(10_000, d))
    for activation in Activation:
        net = _random_net(rng, d, 10, L, activation)
        got = net_module._input_derivatives(net.layers, activation, X, value=True, signal=True,
                                            laplacian=False)[:2]
        want = _row_major_scores(net.layers, activation, X)
        for part, ref in zip((*got, forward_batch(net, X)), (*want, want[0])):
            assert part.tobytes() == ref.tobytes()


def test_single_sample_routines_bypass_the_public_batch_names(monkeypatch):
    # A fault planted in a public batched routine must show against the
    # single-sample ones, which the benchmark checks it with.
    rng = np.random.default_rng(12)
    net = _random_net(rng, 6, 5, 3)
    x = rng.normal(size=6)
    _, delta, lap = net_module._input_derivatives(
        net.layers, net.activation, x[None], value=False, signal=True, laplacian=True)
    grad, lap = (delta @ net.layers[0])[0], float(lap[0])
    for name in ("grad_input_batch", "laplacian_batch"):
        exact = getattr(net_module, name)
        monkeypatch.setattr(net_module, name, lambda f, X, exact=exact: 1.02 * exact(f, X))
    trace = forward(net, x)
    assert grad_input(net, trace).tobytes() == grad.tobytes()
    assert laplacian_input(net, trace) == lap


def _reference_slopes(layers, activation, X):
    """``s'(z_l)`` and ``s''(z_l)`` per hidden layer, one row per sample."""
    fds, sds = [], []
    for theta in layers[:-1]:
        X, first, second = net_module._act_terms(
            activation, X @ theta.swapaxes(-1, -2), 2, None, value=True)
        fds.append(first)
        sds.append(second)
    return fds, sds


def _reference_laplacian(layers, fds, sds):
    """The Forward Laplacian written with the input Jacobian J_k = dz_k/dx:
    J_1 = theta_1, J_{k+1} = theta_{k+1} diag(s'(z_k)) J_k, and each layer
    adds s''(z_k) |rows(J_k)|^2.  O(h^2 d) per row and layer."""
    jac = layers[0][..., np.newaxis, :, :]
    lap = sds[0] * np.einsum("...jd,...jd->...j", jac, jac)
    for k in range(1, len(layers) - 1):
        theta = layers[k]
        jac = (theta[..., np.newaxis, :, :] * fds[k - 1][..., np.newaxis, :]) @ jac
        jac_sq = np.einsum("...jd,...jd->...j", jac, jac)
        lap = fds[k] * (lap @ theta.swapaxes(-1, -2)) + sds[k] * jac_sq
    return net_module._output(layers, [lap])


@pytest.mark.parametrize("m", [1, 13])
@pytest.mark.parametrize("T", [None, 5])
@pytest.mark.parametrize("widths", [
    (1, 6, 1), (3, 6, 1), (100, 10, 1),
    (1, 1, 5, 1), (3, 10, 10, 1), (100, 10, 10, 1),
    (7, 3, 8, 2, 1), (1, 1, 5, 1, 1), (3, 2, 7, 4, 1), (100, 10, 10, 10, 1),
    (3, 3, 8, 2, 1, 1), (100, 10, 10, 10, 10, 1),
])
def test_gram_laplacian_matches_jacobian_reference(widths, T, m):
    # The pass carries a factor of the Gram matrix J J^T, not J itself.
    rng = np.random.default_rng(sum(widths) * 31 + m)
    stack = () if T is None else (T,)
    layers = [rng.normal(0.0, 0.5, size=stack + (widths[l + 1], widths[l]))
              for l in range(len(widths) - 1)]
    X = rng.normal(size=stack + (m, widths[0]))
    _check_against_reference(layers, Activation.SOFTPLUS, X)


def _check_against_reference(layers, activation, X):
    got = net_module._input_derivatives(layers, activation, X, value=False, signal=False,
                                        laplacian=True)[2]
    want = _reference_laplacian(layers, *_reference_slopes(layers, activation, X))
    assert got.shape == want.shape == X.shape[:-1]
    if len(layers) == 2:  # no Jacobian factor at L = 2: the same arithmetic
        assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    return got


@pytest.mark.parametrize("m", [1, 13])
@pytest.mark.parametrize("case", ["rank_below_h1", "zero_net_in_stack", "d1_L4", "relu"])
def test_factor_laplacian_edge_shapes(case, m):
    # w = min(d, h_1) columns carry every rank: first layers of rank below
    # h_1, all-zero networks (verify's r = 0) and d = 1; relu gives zeros
    rng = np.random.default_rng(len(case) * 7 + m)
    widths = {"rank_below_h1": (12, 8, 6, 5, 1), "zero_net_in_stack": (5, 10, 10, 10, 1),
              "d1_L4": (1, 10, 10, 10, 1), "relu": (5, 10, 10, 10, 1)}[case]
    stack = (4,) if case in ("zero_net_in_stack", "relu") else ()
    layers = [rng.normal(0.0, 0.5, size=stack + (widths[l + 1], widths[l]))
              for l in range(len(widths) - 1)]
    if case == "rank_below_h1":  # make_teacher zeroes the columns past s = 3
        layers[0][:, 3:] = 0.0
    if case == "zero_net_in_stack":
        for theta in layers:
            theta[2] = 0.0
    activation = Activation.RELU if case == "relu" else Activation.SOFTPLUS
    got = _check_against_reference(layers, activation, rng.normal(size=stack + (m, widths[0])))
    if case == "zero_net_in_stack":
        assert np.all(got[2] == 0.0) and np.all(got[[0, 1, 3]] != 0.0)
    if case == "relu":
        assert np.all(got == 0.0)


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e100, 1e160, 1e200])
def test_laplacian_overflow_is_an_error(L, scale):
    rng = np.random.default_rng(10)
    small = _random_net(rng, 3, 4, L)
    net = Network(tuple(scale * theta for theta in small.layers), Activation.SOFTPLUS)
    X = rng.normal(size=(6, 3))
    if L == 2 and scale == 1e100:
        # every s'' underflows to 0 against finite squared weights
        np.testing.assert_array_equal(laplacian_batch(net, X), np.zeros(6))
        assert laplacian_input(net, forward(net, X[0])) == 0.0
        return
    with pytest.raises(ValueError, match="overflow"):
        laplacian_batch(net, X)
    if scale == 1e100 and L < 4:  # the output is finite, only the Laplacian overflows
        with pytest.raises(ValueError, match="overflow"):
            laplacian_input(net, forward(net, X[0]))
    else:
        with pytest.raises(ValueError, match="overflow"):
            forward(net, X[0])


@pytest.mark.parametrize("L", [3, 4])
def test_laplacian_overflow_in_the_qr_factor_is_an_error(L):
    # rows of theta_1 of norm 1e308 sqrt(2) overflow the QR factor of
    # theta_1^T, while inputs with x_1 = x_2 keep every z_1, and f, at 0
    rng = np.random.default_rng(13)
    small = _random_net(rng, 3, 4, L)
    theta1 = 1e308 * np.array([[1.0, -1.0, 0.0]] * 4)
    assert not np.all(np.isfinite(np.linalg.qr(theta1.T, mode="r")))
    net = Network((theta1,) + small.layers[1:], Activation.SOFTPLUS)
    X = np.array([[0.5, 0.5, 0.3]] * 6)
    assert forward(net, X[0]).output == 0.0
    with pytest.raises(ValueError, match="overflow"):
        laplacian_batch(net, X)
    with pytest.raises(ValueError, match="overflow"):
        laplacian_input(net, forward(net, X[0]))


@pytest.mark.parametrize("activation", [Activation.SOFTPLUS, Activation.RELU])
@pytest.mark.parametrize("L", [2, 3])
def test_value_and_gradient_overflow_is_an_error(L, activation):
    # positive weights and inputs: every unit is active, and the output and
    # the gradient entries are of order 1e320 or more
    rng = np.random.default_rng(11)
    small = _random_net(rng, 3, 4, L, activation)
    net = Network(tuple(1e160 * np.abs(theta) for theta in small.layers), activation)
    X = np.abs(rng.normal(size=(6, 3))) + 1.0
    with pytest.raises(ValueError, match="overflow"):
        forward(net, X[0])
    with pytest.raises(ValueError, match="overflow"):
        forward_batch(net, X)
    with pytest.raises(ValueError, match="overflow"):
        grad_input_batch(net, X)


def test_single_sample_input_gradient_overflow_is_an_error():
    # at x = 0 every shifted softplus is 0, so the output is finite, but
    # each gradient entry is 2 * 1e10 * 0.5 * 1e300
    net = Network((1e300 * np.ones((2, 3)), 1e10 * np.ones((1, 2))), Activation.SOFTPLUS)
    trace = forward(net, np.zeros(3))
    assert trace.output == 0.0
    with pytest.raises(ValueError, match="overflow"):
        grad_input(net, trace)
    with pytest.raises(ValueError, match="overflow"):
        grad_input_batch(net, np.zeros((1, 3)))


def test_single_sample_weight_gradient_overflow_is_an_error():
    # the output is of order 1e200, but df/dtheta_1 = 1e200 * s'(z) * x is 1e400
    net = Network((1e-200 * np.ones((2, 3)), 1e200 * np.ones((1, 2))), Activation.SOFTPLUS)
    x = 1e200 * np.ones(3)
    assert np.isfinite(forward(net, x).output)
    with pytest.raises(ValueError, match="overflow"):
        grad_params_batch(net, x[None])


def test_laplacian_batch_row_blocks_cover_every_row(monkeypatch):
    rng = np.random.default_rng(9)
    net = _random_net(rng, 7, 6, 3)
    X = rng.normal(size=(10, 7))
    whole = laplacian_batch(net, X)
    whole_grad = grad_input_batch(net, X)
    # blocks of 3 rows: three full blocks and a ragged last one
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 3 * (7 + 6 * (4 + 2 * 6)))
    assert len(net_module._row_blocks(net.layers, 10)) == 4
    np.testing.assert_allclose(laplacian_batch(net, X), whole, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grad_input_batch(net, X), whole_grad, rtol=1e-12, atol=1e-15)


def test_batch_routines_reject_nonfinite_rows():
    """The batch routines share forward's input contract: one non-finite
    entry anywhere in the batch is a ValueError, not a silent NaN or a
    finite wrong answer."""
    rng = np.random.default_rng(8)
    net = _random_net(rng, 2, 3, 3)
    for bad in (np.inf, -np.inf, np.nan):
        X = np.array([[0.5, -0.5], [1.0, bad]])
        for routine in (forward_batch, grad_input_batch, laplacian_batch):
            with pytest.raises(ValueError, match="non-finite"):
                routine(net, X)
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, X[1])


def test_softplus_trace_derivative_ranges(monkeypatch):
    rng = np.random.default_rng(4)
    net = _random_net(rng, 5, 6, 3)
    slopes = []  # (s', s'') of every hidden layer the Laplacian pass reads
    terms = net_module._act_terms

    def spy(*args, **kwargs):
        out = terms(*args, **kwargs)
        slopes.append(out[1:])
        return out

    monkeypatch.setattr(net_module, "_act_terms", spy)
    for _ in range(50):
        X = (rng.normal(size=5) * 3)[None]
        net_module._input_derivatives(net.layers, net.activation, X, value=False, signal=False,
                                      laplacian=True)
    assert len(slopes) == 50 * 2
    for d1, d2 in slopes:
        assert np.all(d1 > 0.0) and np.all(d1 < 1.0)
        assert np.all(d2 > 0.0) and np.all(d2 <= 0.25)


def test_json_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    net = _random_net(rng, 9, 4, 3)
    path, again = tmp_path / "net.json", tmp_path / "again.json"
    save_network(net, path)
    back = load_network(path)
    assert back.activation is net.activation
    for a, b in zip(net.layers, back.layers):
        np.testing.assert_array_equal(a, b)
    # serialization is deterministic
    save_network(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_network_bytes_are_pinned(tmp_path):
    # The file format is frozen: 17 significant digits per weight, exponents
    # included, one line of JSON ending in a newline.
    rng = np.random.default_rng(20)
    net = Network((rng.normal(size=(4, 3)), 1e-300 * rng.normal(size=(2, 4)),
                   rng.normal(size=(1, 2))), Activation.RELU)
    path = tmp_path / "net.json"
    save_network(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "941e39e142bd9f84d1336031c785761c543a28b5b7c540e39a6043f074c61db0")


def test_json_rejects_malformed(tmp_path):
    rng = np.random.default_rng(6)
    net = _random_net(rng, 3, 4, 2)
    path = tmp_path / "net.json"
    save_network(net, path)
    doc = json.loads(path.read_text())

    broken = dict(doc)
    del broken["activation"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError):
        load_network(path)

    broken = json.loads(json.dumps(doc))
    broken["layers"][0] = broken["layers"][0][:-1]
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError):
        load_network(path)

    path.write_text(json.dumps({"layers": []}))
    with pytest.raises(ValueError):
        load_network(path)


def test_save_and_load_file(tmp_path):
    rng = np.random.default_rng(7)
    net = _random_net(rng, 4, 5, 2, activation=Activation.RELU)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.activation is Activation.RELU
    for a, b in zip(net.layers, back.layers):
        np.testing.assert_array_equal(a, b)
