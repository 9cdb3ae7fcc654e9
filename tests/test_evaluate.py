import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from l1net import bounds, cli, evaluate, sparsity
from l1net import net as net_module
from l1net.cli import ExperimentConfig, VerifyConfig, _small_green_net, run_verification
from l1net.datagen import DataSpec, TeacherSpec, make_teacher, sample_truncated_normal
from l1net.evaluate import (
    GreenCheck,
    finite_diff_gradient,
    finite_diff_laplacian,
    green_identity_check,
    l2_prediction_error,
    l2_gradient_error,
)
from l1net.net import (
    Activation,
    Network,
    forward,
    forward_batch,
    grad_input,
    grad_input_batch,
    grad_params_batch,
    laplacian_batch,
    laplacian_input,
)


def _random_net(rng, d, h, L, activation=Activation.SOFTPLUS, scale=0.5):
    sizes = (d,) + (h,) * (L - 1) + (1,)
    layers = tuple(
        rng.normal(0.0, scale, size=(sizes[l + 1], sizes[l])) for l in range(L)
    )
    return Network(layers, activation)


def test_prediction_error_zero_for_identical_nets():
    rng = np.random.default_rng(0)
    net = _random_net(rng, 5, 4, 2)
    X = rng.normal(size=(50, 5))
    assert l2_prediction_error(net, net, X) == 0.0


def test_prediction_error_matches_direct_formula():
    rng = np.random.default_rng(1)
    a = _random_net(rng, 6, 5, 3)
    b = _random_net(rng, 6, 5, 3)
    X = rng.normal(size=(200, 6))
    est = l2_prediction_error(a, b, X)
    diff = forward_batch(a, X) - forward_batch(b, X)
    np.testing.assert_allclose(est, np.mean(diff**2), rtol=1e-14)


def test_prediction_error_scaled_output_pair():
    """Doubling the output layer doubles the output, so the squared distance
    to the original is exactly the mean squared output."""
    rng = np.random.default_rng(2)
    net = _random_net(rng, 4, 5, 2)
    doubled = Network((net.layers[0], 2.0 * net.layers[1]), net.activation)
    X = rng.normal(size=(300, 4))
    est = l2_prediction_error(net, doubled, X)
    np.testing.assert_allclose(
        est, np.mean(forward_batch(net, X) ** 2), rtol=1e-13
    )


def test_gradient_error_matches_direct_formula():
    rng = np.random.default_rng(3)
    a = _random_net(rng, 6, 5, 2)
    b = _random_net(rng, 6, 5, 2)
    X = rng.normal(size=(150, 6))
    est = l2_gradient_error(a, b, X)
    diff = grad_input_batch(a, X) - grad_input_batch(b, X)
    np.testing.assert_allclose(
        est, np.mean(np.sum(diff**2, axis=1)), rtol=1e-14
    )


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("L", [2, 3, 4])
def test_gradient_error_matches_extended_precision(L, activation):
    # Students at distance 10^k from their teacher, for k = -8 .. 0, against
    # delta_f theta1_f - delta_g theta1_g assembled in np.longdouble from the
    # same float64 signals.  The gap shrinks with the distance, so reducing
    # d-wide float64 gradients loses about eps / 10^k of it (1e-8 at k = -8);
    # the first-layer reducer stays near eps, below the reference's own error
    # (about 2e-11 at k = -8).
    ld = np.longdouble
    worst = 0.0
    for d in (1, 3, 20, 100):
        for h in (5, 10):
            rng = np.random.default_rng(1000 * L + 10 * d + h)
            teacher = _random_net(rng, d, h, L, activation)
            X = rng.normal(size=(64, d))
            teacher_delta = evaluate._scores(teacher, X)[1]
            for k in range(-8, 1):
                student = Network(tuple(theta + 10.0 ** k * rng.normal(size=theta.shape)
                                        for theta in teacher.layers), activation)
                delta = evaluate._scores(student, X)[1]
                gap = (delta.astype(ld) @ student.layers[0].astype(ld)
                       - teacher_delta.astype(ld) @ teacher.layers[0].astype(ld))
                want = (gap * gap).sum() / len(X)
                got = evaluate._gradient_error(student.layers[0], delta,
                                               teacher.layers[0], teacher_delta)
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-10


def test_gradient_error_of_unequal_widths_matches_direct_formula():
    rng = np.random.default_rng(15)
    a = _random_net(rng, 6, 7, 3)
    b = _random_net(rng, 6, 4, 2)
    X = rng.normal(size=(150, 6))
    diff = grad_input_batch(a, X) - grad_input_batch(b, X)
    for est in (l2_gradient_error(a, b, X), l2_gradient_error(b, a, X)):
        np.testing.assert_allclose(est, np.mean(np.sum(diff**2, axis=1)), rtol=1e-14)


@pytest.mark.parametrize("activation", list(Activation))
def test_gradient_error_of_rescaled_student(activation):
    # theta1 times 1e150 and theta2 over 1e150 leave the gradient of an L=2
    # network nearly as it is, but make the student's first layer dwarf the
    # teacher's; the reducer must not cancel terms of size 1e150.
    rng = np.random.default_rng(16)
    a = _random_net(rng, 6, 5, 2, activation)
    b = _random_net(rng, 6, 5, 2, activation)
    huge = Network((a.layers[0] * 1e150, a.layers[1] * 1e-150), activation)
    X = rng.normal(size=(150, 6))
    diff = grad_input_batch(huge, X) - grad_input_batch(b, X)
    want = np.mean(np.sum(diff**2, axis=1))
    np.testing.assert_allclose(l2_gradient_error(huge, b, X), want, rtol=1e-13)
    np.testing.assert_allclose(l2_gradient_error(b, huge, X), want, rtol=1e-13)


@pytest.mark.parametrize("scale, x_scale", [(1e300, 1.0), (1.7e308, 1e-300)])
def test_gradient_error_of_huge_first_layer_is_an_overflow(scale, x_scale):
    # Only theta1 is huge and the passes stay finite: the gap overflows, and
    # at 1.7e308 the QR factor itself is NaN.  Either way the error is a
    # ValueError, with no warning and no LinAlgError.
    rng = np.random.default_rng(17)
    small = _random_net(rng, 3, 4, 2)
    big = Network((np.full((4, 3), scale), small.layers[1]), small.activation)
    X = x_scale * rng.normal(size=(20, 3))
    for pair in ((big, small), (small, big)):
        with pytest.raises(ValueError, match="L2 error overflows"):
            l2_gradient_error(*pair, X)


def test_error_estimators_reject_dimension_mismatch():
    rng = np.random.default_rng(4)
    a = _random_net(rng, 5, 4, 2)
    b = _random_net(rng, 6, 4, 2)
    X = rng.normal(size=(10, 5))
    with pytest.raises(ValueError):
        l2_prediction_error(a, b, X)
    with pytest.raises(ValueError):
        l2_prediction_error(a, a, rng.normal(size=(10, 7)))


@pytest.mark.parametrize("scale", [1e100, 1e160])
def test_error_estimators_reject_overflow(scale):
    # at 1e100 every output and gradient is finite but the errors overflow;
    # at 1e160 the big net's own pass overflows
    rng = np.random.default_rng(14)
    small = _random_net(rng, 3, 4, 2)
    big = Network(tuple(scale * theta for theta in small.layers), small.activation)
    X = rng.normal(size=(20, 3))
    for error in (l2_prediction_error, l2_gradient_error):
        with pytest.raises(ValueError, match="overflow"):
            error(big, small, X)
        with pytest.raises(ValueError, match="overflow"):
            error(small, big, X)


def test_finite_diff_gradient_close_to_exact():
    rng = np.random.default_rng(5)
    worst = 0.0
    for L in (2, 3, 4):
        net = _random_net(rng, 8, 6, L)
        X = rng.uniform(-2.0, 2.0, size=(10, 8))
        batch = grad_input_batch(net, X)
        for x, row in zip(X, batch):
            approx = finite_diff_gradient(net, x, 1e-4)
            for exact in (grad_input(net, forward(net, x)), row):
                denom = max(float(np.max(np.abs(exact))), 1e-12)
                worst = max(worst, float(np.max(np.abs(approx - exact))) / denom)
    assert worst <= 1e-7


def test_finite_diff_laplacian_close_to_exact():
    rng = np.random.default_rng(6)
    worst = 0.0
    for L in (2, 3, 4):
        net = _random_net(rng, 8, 6, L)
        X = rng.uniform(-2.0, 2.0, size=(10, 8))
        batch = laplacian_batch(net, X)
        for x, row in zip(X, batch):
            approx = finite_diff_laplacian(net, x, 1e-3)
            for exact in (laplacian_input(net, forward(net, x)), row):
                worst = max(worst, abs(approx - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-7


def test_finite_diff_laplacian_second_order():
    """Central second differences converge at O(step^2): quartering the
    error when the step halves, up to roundoff."""
    rng = np.random.default_rng(7)
    net = _random_net(rng, 4, 6, 3, scale=0.8)
    x = rng.uniform(-1.0, 1.0, size=4)
    exact = laplacian_input(net, forward(net, x))
    err_coarse = abs(finite_diff_laplacian(net, x, 4e-2) - exact)
    err_fine = abs(finite_diff_laplacian(net, x, 2e-2) - exact)
    assert err_fine < err_coarse
    assert 2.5 < err_coarse / err_fine < 5.5


def test_finite_diff_grad_params_close_to_exact():
    rng = np.random.default_rng(8)
    for L in (2, 3):
        net = _random_net(rng, 7, 5, L)
        x = rng.uniform(-2.0, 2.0, size=7)
        exact = grad_params_batch(net, x[None])
        approx = evaluate._fd_grad_params(*evaluate._fd_args(net, x, 1e-4))
        for e, a in zip(exact, approx):
            scale = max(float(np.max(np.abs(e))), 1e-12)
            assert float(np.max(np.abs(a - e))) / scale <= 1e-7


def _fd_grad_params_full_stack(layers, activation, X, step):
    """Reference: the oracle built as it was before only the moved entries
    were evaluated again, applying the activation to every entry of each
    layer's whole perturbed preactivation stack (2 d_out d_in d_out values)."""
    acts = net_module._hidden_batch(layers, activation, X)[0]
    grads = []
    for l in range(1, len(layers)):
        theta = layers[l - 1]
        d_out, d_in = theta.shape[-2:]
        h_prev = acts[l - 1]
        z_base = h_prev @ theta.swapaxes(-1, -2)
        lead = z_base.shape[:-2]
        z = np.broadcast_to(z_base[..., np.newaxis, np.newaxis, :],
                            lead + (2, d_out, d_in, d_out)).copy()
        rows = np.arange(d_out)
        z[..., 0, rows, :, rows] += step * h_prev[..., 0, :]
        z[..., 1, rows, :, rows] -= step * h_prev[..., 0, :]
        a = net_module._act_terms(
            activation, z.reshape(lead + (2 * d_out * d_in, d_out)), 0, None, value=True)[0]
        outs = net_module._hidden_batch(layers[l:], activation, a)[0]
        outs = net_module._output(layers[l:], outs).reshape(lead + (2,) + theta.shape[-2:])
        grads.append((outs[..., 0, :, :] - outs[..., 1, :, :]) / (2.0 * step))
    h_last = acts[-1]
    base = net_module._output(layers, acts)[..., np.newaxis]
    grads.append(((base + step * h_last) - (base - step * h_last)) / (2.0 * step))
    return grads


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("d", [5, 100])
@pytest.mark.parametrize("stack", [None, 6])
def test_fd_grad_params_keeps_the_full_stack_bits(activation, L, d, stack):
    rng = np.random.default_rng(100 * L + d)
    lead = () if stack is None else (stack,)
    sizes = (d,) + (10,) * (L - 1) + (1,)
    layers = [rng.normal(0.0, np.sqrt(2.0 / sizes[l]), size=lead + (sizes[l + 1], sizes[l]))
              for l in range(L)]
    X = rng.normal(size=lead + (1, d))
    got = evaluate._fd_grad_params(layers, activation, X, 1e-4,
                                   evaluate._fd_workspace(sizes, stack or 1))
    want = _fd_grad_params_full_stack(layers, activation, X, 1e-4)
    assert [g.shape for g in got] == [w.shape for w in want] == [th.shape for th in layers]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _fd_concatenated(layers, activation, X, step, center):
    """Reference: the perturbed stack built by ``np.concatenate`` and evaluated
    by the full hidden-layer pass, as before the oracles took a workspace."""
    d = X.shape[-1]
    eye = np.eye(d) * step
    stack = np.concatenate([X + eye, X - eye] + [X] * center, axis=-2)
    outs = net_module._output(layers, net_module._hidden_batch(layers, activation, stack)[0])
    if center:
        return (outs[..., :d] - 2.0 * outs[..., -1:] + outs[..., d:2 * d]).sum(axis=-1) / (step * step)
    return (outs[..., :d] - outs[..., d:]) / (2.0 * step)


def _stacked_draw(rng, activation, L, d, draws):
    sizes = (d,) + (10,) * (L - 1) + (1,)
    layers = [rng.normal(0.0, np.sqrt(2.0 / sizes[l]), size=(draws, sizes[l + 1], sizes[l]))
              for l in range(L)]
    return sizes, layers, rng.normal(size=(draws, 1, d))


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("d", [5, 100])
def test_fd_oracles_in_a_reused_workspace_keep_the_concatenated_bits(activation, L, d):
    # one workspace across stacks of 6, 2 and 6 draws: stale contents must not leak
    rng = np.random.default_rng(10 * L + d)
    work = evaluate._fd_workspace(_stacked_draw(rng, activation, L, d, 1)[0], 6)
    for draws in (6, 2, 6):
        _, layers, X = _stacked_draw(rng, activation, L, d, draws)
        grad = evaluate._fd_gradient(layers, activation, X, 1e-4, work)
        lap = evaluate._fd_laplacian(layers, activation, X, 1e-3, work)
        params = evaluate._fd_grad_params(layers, activation, X, 1e-4, work)
        assert grad.tobytes() == _fd_concatenated(layers, activation, X, 1e-4, False).tobytes()
        assert lap.tobytes() == _fd_concatenated(layers, activation, X, 1e-3, True).tobytes()
        # the value pass in the workspace keeps the bits of the row-major hidden pass
        acts = net_module._hidden_batch(layers, activation, X)[0]
        assert evaluate._values(layers, activation, X, work).tobytes() == net_module._output(
            layers, acts).tobytes()
        for out in [grad, lap, *params]:
            assert not any(np.shares_memory(out, buf) for buf in work)


@pytest.mark.parametrize("oracle, step", [("_fd_gradient", 1e-4), ("_fd_laplacian", 1e-3),
                                          ("_fd_grad_params", 1e-4)])
def test_fd_oracles_allocate_little_beside_their_workspace(oracle, step):
    # a 6-draw, d=100, L=4 stack: 1.35-5.77 MB of temporaries before the workspace
    sizes, layers, X = _stacked_draw(np.random.default_rng(4), Activation.SOFTPLUS, 4, 100, 6)
    work = evaluate._fd_workspace(sizes, 6)
    fn = getattr(evaluate, oracle)
    fn(layers, Activation.SOFTPLUS, X, step, work)
    tracemalloc.start()
    try:
        fn(layers, Activation.SOFTPLUS, X, step, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 19


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("L", [2, 3, 4])
def test_passes_without_the_last_value_keep_their_bits(monkeypatch, activation, L):
    # grad f, lap f, the gradient error and f's Green terms never read the
    # last hidden layer's value, so they skip it; a reference pass that takes
    # every layer's value gives the same bits.
    rng = np.random.default_rng(40 + L)
    f, g = (_random_net(rng, 3, 6, L, activation) for _ in range(2))
    X = rng.normal(size=(50, 3))

    def outputs():
        out = [grad_input_batch(f, X), laplacian_batch(f, X), l2_gradient_error(f, g, X)]
        if activation is Activation.SOFTPLUS:
            out.append(green_identity_check(f, g, DataSpec(), 10 ** 4, np.random.default_rng(5)))
        return [np.asarray(o).tobytes() for o in out]

    values = []  # per hidden layer of every pass, row- or feature-major: whether it takes s(z)
    lean = net_module._act_terms

    def spy(kind, z, order, scratch, *, value):
        values.append(value)
        return lean(kind, z, order, scratch, value=value)

    def every_value(kind, z, order, scratch, *, value):
        return lean(kind, z, order, scratch, value=True)

    def outputs_with(terms):
        monkeypatch.setattr(net_module, "_act_terms", terms)
        return outputs()

    assert outputs_with(spy) == outputs_with(every_value)
    passes = [values[i:i + L - 1] for i in range(0, len(values), L - 1)]
    assert all(all(layer_values[:-1]) for layer_values in passes)
    skipped = [not layer_values[-1] for layer_values in passes]
    if activation is Activation.RELU:  # a zero Laplacian takes no pass; no Green check
        assert skipped == [True] * 3
    else:  # grad, lap, the error's two networks, then f and g per Green row block
        assert skipped[:4] == [True] * 4 and skipped[4:] == [True, False] * (len(skipped[4:]) // 2)
    monkeypatch.undo()
    value, delta, lap = net_module._input_derivatives(f.layers, activation, X, value=False,
                                                      signal=True, laplacian=False)
    assert value is None and lap is None and delta.shape == (50, 6) and delta.flags.c_contiguous


def test_quantities_at_the_inputs_take_one_route(monkeypatch):
    # Values, first-layer signals, gradients and Laplacians at the inputs all
    # come from the feature-major pass: none of these callers reaches the
    # row-major hidden pass or the finite-difference oracles' value pass.
    # Weight gradients and the oracles still do, so the spy is seen to work.
    # Every pass, on either layout, takes its hidden layers through the one
    # activation kernel.  The Green check contracts the feature-major pass's
    # caches itself; every other caller takes its rows from the row-major
    # wrapper, ``_input_derivatives``.
    assert not any(hasattr(net_module, name) for name in
                   ("_softplus_terms", "_relu_terms", "_act_value_in_place"))
    reached = []
    for module in (net_module, evaluate, bounds, cli, sparsity):
        for name in ("_hidden_batch", "_values", "_act_terms", "_input_derivatives",
                     "_input_pass"):
            if hasattr(module, name):
                def spy(*args, _inner=getattr(module, name), _name=name, **kwargs):
                    reached.append(_name)
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, spy)

    def routes(call):
        reached.clear()
        call()
        return set(reached)

    rng = np.random.default_rng(21)
    f, g = (_random_net(rng, 3, 6, 3) for _ in range(2))
    X = rng.normal(size=(20, 3))
    trace = forward(f, X[0])
    cfg = ExperimentConfig(d=5, s=2, h=4, n_grid=(20,), n_test=50, repeats=1, depths=(2,),
                           train=sparsity.TrainConfig(iterations=5))
    act = Activation.SOFTPLUS
    dataset, seed, _ = cli._trial_dataset(cfg, 2, act, 20, 0)
    arch = net_module.Architecture.mlp(5, 4, 2, act)

    def student():
        return sparsity.train(dataset, arch, cfg.train, cli._cell_data(cfg, 2, act)[1], seed)

    assert routes(student) == {"_hidden_batch", "_act_terms"}
    assert routes(lambda: grad_params_batch(f, X)) == {"_hidden_batch", "_act_terms"}
    assert routes(lambda: finite_diff_gradient(f, X[0], 1e-4)) == {"_values", "_act_terms"}
    model = student()
    cli._teacher_scores.cache_clear()  # so the teacher is scored under the spy
    for call in (
        lambda: forward(f, X[0]), lambda: forward_batch(f, X),
        lambda: grad_input(f, trace), lambda: grad_input_batch(f, X),
        lambda: laplacian_input(f, trace), lambda: laplacian_batch(f, X),
        lambda: l2_prediction_error(f, g, X), lambda: l2_gradient_error(f, g, X),
        lambda: bounds.verify_bounds(arch, 5.0, 1, 7, input_sup=1.0, slack=1e-9),
        lambda: cli._score(cfg, 2, act, (20, 0), seed, dataset, model),
    ):
        assert routes(call) == {"_input_derivatives", "_input_pass", "_act_terms"}
    green = routes(lambda: green_identity_check(f, g, DataSpec(), 10 ** 4,
                                                np.random.default_rng(3)))
    assert green == {"_input_pass", "_act_terms"}


def test_green_identity_zero_network():
    zero = Network(
        (np.zeros((3, 2)), np.zeros((1, 3))), Activation.SOFTPLUS
    )
    rng = np.random.default_rng(9)
    other = _random_net(rng, 2, 3, 2)
    chk = green_identity_check(zero, other, DataSpec(), 10**4, rng)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.rel_gap == 0.0


def test_green_identity_small_nets():
    rng = np.random.default_rng(10)
    for d in (1, 2):
        f = _random_net(rng, d, 5, 2, scale=0.6)
        g = _random_net(rng, d, 5, 2, scale=0.6)
        # 0.08 covers Monte-Carlo noise at this m; the 5% requirement is
        # enforced at m=10^6 in the acceptance suite
        chk = green_identity_check(f, g, DataSpec(), 200_000, np.random.default_rng(d))
        assert isinstance(chk, GreenCheck)
        assert chk.rel_gap <= 0.08
        # the identity is not symmetric in (f, g): the lhs integrand
        # grad f . grad g is shared, but the rhs swaps whose Laplacian
        # appears, so it holds separately for the swapped pair
        swapped = green_identity_check(g, f, DataSpec(), 200_000, np.random.default_rng(d))
        assert swapped.rel_gap <= 0.08
        assert swapped.lhs == chk.lhs
        assert swapped.rhs != chk.rhs


def test_green_identity_rel_gap_definition():
    rng = np.random.default_rng(11)
    f = _random_net(rng, 2, 4, 2)
    g = _random_net(rng, 2, 4, 2)
    chk = green_identity_check(f, g, DataSpec(), 10**4, np.random.default_rng(3))
    want = abs(chk.lhs - chk.rhs) / max(abs(chk.lhs), abs(chk.rhs), 1e-12)
    np.testing.assert_allclose(chk.rel_gap, want, rtol=1e-12)


def test_green_identity_chunking_consistent(monkeypatch):
    rng = np.random.default_rng(12)
    f = _random_net(rng, 2, 4, 2)
    g = _random_net(rng, 2, 4, 2)
    one = green_identity_check(f, g, DataSpec(), 50_000, np.random.default_rng(4))
    # per-row terms in blocks of 7 rows (4 hidden units, d = 2), each block's
    # sums joining the running sums: same draws, another grouping of the sums
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 7 * (2 + 4 * 4))
    assert net_module._row_blocks(f.layers, 20)[0] == slice(0, 7)
    many = green_identity_check(f, g, DataSpec(), 50_000, np.random.default_rng(4))
    np.testing.assert_allclose(one.lhs, many.lhs, rtol=1e-12)
    np.testing.assert_allclose(one.rhs, many.rhs, rtol=1e-12)


def test_green_identity_row_blocks_move_no_bit(monkeypatch):
    # the per-row terms the check sums (grad f, lap f + grad f . score, g and
    # grad g), contracted from the feature-major pass as ``_green_terms``
    # contracts them, are the same bits in 7-row blocks as in the default
    # blocks, so block size moves only the grouping of the sums
    rng = np.random.default_rng(14)
    f = _random_net(rng, 2, 4, 2)
    g = _random_net(rng, 2, 4, 2)
    dspec = DataSpec()
    X = sample_truncated_normal(dspec.mean, dspec.x_std, dspec.cutoff_factor,
                                np.random.default_rng(5), size=(2_000, 2))

    def row_terms():
        blocks = []
        for rows in net_module._row_blocks(f.layers, len(X)):
            XT = np.ascontiguousarray(X[rows].T)
            _, delta, lap = net_module._input_pass(f.layers, f.activation, XT, value=False,
                                                   signal=True, laplacian=True)
            gf = f.layers[0].T @ delta
            rhs_f = np.einsum("j,jm->m", f.layers[-1][0], lap) + np.einsum(
                "dm,dm->m", gf, -(XT - dspec.mean) / dspec.x_std ** 2)
            a, delta, _ = net_module._input_pass(g.layers, g.activation, XT, value=True,
                                                 signal=True, laplacian=False)
            blocks.append((gf, rhs_f, np.einsum("j,jm->m", g.layers[-1][0], a),
                           g.layers[0].T @ delta))
        return [np.concatenate(parts, axis=-1) for parts in zip(*blocks)]

    one = row_terms()
    assert len(net_module._row_blocks(f.layers, len(X))) == 1
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 7 * (2 + 4 * 4))
    assert net_module._row_blocks(f.layers, len(X))[0] == slice(0, 7)
    for whole, blocked in zip(one, row_terms()):
        assert whole.shape == blocked.shape and np.array_equal(whole, blocked)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_green_identity_memory_does_not_grow_with_m(d):
    # draws taken and summed one 2^17-double piece at a time: 2.5-3.1 MB at
    # m = 200k, where 100k-row chunks with chunk-sized buffers took 5.2-9.9 MB
    rng = np.random.default_rng(d)
    f, g = _small_green_net(d, rng), _small_green_net(d, rng)
    green_identity_check(f, g, DataSpec(), 10_000, np.random.default_rng(0))
    tracemalloc.start()
    try:
        green_identity_check(f, g, DataSpec(), 200_000, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def _serial_green(f, g, dspec, m, rng):
    """``(lhs, rhs)`` of the Green check from a serial loop: each piece drawn
    whole by ``sample_truncated_normal``, then evaluated."""
    lhs_sum = rhs_sum = 0.0
    d = f.input_dim
    for piece in net_module._pieces(m, d):
        X = sample_truncated_normal(dspec.mean, dspec.x_std, dspec.cutoff_factor, rng,
                                    size=(piece.stop - piece.start, d))
        for rows in net_module._row_blocks(f.layers, len(X)):
            dot, rhs = evaluate._green_terms(f, g, np.ascontiguousarray(X[rows].T), dspec.mean,
                                             1.0 / dspec.x_std ** 2)
            lhs_sum -= dot
            rhs_sum += rhs
    return lhs_sum / m, rhs_sum / m


@pytest.mark.parametrize("cutoff", [10.0, 1.0, 0.5])
def test_green_identity_prefetch_keeps_the_serial_bits(monkeypatch, cutoff):
    # at cutoff 1 about 32% of the proposals are redrawn, and 0.5 takes the
    # uniform proposals; 10^5 rows at d = 3 make three pieces
    rng = np.random.default_rng(15)
    f, g = _small_green_net(3, rng), _small_green_net(3, rng)
    dspec = DataSpec(x_std=1.3, mean=0.2, cutoff_factor=cutoff)
    assert len(net_module._pieces(100_000, 3)) == 3
    fills = []  # whether each piece's fill ran on the main thread
    propose = evaluate._propose

    def spy(out, *law):
        fills.append(threading.current_thread() is threading.main_thread())
        return propose(out, *law)

    monkeypatch.setattr(evaluate, "_propose", spy)
    ref_rng, check_rng = np.random.default_rng(16), np.random.default_rng(16)
    want = _serial_green(f, g, dspec, 100_000, ref_rng)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the GIL as often as they can
    try:
        got = green_identity_check(f, g, dspec, 100_000, check_rng)
    finally:
        sys.setswitchinterval(interval)
    assert (got.lhs, got.rhs) == want
    assert fills == [True, False, False]  # the first piece, then one per later piece
    # nothing is drawn ahead: the caller's generator goes on where the serial loop's does
    assert check_rng.random(3).tobytes() == ref_rng.random(3).tobytes()


def test_green_identity_prefetch_surfaces_a_failed_fill(monkeypatch):
    rng = np.random.default_rng(17)
    f, g = _small_green_net(2, rng), _small_green_net(2, rng)
    boom = RuntimeError("fill failed")
    propose = evaluate._propose
    calls = []

    def failing(out, *law):
        calls.append(threading.current_thread() is threading.main_thread())
        if len(calls) == 2:  # the first fill on the worker
            raise boom
        return propose(out, *law)

    monkeypatch.setattr(evaluate, "_propose", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        green_identity_check(f, g, DataSpec(), 200_000, np.random.default_rng(0))
    assert caught.value is boom
    assert calls == [True, False]
    assert threading.active_count() == threads


def test_green_identity_prefetch_calls_public_functions_on_the_main_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack for the process, so a
    # public function called from the fill thread would corrupt it
    threads = threading.active_count()
    off_main = []
    seen = set()

    def spied(fn, name):
        def call(*args, **kwargs):
            seen.add(name)
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return call

    modules = [module for modname, module in sys.modules.items()
               if modname.startswith("l1net.") and hasattr(module, "__all__")]
    public = {getattr(module, name): f"{module.__name__}.{name}" for module in modules
              for name in module.__all__ if inspect.isfunction(getattr(module, name))}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in public:
                monkeypatch.setattr(module, attr, spied(value, public[value]))
    cfg = ExperimentConfig(verify=VerifyConfig(
        trials=1, depths=(2,), dims=(1,), green_m=300_000, green_pairs=1, green_tol=1.0,
    ))
    run_verification(cfg)
    assert "l1net.evaluate.green_identity_check" in seen
    assert off_main == []
    assert threading.active_count() == threads


def test_green_identity_fills_later_pieces_on_one_worker(monkeypatch):
    # five pieces at d = 2: the first is filled on the caller's thread, the
    # other four on one worker thread, started once for the whole check
    rng = np.random.default_rng(18)
    f, g = _small_green_net(2, rng), _small_green_net(2, rng)
    assert len(net_module._pieces(300_000, 2)) == 5
    fills = []
    propose = evaluate._propose

    def spy(out, *law):
        fills.append(threading.current_thread())
        return propose(out, *law)

    monkeypatch.setattr(evaluate, "_propose", spy)
    threads = threading.active_count()
    green_identity_check(f, g, DataSpec(), 300_000, np.random.default_rng(0))
    assert len(fills) == 5 and fills[0] is threading.main_thread()
    assert all(t is fills[1] for t in fills[1:]) and fills[1] is not fills[0]
    assert threading.active_count() == threads


def test_green_identity_memory_does_not_grow_with_the_piece_count(monkeypatch):
    # m = 10^10 at d = 3 is 228,882 pieces; the sizes are worked out as the
    # loop goes, so stopping at the third fill leaves a peak of the two
    # buffers and one piece's terms, where a list of the pieces took 39.7 MB
    rng = np.random.default_rng(19)
    f, g = _small_green_net(3, rng), _small_green_net(3, rng)
    green_identity_check(f, g, DataSpec(), 100_000, np.random.default_rng(0))
    stop = RuntimeError("third fill")
    propose = evaluate._propose
    calls = []

    def spy(out, *law):
        calls.append(out.size)
        if len(calls) == 3:
            raise stop
        return propose(out, *law)

    monkeypatch.setattr(evaluate, "_propose", spy)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError) as caught:
            green_identity_check(f, g, DataSpec(), 10**10, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.value is stop and calls == [net_module._piece_len(3) * 3] * 3
    assert peak <= 4 * 2 ** 20


def test_green_identity_surfaces_an_evaluation_error_during_a_fill(monkeypatch):
    # the evaluation of the first piece fails while the second piece's fill
    # runs: the caller gets the same exception once the fill has finished
    rng = np.random.default_rng(20)
    f, g = _small_green_net(2, rng), _small_green_net(2, rng)
    boom = RuntimeError("evaluation failed")
    started, release = threading.Event(), threading.Event()
    propose, fills = evaluate._propose, []

    def fill(out, *law):
        if threading.current_thread() is not threading.main_thread():
            started.set()
            assert release.wait(10)
        propose(out, *law)
        fills.append(threading.current_thread() is threading.main_thread())

    def failing(*args):
        assert started.wait(10)
        release.set()
        raise boom

    monkeypatch.setattr(evaluate, "_propose", fill)
    monkeypatch.setattr(evaluate, "_green_terms", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        green_identity_check(f, g, DataSpec(), 200_000, np.random.default_rng(0))
    assert caught.value is boom
    assert fills == [True, False]  # the worker's fill ended before the caller saw the error
    assert threading.active_count() == threads


@pytest.mark.parametrize("factor", [0.5, -1.0])
def test_green_identity_catches_scaled_laplacian(monkeypatch, factor):
    # The d=3 pair that ``l1net verify`` draws, at 10^5 samples: gaps under
    # 1% when clean, about 10% at x0.5 and 40% at -1.  A x1.02 fault stays
    # inside the Monte-Carlo noise and is not caught.
    cfg = ExperimentConfig(verify=VerifyConfig(
        trials=1, depths=(2,), dims=(1,), green_m=100_000, green_pairs=1,
    ))

    def green_d3():
        rows, _ = run_verification(cfg)
        return next(row for row in rows if row.suite == "green_identity_d3")

    clean = green_d3()
    assert clean.violations == 0
    exact = evaluate._input_pass

    def scaled(*args, **kwargs):
        value, delta, lap = exact(*args, **kwargs)
        return value, delta, None if lap is None else factor * lap

    monkeypatch.setattr(evaluate, "_input_pass", scaled)
    faulty = green_d3()
    assert faulty.violations == faulty.trials == 2


@pytest.mark.parametrize("side", ["f", "g"])
def test_green_identity_overflow_raises(side):
    # g's weights x1e160 made NaN sums under RuntimeWarnings; f's first layer
    # x1e160 overflows f's Laplacian.  Either is one ValueError, no warning.
    rng = np.random.default_rng(22)
    f, g = _small_green_net(2, rng), _small_green_net(2, rng)
    if side == "f":
        f = Network((1e160 * f.layers[0],) + f.layers[1:], f.activation)
    else:
        g = Network(tuple(1e160 * theta for theta in g.layers), g.activation)
    with pytest.raises(ValueError, match="overflows float64"):
        green_identity_check(f, g, DataSpec(), 10 ** 4, np.random.default_rng(0))


@pytest.mark.parametrize("cutoff", [10.0, 1.0, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_green_terms_match_the_row_major_terms(L, d, cutoff):
    # _green_terms contracts the feature-major caches itself; its two sums
    # differ from the same sums over the row-major wrapper's per-row terms
    # only by rounding, bounded by the terms' absolute sum (the lhs may
    # cancel towards 0)
    rng = np.random.default_rng(30 + 10 * L + d)
    f, g = _random_net(rng, d, 6, L), _random_net(rng, d, 6, L)
    dspec = DataSpec(x_std=1.3, mean=0.2, cutoff_factor=cutoff)
    X = sample_truncated_normal(dspec.mean, dspec.x_std, cutoff, np.random.default_rng(23),
                                size=(3_000, d))
    inv_var = 1.0 / dspec.x_std ** 2
    _, delta, lap = net_module._input_derivatives(f.layers, f.activation, X, value=False,
                                                  signal=True, laplacian=True)
    gf = delta @ f.layers[0]
    g_out, delta = net_module._input_derivatives(g.layers, g.activation, X, value=True,
                                                 signal=True, laplacian=False)[:2]
    lhs_terms = np.einsum("md,md->m", gf, delta @ g.layers[0])
    rhs_terms = (lap + np.einsum("md,md->m", gf, -(X - dspec.mean) * inv_var)) * g_out
    dot, rhs = evaluate._green_terms(f, g, np.ascontiguousarray(X.T), dspec.mean, inv_var)
    assert abs(dot - lhs_terms.sum()) <= 1e-13 * np.abs(lhs_terms).sum()
    assert abs(rhs - rhs_terms.sum()) <= 1e-13 * np.abs(rhs_terms).sum()


def test_green_identity_input_validation():
    rng = np.random.default_rng(13)
    f = _random_net(rng, 2, 4, 2)
    g = _random_net(rng, 2, 4, 2)
    with pytest.raises(ValueError):
        green_identity_check(f, g, DataSpec(), 9_999, rng)
    relu_f = _random_net(rng, 2, 4, 2, activation=Activation.RELU)
    with pytest.raises(ValueError):
        green_identity_check(relu_f, g, DataSpec(), 10**4, rng)
    wrong_d = _random_net(rng, 3, 4, 2)
    with pytest.raises(ValueError):
        green_identity_check(wrong_d, g, DataSpec(), 10**4, rng)


def test_teacher_student_errors_shrink_with_identical_nets():
    """Sanity wiring of the estimators against the data generator."""
    spec = TeacherSpec(d=10, s=3, L=2, h=5, seed=30)
    teacher = make_teacher(spec)
    X = sample_truncated_normal(0.0, 1.0, 10.0, np.random.default_rng(31), size=(500, 10))
    assert l2_prediction_error(teacher, teacher, X) == 0.0
    assert l2_gradient_error(teacher, teacher, X) == 0.0
