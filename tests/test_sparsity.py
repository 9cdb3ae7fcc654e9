import dataclasses

import numpy as np
import pytest

from l1net import sparsity
from l1net.net import (
    Activation,
    Architecture,
    Network,
    _act_terms,
    _grad_params_batch,
    _hidden_batch,
    _output,
    forward_batch,
)
from l1net.sparsity import (
    TrainConfig,
    TrainingDivergenceError,
    _train_rows,
    flatten,
    param_l1_norm,
    project_l1,
    train,
    unflatten,
)
from l1net.datagen import DataSpec, TeacherSpec, make_teacher, synthesize


def kkt_projection(v, r):
    """Exhaustive support-size scan for the L1-ball projection.

    For every candidate support size k the threshold is
    tau_k = (sum of k largest magnitudes - r) / k; the unique valid one
    satisfies u_k > tau_k >= u_{k+1}.  Deliberately O(n^2)-ish and written
    independently of the production sort/cumsum route.
    """
    mag = np.abs(v)
    if mag.sum() <= r:
        return v.copy()
    u = np.sort(mag)[::-1]
    n = u.size
    for k in range(1, n + 1):
        tau = (u[:k].sum() - r) / k
        upper = u[k - 1]
        lower = u[k] if k < n else 0.0
        if tau < upper + 1e-15 and tau >= lower - 1e-15 and tau >= 0.0:
            return np.sign(v) * np.maximum(mag - tau, 0.0)
    raise AssertionError("no valid KKT support size found")


def test_flatten_round_trip():
    rng = np.random.default_rng(0)
    layers = (rng.normal(size=(4, 3)), rng.normal(size=(1, 4)))
    net = Network(layers, Activation.SOFTPLUS)
    flat = flatten(net)
    assert flat.shape == (16,)
    back = unflatten(flat, Architecture((3, 4, 1), Activation.SOFTPLUS))
    assert back.activation is Activation.SOFTPLUS
    for a, b in zip(net.layers, back.layers):
        np.testing.assert_array_equal(a, b)


def test_flat_params_size_validation():
    arch = Architecture((3, 4, 1), Activation.SOFTPLUS)
    for values in (np.zeros(5), np.zeros(17), np.zeros((1, 16))):
        with pytest.raises(ValueError):
            unflatten(values, arch)


def test_param_l1_norm():
    net = Network(
        (np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([[3.0, -0.5]])),
        Activation.RELU,
    )
    assert param_l1_norm(net) == 7.0


def test_projection_matches_kkt_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        dim = rng.integers(1, 11)
        v = rng.normal(0.0, rng.uniform(0.1, 3.0), size=dim)
        scale = np.abs(v).sum()
        r = rng.uniform(0.05, 1.3) * max(scale, 0.1)
        got = project_l1(v, r)
        want = kkt_projection(v, r)
        worst = max(worst, float(np.linalg.norm(got - want)))
    assert worst <= 1e-8


def test_projection_feasible_input_returned_unchanged():
    v = np.array([0.3, -0.2, 0.1])
    out = project_l1(v, 1.0)
    np.testing.assert_array_equal(out, v)
    assert out is not v  # a copy, not an alias


def test_projection_idempotent_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(0.0, 2.0, size=rng.integers(2, 40))
        r = rng.uniform(0.1, 0.9) * np.abs(v).sum()
        once = project_l1(v, r)
        twice = project_l1(once, r)
        np.testing.assert_array_equal(once, twice)


def test_projection_feasibility():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.normal(0.0, 5.0, size=rng.integers(1, 50))
        r = rng.uniform(0.01, 2.0)
        out = project_l1(v, r)
        assert np.abs(out).sum() <= r * (1.0 + 1e-12)


def test_projection_with_tied_magnitudes():
    v = np.array([1.0, -1.0, 1.0, -1.0])
    out = project_l1(v, 2.0)
    np.testing.assert_allclose(out, [0.5, -0.5, 0.5, -0.5], rtol=1e-15)
    np.testing.assert_allclose(np.abs(out).sum(), 2.0, rtol=1e-15)


def test_projection_of_matrix_matches_each_row():
    rng = np.random.default_rng(10)
    for _ in range(200):
        P = int(rng.integers(1, 40))
        V = rng.normal(0.0, rng.uniform(0.1, 5.0), size=(6, P))
        V[1] = np.round(V[1])  # tied magnitudes
        V[2] *= 1e-3  # inside the ball for most radii below
        norm = float(np.abs(V[0]).sum())
        for r in (rng.uniform(0.05, 1.5) * max(norm, 0.1), norm * (1 + 1e-13),
                  norm * (1 - 1e-13), norm * (1 - 1e-11), max(norm, 1e-3)):
            rows = project_l1(V, r)
            np.testing.assert_array_equal(project_l1(rows, r), rows)
            for v, got in zip(V, rows):
                np.testing.assert_array_equal(got, project_l1(v, r))
                # criterion 3: the KKT oracle, feasibility, idempotence
                assert np.linalg.norm(got - kkt_projection(v, r)) <= 1e-8
                assert np.abs(got).sum() <= r * (1.0 + 1e-12)
                np.testing.assert_array_equal(project_l1(got, r), got)
    # A radius below an ulp of the largest entry rounds every threshold
    # candidate away; the result must still lie in the ball.
    for v in ([1e200, 3.0, -2.0], [1e300, 1e300, -1e300]):
        assert np.abs(project_l1(np.array([v]), 1.0)).sum() <= 1.0


def test_projection_onto_radius_zero_is_the_origin():
    out = project_l1(np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]]), 0.0)
    assert not out.any()
    with pytest.raises(ValueError, match="radius"):
        project_l1(np.ones(3), -1.0)


@pytest.mark.parametrize("inside", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_nonfinite_entries(bad, inside):
    v = np.array([0.1, -0.2, 0.3, 0.05]) * (1.0 if inside else 10.0)
    v[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        project_l1(v, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        project_l1(np.stack([np.full(4, 0.01), v]), 1.0)


def test_projection_of_finite_vector_with_overflowing_norm():
    # |v|_1 overflows to inf, but every entry is finite: project, neither
    # raise nor warn
    v = np.array([1e308, 1e308, -1e308])
    out = project_l1(v, 1.0)
    assert np.isfinite(out).all() and np.abs(out).sum() <= 1.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(step_size=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)


@pytest.mark.parametrize("radius, seed", [
    (0.0, 0), (-1.0, 0), (float("inf"), 0), (float("nan"), 0), (1.0, -1),
])
def test_train_rejects_bad_radius_and_seed(radius, seed):
    _, ds = _toy_problem()
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    with pytest.raises(ValueError, match="radius|seed"):
        train(ds, arch, TrainConfig(iterations=1), radius, seed)


def _toy_problem(seed=0, d=2, n=200, noise=0.0):
    spec = TeacherSpec(d=d, s=d, L=2, h=3, seed=seed)
    teacher = make_teacher(spec)
    ds = synthesize(
        teacher, n, DataSpec(noise_std=noise), np.random.default_rng(seed + 1)
    )
    return teacher, ds


def test_train_stationary_at_teacher(monkeypatch):
    """Noiseless data generated by the init network: gradient is zero, so
    training returns the init bit for bit."""
    teacher, ds = _toy_problem(seed=3)
    r = param_l1_norm(teacher) * 1.5
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    monkeypatch.setattr(sparsity, "_init_flat", lambda arch, radius, rng: flatten(teacher))
    out = train(ds, arch, TrainConfig(iterations=50), r, 0)
    for a, b in zip(out.layers, teacher.layers):
        np.testing.assert_array_equal(a, b)


def _record_iterates(monkeypatch):
    """Spy on ``sparsity.project_l1``: the list it returns gets a copy of
    each training step's projected iterate (the one-row stack of a
    :func:`train` call).  The start's projection is 1-D and not recorded."""
    iterates = []

    def spy(v, r):
        out = project_l1(v, r)
        if out.ndim == 2:
            iterates.append(out[0].copy())
        return out

    monkeypatch.setattr(sparsity, "project_l1", spy)
    return iterates


def test_train_decreases_loss(monkeypatch):
    teacher, ds = _toy_problem(seed=5, noise=0.05)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(iterations=300)
    iterates = _record_iterates(monkeypatch)
    train(ds, arch, cfg, 1.1 * param_l1_norm(teacher), 9)
    losses = []
    for flat in iterates:
        resid = forward_batch(unflatten(flat, arch), ds.X) - ds.y
        losses.append(float(resid @ resid) / ds.n)
    assert len(losses) == 300
    assert losses[-1] < losses[0]


def test_train_feasible_after_every_iteration(monkeypatch):
    teacher, ds = _toy_problem(seed=11, noise=0.1)
    r = 0.8 * param_l1_norm(teacher)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    iterates = _record_iterates(monkeypatch)
    out = train(ds, arch, TrainConfig(iterations=100), r, 1)
    norms = [float(np.abs(flat).sum()) for flat in iterates]
    assert len(norms) == 100
    assert all(l1 <= r * (1.0 + 1e-9) for l1 in norms)
    assert param_l1_norm(out) <= r * (1.0 + 1e-9)


def test_train_deterministic():
    teacher, ds = _toy_problem(seed=13, noise=0.1)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(iterations=120)
    a = train(ds, arch, cfg, 2.0, 77)
    b = train(ds, arch, cfg, 2.0, 77)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)


def test_train_divergence_raises_with_iteration():
    """A huge ball plus a huge step overflows the forward pass; the trainer
    must report the iteration instead of returning garbage."""
    teacher, ds = _toy_problem(seed=23, noise=0.1)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(step_size=1e180, iterations=50)
    with pytest.raises(TrainingDivergenceError) as info:
        train(ds, arch, cfg, 1e200, 4)
    assert info.value.iteration >= 1


def test_trained_student_beats_init_on_train_data():
    teacher, ds = _toy_problem(seed=29, n=100, noise=0.05)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    student = train(ds, arch, TrainConfig(iterations=500), 1.1 * param_l1_norm(teacher), 5)
    resid = forward_batch(student, ds.X) - ds.y
    assert float(resid @ resid) / len(ds.y) < 0.05


def _reference_init(arch, radius, rng):
    """The initial iterate drawn layer by layer: N(0, 2/h) per layer,
    joined by ``np.concatenate``, rescaled into the ball and projected."""
    sizes = arch.layer_sizes
    std = np.sqrt(2.0 / sizes[1])
    flat = np.concatenate([
        rng.normal(0.0, std, size=(sizes[l + 1], sizes[l])).ravel()
        for l in range(arch.depth)
    ])
    total = np.abs(flat).sum()
    if total > radius:
        flat *= radius / total
    return project_l1(flat, radius)


def _reference_train(dataset, arch, cfg, radius, seed):
    """PGD written plainly: a layer-by-layer init, then per step fresh
    layer views, a gradient list joined by ``np.concatenate``,
    ``flat - step_size * grad``, then the projection.  Returns the final
    parameter vector."""
    X, y = dataset.X, dataset.y
    n = X.shape[0]
    shapes = [(arch.layer_sizes[l + 1], arch.layer_sizes[l]) for l in range(arch.depth)]
    cuts = np.cumsum([rows * cols for rows, cols in shapes])[:-1]
    flat = _reference_init(arch, radius, np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for it in range(1, cfg.iterations + 1):
            layers = [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)]
            acts, fds = _hidden_batch(layers, arch.activation, X)
            resid = _output(layers, acts) - y
            grads = _grad_params_batch(layers, acts, fds, (2.0 / n) * resid, out=None)
            grad = np.concatenate([g.ravel() for g in grads])
            stepped = flat - cfg.step_size * grad
            if not np.isfinite(float(resid @ resid) / n) or not np.isfinite(stepped).all():
                raise TrainingDivergenceError(it)
            if np.spacing(np.abs(stepped).max()) > radius:
                raise TrainingDivergenceError(it)  # r is below an ulp of the step
            flat = project_l1(stepped, radius)
    return flat


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("activation", [Activation.SOFTPLUS, Activation.RELU])
def test_train_matches_reference_loop_bitwise(activation, depth):
    teacher, ds = _toy_problem(seed=31, d=6, n=50, noise=0.1)
    arch = Architecture.mlp(6, 4, depth, activation)
    cfg = TrainConfig(step_size=0.1, iterations=80)
    r = 0.6 * param_l1_norm(teacher)
    want = _reference_train(ds, arch, cfg, r, 3)
    got = flatten(train(ds, arch, cfg, r, 3))
    assert got.tobytes() == want.tobytes()

    # Steps that overflow a few iterations in diverge at the same iteration
    wild = TrainConfig(step_size=1e100, iterations=50)
    with pytest.raises(TrainingDivergenceError) as want_info:
        _reference_train(ds, arch, wild, 1e200, 3)
    with pytest.raises(TrainingDivergenceError) as got_info:
        train(ds, arch, wild, 1e200, 3)
    assert got_info.value.iteration == want_info.value.iteration


def _ragged_block(activation, depth, radius):
    """Four trials at the sweep's d = 100 and h = 10 with n = 50, 53, 70, 99
    (every n mod 4), each with its own data and seed, as (datasets, arch,
    cfg, radius, seeds).  Here the first-layer product of a padded stack
    differs from the per-trial one in the last bits."""
    teacher = make_teacher(TeacherSpec(d=100, s=5, L=2, h=10, seed=3))
    datasets = [synthesize(teacher, n, DataSpec(noise_std=0.1), np.random.default_rng(40 + i))
                for i, n in enumerate((50, 53, 70, 99))]
    arch = Architecture.mlp(100, 10, depth, activation)
    cfg = TrainConfig(iterations=40)
    return datasets, arch, cfg, radius or param_l1_norm(teacher), [11, 12, 13, 14]


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("activation", [Activation.SOFTPLUS, Activation.RELU])
def test_train_rows_match_reference_on_a_ragged_block(activation, depth):
    datasets, arch, cfg, r, seeds = _ragged_block(activation, depth, None)
    models = _train_rows(datasets, arch, cfg, r, seeds)
    for dataset, seed, model in zip(datasets, seeds, models):
        want = _reference_train(dataset, arch, cfg, r, seed)
        assert flatten(model).tobytes() == want.tobytes()


def test_diverged_row_leaves_the_rest_of_its_block_serial(monkeypatch):
    datasets, arch, cfg, r, seeds = _ragged_block(Activation.SOFTPLUS, 2, 1e200)
    # Labels of order 1e100 make row 1's steps grow until they overflow
    datasets[1] = dataclasses.replace(datasets[1], y=1e100 * datasets[1].y)
    stacked = []  # rows in each step's first-layer activation pass

    def act_terms(kind, z, order, scratch, *, value):
        stacked.append(z.shape[0])
        return _act_terms(kind, z, order, scratch, value=value)

    monkeypatch.setattr(sparsity, "_act_terms", act_terms)
    models = _train_rows(datasets, arch, cfg, r, seeds)
    for i, (dataset, seed, model) in enumerate(zip(datasets, seeds, models)):
        if i == 1:
            with pytest.raises(TrainingDivergenceError) as info:
                _reference_train(dataset, arch, cfg, r, seed)
            assert isinstance(model, TrainingDivergenceError)
            assert model.iteration == info.value.iteration > 1
            # from the step after it froze, the row is no longer computed
            assert stacked == [4] * model.iteration + [3] * (40 - model.iteration)
        else:
            want = _reference_train(dataset, arch, cfg, r, seed)
            assert flatten(model).tobytes() == want.tobytes()
