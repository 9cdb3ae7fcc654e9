import numpy as np
import pytest

from l1net.net import Activation, Architecture, Network, forward_batch
from l1net.sparsity import (
    FlatParams,
    TrainConfig,
    TrainingDivergenceError,
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
    assert isinstance(flat, FlatParams)
    assert flat.values.size == 16
    back = unflatten(flat, Activation.SOFTPLUS)
    for a, b in zip(net.layers, back.layers):
        np.testing.assert_array_equal(a, b)


def test_flat_params_size_validation():
    with pytest.raises(ValueError):
        FlatParams(np.zeros(5), ((4, 3), (1, 4)))


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


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(radius=0.0)
    with pytest.raises(ValueError):
        TrainConfig(radius=1.0, step_size=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(radius=1.0, iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(radius=1.0, batch_size=0)
    cfg = TrainConfig(radius=2.0, batch_size="full")
    assert cfg.batch_size == "full"


def _toy_problem(seed=0, d=2, n=200, noise=0.0):
    spec = TeacherSpec(d=d, s=d, L=2, h=3, seed=seed)
    teacher = make_teacher(spec)
    ds = synthesize(
        teacher, n, DataSpec(noise_std=noise), np.random.default_rng(seed + 1)
    )
    return teacher, ds


def test_train_stationary_at_teacher():
    """Noiseless data generated by the init network: gradient is zero, so
    training returns the init bit for bit."""
    teacher, ds = _toy_problem(seed=3)
    r = param_l1_norm(teacher) * 1.5
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    out = train(ds, arch, TrainConfig(radius=r, iterations=50), init=teacher)
    for a, b in zip(out.layers, teacher.layers):
        np.testing.assert_array_equal(a, b)


def test_train_decreases_loss():
    teacher, ds = _toy_problem(seed=5, noise=0.05)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(radius=1.1 * param_l1_norm(teacher), iterations=300, seed=9)
    shapes = flatten(teacher).shape_spec
    losses = []

    def full_data_loss(iteration, flat):
        model = unflatten(FlatParams(flat, shapes), arch.activation)
        resid = forward_batch(model, ds.X) - ds.y
        losses.append(float(resid @ resid) / ds.n)

    train(ds, arch, cfg, on_step=full_data_loss)
    assert len(losses) == 300
    assert losses[-1] < losses[0]


def test_train_feasible_after_every_iteration():
    teacher, ds = _toy_problem(seed=11, noise=0.1)
    r = 0.8 * param_l1_norm(teacher)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)

    norms = []

    def snoop(iteration, flat):
        norms.append(float(np.abs(flat).sum()))

    out = train(ds, arch, TrainConfig(radius=r, iterations=100, seed=1), on_step=snoop)
    assert len(norms) == 100
    assert all(l1 <= r * (1.0 + 1e-9) for l1 in norms)
    assert param_l1_norm(out) <= r * (1.0 + 1e-9)


def test_train_deterministic():
    teacher, ds = _toy_problem(seed=13, noise=0.1)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(radius=2.0, iterations=120, batch_size=32, seed=77)
    a = train(ds, arch, cfg)
    b = train(ds, arch, cfg)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)


def test_train_minibatch_runs_and_stays_feasible():
    teacher, ds = _toy_problem(seed=17, n=64, noise=0.1)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    out = train(ds, arch, TrainConfig(radius=1.0, iterations=200, batch_size=16, seed=2))
    assert param_l1_norm(out) <= 1.0 + 1e-9


def test_train_divergence_raises_with_iteration():
    """A huge ball plus a huge step overflows the forward pass; the trainer
    must report the iteration instead of returning garbage."""
    teacher, ds = _toy_problem(seed=23, noise=0.1)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(radius=1e200, step_size=1e180, iterations=50, seed=4)
    with pytest.raises(TrainingDivergenceError) as info:
        train(ds, arch, cfg)
    assert info.value.iteration >= 1


def test_trained_student_beats_init_on_train_data():
    teacher, ds = _toy_problem(seed=29, n=100, noise=0.05)
    arch = Architecture.mlp(2, 3, 2, Activation.SOFTPLUS)
    cfg = TrainConfig(radius=1.1 * param_l1_norm(teacher), iterations=500, seed=5)
    student = train(ds, arch, cfg)
    resid = forward_batch(student, ds.X) - ds.y
    assert float(resid @ resid) / len(ds.y) < 0.05
