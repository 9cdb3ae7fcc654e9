import math
import tracemalloc

import numpy as np
import pytest

from l1net import bounds
from l1net.bounds import (
    BoundInputs,
    SuiteRow,
    _tally,
    bound_report,
    c1,
    derivative_convergence_bound,
    divergence_bound,
    grad_l1_bound,
    lipschitz_param_bound,
    log_factor,
    model_convergence_bound,
    rademacher_bound,
    sup_model_bound,
    verify_bounds,
)
from l1net.cli import suites_to_csv
from l1net.net import Activation, Architecture

# Frozen 50-digit evaluations of the closed forms (mpmath, dps=50), quoted
# to 17 significant digits.  Set A sits in the clamped log-factor regime,
# set B does not.
ORACLE_A = {  # r=5, L=3, P=1110, n=400, R=10, b0=1, b1=10, x_inf_sq=100, e=1
    "lip_param": 108.25317547305483,
    "lip_l2pn": 108.25317547305483,
    "sup_model": 46.296296296296296,
    "grad_l1": 4.6296296296296296,
    "divergence": 21.701388888888889,
    "c1": 0.017129999143840335,
    "rademacher": 243.23799620065546,
    "model_convergence": 972.95198480262184,
    "derivative_convergence": 24151.655252781158,
}
ORACLE_B = {  # r=2.5, L=2, P=52, n=10000, R=3, b0=0.7, b1=4, x_inf_sq=9, e=2
    "lip_param": 10.606601717798213,
    "lip_l2pn": 10.606601717798213,
    "sup_model": 4.6875,
    "grad_l1": 1.5625,
    "divergence": 0.78125,
    "c1": 0.025153770556186844,
    "rademacher": 22.465428016021242,
    "model_convergence": 62.903198444859472,
    "derivative_convergence": 5347.3822193755552,
}
# single-bound spot values at hand-checkable inputs, same oracle
RADEMACHER_R1_L2_P100_N100 = 10.300636926188867  # x_inf_sq=1, R=1; clamped
DERIVATIVE_R1_L3_P100_N256 = 31.539840602252154  # b0=b1=1, R=1, x_inf_sq=1, e=2
C1_AT_P_E_SQUARED = 0.02946278254943948          # R=r=1, L=2, P=e^2 -> 1/(24 sqrt 2)


def test_lipschitz_param_spot_values():
    np.testing.assert_allclose(lipschitz_param_bound(1, 2, 1), math.sqrt(2), rtol=1e-15)
    np.testing.assert_allclose(lipschitz_param_bound(2, 2, 3), 6 * math.sqrt(2), rtol=1e-15)
    for L in (2, 3, 5):
        np.testing.assert_allclose(lipschitz_param_bound(L - 1, L, 1), math.sqrt(L), rtol=1e-15)
    with pytest.raises(ValueError):
        lipschitz_param_bound(1, 1, 1)


def test_lip_l2pn_matches_param_version_for_constant_rms():
    for r, L, c in ((1.0, 2, 2.0), (3.0, 4, 0.5), (1.0, 2, 0.0)):
        inputs = BoundInputs(r=r, L=L, P=10, n=5, R=1, b0=1, b1=1, x_inf_sq=c * c)
        assert bound_report(inputs, 1).lip_l2pn == lipschitz_param_bound(r, L, c)


def test_sup_model_spot_values():
    assert sup_model_bound(1, 2, 2) == 1.0
    assert sup_model_bound(1, 3, 3) == 1.0
    np.testing.assert_allclose(sup_model_bound(2, 1, 2), 0.5, rtol=1e-15)
    assert sup_model_bound(0, 1, 2) == 0.0


def test_grad_l1_spot_values():
    assert grad_l1_bound(2, 2) == 1.0
    assert grad_l1_bound(3, 3) == 1.0
    np.testing.assert_allclose(grad_l1_bound(1, 2), 0.25, rtol=1e-15)


def test_divergence_spot_values():
    np.testing.assert_allclose(divergence_bound(3, 3), 1.6875, rtol=1e-15)
    # L=2: the max over k in 2..L-1 is empty and taken as 1
    np.testing.assert_allclose(divergence_bound(2, 2), 0.5, rtol=1e-15)
    assert divergence_bound(0, 3) == 0.0


def test_c1_spot_values():
    # constructed identity: R chosen so c1 = 1
    for r, L, P in ((1.0, 2, 50), (2.5, 3, 1110)):
        R = 6 * r * L**1.5 * math.sqrt(2 * math.log(P))
        np.testing.assert_allclose(c1(R, r, L, P), 1.0, rtol=1e-15)
    assert c1(2, 1, 2, 100) == 2 * c1(1, 1, 2, 100)
    np.testing.assert_allclose(c1(1, 1, 2, math.e**2), C1_AT_P_E_SQUARED, rtol=1e-15)
    with pytest.raises(ValueError):
        c1(1, 1, 2, 1)
    with pytest.raises(ValueError):
        c1(1, 0, 2, 100)


def test_bound_inputs_validation():
    good = BoundInputs(r=1, L=2, P=10, n=5, R=1, b0=0, b1=0, x_inf_sq=0)
    assert good.L == 2
    with pytest.raises(ValueError):
        BoundInputs(r=0, L=2, P=10, n=5, R=1, b0=1, b1=1, x_inf_sq=1)
    with pytest.raises(ValueError):
        BoundInputs(r=1, L=1, P=10, n=5, R=1, b0=1, b1=1, x_inf_sq=1)
    with pytest.raises(ValueError):
        BoundInputs(r=1, L=2, P=1, n=5, R=1, b0=1, b1=1, x_inf_sq=1)
    with pytest.raises(ValueError):
        BoundInputs(r=1, L=2, P=10, n=0, R=1, b0=1, b1=1, x_inf_sq=1)
    with pytest.raises(ValueError):
        BoundInputs(r=1, L=2, P=10, n=5, R=-1, b0=1, b1=1, x_inf_sq=1)
    with pytest.raises(ValueError):
        BoundInputs(r=1, L=2, P=10, n=5, R=1, b0=-0.1, b1=1, x_inf_sq=1)


def test_log_factor_clamp():
    # c1 sqrt(n) < 1 here, so the raw factor is below 1 and must clamp
    small = BoundInputs(r=1, L=2, P=100, n=100, R=1, b0=1, b1=1, x_inf_sq=1)
    factor, clamped = log_factor(small)
    assert factor == 1.0 and clamped
    # large n pushes c1 sqrt(n) well above e, so no clamp
    big = BoundInputs(r=1, L=2, P=100, n=10**8, R=1, b0=1, b1=1, x_inf_sq=1)
    factor, clamped = log_factor(big)
    assert factor > 1.0 and not clamped


@pytest.mark.parametrize("R, r", [(5e-324, 1.0), (1.0, 1.7976931348623157e308)],
                         ids=["tiny_box", "largest_radius"])
def test_log_factor_clamps_before_the_log_when_c1_is_zero(R, r):
    # c1 underflows to 0, whose log is a math domain error
    inputs = BoundInputs(r=r, L=2, P=10, n=5, R=R, b0=1, b1=1, x_inf_sq=1)
    assert c1(inputs.R, inputs.r, inputs.L, inputs.P) == 0.0
    assert log_factor(inputs) == (1.0, True)


def test_log_factor_stays_finite_when_c1_overflows():
    # c1 = c1(r = 1) / r overflows at the smallest radius; its log does not
    tiny = BoundInputs(r=5e-324, L=2, P=10, n=20, R=10, b0=1, b1=10, x_inf_sq=4)
    assert c1(tiny.R, tiny.r, tiny.L, tiny.P) == math.inf
    factor, clamped = log_factor(tiny)
    want = math.log(c1(tiny.R, 1.0, tiny.L, tiny.P)) + math.log(tiny.n) / 2 - math.log(tiny.r)
    assert factor == 1.0 + want * 2.0 and not clamped
    report = bound_report(tiny, 1)
    assert report.rademacher == report.model_convergence == report.derivative_convergence == 0.0


def test_rademacher_frozen_value():
    inputs = BoundInputs(r=1, L=2, P=100, n=100, R=1, b0=1, b1=1, x_inf_sq=1)
    np.testing.assert_allclose(
        rademacher_bound(inputs), RADEMACHER_R1_L2_P100_N100, rtol=1e-13
    )


def test_rademacher_sqrt_n_scaling():
    # quadrupling n halves the bound once the log factor is pinned; use
    # x_inf_sq=0 so the factor is identically 1
    a = BoundInputs(r=2, L=3, P=500, n=100, R=1, b0=1, b1=1, x_inf_sq=0)
    b = BoundInputs(r=2, L=3, P=500, n=400, R=1, b0=1, b1=1, x_inf_sq=0)
    np.testing.assert_allclose(rademacher_bound(a) / rademacher_bound(b), 2.0, rtol=1e-12)
    expected = 24 * 2 * (2 / 2) ** 2 * math.sqrt(2 * 3 * math.log(500) / 100)
    np.testing.assert_allclose(rademacher_bound(a), expected, rtol=1e-13)


def test_model_bound_is_4_b0_rademacher():
    for inputs in (
        BoundInputs(r=5, L=3, P=1110, n=400, R=10, b0=1.0, b1=10, x_inf_sq=100),
        BoundInputs(r=2.5, L=2, P=52, n=10000, R=3, b0=0.7, b1=4, x_inf_sq=9),
    ):
        np.testing.assert_allclose(
            model_convergence_bound(inputs),
            4.0 * inputs.b0 * rademacher_bound(inputs),
            rtol=1e-15,
        )
    zero = BoundInputs(r=1, L=2, P=10, n=5, R=1, b0=0, b1=1, x_inf_sq=1)
    assert model_convergence_bound(zero) == 0.0


def test_model_bound_monotone_in_radius():
    values = [
        model_convergence_bound(
            BoundInputs(r=r, L=3, P=200, n=1000, R=2, b0=1, b1=1, x_inf_sq=4)
        )
        for r in np.linspace(0.1, 5.0, 25)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_derivative_frozen_value():
    inputs = BoundInputs(r=1, L=3, P=100, n=256, R=1, b0=1, b1=1, x_inf_sq=1)
    np.testing.assert_allclose(
        derivative_convergence_bound(inputs, b1_exponent=2),
        DERIVATIVE_R1_L3_P100_N256,
        rtol=1e-13,
    )


def test_derivative_exponent_variants():
    inputs = BoundInputs(r=1, L=2, P=100, n=100, R=1, b0=1, b1=0, x_inf_sq=1)
    assert derivative_convergence_bound(inputs, 1) == derivative_convergence_bound(inputs, 2)
    inputs = BoundInputs(r=1, L=2, P=100, n=100, R=1, b0=1, b1=3, x_inf_sq=1)
    assert derivative_convergence_bound(inputs, 2) > derivative_convergence_bound(inputs, 1)
    with pytest.raises(ValueError):
        derivative_convergence_bound(inputs, 3)


def test_derivative_quarter_rate():
    # multiplying n by 16 halves the bound when the log factor is pinned
    a = BoundInputs(r=1, L=3, P=100, n=100, R=1, b0=1, b1=1, x_inf_sq=0)
    b = BoundInputs(r=1, L=3, P=100, n=1600, R=1, b0=1, b1=1, x_inf_sq=0)
    np.testing.assert_allclose(
        derivative_convergence_bound(a, 1) / derivative_convergence_bound(b, 1),
        2.0,
        rtol=1e-12,
    )


def test_full_oracle_set_a():
    inputs = BoundInputs(r=5, L=3, P=1110, n=400, R=10, b0=1.0, b1=10, x_inf_sq=100)
    report = bound_report(inputs, b1_exponent=1)
    got = report.to_dict()
    assert got.pop("log_factor_clamped") is True
    for name, want in ORACLE_A.items():
        np.testing.assert_allclose(got[name], want, rtol=1e-13, err_msg=name)


def test_full_oracle_set_b():
    inputs = BoundInputs(r=2.5, L=2, P=52, n=10000, R=3, b0=0.7, b1=4, x_inf_sq=9)
    report = bound_report(inputs, b1_exponent=2)
    got = report.to_dict()
    assert got.pop("log_factor_clamped") is False
    for name, want in ORACLE_B.items():
        np.testing.assert_allclose(got[name], want, rtol=1e-13, err_msg=name)


def test_report_dict_keys():
    inputs = BoundInputs(r=1, L=2, P=10, n=5, R=1, b0=1, b1=1, x_inf_sq=1)
    keys = set(bound_report(inputs, 1).to_dict())
    assert keys == {
        "lip_param", "lip_l2pn", "sup_model", "grad_l1", "divergence",
        "c1", "rademacher", "model_convergence", "derivative_convergence",
        "log_factor_clamped",
    }


@pytest.mark.parametrize("r, L", [(1e3, 400), (1e6, 50), (1e8, 50)])
@pytest.mark.parametrize("b0", [1.0, 0.0])
def test_report_overflow_is_inf_not_an_error(r, L, b0):
    # (r/k)^(2k) overflows in the derivative bound at the first two points;
    # at the third every power overflows
    inputs = BoundInputs(r=r, L=L, P=10**6, n=100, R=10, b0=b0, b1=10, x_inf_sq=4)
    got = bound_report(inputs, 1).to_dict()
    values = [v for v in got.values() if not isinstance(v, bool)]
    assert not any(math.isnan(v) for v in values)
    assert got["derivative_convergence"] == math.inf
    if b0 == 0.0:
        assert got["model_convergence"] == 0.0
    if r == 1e8:
        for name in ("lip_param", "lip_l2pn", "sup_model", "grad_l1", "divergence",
                     "rademacher", "derivative_convergence"):
            assert got[name] == math.inf, name
        assert got["model_convergence"] == (0.0 if b0 == 0.0 else math.inf)


def test_verify_bounds_clean_audit():
    for act in (Activation.SOFTPLUS, Activation.RELU):
        arch = Architecture.mlp(20, 6, 3, act)
        rows = verify_bounds(arch, 4.0, 100, seed=5, input_sup=10.0, slack=1e-9)
        names = [row.suite for row in rows]
        assert names == ["lipschitz_param", "sup_model", "grad_l1", "divergence"]
        for row in rows:
            assert row.violations == 0
            assert row.trials == 100
            assert 0.0 <= row.worst_ratio <= 1.0 + 1e-9


def test_verify_bounds_catches_injected_bug(monkeypatch):
    exact = bounds.grad_l1_bound
    monkeypatch.setattr(bounds, "grad_l1_bound", lambda r, L: 0.5 * exact(r, L))
    arch = Architecture.mlp(20, 6, 3, Activation.SOFTPLUS)
    rows = verify_bounds(arch, 4.0, 200, seed=5, input_sup=10.0, slack=1e-9)
    by_name = {row.suite: row for row in rows}
    assert by_name["grad_l1"].violations > 0
    assert sum(row.violations for row in rows) == by_name["grad_l1"].violations


def test_verify_bounds_deterministic():
    arch = Architecture.mlp(10, 5, 2, Activation.SOFTPLUS)
    a = verify_bounds(arch, 3.0, 50, seed=9, input_sup=10.0, slack=1e-9)
    b = verify_bounds(arch, 3.0, 50, seed=9, input_sup=10.0, slack=1e-9)
    assert suites_to_csv(a) == suites_to_csv(b)
    assert suites_to_csv(a).splitlines()[0] == "suite,trials,violations,worst_ratio"


def test_verify_bounds_zero_radius():
    arch = Architecture.mlp(5, 4, 2, Activation.SOFTPLUS)
    for row in verify_bounds(arch, 0.0, 10, seed=1, input_sup=10.0, slack=1e-9):
        assert row.violations == 0
        assert row.worst_ratio == 0.0


@pytest.mark.parametrize("trials", [1, 31, 32, 33, 100])
def test_draw_blocks_spawn_the_streams_of_one_spawn(trials):
    # spawn goes on counting its children, so streams spawned a block at a
    # time are those of one spawn(trials) up front
    streams = np.random.SeedSequence(7).spawn(trials)
    want = [(index, np.random.default_rng(s).random(2).tolist()) for index, s in enumerate(streams)]
    blocks = list(bounds._draw_blocks(7, trials, lambda index, rng: (index, rng.random(2).tolist())))
    assert [len(block) for block in blocks] == [
        min(bounds._DRAW_BLOCK, trials - start) for start in range(0, trials, bounds._DRAW_BLOCK)]
    assert [item for block in blocks for item in block] == want


def test_draw_blocks_memory_does_not_grow_with_trials():
    # spawn(10^5) up front took 37.6 MB and 2.4 s before the first block
    blocks = bounds._draw_blocks(7, 10 ** 5, lambda index, rng: index)
    tracemalloc.start()
    try:
        first = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == list(range(bounds._DRAW_BLOCK))
    assert peak <= 2 ** 20


def test_tally_counts_a_nan_ratio_as_a_violation():
    # NaN > 1 is false and max() skips it, so a NaN row would read clean
    (row,) = _tally({"s": [math.nan, math.nan]}, 0.0)
    assert row.violations == 2 and math.isnan(row.worst_ratio)
    (row,) = _tally({"s": [0.5, math.nan, 3.0]}, 0.0)
    assert row.violations == 2 and math.isnan(row.worst_ratio)
    assert _tally({"s": [0.5, 1.0 + 1e-10]}, 1e-9) == [SuiteRow("s", 2, 0, 1.0 + 1e-10)]
    assert _tally({"s": []}, 0.0) == [SuiteRow("s", 0, 0, 0.0)]
