import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_forms

from dmft_lab.model import ModelInstance, ModelParams, component_rng, sample_instance
from dmft_lab.priors import (
    GaussianFixed,
    GaussianMeanMixture,
    GaussianLocation,
    PriorFamily,
    PriorSpec,
    Theta0Spec,
)
from dmft_lab.simulator import (
    DivergenceError,
    evolve,
    resample_to_common_size,
    response_traces,
    simulate,
    wasserstein2_1d,
)


def manual_instance(X, y=None, theta0=None, theta_star=None, eps=None):
    n, d = X.shape
    theta_star = np.zeros(d) if theta_star is None else theta_star
    eps = np.zeros(n) if eps is None else eps
    y = X @ theta_star + eps if y is None else y
    theta0 = np.zeros(d) if theta0 is None else theta0
    return ModelInstance(X=X, theta_star=theta_star, eps=eps, y=y, theta0=theta0)


class FlatDrift(PriorFamily):
    """s = 0, the flat improper prior: the chain keeps only likelihood and noise."""

    def drift_s(self, theta, alpha=None):
        return np.zeros_like(theta)


def brownian_increments(seed, params):
    """The chain's sqrt(2) (b^{t+1} - b^t), one row per step, from its own stream."""
    rng = component_rng(seed, 201)
    return [np.sqrt(2.0) * rng.normal(0.0, np.sqrt(params.gamma_step), size=params.d) for _ in range(params.n_steps)]


def test_pure_brownian_path_exact():
    # beta = 0, s = 0: theta^t - theta^0 is exactly sqrt(2) * b^t.
    params = ModelParams(n=3, d=4, sigma2=1.0, beta=0.0, gamma_step=0.1, horizon=1.0)
    inst = manual_instance(np.zeros((3, 4)), theta0=np.ones(4))
    traj = evolve(inst, PriorSpec(FlatDrift()), params, seed=9, retain_every=1)
    theta = inst.theta0.copy()
    for t, incr in enumerate(brownian_increments(9, params)):
        theta = theta + params.gamma_step * 0.0 + incr
        assert np.array_equal(traj.theta_path[t + 1], theta)


def test_one_step_contraction_identity_design():
    # X = I, y = 0, lam = 1: the drift is -2 theta, so gamma = 1/4 halves theta.
    params = ModelParams(n=2, d=2, sigma2=1.0, beta=1.0, gamma_step=0.25, horizon=0.25)
    inst = manual_instance(np.eye(2), theta0=np.ones(2))
    traj = evolve(inst, PriorSpec(GaussianFixed(1.0)), params, seed=0, retain_every=1)
    (incr,) = brownian_increments(0, params)
    assert np.allclose(traj.theta_path[1], 0.5 + incr, rtol=0.0, atol=1e-15)


def test_two_step_scalar_contraction():
    # X = 1, y = 0, s = 0: each step multiplies theta by 1 - gamma = 0.9.
    params = ModelParams(n=1, d=1, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=0.2)
    inst = manual_instance(np.ones((1, 1)), theta0=np.ones(1))
    traj = evolve(inst, PriorSpec(FlatDrift()), params, seed=0, retain_every=1)
    b1, b2 = brownian_increments(0, params)
    assert traj.theta_path[2, 0] == pytest.approx(0.81 + 0.9 * b1[0] + b2[0], abs=1e-15)


def test_evolve_is_deterministic():
    params = ModelParams(n=12, d=6, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=3)
    a = evolve(inst, prior, params, seed=21)
    b = evolve(inst, prior, params, seed=21)
    assert np.array_equal(a.theta_path[0], inst.theta0)  # row 0 is theta^0
    assert np.all(np.isfinite(a.alpha_path))
    assert np.array_equal(a.theta_path, b.theta_path)
    c = evolve(inst, prior, params, seed=22)
    assert not np.array_equal(a.theta_path, c.theta_path)


def test_divergence_guard_reports_step():
    params = ModelParams(n=4, d=4, sigma2=1.0, beta=1.0, gamma_step=10.0, horizon=100.0)
    inst = manual_instance(np.eye(4) * 5.0, theta0=np.ones(4))
    with pytest.raises(DivergenceError):
        evolve(inst, PriorSpec(GaussianFixed(1.0)), params, seed=0)


def test_wide_prior_is_not_mistaken_for_divergence():
    # theta_star RMS 1e7 with a stable step: the guard is relative to the run's scale.
    params = ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.75)
    table, _ = simulate(params, PriorSpec(GaussianFixed(1e-14)), seeds=[1], retain_every=1)
    diag = np.diag(table.c_theta)
    assert np.all(np.isfinite(diag[1:])) and 1e13 < diag[-1] < 1e15


def test_alpha_update_single_step():
    # alpha^1 = alpha^0 + gamma * mean((theta^0 - alpha^0)/scale^2).
    params = ModelParams(n=2, d=3, sigma2=1.0, beta=0.0, gamma_step=0.2, horizon=0.2)
    theta0 = np.array([1.0, 2.0, 3.0])
    inst = manual_instance(np.zeros((2, 3)), theta0=theta0)
    prior = PriorSpec(GaussianLocation(1.0), alpha=[0.5], alpha_star=[0.5])
    traj = evolve(inst, prior, params, seed=0, retain_every=1)
    assert traj.alpha_path[1, 0] == pytest.approx(0.5 + 0.2 * (2.0 - 0.5), abs=1e-14)


def test_residual_path_is_the_residual_at_retained_steps():
    params = ModelParams(n=40, d=20, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(GaussianLocation(1.0), alpha=[0.0], alpha_star=[1.0])
    inst = sample_instance(params, prior, seed=5)
    traj = evolve(inst, prior, params, seed=5, retain_every=2)
    # One GEMM against a GEMV per step: equal up to the order of the sums.
    expected = (inst.X @ traj.theta_path.T - inst.y[:, None]).T
    np.testing.assert_allclose(traj.residual_path, expected, rtol=1e-12, atol=1e-12)


def test_retain_grid_must_divide():
    params = ModelParams(n=2, d=2, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    inst = manual_instance(np.eye(2))
    with pytest.raises(ValueError):
        evolve(inst, PriorSpec(GaussianFixed(1.0)), params, seed=0, retain_every=3)


# ------------------------------------------------------------------ kernels


def test_initial_second_moment_lln():
    params = ModelParams(n=100, d=10000, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=0.1)
    prior = PriorSpec(GaussianFixed(1.0), theta0=Theta0Spec("prior"))  # second moment 1/lam = 1
    table, _ = simulate(params, prior, [17], retain_every=1)
    assert abs(table.c_theta[0, 0] - 1.0) < 3 * np.sqrt(2.0) / np.sqrt(params.d)
    assert all(np.isnan(se).all() for se in table.stderr.values())  # one replica has no spread


def test_star_initialization_residual_kernel():
    params = ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=0.1)
    prior = PriorSpec(GaussianFixed(1.0), theta0=Theta0Spec("star"))
    table, _ = simulate(params, prior, [23], retain_every=1)
    inst = sample_instance(params, prior, seed=23)  # the replica's instance, for its noise
    exact = params.delta * params.beta**2 / params.n * (inst.eps @ inst.eps)
    assert table.c_eta[0, 0] == pytest.approx(exact, rel=1e-12)
    assert abs(table.c_eta[0, 0] - params.delta * params.beta**2 * params.sigma2) < 0.6


def test_kernel_table_symmetry_and_psd():
    params = ModelParams(n=40, d=20, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(GaussianFixed(1.0))
    table, paths = simulate(params, prior, [100 + r for r in range(4)])
    assert np.array_equal(table.c_theta, table.c_theta.T)
    assert np.all(table.c_theta.diagonal() >= 0.0)
    for path in paths:  # per-replica Gram matrices are exactly PSD
        gram = path @ path.T / params.d
        assert np.linalg.eigvalsh(gram).min() > -1e-10


# ----------------------------------------------------------------- response


def test_response_base_cases_exact(gaussian_default_params, gaussian_default_prior):
    params, prior = gaussian_default_params, gaussian_default_prior
    inst = sample_instance(params, prior, seed=31)
    tr = response_traces(None, inst, prior, params, [50, 51])
    assert tr.r_theta[1, 0] == params.gamma_step
    exact_eta = (
        params.delta
        * params.beta**2
        * params.gamma_step
        * np.trace(inst.X @ inst.X.T)
        / params.n
    )
    assert tr.r_eta[1, 0] == pytest.approx(exact_eta, rel=1e-12)
    assert abs(tr.r_eta[1, 0] - params.delta * params.beta**2 * params.gamma_step) < 0.01


def test_probe_base_case_is_exact():
    # One step after the kick the chain is the identity, and Rademacher
    # probes satisfy z.z = d exactly, so the probe estimate is exactly gamma.
    params = ModelParams(n=20, d=10, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=6)
    tr = response_traces(None, inst, prior, params, [3, 4], method="probe", n_probes=8, seed=1)
    assert tr.r_theta[1, 0] == params.gamma_step


def test_probe_mode_agrees_with_exact():
    params = ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=0.02, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=41)
    steps = [0, 20, 40]
    exact = response_traces(None, inst, prior, params, steps)
    probe = response_traces(None, inst, prior, params, steps, method="probe", n_probes=64, seed=5)
    for a in range(3):
        for b in range(a):
            d_t = abs(probe.r_theta[a, b] - exact.r_theta[a, b])
            assert d_t <= 4 * probe.r_theta_stderr[a, b] + 1e-12
            d_e = abs(probe.r_eta[a, b] - exact.r_eta[a, b])
            assert d_e <= 4 * probe.r_eta_stderr[a, b] + 1e-12


MIXTURE = PriorSpec(GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), alpha=[-0.5, 0.5], alpha_star=[-1.0, 1.0])


def _mixture_chain(n, d, gamma, horizon, seed):
    """A two-component mixture's fully retained chain: the curvature, and so
    Omega, changes from step to step."""
    params = ModelParams(n=n, d=d, sigma2=1.0, beta=1.0, gamma_step=gamma, horizon=horizon)
    inst = sample_instance(params, MIXTURE, seed=seed)
    return params, inst, evolve(inst, MIXTURE, params, seed=seed, retain_every=1)


def test_probe_mode_agrees_with_exact_on_a_mixture():
    params, inst, traj = _mixture_chain(200, 100, 0.02, 1.0, seed=43)
    steps = [0, 20, 40]
    exact = response_traces(traj, inst, MIXTURE, params, steps)
    probe = response_traces(traj, inst, MIXTURE, params, steps, method="probe", n_probes=64, seed=5)
    below = np.tril_indices(3, -1)
    for name in ("r_theta", "r_eta"):
        gap = np.abs(getattr(probe, name) - getattr(exact, name))[below]
        assert np.all(gap <= 4 * getattr(probe, name + "_stderr")[below])


def test_probe_standard_errors_are_calibrated_on_a_mixture():
    checks = closed_forms.probe_se_calibration()
    assert not closed_forms.failed(checks), checks


def test_general_product_path_matches_constant_shortcut():
    # A single-component mean mixture is the fixed Gaussian in disguise, but
    # takes the trajectory-dependent product route.
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    fixed = PriorSpec(GaussianFixed(2.0))
    mix = PriorSpec(GaussianMeanMixture([1.0], [2.0]), alpha=[0.0], alpha_star=[0.0])
    inst = sample_instance(params, fixed, seed=51)
    traj = evolve(inst, mix, params, seed=51, retain_every=1)
    steps = [0, 5, 10]
    got = response_traces(traj, inst, mix, params, steps)
    want = response_traces(None, inst, fixed, params, steps)
    for a in range(3):
        for b in range(a):
            assert got.r_theta[a, b] == pytest.approx(want.r_theta[a, b], abs=1e-10)
            assert got.r_eta[a, b] == pytest.approx(want.r_eta[a, b], abs=1e-9)


def test_product_path_with_equal_components_matches_constant_shortcut():
    # Two identical components are the fixed Gaussian again, but a mixture of
    # more than one component has no constant curvature: the product route runs.
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    fixed = PriorSpec(GaussianFixed(2.0))
    mix = PriorSpec(GaussianMeanMixture([0.5, 0.5], [2.0, 2.0]), alpha=[0.0, 0.0], alpha_star=[0.0, 0.0])
    assert mix.family.theta_curvature_constant(mix.alpha) is None
    inst = sample_instance(params, fixed, seed=51)
    traj = evolve(inst, mix, params, seed=51, retain_every=1)
    steps = [0, 5, 10]
    got = response_traces(traj, inst, mix, params, steps)
    want = response_traces(None, inst, fixed, params, steps)
    for a in range(3):
        for b in range(a):
            assert got.r_theta[a, b] == pytest.approx(want.r_theta[a, b], abs=1e-10)
            assert got.r_eta[a, b] == pytest.approx(want.r_eta[a, b], abs=1e-9)


def test_general_path_requires_full_trajectory():
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    mix = PriorSpec(GaussianMeanMixture([0.5, 0.5], [1.0, 2.0]), alpha=[0.0, 1.0], alpha_star=[0.0, 1.0])
    inst = sample_instance(params, mix, seed=3)
    coarse = evolve(inst, mix, params, seed=3, retain_every=5)
    with pytest.raises(ValueError):
        response_traces(coarse, inst, mix, params, [0, 5])
    with pytest.raises(ValueError):
        response_traces(None, inst, mix, params, [0, 200])  # outside horizon


def test_response_replica_average():
    params = ModelParams(n=40, d=20, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.25)
    prior = PriorSpec(GaussianFixed(1.0))
    traces = []
    for seed in (1, 2):
        inst = sample_instance(params, prior, seed=seed)
        traces.append(response_traces(None, inst, prior, params, [0, 5]))
    table, _ = simulate(params, prior, [1, 2], retain_every=1, response_steps=[0, 5])
    assert table.r_theta[5, 0] * params.gamma_step == pytest.approx(
        0.5 * (traces[0].r_theta[1, 0] + traces[1].r_theta[1, 0]), rel=1e-15
    )


# -------------------------------------------------------------- wasserstein


def test_w2_examples():
    assert wasserstein2_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert wasserstein2_1d([0.0], [1.0]) == 1.0
    assert wasserstein2_1d([0.0, 2.0], [1.0, 1.0]) == 1.0


def test_w2_errors():
    with pytest.raises(ValueError):
        wasserstein2_1d([], [1.0])
    with pytest.raises(ValueError):
        wasserstein2_1d([1.0, 2.0], [1.0])


@settings(max_examples=40, deadline=None)
@given(
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    ys=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    shift=st.floats(-5, 5),
)
def test_w2_metric_properties(xs, ys, shift):
    a, b = resample_to_common_size(xs, ys)
    d1 = wasserstein2_1d(a, b)
    d2 = wasserstein2_1d(b, a)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 >= 0.0
    shifted = wasserstein2_1d(a + shift, b + shift)
    assert shifted == pytest.approx(d1, abs=1e-9)
    assert wasserstein2_1d(a, a) == 0.0


def test_resample_preserves_equal_sizes():
    a, b = resample_to_common_size([1.0, 2.0], [3.0, 4.0, 5.0])
    assert a.size == b.size == 3


# The "-None" in the ids names the common size: the larger sample's.
@pytest.mark.parametrize(
    "sizes", [(2000, 2000), (2000, 800), (7, 13), (1, 5)], ids=[f"sizes{i}-None" for i in range(4)]
)
@pytest.mark.parametrize("tied", [False, True])
def test_resample_matches_numpy_quantile_bits(sizes, tied):
    rng = np.random.default_rng(sum(sizes))
    samples = [rng.normal(size=n) for n in sizes]
    if tied:  # many equal order statistics
        samples = [np.round(x, 1) for x in samples]
    k = max(sizes)
    qs = (np.arange(k) + 0.5) / k
    for got, x in zip(resample_to_common_size(*samples), samples):
        assert np.array_equal(got, np.quantile(x, qs))
