import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dmft_lab
from closed_forms import eta_response_identity_residual, failed, propagate_eta, se_calibration
from dmft_lab import cli, dmft
from dmft_lab.dmft import (
    CholeskyExtender,
    IllConditionedKernelError,
    MemoryBudgetError,
    linear_gaussian_dmft,
    solve_dmft,
)
from dmft_lab.kernels import time_index
from dmft_lab.model import DivergenceError, ModelParams
from dmft_lab.mp_oracle import corr_kernels, resp_kernels
from dmft_lab.priors import GaussianFixed, GaussianLocation, GaussianMeanMixture, PriorSpec, Theta0Spec


def small_params(gamma=0.05, horizon=1.5):
    return ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=gamma, horizon=horizon)


# ------------------------------------------------------- conditional draws
# Each draw is a @ z_past + sd * z_new over standardized innovations z, with
# (a, sd) returned by CholeskyExtender.extend: the draw solve_dmft makes.


def test_extender_matches_full_cholesky(rng):
    # Rows grown one step at a time are those of LAPACK's factor to round-off,
    # on small random covariances and on the linear engine's c_eta at the
    # shipped T = 200.
    covs = []
    for _ in range(10):
        k = rng.integers(2, 7)
        A = rng.normal(size=(k, k))
        covs.append(A @ A.T + 0.1 * np.eye(k))
    covs.append(linear_gaussian_dmft(small_params(gamma=0.01, horizon=2.0), 1.0, 1.0).c_eta)
    for cov in covs:
        k = cov.shape[0]
        ext = CholeskyExtender(k)
        rows = np.zeros((k, k))
        for i in range(k):
            rows[i, :i], rows[i, i] = ext.extend(cov[i, :i], cov[i, i])
        L = np.linalg.cholesky(cov)
        assert np.max(np.abs(rows - L)) <= 1e-12 * np.max(np.abs(L))
        assert not ext.clamped_steps and not ext.jitter_log


def test_conditional_mean_and_variance_schur():
    ext = CholeskyExtender(2)
    ext.extend(np.zeros(0), 1.0)  # unit variance: the past draw 1.0 is its innovation
    a, sd = ext.extend(np.array([0.5]), 1.0)
    draw = a @ np.array([1.0]) + sd * 0.0
    assert draw == pytest.approx(0.5, abs=1e-14)  # conditional mean
    assert sd**2 == pytest.approx(0.75, abs=1e-14)  # conditional variance


def test_degenerate_row_copies_past_draw():
    ext = CholeskyExtender(2)
    ext.extend(np.zeros(0), 1.0)
    a, sd = ext.extend(np.array([1.0]), 1.0)
    draw = a @ np.array([0.3]) + sd * 5.0
    assert draw == pytest.approx(0.3, abs=1e-12)
    assert ext.clamped_steps == [1] or sd == 0.0


def test_identity_covariance_gives_independent_draws(rng):
    n = 4000
    ext = CholeskyExtender(2)
    z = np.empty((2, n))
    a, sd = ext.extend(np.zeros(0), 1.0)
    z[0] = rng.standard_normal(n)
    draws0 = sd * z[0]
    a, sd = ext.extend(np.array([0.0]), 1.0)
    z[1] = rng.standard_normal(n)
    draws1 = a @ z[:1] + sd * z[1]
    corr = np.corrcoef(draws0, draws1)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_extender_rejects_badly_indefinite():
    ext = CholeskyExtender(2)
    ext.extend(np.zeros(0), 1.0)
    with pytest.raises(IllConditionedKernelError):
        ext.extend(np.array([2.0]), 1.0)  # conditional variance 1 - 4 < 0


def test_small_negative_conditional_variance_is_clamped():
    # Within CLAMP_TOL of zero a conditional variance is round-off: sd 0, no jitter.
    ext = CholeskyExtender(2)
    ext.extend(np.zeros(0), 1.0)
    a, sd = ext.extend(np.array([1.0]), 1.0 - 5e-11)
    assert -1e-10 < 1.0 - 5e-11 - a @ a < 0
    assert sd == 0.0 and ext.clamped_steps == [1] and ext.jitter_log == []
    # Past the largest jitter (1e-8) it is refused.
    ext = CholeskyExtender(2)
    ext.extend(np.zeros(0), 1.0)
    with pytest.raises(IllConditionedKernelError, match="at step 1"):
        ext.extend(np.array([1.0]), 1.0 - 1e-7)


def test_generated_paths_match_target_covariance(rng):
    # 1e5 sequentially extended paths of length 5 reproduce the target grid.
    params = small_params(gamma=0.1, horizon=0.4)
    target = linear_gaussian_dmft(params, 1.0, 1.0).c_eta
    k = target.shape[0]
    n = 100000
    ext = CholeskyExtender(k)
    z = np.empty((k, n))
    draws = np.empty((k, n))
    for i in range(k):
        a, sd = ext.extend(target[i, :i], target[i, i])
        z[i] = rng.standard_normal(n)
        draws[i] = a @ z[:i] + sd * z[i]
    emp = draws @ draws.T / n
    for i in range(k):
        for j in range(i + 1):
            se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
            assert abs(emp[i, j] - target[i, j]) < 4 * se + 1e-12


# ---------------------------------------------------------- eta propagation


def test_propagate_eta_zero_time_expansion():
    T = 3
    c_theta = np.array(
        [[0.3, 0.1, 0.0, 0.0], [0.1, 0.5, 0.2, 0.1], [0.0, 0.2, 0.6, 0.3], [0.0, 0.1, 0.3, 0.7]]
    )
    c_star = np.array([0.05, 0.1, 0.2, 0.25])
    css = 1.2
    sigma2, delta, beta = 0.7, 2.0, 1.3
    r_theta = np.zeros((T + 1, T + 1))
    for t in range(1, T + 1):
        r_theta[t, :t] = 0.01 * (t + np.arange(t))
    c_eta, r_eta_raw, r_eta_star = propagate_eta(c_theta, c_star, css, r_theta, sigma2, delta, beta)
    expected00 = delta * beta**2 * (css - 2 * c_star[0] + c_theta[0, 0] + sigma2)
    assert c_eta[0, 0] == pytest.approx(expected00, rel=1e-14)
    # chain-rule identity between the field response and its row sums
    for t in range(T + 1):
        assert abs(r_eta_star[t] + r_eta_raw[t, :t].sum()) <= 1e-12


def test_propagate_eta_star_initialization_cancels():
    # theta^0 = theta^*: C(0,0) = C(0,*) = C(*,*) makes C_eta(0,0) = d b^2 s2.
    c_theta = np.array([[1.7]])
    c_eta, _, _ = propagate_eta(c_theta, np.array([1.7]), 1.7, np.zeros((1, 1)), 0.9, 2.0, 1.1)
    assert c_eta[0, 0] == pytest.approx(2.0 * 1.1**2 * 0.9, rel=1e-14)


def test_propagate_eta_base_response():
    # R_eta(s+1, s) = delta beta^2 gamma from the single-step chain rule.
    gamma, delta, beta = 0.05, 2.0, 1.0
    T = 2
    c_theta = np.eye(T + 1) * 0.5
    r_theta = np.zeros((T + 1, T + 1))
    for t in range(1, T + 1):
        r_theta[t, t - 1] = gamma  # base case of the theta response
    _, r_eta_raw, _ = propagate_eta(c_theta, np.zeros(T + 1), 1.0, r_theta, 1.0, delta, beta)
    for t in range(1, T + 1):
        assert r_eta_raw[t, t - 1] == pytest.approx(delta * beta**2 * gamma, rel=1e-14)


def test_propagate_eta_sigma2_shift_closed_form():
    # Doubling sigma2 moves C_eta(0,0) by exactly delta beta^2 sigma2.
    c_theta = np.array([[0.2]])
    base = propagate_eta(c_theta, np.array([0.1]), 1.0, np.zeros((1, 1)), 1.0, 2.0, 1.0)[0][0, 0]
    double = propagate_eta(c_theta, np.array([0.1]), 1.0, np.zeros((1, 1)), 2.0, 2.0, 1.0)[0][0, 0]
    assert double - base == pytest.approx(2.0 * 1.0**2 * 1.0, rel=1e-14)


# --------------------------------------------------------------- the solver


@pytest.fixture(scope="module")
def small_solution():
    params = small_params()
    prior = PriorSpec(GaussianFixed(1.0))
    return params, prior, solve_dmft(params, prior, n_paths=2000, seed=11)


def test_solver_initial_law_zero(small_solution):
    _, _, res = small_solution
    assert res.table.c_theta[0, 0] == 0.0


def test_solver_response_base_case_exact(small_solution):
    params, _, res = small_solution
    raw = res.table.r_theta * res.table.gamma
    for t in range(1, params.n_steps + 1):
        assert raw[t, t - 1] == params.gamma_step


def test_solver_eta_identity(small_solution):
    _, _, res = small_solution
    assert eta_response_identity_residual(res.table) <= 1e-12


def test_solver_deterministic(small_solution):
    params, prior, res = small_solution
    res2 = solve_dmft(params, prior, n_paths=2000, seed=11)
    assert np.array_equal(res.table.c_theta, res2.table.c_theta)
    assert np.array_equal(res.table.c_eta, res2.table.c_eta)
    assert np.array_equal(res.paths, res2.paths)


def test_solver_against_linear_engine(small_solution):
    params, _, res = small_solution
    lin = linear_gaussian_dmft(params, 1.0, 1.0)
    se = res.table.stderr["c_theta"]
    diff = np.abs(res.table.c_theta - lin.c_theta)
    assert np.all(diff <= 4 * se + 0.02)
    # responses close on themselves for constant curvature: bitwise equal
    assert np.array_equal(
        np.nan_to_num(res.table.r_theta), np.nan_to_num(lin.r_theta)
    )
    assert np.array_equal(np.nan_to_num(res.table.r_eta), np.nan_to_num(lin.r_eta))


def test_marginal_samples_contract(small_solution):
    params, _, res = small_solution
    draws = cli._marginals(res.table, [res.paths[:, :500]], [0.0, params.gamma_step / 3])
    assert list(draws) == [0.0]  # the off-grid time has no draws
    assert draws[0.0].shape == (500,)
    assert np.all(draws[0.0] == 0.0)


def test_fixed_point_replay(monkeypatch, small_solution):
    # Re-running the theta-side against the solver's own eta kernels with a
    # fresh seed reproduces the theta kernels within Monte Carlo error. The
    # eta side is frozen: each step copies row t of the solved table.
    params, prior, res = small_solution
    given = res.table

    def frozen(self, t, *theta_side):
        self.c_eta[t] = given.c_eta[t]
        self.r_eta_raw[t] = given.r_eta[t] * given.gamma
        self.deta_dwstar[t] = given.r_eta_star[t] / (self.delta * self.beta)

    monkeypatch.setattr(dmft.EtaSide, "add_step", frozen)
    replay = solve_dmft(params, prior, n_paths=2000, seed=77)
    se = np.sqrt(res.table.stderr["c_theta"] ** 2 + replay.table.stderr["c_theta"] ** 2)
    diff = np.abs(replay.table.c_theta - res.table.c_theta)
    assert np.all(diff <= 4 * se + 1e-9)
    assert np.array_equal(
        np.nan_to_num(replay.table.r_theta), np.nan_to_num(res.table.r_theta)
    )


def test_min_paths_enforced():
    params = small_params()
    with pytest.raises(ValueError):
        solve_dmft(params, PriorSpec(GaussianFixed(1.0)), n_paths=10, seed=0)


@pytest.mark.parametrize(
    "prior,gamma,last_step",
    [
        (PriorSpec(GaussianFixed(1.0)), 0.5, 20),
        (PriorSpec(GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0]), 0.35, 21),
    ],
    ids=["gaussian_fixed", "mean_mixture"],
)
def test_diverging_paths_raise_at_their_step(prior, gamma, last_step):
    # Past RMS 1e6 the paths only grow; without the guard the run went on to a
    # misleading IllConditionedKernelError (the mixture to step 104, with
    # c_theta(t, t) near 6e74 and float32 overflow in its responses).
    params = small_params(gamma=gamma, horizon=400 * gamma)
    with pytest.raises(DivergenceError, match=r"at step (\d+)") as err:
        solve_dmft(params, prior, n_paths=400, seed=1)
    assert int(re.search(r"at step (\d+)", str(err.value)).group(1)) <= last_step


def test_wide_prior_is_not_mistaken_for_divergence():
    # theta_star RMS 1e7 with a stable step (gamma h_max = 0.29 < 2): the
    # guard is relative to the run's scale, so the paths run to the horizon.
    # 15 steps: past them CholeskyExtender's absolute clamp (1e-10) refuses
    # conditional variances whose round-off is of the paths' scale.
    params = small_params(gamma=0.05, horizon=0.75)
    res = solve_dmft(params, PriorSpec(GaussianFixed(1e-14)), n_paths=400, seed=1)
    diag = np.diag(res.table.c_theta)
    assert np.all(np.isfinite(diag[1:])) and 1e13 < diag[-1] < 1e15


def test_memory_budget_refusal():
    params = small_params()
    prior = PriorSpec(GaussianMeanMixture([0.5, 0.5], [1.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0])
    with pytest.raises(MemoryBudgetError):
        solve_dmft(params, prior, n_paths=1000, seed=0, response_budget_bytes=1024)


def test_memory_budget_is_the_packed_triangle():
    # 10 steps: 55 float32 entries per path, the strict lower triangle.
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(GaussianMeanMixture([0.5, 0.5], [1.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0])
    need = 400 * 55 * 4
    with pytest.raises(MemoryBudgetError, match="reduce n_paths to <= 399 "):
        solve_dmft(params, prior, n_paths=400, seed=0, response_budget_bytes=need - 1)
    solve_dmft(params, prior, n_paths=400, seed=0, response_budget_bytes=need)


def test_packed_response_has_the_full_tensor_bits(monkeypatch):
    # Replay the full (T+1, T+1, P) recursion, memory term one float32 einsum
    # over the square slab, from the coefficients and r_eta rows each step was
    # given. Every column of the column-packed triangle, and the r_theta means
    # and SEs widened from the rows gathered out of it, must carry the bits of
    # the full tensor. T = 34 reaches the row of 33 entries, widened in one
    # block of 32 and a one-row tail; P is above numpy's 8192-element
    # iterator buffer.
    params = small_params(horizon=1.7)
    prior = PriorSpec(
        GaussianMeanMixture([0.5, 0.5], [1.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0],
        theta0=Theta0Spec("prior"),
    )
    steps, arrays = [], []
    step = dmft._response_rows_paths

    def spy(t, v, starts, row, coeff, gamma, r_eta_raw_row, scratch):
        steps.append((t, coeff.copy(), r_eta_raw_row.copy()))
        arrays.append(v)
        step(t, v, starts, row, coeff, gamma, r_eta_raw_row, scratch)

    monkeypatch.setattr(dmft, "_response_rows_paths", spy)
    res = solve_dmft(params, prior, n_paths=9000, seed=3)
    T, P, gamma = params.n_steps, 9000, params.gamma_step
    assert T == 34 and dmft._ROW_BLOCK == 32
    assert [t for t, _, _ in steps] == list(range(T))

    full = np.zeros((T + 1, T + 1, P), dtype=np.float32)
    for t, coeff, r_eta_row in steps:
        if t > 0:
            mem = np.einsum("r,rsp->sp", r_eta_row[1:t].astype(np.float32), full[1:t, :t]) if t > 1 else 0.0
            full[t + 1, :t] = full[t, :t] * coeff + np.float32(gamma) * mem
        full[t + 1, t] = 1.0
    v = arrays[-1]
    assert all(a is v for a in arrays)
    assert v.shape == (T * (T + 1) // 2, P)
    start = 0
    for s in range(T):  # column s holds rows s+1..T
        assert v[start : start + T - s].tobytes() == full[s + 1 :, s].tobytes(), s
        start += T - s

    r_theta, se = np.zeros((T + 1, T + 1)), np.zeros((T + 1, T + 1))
    for t in range(1, T + 1):
        rows = full[t, :t].astype(np.float64)
        r_theta[t, :t] = gamma * rows.mean(axis=1)
        se[t, :t] = gamma * rows.std(axis=1) / np.sqrt(P)
    assert res.table.r_theta.tobytes() == (r_theta / gamma).tobytes()
    assert res.table.stderr["r_theta"].tobytes() == (se / gamma).tobytes()


def test_mixture_prior_runs_per_path_responses():
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    prior = PriorSpec(
        GaussianMeanMixture([0.5, 0.5], [1.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0],
        theta0=Theta0Spec("prior"),
    )
    res = solve_dmft(params, prior, n_paths=500, seed=3)
    raw = res.table.r_theta * res.table.gamma
    for t in range(1, params.n_steps + 1):
        assert raw[t, t - 1] == params.gamma_step  # base case survives float32
    assert eta_response_identity_residual(res.table) <= 1e-12
    assert np.all(np.isfinite(res.table.c_theta))


def test_correlation_stderr_matches_two_pass_std(small_solution):
    # The solver's one-pass E[p^2] - E[p]^2 against np.std of the products.
    _, _, res = small_solution
    paths = res.paths.T
    se = res.table.stderr["c_theta"]
    for t in range(paths.shape[1]):
        prods = paths[:, : t + 1] * paths[:, t : t + 1]
        ref = prods.std(axis=0) / np.sqrt(paths.shape[0])
        np.testing.assert_allclose(se[t, : t + 1], ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.table.c_theta[t, : t + 1], prods.mean(axis=0), rtol=1e-12, atol=1e-15)


def test_correlation_rows_are_full_slab_einsums():
    # Every c_theta entry must keep the bits of one einsum over the whole
    # (t+1, P) slab, and every standard error those of one einsum over its
    # squares, the row the solver forms after the loop. A one-row einsum sums
    # in other chunks once P passes numpy's 8192-element iterator buffer, so
    # P is above it.
    params = small_params(horizon=1.0)
    prior = PriorSpec(GaussianLocation(1.0), alpha=[0.0], alpha_star=[1.0], theta0=Theta0Spec("prior"))
    res = solve_dmft(params, prior, n_paths=10000, seed=3)
    paths, P = res.paths, res.paths.shape[1]
    for t in range(params.n_steps + 1):
        c_row = np.einsum("sp,p->s", paths[: t + 1], paths[t]) / P
        sq = np.square(paths[: t + 1])
        sq_row = np.einsum("sp,p->s", sq, sq[t]) / P
        se_row = np.sqrt(np.maximum(sq_row - c_row**2, 0.0)) / np.sqrt(P)
        assert res.table.c_theta[t, : t + 1].tobytes() == c_row.tobytes(), t
        assert res.table.stderr["c_theta"][t, : t + 1].tobytes() == se_row.tobytes(), t


def test_correlation_stderrs_match_the_seed_spread(se_calibration_runs):
    checks = se_calibration(se_calibration_runs)
    assert not failed(checks), checks


def test_solver_keeps_two_path_sized_arrays():
    # paths and the innovations, whose buffer then takes the squared paths
    # for the standard errors, plus step temporaries: no third (T+1, P) array.
    params = small_params(horizon=2.0)
    prior = PriorSpec(GaussianLocation(1.0), alpha=[0.0], alpha_star=[1.0], theta0=Theta0Spec("prior"))
    solve_dmft(small_params(horizon=0.1), prior, n_paths=100, seed=1)  # lazy imports of a first solve
    P, T = 20000, params.n_steps
    tracemalloc.start()
    try:
        solve_dmft(params, prior, n_paths=P, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (T + 1) * P * 8 + 16 * P * 8


def test_identical_components_match_the_constant_route():
    # Two identical components are one Gaussian, but their curvature is not
    # flagged constant: the per-path float32 response must reproduce the
    # float64 constant-curvature recursion on every path.
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=0.5)
    twin = PriorSpec(GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), alpha=[0.3, 0.3], alpha_star=[0.3, 0.3])
    single = PriorSpec(GaussianLocation(0.5), alpha=[0.3], alpha_star=[0.3])
    assert twin.family.theta_curvature_constant(twin.alpha) is None
    per_path = solve_dmft(params, twin, n_paths=300, seed=4).table
    constant = solve_dmft(params, single, n_paths=300, seed=4).table
    np.testing.assert_allclose(per_path.r_theta, constant.r_theta, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(per_path.r_eta, constant.r_eta, rtol=1e-5, atol=1e-6)
    assert np.max(per_path.stderr["r_theta"]) <= 1e-12


_SOLVE_AND_SAVE = """
import sys
import numpy as np
from dmft_lab.dmft import solve_dmft
from dmft_lab.model import DivergenceError, ModelParams
from dmft_lab.priors import GaussianFixed, GaussianMeanMixture, PriorSpec, Theta0Spec

# case -> (prior, paths, horizon); P * T is above OpenBLAS's GEMV threading
# cut-off in the constant case, so a path-axis GEMV there changes bits.
cases = {
    "per_path": (
        PriorSpec(
            GaussianMeanMixture([0.5, 0.5], [1.0, 4.0]), alpha=[-1.0, 1.0], alpha_star=[-1.0, 1.0],
            theta0=Theta0Spec("prior"),
        ),
        2000,
        1.0,
    ),
    "constant": (PriorSpec(GaussianFixed(1.0)), 10000, 3.0),
}
prior, n_paths, horizon = cases[sys.argv[1]]
params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=horizon)
res = solve_dmft(params, prior, n_paths=n_paths, seed=5)
t = res.table
arrays = {k: getattr(t, k) for k in ("c_theta", "c_theta_star", "c_eta", "r_theta", "r_eta", "r_eta_star", "alpha")}
arrays.update({"stderr_" + k: v for k, v in t.stderr.items()})
np.savez(sys.argv[2], paths=res.paths, theta_star=res.theta_star, **arrays)
"""

# The oracle table: 10,000 nodes by 61 times would put any node-axis GEMV or
# GEMM above the same cut-off. (A Legendre rule that large takes minutes to
# build.)
_ORACLE_TABLE_AND_SAVE = """
import sys
import numpy as np
from dmft_lab.mp_oracle import MPLaw, OracleParams, oracle_table

x = np.linspace(0.1, 5.8, 10000)
law = MPLaw(delta=2.0, nodes=x, weights=np.full(x.size, 1e-4), atom=0.0, edge_hi=x[-1])
oracle = OracleParams(lam=1.0, sigma2=1.0, delta=2.0, tau_star2=1.0)
t = oracle_table(0.01 * np.arange(61), oracle, law)
names = ("c_theta", "c_theta_star", "c_eta", "r_theta", "r_eta", "r_eta_star")
np.savez(sys.argv[2], **{k: getattr(t, k) for k in names})
"""


# The exp-family atom posterior: GEMVs over blocks of 4097-atom rows.
_EQUILIBRIUM_AND_SAVE = """
import sys
import numpy as np
from dmft_lab.equilibrium import log_marginal, posterior_moments
from dmft_lab.priors import ExpFamily

fam, alpha = ExpFamily([2, 4]), np.array([-0.5, -0.1])
y = np.linspace(-4.0, 4.0, 513 * 8).reshape(513, 8)
m1, m2 = posterior_moments(y, fam, 1.3, alpha)
np.savez(sys.argv[2], m1=m1, m2=m2, log_marginal=log_marginal(y, fam, 1.3, alpha))
"""

# The exp-family fixed point: shift-invariant channel sums in every sweep.
_FIXED_POINT_AND_SAVE = """
import sys
import numpy as np
from dmft_lab.equilibrium import solve_fixed_point
from dmft_lab.priors import ExpFamily

fam, alpha = ExpFamily([2, 4]), np.array([-0.5, -0.1])
sol = solve_fixed_point(2.0, 1.0, fam, fam, alpha, alpha, n_gh=8)
np.savez(
    sys.argv[2], omega=sol.omega, omega_star=sol.omega_star, mse=sol.mse, mse_star=sol.mse_star,
    free_energy=sol.free_energy, residual_trace=np.array(sol.residual_trace),
)
"""

# The matched exp-family channel at n_gh 64: eight GEMMs of eight noise nodes
# each per truth row, for each statistic count (q = 3, 3, 5).
_CHANNEL_AND_SAVE = """
import sys
import numpy as np
from dmft_lab import equilibrium
from dmft_lab.priors import ExpFamily

fam, alpha = ExpFamily([2, 4]), np.array([-0.5, -0.1])
mse, mse_star = equilibrium.mse_pair(fam, fam, 1.3, 1.1, alpha, alpha, n_gh=64)
fe = equilibrium.free_energy(1.3, 1.1, fam, fam, 2.0, 1.0, alpha, alpha, n_gh=64)
_, _, grad = equilibrium._channel_posterior(fam, alpha, fam, alpha, 1.3, 1.1, 64, grad=True)
np.savez(sys.argv[2], mse_pair=np.array([mse, mse_star]), free_energy=fe, grad_alpha=grad)
"""

# The Euler chain and its exact response traces at the shipped n and d, a
# size at which threaded LAPACK does change bits: an eigh of X^T X in the
# step or in the traces' spectrum would show here. The two-component mixture
# runs the mixture score kernels in every step and, with response steps, the
# per-step curvature through the Omega chain.
_SIMULATE_AND_SAVE = """
import sys
import numpy as np
from dmft_lab.model import DivergenceError, ModelParams
from dmft_lab.priors import GaussianFixed, GaussianLocation, GaussianMeanMixture, PriorSpec
from dmft_lab.simulator import simulate

fixed = PriorSpec(GaussianFixed(1.0), alpha=[])
location = PriorSpec(GaussianLocation(1.0), alpha=[0.0], alpha_star=[1.0])
mixture = PriorSpec(GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), alpha=[-0.5, 0.5], alpha_star=[-1.0, 1.0])
steps = [0, 10, 20, 30, 40, 50]
# case -> (prior, retain_every, response steps, n, seeds); d = n / 2
cases = {
    "simulate": (location, 5, steps, 800, [1, 2]),  # constant curvature: the spectrum route
    "simulate_mixture": (mixture, 1, steps, 800, [1, 2]),
    "simulate_mixture_paths": (mixture, 1, [], 800, [1, 2]),
    "simulate_fixed_n200": (fixed, 1, [], 200, [1]),
    "simulate_fixed_n600": (fixed, 1, [], 600, [1]),
}
prior, retain_every, steps, n, seeds = cases[sys.argv[1]]
params = ModelParams(n=n, d=n // 2, sigma2=1.0, beta=1.0, gamma_step=0.01, horizon=0.5)
t, paths = simulate(params, prior, seeds, retain_every=retain_every, response_steps=steps)
arrays = {k: getattr(t, k) for k in ("c_theta", "c_eta", "c_theta_star", "alpha", "r_theta", "r_eta")}
arrays.update({"stderr_" + k: v for k, v in t.stderr.items()})
np.savez(sys.argv[2], theta_paths=np.stack(paths), **arrays)
"""

_SCRIPTS = {
    "simulate": _SIMULATE_AND_SAVE,
    "simulate_mixture": _SIMULATE_AND_SAVE,
    "simulate_mixture_paths": _SIMULATE_AND_SAVE,
    "simulate_fixed_n200": _SIMULATE_AND_SAVE,
    "simulate_fixed_n600": _SIMULATE_AND_SAVE,
    "oracle_table": _ORACLE_TABLE_AND_SAVE,
    "equilibrium": _EQUILIBRIUM_AND_SAVE,
    "exp_family_fixed_point": _FIXED_POINT_AND_SAVE,
    "exp_family_channel_n_gh64": _CHANNEL_AND_SAVE,
}


@pytest.mark.parametrize(
    "case",
    [
        "per_path", "constant", "oracle_table", "equilibrium", "exp_family_fixed_point",
        "exp_family_channel_n_gh64", "simulate",
        pytest.param(
            "simulate_mixture",
            # not strict: where OpenBLAS runs one thread whatever it is asked for, both runs agree
            marks=pytest.mark.xfail(
                reason="a theta-dependent curvature pushes d x d blocks through the Omega chain by BLAS GEMM, "
                "whose bits change with the OpenBLAS thread count (r_eta and the response SEs)",
            ),
        ),
        "simulate_mixture_paths",
        *(
            pytest.param(
                case,
                # not strict, as above; at n 800, d 400 the same chain agrees
                marks=pytest.mark.xfail(
                    reason="the X.T @ X product that builds the Euler step's gram takes a threaded OpenBLAS "
                    "GEMM path at this shape, whose bits change with the thread count (theta path, c_theta)",
                ),
            )
            for case in ("simulate_fixed_n200", "simulate_fixed_n600")
        ),
    ],
)
def test_solver_bits_do_not_depend_on_blas_threads(tmp_path, case):
    src = str(Path(dmft_lab.__file__).resolve().parents[1])
    script = _SCRIPTS.get(case, _SOLVE_AND_SAVE)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{case}_{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script, case, str(out)], env=env, check=True, timeout=300)
        runs.append(np.load(out))
    one, two = runs
    assert sorted(one.files) == sorted(two.files)
    for name in one.files:
        assert one[name].tobytes() == two[name].tobytes(), name


def test_large_lam_pins_theta_to_zero():
    params = ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=0.004, horizon=1.0)
    weak = linear_gaussian_dmft(params, 10.0, 1.0)
    strong = linear_gaussian_dmft(params, 100.0, 1.0)
    assert strong.c_theta[-1, -1] < weak.c_theta[-1, -1]
    assert strong.c_theta[-1, -1] < 5.0 / 100.0


def test_solver_matches_oracle_midpoint(small_solution, default_oracle, default_law):
    # R_theta(1.0, 0.5) in density units approximates alpha_mp(0.5).
    params, _, res = small_solution
    i, j = int(1.0 / 0.05), int(0.5 / 0.05)
    a, _, _ = resp_kernels(0.5, default_oracle, default_law)
    assert abs(res.table.r_theta[i, j] - a) < 0.02


def test_gamma_refinement_monotone(default_oracle, default_law):
    # Deterministic engine: oracle error strictly decreases with the step.
    times = [0.0, 0.4, 0.8]
    errs = []
    for gamma in (0.04, 0.02, 0.01):
        params = ModelParams(n=200, d=100, sigma2=1.0, beta=1.0, gamma_step=gamma, horizon=0.8)
        tab = linear_gaussian_dmft(params, 1.0, 1.0)
        tab = tab.restrict([time_index(tab.times, t) for t in times])
        worst = 0.0
        for i, t in enumerate(times):
            for j, s in enumerate(times):
                if s > t:
                    continue
                cts, _, ce = corr_kernels(t, s, default_oracle, default_law)
                worst = max(worst, abs(tab.c_theta[i, j] - cts), abs(tab.c_eta[i, j] - ce))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]


def test_psd_of_mc_correlation(small_solution):
    _, _, res = small_solution
    evals = np.linalg.eigvalsh(res.table.c_theta)
    assert evals.min() > -1e-8
