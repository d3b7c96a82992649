import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from closed_forms import (
    ceta_stationary,
    fdt_check,
    finite_d_oracle,
    gamma_limit,
    integrate,
    response_eta,
    response_eta_star,
    stationary_ctheta_tti,
    stieltjes_m,
)
from dmft_lab import mp_oracle
from dmft_lab.dmft import linear_gaussian_dmft
from dmft_lab.kernels import read_table_csv, write_table_csv
from dmft_lab.model import ModelInstance, ModelParams
from dmft_lab.mp_oracle import (
    OracleParams,
    UnsupportedOracleError,
    corr_kernels,
    mp_quadrature,
    oracle_table,
    resp_kernels,
)


def test_stieltjes_closed_form_delta_one():
    assert stieltjes_m(-1.0, 1.0) == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)


def test_stieltjes_large_z_asymptotics():
    # m(z) = -1/z + E[x]/z^2 + O(1/z^3): the deviation at z = -1e6 is ~1e-12.
    for delta in (0.5, 1.0, 2.0, 5.0):
        z = -1e6
        m = stieltjes_m(z, delta)
        assert abs(m - (-1 / z)) <= 2e-12


def test_stieltjes_domain_error():
    with pytest.raises(ValueError):
        stieltjes_m(0.5, 2.0)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0])
def test_quadrature_mass_and_mean(delta):
    law = mp_quadrature(delta, 200)
    assert abs(integrate(law, np.ones_like) - 1.0) < 1e-12
    assert abs(integrate(law, lambda x: x) - 1.0) < 1e-10


@pytest.mark.parametrize("n_nodes", [100, 400, 1600])
def test_quadrature_mass_at_delta_one(n_nodes):
    # At delta = 1 the bulk starts at x = 0, where (lo + hi)/2 + r sin(phi) cancels.
    law = mp_quadrature(1.0, n_nodes)
    assert abs(integrate(law, np.ones_like) - 1.0) <= 1e-13


@pytest.mark.parametrize("n_nodes", [100, 400, 1600])
def test_legendre_weights_keep_their_moments_to_round_off(n_nodes):
    # sum w u^k = 2 / (k + 1) for even k <= 2 n - 1, within 4 ulp of the total
    # weight 2; numpy's leggauss weights drift by 3.5e-14 in sum w u^2 at 400 nodes.
    u, w = mp_oracle._legendre_rule(n_nodes)
    assert np.array_equal(u, np.polynomial.legendre.leggauss(n_nodes)[0])
    for k in (0, 2, 4):
        assert abs(np.sum(w * u**k) - 2.0 / (k + 1)) <= 4 * np.spacing(2.0), k


def test_quadrature_atom_below_one():
    assert mp_quadrature(0.5, 100).atom == pytest.approx(0.5)
    assert mp_quadrature(2.0, 100).atom == 0.0
    with pytest.raises(ValueError):
        mp_quadrature(2.0, 4)


def test_stieltjes_cross_check_quadrature(default_law):
    for z in (-0.5, -1.0, -5.0):
        by_quad = integrate(default_law, lambda x: 1.0 / (x - z))
        assert abs(stieltjes_m(z, 2.0) - by_quad) < 1e-10


def test_response_boundary_values(default_oracle, default_law):
    a0, b0, g0 = resp_kernels(0.0, default_oracle, default_law)
    assert abs(a0 - 1.0) < 1e-10
    assert abs(g0) < 1e-14
    assert abs(b0 + 1.0 / default_oracle.sigma2) < 1e-10
    with pytest.raises(ValueError):
        resp_kernels(-0.1, default_oracle, default_law)


def test_response_eta_sign_convention(default_oracle, default_law):
    # Short-lag eta response is positive and approaches delta beta^2.
    val = response_eta(1e-8, default_oracle, default_law)
    assert val == pytest.approx(default_oracle.delta / default_oracle.sigma2**2, rel=1e-6)  # beta = 1/sigma2
    assert response_eta_star(1.0, default_oracle, default_law) < 0


def test_corr_kernels_zero_time(default_oracle, default_law):
    cts, ctstar, _ = corr_kernels(0.0, 0.0, default_oracle, default_law)
    assert cts == pytest.approx(0.0, abs=1e-14)
    assert ctstar == pytest.approx(0.0, abs=1e-14)


def test_ctheta_star_proportional_to_gamma(default_oracle, default_law):
    for t in (0.3, 1.0, 2.7):
        _, ctstar, _ = corr_kernels(t, t, default_oracle, default_law)
        _, _, g = resp_kernels(t, default_oracle, default_law)
        assert ctstar == pytest.approx(default_oracle.delta * default_oracle.tau_star2 * g, rel=1e-12)


def test_matched_long_time_posterior_variance(default_oracle, default_law):
    # Matched lam = 1/tau*^2: stationary C_theta(t, t) -> tau*^2.
    cts, _, _ = corr_kernels(50.0, 50.0, default_oracle, default_law)
    assert abs(cts - default_oracle.tau_star2) < 1e-6


def test_ceta_stationary_values(default_oracle, default_law):
    assert ceta_stationary(0.0, default_oracle, default_law) == pytest.approx(
        default_oracle.delta / default_oracle.sigma2, abs=1e-12
    )
    for r in (0.0, 0.5, 1.0):
        _, _, g = resp_kernels(r, default_oracle, default_law)
        ident = -(default_oracle.delta / default_oracle.sigma2) * (g - 1.0)
        assert abs(ceta_stationary(r, default_oracle, default_law) - ident) < 1e-10
    # r -> infinity: the exponential dies, leaving (delta/sigma2)(1 - gamma_mp(inf)).
    lim = default_oracle.delta / default_oracle.sigma2 * (1.0 - gamma_limit(default_oracle, default_law))
    far = ceta_stationary(200.0, default_oracle, default_law)
    assert abs(far - lim) < 1e-10


def test_ceta_stationary_requires_matched_prior(default_law):
    mismatched = OracleParams(lam=2.0, sigma2=1.0, delta=2.0, tau_star2=1.0)
    with pytest.raises(UnsupportedOracleError):
        ceta_stationary(0.0, mismatched, default_law)


def test_fdt_residual_tiny(default_oracle, default_law):
    assert fdt_check(np.linspace(0.0, 2.0, 21), default_oracle, default_law) <= 1e-10


def test_fdt_derivative_at_zero(default_oracle, default_law):
    # d/dtau c_tti at 0 equals -1 (total quadrature mass), i.e. -alpha(0).
    h = 1e-6
    fd = (
        stationary_ctheta_tti(h, default_oracle, default_law)
        - stationary_ctheta_tti(0.0, default_oracle, default_law)
    ) / h
    assert fd == pytest.approx(-1.0, abs=1e-5)


def test_fdt_negative_control_rescaled_parameters(default_law):
    # Doubling sigma2 and delta together changes the kernels but the FDT
    # residual stays at quadrature level.
    law = mp_quadrature(4.0, 300)
    other = OracleParams(lam=1.0, sigma2=2.0, delta=4.0, tau_star2=1.0)
    assert fdt_check(np.linspace(0.0, 2.0, 11), other, law) <= 1e-10
    a_other = resp_kernels(1.0, other, law)[0]
    a_base = resp_kernels(1.0, OracleParams(lam=1.0, sigma2=1.0, delta=2.0, tau_star2=1.0), default_law)[0]
    assert abs(a_other - a_base) > 1e-3


def alpha_laplace_numeric(s: float, oracle: OracleParams, law, t_max: float = 60.0) -> float:
    """int_0^inf exp(-s t) alpha_mp(t) dt: numeric on [0, t_max] plus the
    analytic tail int exp(-(s + h) t_max) / (s + h) mu(dx), h = lam + delta x / sigma2."""
    head, _ = quad(lambda t: np.exp(-s * t) * resp_kernels(t, oracle, law)[0], 0.0, t_max, limit=200)
    rate = lambda x: s + oracle.lam + oracle.delta * x / oracle.sigma2
    return head + integrate(law, lambda x: np.exp(-rate(x) * t_max) / rate(x))


def test_laplace_transform_identity(default_oracle, default_law):
    for s in (0.5, 1.0, 2.0):
        num = alpha_laplace_numeric(s, default_oracle, default_law)
        z = -(default_oracle.lam + s) * default_oracle.sigma2 / default_oracle.delta
        closed = default_oracle.sigma2 / default_oracle.delta * stieltjes_m(z, default_oracle.delta)
        assert abs(num - closed) < 1e-8


def test_gamma_limit_consistency(default_oracle, default_law):
    _, _, g = resp_kernels(500.0, default_oracle, default_law)
    assert abs(g - gamma_limit(default_oracle, default_law)) < 1e-12


def test_node_doubling_converged(default_oracle):
    coarse = mp_quadrature(2.0, 400)
    fine = mp_quadrature(2.0, 800)
    for t in (0.1, 1.0, 10.0):
        for law_val in (
            lambda law, t=t: resp_kernels(t, default_oracle, law)[0],
            lambda law, t=t: corr_kernels(t, 0.5 * t, default_oracle, law)[0],
            lambda law, t=t: corr_kernels(t, 0.5 * t, default_oracle, law)[2],
        ):
            assert abs(law_val(coarse) - law_val(fine)) < 1e-9


def test_finite_d_oracle_zero_time(default_oracle, rng):
    X = rng.normal(0.0, 1.0 / np.sqrt(10), size=(20, 10))
    inst = ModelInstance(
        X=X, theta_star=np.zeros(10), eps=np.zeros(20), y=np.zeros(20),
        theta0=np.zeros(10),
    )
    cts, ctstar = finite_d_oracle(inst, default_oracle, 0.0, 0.0)
    assert cts == pytest.approx(0.0, abs=1e-14)
    assert ctstar == pytest.approx(0.0, abs=1e-14)


def test_finite_d_oracle_scalar_ou_vs_euler(default_oracle, rng):
    # d = 1: a single Ornstein-Uhlenbeck mode, cross-checked against a fine
    # Euler average over (theta*, eps, Brownian) with X fixed.
    d, n = 1, 2
    X = rng.normal(0.0, 1.0, size=(n, d))
    inst = ModelInstance(
        X=X, theta_star=np.zeros(d), eps=np.zeros(n), y=np.zeros(n),
        theta0=np.zeros(d),
    )
    t_hi, t_lo = 0.5, 0.25
    cts, ctstar = finite_d_oracle(inst, default_oracle, t_hi, t_lo)

    reps = 200000
    gamma = 1e-3
    theta_star = rng.normal(0.0, 1.0, size=reps)
    eps = rng.normal(0.0, 1.0, size=(n, reps))
    y = X * theta_star[None, :] + eps
    theta = np.zeros(reps)
    snap = {}
    for k in range(int(t_hi / gamma) + 1):
        if abs(k * gamma - t_lo) < 1e-12:
            snap["lo"] = theta.copy()
        if abs(k * gamma - t_hi) < 1e-12:
            snap["hi"] = theta.copy()
            break
        drift = -(X[:, 0] ** 2).sum() * theta + (X[:, 0] @ y) - theta
        theta = theta + gamma * drift + np.sqrt(2 * gamma) * rng.standard_normal(reps)
    mc = float(np.mean(snap["hi"] * snap["lo"]))
    mc_star = float(np.mean(snap["hi"] * theta_star))
    assert cts == pytest.approx(mc, abs=0.02)
    assert ctstar == pytest.approx(mc_star, abs=0.02)


def test_oracle_table_grids(default_oracle, default_law):
    table = oracle_table([0.0, 0.5, 1.0], default_oracle, default_law)
    assert table.gamma == 0.0
    assert np.allclose(table.c_theta, table.c_theta.T)
    a, b, g = resp_kernels(0.5, default_oracle, default_law)
    assert table.r_theta[1, 0] == pytest.approx(a)
    assert table.r_eta[1, 0] == pytest.approx(-2.0 * b)
    assert table.r_eta_star[2] == pytest.approx(-2.0 * resp_kernels(1.0, default_oracle, default_law)[2])
    assert np.isnan(table.r_theta[0, 1])


def test_oracle_table_responses_are_bitwise_those_of_resp_kernels(default_oracle, default_law):
    times = np.linspace(0.0, 2.0, 11)
    table = oracle_table(times, default_oracle, default_law)
    for i, t in enumerate(times):
        lags = t - times[:i]
        assert np.array_equal(table.r_theta[i, :i], resp_kernels(lags, default_oracle, default_law)[0])
        assert np.array_equal(table.r_eta[i, :i], response_eta(lags, default_oracle, default_law))


@pytest.mark.parametrize("gamma,calls", [(0.0, 1), (0.01, 2)])
def test_resp_kernels_evaluates_the_lag_propagator_only_on_the_chain(
    monkeypatch, default_oracle, default_law, gamma, calls
):
    # Without a step the lag grid is t itself, so one propagator serves both integrals.
    propagator, seen = mp_oracle._propagator, []
    monkeypatch.setattr(mp_oracle, "_propagator", lambda h, t, g: seen.append(g) or propagator(h, t, g))
    resp_kernels(0.01 * np.arange(6), default_oracle, default_law, gamma)
    assert len(seen) == calls


def _oracle_table_by_entries(times, oracle, law):
    """oracle_table's kernels from one scalar call per (t, s) entry."""
    m, scale = len(times), -(oracle.delta / oracle.sigma2)
    c_theta, c_eta, c_star, r_star = np.empty((m, m)), np.empty((m, m)), np.empty(m), np.empty(m)
    r_theta, r_eta = np.full((m, m), np.nan), np.full((m, m), np.nan)
    for i, t in enumerate(times):
        for j in range(i + 1):
            cts, _, ce = corr_kernels(t, times[j], oracle, law)
            c_theta[i, j] = c_theta[j, i] = cts
            c_eta[i, j] = c_eta[j, i] = ce
            if j < i:
                a, b, _ = resp_kernels(t - times[j], oracle, law)
                r_theta[i, j] = a
                r_eta[i, j] = scale * b
        c_star[i] = corr_kernels(t, t, oracle, law)[1]
        r_star[i] = scale * resp_kernels(t, oracle, law)[2]
    return {
        "c_theta": c_theta, "c_theta_star": c_star, "c_eta": c_eta,
        "r_theta": r_theta, "r_eta": r_eta, "r_eta_star": r_star,
    }


ATOM_ORACLE = OracleParams(lam=2.0, sigma2=0.7, delta=0.5, tau_star2=0.5)  # delta < 1: zero atom


@pytest.mark.parametrize(
    "oracle", [OracleParams(lam=1.0, sigma2=1.0, delta=2.0, tau_star2=1.0), ATOM_ORACLE], ids=["delta2", "atom"]
)
def test_oracle_table_rows_match_entrywise_calls(oracle):
    law = mp_quadrature(oracle.delta, 400)
    # a uniform grid, where lags repeat, and a non-uniform one, where few do
    for times in (np.linspace(0.0, 2.0, 21), np.r_[0.0, np.geomspace(0.013, 2.0, 20)]):
        table = oracle_table(times, oracle, law)
        for name, ref in _oracle_table_by_entries(times, oracle, law).items():
            got = getattr(table, name)
            assert np.array_equal(np.isnan(got), np.isnan(ref)), name
            assert np.nanmax(np.abs(got - ref)) <= 1e-13, name
        assert np.array_equal(table.c_theta, table.c_theta.T)
        assert np.array_equal(table.c_eta, table.c_eta.T)


def test_oracle_table_and_csv_read_allocate_no_entries_by_nodes_array(tmp_path, default_oracle, default_law):
    # The oracle-grid workload's 201 times, and 201 non-uniform ones whose
    # 20,100 lags are nearly all distinct; 401 nodes with the atom.
    uniform, spread = 0.01 * np.arange(201), np.r_[0.0, np.geomspace(0.013, 2.0, 200)]
    oracle_table(uniform[:3], default_oracle, default_law)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        oracle_peaks = []
        for times in (spread, uniform):
            tracemalloc.reset_peak()
            table = oracle_table(times, default_oracle, default_law)
            oracle_peaks.append(tracemalloc.get_traced_memory()[1])
            del table
        table = oracle_table(uniform, default_oracle, default_law)
        path = tmp_path / "kernels.csv"
        write_table_csv(table, path)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_table_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # One (entries x nodes) float64 array is 20301 x 401 x 8 = 65 MB. Measured
    # peaks: 6.0 MB (non-uniform) and 5.6 MB; the bound leaves 33 % headroom.
    assert max(oracle_peaks) < 8e6
    # Measured peak: 6.3 MB (numpy 2.4, CPython 3.11), while parsing one
    # section's lines. A copy of the whole 6.1 MB file on top of the 1.3 MB
    # of arrays the reader returns exceeds the bound, 18 % above the measured.
    returned = sum(np.asarray(getattr(back, k)).nbytes for k in ("c_theta", "c_eta", "r_theta", "r_eta"))
    assert read_peak < path.stat().st_size + returned


@pytest.mark.parametrize("gamma", [0.0, 0.02])
def test_corr_kernels_rows_match_scalar_calls(gamma):
    law = mp_quadrature(ATOM_ORACLE.delta, 200)
    s = np.linspace(0.0, 1.0, 11)
    row = corr_kernels(0.6, s, ATOM_ORACLE, law, gamma)
    lags = resp_kernels(s, ATOM_ORACLE, law, gamma)
    for j, sj in enumerate(s):
        scalar = corr_kernels(0.6, sj, ATOM_ORACLE, law, gamma)
        assert all(type(v) is float for v in scalar + resp_kernels(sj, ATOM_ORACLE, law, gamma))
        assert np.allclose([k[j] for k in row], scalar, rtol=0.0, atol=1e-14)
        assert np.allclose([k[j] for k in lags], resp_kernels(sj, ATOM_ORACLE, law, gamma), rtol=0.0, atol=1e-14)
    # t and s broadcast together: a column is the same as a row, transposed
    col = corr_kernels(s, 0.6, ATOM_ORACLE, law, gamma)
    assert np.allclose(col[0], row[0], rtol=0.0, atol=1e-14)
    assert np.allclose(col[2], row[2], rtol=0.0, atol=1e-14)


# ------------------------------------------- Euler-chain forms (gamma > 0)

EULER_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)  # on the step grid of gamma = 0.02, 0.01, 0.005


def _euler_kernels(oracle, law, gamma):
    """Six kernels (corr: C_theta, C_theta*, C_eta; resp: alpha, beta, gamma_mp)
    at every grid point, one column per kernel."""
    corr = [corr_kernels(t, s, oracle, law, gamma) for t in EULER_GRID for s in EULER_GRID if s <= t]
    resp = [resp_kernels(t, oracle, law, gamma) for t in EULER_GRID[1:]]
    return np.array(corr), np.array(resp)


def test_euler_forms_gamma_zero_is_continuous(default_oracle, default_law):
    o, law = default_oracle, default_law
    ts = np.linspace(0.0, 3.0, 13)
    for new, old in zip(resp_kernels(ts, o, law, 0.0), resp_kernels(ts, o, law)):
        assert np.array_equal(new, old)
    for t in ts:
        assert resp_kernels(t, o, law, 0.0) == resp_kernels(t, o, law)
        for s in ts[::3]:
            assert corr_kernels(t, s, o, law, 0.0) == corr_kernels(t, s, o, law)


def test_euler_forms_step_bias_is_first_order(default_oracle, default_law):
    # Weak order one: the gap to the continuous forms halves with the step.
    cont = _euler_kernels(default_oracle, default_law, 0.0)
    gaps = []
    for gamma in (0.02, 0.01, 0.005):
        euler = _euler_kernels(default_oracle, default_law, gamma)
        gaps.append(np.concatenate([np.max(np.abs(e - c), axis=0) for e, c in zip(euler, cont)]))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert np.all(fine > 0)
        ratio = coarse / fine
        assert np.all((1.8 <= ratio) & (ratio <= 2.2)), ratio


def test_euler_forms_match_linear_engine_with_zero_atom():
    # delta < 1 puts an atom at x = 0; the engine solves the same Euler chain.
    lam, sigma2, delta, tau_star2, gamma = 2.0, 0.7, 0.5, 0.5, 0.02
    oracle = OracleParams(lam=lam, sigma2=sigma2, delta=delta, tau_star2=tau_star2)
    law = mp_quadrature(delta, 400)
    assert law.atom > 0
    params = ModelParams(n=100, d=200, sigma2=sigma2, beta=1.0 / sigma2, gamma_step=gamma, horizon=1.0)
    table = linear_gaussian_dmft(params, lam, tau_star2)
    for k in range(0, table.n_times, 5):
        for j in range(0, k + 1, 5):
            c_ts, _, c_eta = corr_kernels(k * gamma, j * gamma, oracle, law, gamma)
            assert abs(table.c_theta[k, j] - c_ts) <= 1e-10
            assert abs(table.c_eta[k, j] - c_eta) <= 1e-10


def test_euler_forms_domain_errors(default_oracle, default_law):
    with pytest.raises(ValueError, match="not a multiple"):
        resp_kernels(0.015, default_oracle, default_law, 0.01)
    with pytest.raises(ValueError, match="not a multiple"):
        corr_kernels(0.5, 0.015, default_oracle, default_law, 0.01)
    # h_max = lam + delta * edge_hi / sigma2 = 1 + 2 * (1 + 2**-0.5)**2 ~ 6.83
    with pytest.raises(UnsupportedOracleError):
        resp_kernels(0.5, default_oracle, default_law, 0.5)
    with pytest.raises(UnsupportedOracleError):
        corr_kernels(0.5, 0.5, default_oracle, default_law, 0.5)
