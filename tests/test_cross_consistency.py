"""Cross-module identities tying the closed-form kernels to the equilibrium
fixed point: the long-time residual kernel decomposes as a decaying part plus
a constant offset, with

    c_eta_tti(0) = delta/sigma2 - omega,   c_eta(inf) = omega^2 / omega_star,

so the oracle's stationary kernel and the equilibrium solution must agree on
ymse and on gamma_mp(inf)."""

import pytest

from closed_forms import ceta_stationary, gamma_limit
from dmft_lab.equilibrium import solve_fixed_point
from dmft_lab.mp_oracle import OracleParams, mp_quadrature
from dmft_lab.priors import GaussianFixed


def test_ymse_matches_stationary_residual_kernel(default_oracle, default_law):
    gs = GaussianFixed(1.0)
    sol = solve_fixed_point(2.0, 1.0, gs, gs, tol=1e-13)
    c_inf = ceta_stationary(200.0, default_oracle, default_law)  # constant offset
    c_tti0 = ceta_stationary(0.0, default_oracle, default_law) - c_inf
    ymse_oracle = 1.0**2 / 2.0 * c_tti0
    assert ymse_oracle == pytest.approx(sol.ymse, abs=1e-6)
    assert c_inf == pytest.approx(sol.omega**2 / sol.omega_star, abs=1e-6)


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_gamma_limit_matches_fixed_point(lam, default_law):
    # gamma_mp(inf) = (sigma2/delta)(delta/sigma2 - omega) for the nominal
    # Gaussian prior of precision lam, matched or not.
    oracle = OracleParams(lam=lam, sigma2=1.0, delta=2.0, tau_star2=1.0)
    sol = solve_fixed_point(2.0, 1.0, GaussianFixed(1.0), GaussianFixed(lam), tol=1e-13)
    lhs = gamma_limit(oracle, default_law)
    rhs = (1.0 / 2.0) * (2.0 / 1.0 - sol.omega)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_handoff_flat_by_delta():
    # The equilibrium map and the spectral integrals stay consistent across
    # aspect ratios (quadrature rebuilt per delta).
    for delta in (0.5, 1.5, 3.0):
        law = mp_quadrature(delta, 400)
        oracle = OracleParams(lam=1.0, sigma2=1.0, delta=delta, tau_star2=1.0)
        sol = solve_fixed_point(delta, 1.0, GaussianFixed(1.0), GaussianFixed(1.0), tol=1e-13)
        lhs = gamma_limit(oracle, law)
        rhs = (1.0 / delta) * (delta - sol.omega)
        assert lhs == pytest.approx(rhs, abs=1e-8)
