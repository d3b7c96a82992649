"""Reference closed forms and the acceptance criteria's computations.

The closed forms are reference implementations that no shipped config
reaches. They are built from the routes' own pieces (`mp_oracle._spectrum`,
`_propagator`, `_integral`, `corr_kernels`, `resp_kernels` and
`dmft.EtaSide`), looked up on their modules at call time, so a check against
them still exercises the shipped code and a fault patched into one of those
pieces shows.

Each `criterion_*` function computes one acceptance criterion and returns its
checks as {name: (margin, budget)}; a check passes when margin <= budget.
`test_acceptance.py` asserts on them and `test_sensitivity.py` shows that
each can fail.
"""

import numpy as np

from dmft_lab import dmft, mp_oracle
from dmft_lab.mp_oracle import MPLaw, OracleParams, UnsupportedOracleError


def failed(checks) -> list:
    """Names of the checks whose margin exceeds (or is not within) its budget."""
    return [name for name, (margin, budget) in checks.items() if not margin <= budget]


# ------------------------------------------------- Marcenko-Pastur closed forms


def integrate(law: MPLaw, f) -> float:
    """Integral of f against the law; the atom contributes f(0)."""
    total = float(np.sum(law.weights * f(law.nodes)))
    if law.atom > 0:
        total += law.atom * float(f(np.asarray(0.0)))
    return total


def stieltjes_m(z: float, delta: float) -> float:
    """Positive root m(z) of (1 + z m)(1 + m/delta) = m, for z < 0."""
    if z >= 0:
        raise ValueError("stieltjes_m requires z < 0 (bulk support is nonnegative)")
    a = z / delta
    b = z + 1.0 / delta - 1.0
    disc = b * b - 4.0 * a
    sq = np.sqrt(disc)
    # Stable quadratic roots: q-formula avoids cancellation.
    q = -0.5 * (b + np.copysign(sq, b))
    roots = [q / a, 1.0 / q] if q != 0 else [-b / a]
    pos = [r for r in roots if r > 0]
    return float(max(pos))


def response_eta(dt, oracle: OracleParams, law: MPLaw):
    """Eta response density in the lab convention (positive near diagonal)."""
    _, b, _ = mp_oracle.resp_kernels(dt, oracle, law)
    return -(oracle.delta / oracle.sigma2) * b


def response_eta_star(t, oracle: OracleParams, law: MPLaw):
    """Response of eta^t to the signal-field component, lab convention."""
    _, _, g = mp_oracle.resp_kernels(t, oracle, law)
    return -(oracle.delta / oracle.sigma2) * g


def ceta_stationary(r: float, oracle: OracleParams, law: MPLaw) -> float:
    """Stationary residual-kernel limit C_eta^inf(r), matched case only.

    Valid for lam = 1/tau_star2; equals -(delta/sigma2) (gamma_mp(|r|) - 1)."""
    if abs(oracle.lam - 1.0 / oracle.tau_star2) > 1e-12:
        raise UnsupportedOracleError("ceta_stationary requires the matched prior lam = 1/tau_star2")
    dl, s2 = oracle.delta, oracle.sigma2
    x, w, h = mp_oracle._spectrum(oracle, law)
    return float(mp_oracle._integral(dl * x / h * (mp_oracle._propagator(h, abs(r), 0.0) - 1.0), w)) / s2**2 + dl / s2


def stationary_ctheta_tti(tau: float, oracle: OracleParams, law: MPLaw) -> float:
    """Time-translation-invariant part of C_theta at stationarity."""
    _, w, h = mp_oracle._spectrum(oracle, law)
    return float(mp_oracle._integral(mp_oracle._propagator(h, tau, 0.0) / h, w))


def gamma_limit(oracle: OracleParams, law: MPLaw) -> float:
    """lim_{t->inf} gamma_mp(t) = (1/sigma2) int (x/h) mu(dx)."""
    x, w, h = mp_oracle._spectrum(oracle, law)
    return float(mp_oracle._integral(x / h, w)) / oracle.sigma2


def fdt_check(tau_grid, oracle: OracleParams, law: MPLaw) -> float:
    """Max residual over the grid of the integrated fluctuation-dissipation
    identity c_theta^tti(0) - c_theta^tti(tau) = int_0^tau alpha_mp(s) ds.

    The left side comes from `stationary_ctheta_tti`, the right side from a
    48-node Gauss-Legendre rule in s over `resp_kernels`, so a wrong time
    scale in either integrand shows.
    """
    tau = np.asarray(tau_grid, dtype=float).reshape(-1)
    c_tti = np.array([stationary_ctheta_tti(t, oracle, law) for t in tau])
    u, gw = np.polynomial.legendre.leggauss(48)
    alpha = mp_oracle.resp_kernels(0.5 * tau[:, None] * (u + 1.0), oracle, law)[0]
    area = 0.5 * tau * mp_oracle._integral(alpha, gw)
    return float(np.max(np.abs(stationary_ctheta_tti(0.0, oracle, law) - c_tti - area), initial=0.0))


def finite_d_oracle(instance, oracle: OracleParams, t: float, s: float):
    """Exact finite-d conditional kernels via the eigendecomposition of
    X^T X / delta: each eigenmode is an explicit Ornstein-Uhlenbeck process,
    so (C_theta(t,s|X), C_theta(t,*|X)) follow by averaging the per-mode
    moments over the empirical spectrum. theta^0 = 0 assumed.
    """
    evals = np.linalg.eigvalsh(instance.X.T @ instance.X / oracle.delta)
    evals = np.clip(evals, 0.0, None)
    emp = MPLaw(
        delta=oracle.delta,
        nodes=evals,
        weights=np.full(evals.shape, 1.0 / evals.size),
        atom=0.0,
        edge_hi=float(evals.max()),
    )
    c_ts, c_tstar, _ = mp_oracle.corr_kernels(t, s, oracle, emp)
    return c_ts, c_tstar


# ------------------------------------------------------- eta-side identities


def propagate_eta(c_theta, c_theta_star, c_star_star, r_theta_raw, sigma2, delta, beta):
    """`dmft.EtaSide` run over complete theta-side grids: (c_eta, r_eta_raw in
    per-step units, r_eta_star in natural units)."""
    side = dmft.EtaSide(c_theta.shape[0] - 1, sigma2, delta, beta)
    for t in range(side.T + 1):
        side.add_step(t, c_theta[t, : t + 1], c_theta_star[t], c_star_star, r_theta_raw[t, :t])
    return side.c_eta, side.r_eta_raw, side.r_eta_star()


def eta_response_identity_residual(table) -> float:
    """Max over grid times of |r_eta_star(t) + sum_{s<t} r_eta_raw(t, s)|: the
    signal-field response is minus the row sum of the field responses (a
    discrete chain-rule identity)."""
    row_sums = np.tril(table.r_eta * table.gamma, -1).sum(axis=1)
    return float(np.max(np.abs(table.r_eta_star + row_sums)))


def se_calibration(tables) -> dict:
    """Monte Carlo standard errors against the spread of independent solves:
    per kernel, |median - 1| over the entries of (seed spread / mean reported
    SE), c_theta on and below the diagonal. Each entry's ratio has a sampling
    error of about 1/sqrt(2(K - 1)) over K solves; the budget is three of it.
    Entries without Monte Carlo error (theta^0 = 0) have a zero SE and are
    left out."""
    budget = 3.0 / np.sqrt(2.0 * (len(tables) - 1))
    checks = {}
    for name in ("c_theta", "c_theta_star"):
        values = np.stack([getattr(t, name) for t in tables])
        se = np.mean([t.stderr[name] for t in tables], axis=0)
        keep = se > 0
        if se.ndim == 2:
            keep &= np.tri(len(se), dtype=bool)
        ratio = values.std(axis=0, ddof=1)[keep] / se[keep]
        checks[name] = (abs(float(np.median(ratio)) - 1.0), budget)
    return checks


# ----------------------------------------------------- acceptance criteria


def criterion_01(oracle: OracleParams, law: MPLaw) -> dict:
    """Oracle self-consistency: the response kernels at t = 0, the mass and
    mean of the quadrature law, its Stieltjes transform against the closed
    form, and the integrated FDT identity on 41 times in [0, 2]."""
    a0, b0, g0 = mp_oracle.resp_kernels(0.0, oracle, law)
    worst = max(abs(a0 - 1.0), abs(g0), abs(b0 + 1.0 / oracle.sigma2))
    worst = max(worst, abs(integrate(law, np.ones_like) - 1.0), abs(integrate(law, lambda x: x) - 1.0))
    for z in (-0.5, -1.0, -5.0):
        worst = max(worst, abs(stieltjes_m(z, oracle.delta) - integrate(law, lambda x: 1.0 / (x - z))))
    fdt = fdt_check(np.linspace(0.0, 2.0, 41), oracle, law)
    return {"identities": (worst, 1e-10), "fdt": (fdt, 1e-10)}


def criterion_03(table, linear_table, times) -> dict:
    """MC-DMFT against the linear engine (Gaussian prior) on the rows and
    columns nearest `times`: per kernel the worst absolute deviation, and for
    the Monte Carlo kernels, under "<kernel> band", the worst deviation in
    units of its 4 se band plus a float allowance. The eta-side kernels are
    propagated without Monte Carlo error and have no band."""
    idx = [int(np.argmin(np.abs(table.times - t))) for t in times]
    sub = np.ix_(idx, idx)
    checks, bands = {}, {}
    for name in ("c_theta", "c_theta_star", "r_theta", "c_eta", "r_eta"):
        a = getattr(table, name)
        diff = np.abs(np.nan_to_num(a - getattr(linear_table, name)))
        sel = (idx,) if a.ndim == 1 else sub
        checks[name] = (float(np.max(diff[sel])), 0.05)
        if name in ("c_theta", "c_theta_star", "r_theta"):
            band = 4 * table.stderr[name] + 1e-12
            bands[f"{name} band"] = (float(np.max(diff[sel] / band[sel])), 1.0)
    return checks | bands


def criterion_04(table, oracle: OracleParams, law: MPLaw, times) -> dict:
    """Simulator against the oracle: per kernel, the worst deviation of the
    table's rows nearest `times` from the continuous closed forms, the
    correlations on and below the diagonal, the responses below it."""
    idx = [int(np.argmin(np.abs(table.times - t))) for t in times]
    errs = dict.fromkeys(("c_theta", "c_theta_star", "c_eta", "r_theta", "r_eta"), 0.0)
    for a, t in zip(idx, times):
        errs["c_theta_star"] = max(
            errs["c_theta_star"], abs(table.c_theta_star[a] - mp_oracle.corr_kernels(t, t, oracle, law)[1])
        )
        for b, s in zip(idx, times):
            if s > t:
                continue
            cts, _, ce = mp_oracle.corr_kernels(t, s, oracle, law)
            errs["c_theta"] = max(errs["c_theta"], abs(table.c_theta[a, b] - cts))
            errs["c_eta"] = max(errs["c_eta"], abs(table.c_eta[a, b] - ce))
            if s < t:
                al, be, _ = mp_oracle.resp_kernels(t - s, oracle, law)
                errs["r_theta"] = max(errs["r_theta"], abs(table.r_theta[a, b] - al))
                errs["r_eta"] = max(errs["r_eta"], abs(table.r_eta[a, b] - (-(oracle.delta / oracle.sigma2) * be)))
    return {kernel: (err, 0.05) for kernel, err in errs.items()}


def criterion_05(table, sim_traces) -> dict:
    """Response identities: a DMFT table's base case R_theta(t+1, t) = gamma
    and its field identity, and the simulator's base case in `sim_traces`,
    response traces between two consecutive steps at the table's step."""
    gamma = table.gamma
    raw = table.r_theta * gamma
    base = max(abs(raw[t, t - 1] - gamma) for t in range(1, table.n_times))
    sim = max(abs(tr.r_theta[1, 0] - gamma) for tr in sim_traces)
    return {
        "engine base": (base, 1e-12),
        "field identity": (eta_response_identity_residual(table), 1e-12),
        "simulator base": (sim, 1e-14),
    }


def criterion_09(table, oracle: OracleParams, law: MPLaw) -> dict:
    """Long-time handoff: at the table's last time C_theta is at tau*^2 and
    C_eta at the stationary delta/sigma2 (matched prior)."""
    return {
        "c_theta": (abs(table.c_theta[-1, -1] - oracle.tau_star2), 0.01),
        "c_eta": (abs(table.c_eta[-1, -1] - ceta_stationary(0.0, oracle, law)), 0.02),
    }
