"""Closed-form correlation/response kernels for the fixed Gaussian prior.

All kernels are integrals against the Marcenko-Pastur law mu of the limiting
spectrum of X^T X / delta (entry variance 1/d, n/d -> delta):

    bulk support [(1 - delta^{-1/2})^2, (1 + delta^{-1/2})^2],
    density delta * sqrt((edge_hi - x)(x - edge_lo)) / (2 pi x),
    plus an atom of mass max(0, 1 - delta) at x = 0.

The drift scale is pinned to beta = 1/sigma2 (posterior sampling), which is
the regime where these closed forms hold.

Sign convention: the closed-form eta-side kernels beta_mp / gamma_mp are
expressed for the process written with a flipped Gaussian-field sign, so the
lab-wide (simulator / DMFT-engine) response kernels are

    R_theta(t, s)  = alpha_mp(t - s)
    R_eta(t, s)    = -(delta / sigma2) * beta_mp(t - s)   (>= 0 near diagonal)
    R_eta(t, *)    = -(delta / sigma2) * gamma_mp(t)      (<= 0)

`oracle_table` applies that mapping.

`resp_kernels` and `corr_kernels` also give the exact large-d kernels of the
Euler chain at step gamma > 0, the system the linear DMFT engine solves.
Each eigenmode of that chain is an AR(1) process with factor
rho = 1 - gamma h, so at t = k gamma, s = j gamma the continuous forms change
in three places:

    exp(-h t)                                -> rho^k  (signal terms)
    (exp(-h|t-s|) - exp(-h(t+s))) / h        -> (rho^|k-j| - rho^(k+j)) / (h (1 - gamma h / 2))
    alpha_mp, beta_mp at lag m = k - j >= 1  -> rho^(m-1) in place of exp(-h (t-s))

Their gap to the continuous forms is the scheme's O(gamma) step bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EXP_CAP = 745.0  # exp(-745) underflows to 0; larger exponents are treated as 0
MIN_QUAD_NODES = 8
_BLOCK_ENTRIES = 1 << 16  # times x nodes per temporary: 512 KB of float64


class UnsupportedOracleError(ValueError):
    """Raised when a closed form is requested outside its validity domain."""


@dataclass
class OracleParams:
    """Parameters of the Gaussian-prior oracle: g = N(0, 1/lam)."""

    lam: float
    sigma2: float
    delta: float
    tau_star2: float

    def __post_init__(self):
        for name in ("lam", "sigma2", "delta", "tau_star2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MPLaw:
    """Quadrature rule (nodes, weights, zero atom) for the spectral law."""

    delta: float
    nodes: np.ndarray
    weights: np.ndarray
    atom: float
    edge_hi: float


def mp_quadrature(delta: float, n_nodes: int = 400) -> MPLaw:
    """Gauss-Legendre rule under x = (lo + hi)/2 + r sin(phi), r = (hi - lo)/2,
    which absorbs the square-root edge singularities of the bulk density. The
    nodes are computed as lo + 2 r sin^2(phi/2 + pi/4), the same x without the
    cancellation at the lower edge, where lo = 0 at delta = 1."""
    if n_nodes < MIN_QUAD_NODES:
        raise ValueError(f"n_nodes must be >= {MIN_QUAD_NODES}")
    inv_sqrt = delta ** (-0.5)
    lo, hi = (1.0 - inv_sqrt) ** 2, (1.0 + inv_sqrt) ** 2
    r = 0.5 * (hi - lo)
    u, gw = _legendre_rule(n_nodes)
    phi = 0.5 * np.pi * u
    x = lo + 2.0 * r * np.sin(0.5 * phi + 0.25 * np.pi) ** 2
    w = gw * (0.5 * np.pi) * delta * (r * np.cos(phi)) ** 2 / (2.0 * np.pi * x)
    atom = max(0.0, 1.0 - delta)
    return MPLaw(delta=delta, nodes=x, weights=w, atom=atom, edge_hi=hi)


def _legendre_rule(n: int):
    """The nodes u of `leggauss`, weighted 2 / ((1 - u^2) P_n'(u)^2) by one pass of
    the three-term recurrence: leggauss's weights lose digits with n (sum w u^2
    - 2/3 is -1.6e-13 at 1600 nodes), these keep their moments to round-off."""
    u = np.polynomial.legendre.leggauss(n)[0]
    p_prev, p = np.ones_like(u), u
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * u * p - k * p_prev) / (k + 1)
    return u, 2.0 * (1 - u * u) / (n * (p_prev - u * p)) ** 2  # P_n' = n (P_{n-1} - u P_n) / (1 - u^2)


def _spectrum(oracle: OracleParams, law: MPLaw, gamma: float = 0.0):
    """Nodes x, weights w and rates h = lam + delta x / sigma2 of the law, the
    zero atom included as one more node. With gamma > 0, checks first that
    every mode of the Euler chain contracts (gamma h < 2)."""

    def rate(x):
        return oracle.lam + oracle.delta * x / oracle.sigma2

    if gamma > 0 and gamma * rate(law.edge_hi) >= 2.0:
        raise UnsupportedOracleError(
            f"gamma = {gamma} makes the Euler chain unstable (gamma * h_max >= 2)"
        )
    x, w = law.nodes, law.weights
    if law.atom > 0:
        x, w = np.append(x, 0.0), np.append(w, law.atom)
    return x, w, rate(x)


def _propagator(h, t, gamma: float):
    """Per-mode decay over time t, shape t.shape + h.shape: exp(-h t), or for
    the Euler chain at t = k gamma, rho^k with rho = 1 - gamma h."""
    t = np.asarray(t, dtype=float)[..., None]
    if gamma > 0:
        k = np.rint(t / gamma)
        if np.any(np.abs(t / gamma - k) > 1e-6):
            raise ValueError(f"t = {t[..., 0]} is not a multiple of the step gamma = {gamma}")
        return (1.0 - gamma * h) ** k.astype(int)
    return np.exp(-np.minimum(h * t, _EXP_CAP))


def _integral(f, w):
    """sum_n f[..., n] w[n]. An einsum, not `@`: OpenBLAS's threaded GEMV
    would make the last bits depend on the BLAS thread count."""
    return np.einsum("...n,n->...", f, w)


def _blocks(n_rows: int, n_nodes: int):
    """Slices of at most _BLOCK_ENTRIES // n_nodes rows (at least one) covering n_rows."""
    step = max(1, _BLOCK_ENTRIES // n_nodes)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _distinct(v):
    """Sorted distinct values of v and, shaped like v, the index of each entry
    among them. Equal floats share one evaluation, so they get equal bits."""
    values, inverse = np.unique(v.reshape(-1), return_inverse=True)
    return values, inverse.reshape(v.shape)


def _floats(*arrays):
    """Python floats for 0-d results, arrays otherwise."""
    return tuple(float(a) if np.ndim(a) == 0 else a for a in arrays)


def resp_kernels(t, oracle: OracleParams, law: MPLaw, gamma: float = 0.0):
    """Closed-form response kernels (alpha_mp(t), beta_mp(t), gamma_mp(t)),
    elementwise over t.

    alpha_mp(t) = int exp(-h t) mu(dx)
    beta_mp(t)  = -(1/sigma2) int x exp(-h t) mu(dx)
    gamma_mp(t) = (1/sigma2) int (x/h) (1 - exp(-h t)) mu(dx)
    with h = lam + delta x / sigma2.

    With gamma > 0 they are the Euler chain's kernels at t = k gamma, with
    rho = 1 - gamma h: exp(-h t) becomes rho^(k-1) in alpha_mp and beta_mp
    and rho^k in gamma_mp. The chain has no lag-0 response; at t = 0 alpha_mp
    and beta_mp take the lag-1 value, as the continuous ones take t -> 0+.

    Times are taken in blocks, so no temporary spans every time by every node;
    each entry is the same node sum whatever the block.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("resp_kernels requires t >= 0")
    x, w, h = _spectrum(oracle, law, gamma)
    flat, out = t.reshape(-1), np.empty((3, t.size))
    for rows in _blocks(t.size, x.size):
        tb = flat[rows]
        e = _propagator(h, tb, gamma)
        lag = np.maximum(tb - gamma, 0.0)
        e_lag = e if np.array_equal(lag, tb) else _propagator(h, lag, gamma)  # one evaluation at gamma = 0
        out[0, rows] = _integral(e_lag, w)
        out[1, rows] = -_integral(e_lag * x, w) / oracle.sigma2
        out[2, rows] = _integral((1.0 - e) * (x / h), w) / oracle.sigma2
    return _floats(*out.reshape((3,) + t.shape))


def corr_kernels(t, s, oracle: OracleParams, law: MPLaw, gamma: float = 0.0):
    """(C_theta(t,s), C_theta(t,*), C_eta(t,s)) for theta^0 = 0, elementwise
    over t and s broadcast together.

    C_theta(t,*) = delta tau*^2 gamma_mp(t); C_theta(t,s) carries a
    signal+noise term and a Brownian term; C_eta(t,s) is assembled from the
    squared-residual expansion of the eta-side process.

    With gamma > 0 they are the Euler chain's kernels at t = k gamma,
    s = j gamma: exp(-h t) becomes rho^k (rho = 1 - gamma h) and each Brownian
    term is divided by 1 - gamma h / 2.

    Both kernels are node sums of separable terms. With E_t = exp(-h t)
    (rho^k on the chain), U_t = 1 - E_t and E_{t+s} = E_t E_s, the product
    terms are einsums over the distinct t and the distinct s, so the cost
    grows with their product; the Brownian lag term E_{|t-s|} is integrated
    once per distinct lag, in blocks of lags.
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("corr_kernels requires t, s >= 0")
    dl, s2, t2 = oracle.delta, oracle.sigma2, oracle.tau_star2
    x, w, h = _spectrum(oracle, law, gamma)
    (t_u, t_i), (s_u, s_i), (lags, l_i) = (_distinct(v) for v in (t, s, np.abs(t - s)))
    e_t, e_s = _propagator(h, t_u, gamma), _propagator(h, s_u, gamma)
    u_t, u_s = 1.0 - e_t, 1.0 - e_s

    # Node weights of U_t U_s and of the Brownian term E_|t-s| - E_t E_s, one
    # row per kernel: C_theta, and sigma2^2 C_eta less its one-sided terms.
    uu = w * np.stack([dl**2 * t2 * x**2 + dl * s2 * x, dl**3 * t2 * x**3 + dl**2 * s2 * x**2]) / s2**2 / h**2
    brown = w * np.stack([np.ones_like(x), dl * x]) / h / (1.0 - 0.5 * gamma * h)
    pairs = np.einsum("kin,jn->kij", uu[:, None] * u_t, u_s) - np.einsum("kin,jn->kij", brown[:, None] * e_t, e_s)
    lag_sums = np.empty((2, lags.size))
    for rows in _blocks(lags.size, x.size):
        lag_sums[:, rows] = np.einsum("ln,kn->kl", _propagator(h, lags[rows], gamma), brown)
    c_ts, c_eta = pairs[:, t_i, s_i] + lag_sums[:, l_i]

    one_side = -w * (dl**2 * t2 * x**2 / s2 + dl * x) / h  # of U_t and of U_s in sigma2^2 C_eta
    c_eta = c_eta + _integral(u_t, one_side)[t_i] + _integral(u_s, one_side)[s_i]
    c_eta = c_eta / s2**2 + (dl * t2 / s2**2 + dl / s2)
    c_tstar = dl * t2 * resp_kernels(t_u, oracle, law, gamma)[2][t_i]
    return _floats(c_ts, c_tstar, c_eta)


def oracle_table(times, oracle: OracleParams, law: MPLaw):
    """Evaluate all closed-form kernels on a time grid as a KernelTable.

    Response grids are in density units and carry the lab sign convention;
    gamma is 0 to mark the table as a continuous (bias-free) source. The
    response entries come from one `resp_kernels` call on the distinct lags
    t - s (s < t) and times t, so each has the bits of a direct call.
    """
    from .kernels import KernelTable

    times = np.asarray(times, dtype=float)
    m = times.size
    c_theta, c_tstar, c_eta = corr_kernels(times[:, None], times, oracle, law)
    c_theta = np.tril(c_theta) + np.tril(c_theta, -1).T  # bit-exact symmetry
    c_eta = np.tril(c_eta) + np.tril(c_eta, -1).T
    rows, cols = np.tril_indices(m, -1)
    lags, at = _distinct(np.concatenate([times[rows] - times[cols], times]))
    alpha_mp, beta_mp, gamma_mp = resp_kernels(lags, oracle, law)
    scale = -(oracle.delta / oracle.sigma2)  # the lab sign convention of the eta responses
    r_theta, r_eta = np.full((m, m), np.nan), np.full((m, m), np.nan)
    r_theta[rows, cols] = alpha_mp[at[: rows.size]]
    r_eta[rows, cols] = scale * beta_mp[at[: rows.size]]
    return KernelTable(
        times=times,
        gamma=0.0,
        source="oracle",
        c_theta=c_theta,
        c_theta_star=np.diagonal(c_tstar).copy(),
        c_star_star=oracle.tau_star2,
        c_eta=c_eta,
        r_theta=r_theta,
        r_eta=r_eta,
        r_eta_star=scale * gamma_mp[at[rows.size :]],
    )
