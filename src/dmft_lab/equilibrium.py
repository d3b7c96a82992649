"""Scalar-channel posterior computations and the static fixed point.

The channel is Y = theta + z with theta ~ g and noise precision omega; the
equilibrium pair (omega, omega_star) solves

    omega      = delta / (sigma2 + mse),
    omega_star = delta / (sigma2 + mse_star),

where mse is the channel posterior variance and mse_star the squared error
against the truth, both averaged over the true channel (g_star; 1/omega_star).
Prediction errors follow from the residual-kernel identities
c_eta_tti(0) = delta/sigma2 - omega and c_eta_inf = omega^2 / omega_star:

    ymse      = (sigma2^2 / delta) c_eta_tti(0)
    ymse_star = (sigma2^2 / delta) (c_eta_inf + 2 c_eta_tti(0)) - sigma2.

Gaussian-mixture families use conjugate closed forms, read from the prior's
component columns (`GaussianMixture.channel_columns`); discrete priors and
exp-family densities (on their quadrature grid) use exact weighted-atom sums,
32 channel outputs at a time. When an exp-family truth and an exp-family
posterior share one uniform grid, the averages over the true channel use a
kernel that depends only on the lag between grid points (`_shifted_sums`):
one BLAS GEMM per truth row and chunk of Gauss-Hermite noise nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .priors import ExpFamily, PriorFamily, SmoothHinge


class DiscretePrior:
    """Finite-support prior for scalar-channel computations only.

    Not a drift-capable family (no smooth score); posterior averages are exact
    atom sums. Covers e.g. the symmetric two-point prior."""

    def __init__(self, atoms, weights):
        self.atoms = np.asarray(atoms, dtype=float)
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        self.weights = w / w.sum()


def _prior_law(family, alpha, truth: bool = False, grid=None):
    """The prior as Gaussian-mixture components or as weighted atoms.

    Returns (None, (nodes, masses)) for a discrete or exp-family prior, with
    masses proportional to the prior mass of each node; any other family is a
    Gaussian mixture and gives ((weights, means, precisions), None). An
    exp-family density becomes the atoms of its quadrature grid (density times
    cell width). For `truth` nodes that grid is thinned by `_truth_stride`
    (4097 points give 513 nodes), because every truth node adds n_gh channel
    outputs at which the posterior is summed over all atoms. `grid` is the
    exp family's `_grid(alpha)`, when the caller has built it already.
    """
    if isinstance(family, DiscretePrior):
        return None, (family.atoms, family.weights)
    if isinstance(family, ExpFamily):
        x, dens, _ = family._grid(alpha) if grid is None else grid
        if truth:
            stride = _truth_stride(x.size)
            x, dens = x[::stride], dens[::stride]
        return None, (x, dens * np.gradient(x))
    return family.components(alpha), None


def _truth_stride(n_grid: int) -> int:
    return max(1, n_grid // 512)


_ROWS = 32  # rows of the posterior held at once; a multiple of 4 (see _atom_sums)


def _atom_sums(y, nodes, masses, omega, stats=()):
    """Row sums of the posterior weights of the atoms for each flattened y.

    Row i weighs atom j by w_ij = exp(l_ij - top_i), with
    l_ij = log(masses_j) - omega (y_i - nodes_j)^2 / 2 and top_i its row
    maximum. Returns (top, z, sums): z_i = sum_j w_ij, and for each statistic
    s in `stats` (atoms along its first axis) the row sums w @ s.

    The weights exist only _ROWS rows at a time, in one reused buffer that
    stays in cache; no (y, atoms) matrix is formed. Each row is built by the
    same operations as in the whole matrix, and OpenBLAS's GEMV takes rows in
    fours, so blocks of a multiple of 4 rows give the bits of the whole
    matrix. A 2-D statistic makes a GEMM, whose last bits depend on the block.
    """
    y = np.ravel(y)
    log_mass = np.log(masses + 1e-300)
    top, z = np.empty(y.size), np.empty(y.size)
    sums = [np.empty(y.shape + np.shape(s)[1:]) for s in stats]
    buf = np.empty((min(_ROWS, y.size), nodes.size))
    for r0 in range(0, y.size, _ROWS):
        rows = slice(r0, r0 + _ROWS)
        w = buf[: y[rows].size]
        np.subtract(y[rows, None], nodes, out=w)
        np.square(w, out=w)
        w *= 0.5 * omega
        np.subtract(log_mass, w, out=w)
        np.max(w, axis=1, out=top[rows])
        w -= top[rows, None]
        np.exp(w, out=w)
        np.sum(w, axis=1, out=z[rows])
        for s, out in zip(stats, sums):
            out[rows] = w @ s
    return top, z, sums


def posterior_moments(y, g, omega: float, alpha=None):
    """(posterior mean, posterior second moment) of the scalar channel.

    `g` is a PriorFamily or DiscretePrior with parameter `alpha`; Gaussian
    mixtures use conjugate closed forms, discrete and exp-family priors atom sums.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    y_arr = np.asarray(y, dtype=float)
    _, atoms = _prior_law(g, alpha)
    if atoms is None:
        _, _, r, mu, v = g.channel_columns(y_arr, omega, alpha)
        m1 = sum([r_k * mu_k for r_k, mu_k in zip(r, mu)], 0.0)
        m2 = sum([r_k * (v_k + np.square(mu_k)) for r_k, v_k, mu_k in zip(r, v, mu)], 0.0)
    else:
        nodes, masses = atoms
        _, z, (s1, s2) = _atom_sums(y_arr, nodes, masses, omega, (nodes, nodes * nodes))
        m1 = (s1 / z).reshape(y_arr.shape)
        m2 = (s2 / z).reshape(y_arr.shape)
    return _match_shape(m1, y), _match_shape(m2, y)


def _match_shape(value, template):
    return float(value) if np.isscalar(template) or np.asarray(template).ndim == 0 else value


def log_marginal(y, g, omega: float, alpha=None):
    """log P_{g, omega}(y): marginal density of the scalar channel."""
    y_arr = np.asarray(y, dtype=float)
    _, atoms = _prior_law(g, alpha)
    if atoms is None:
        top, total, *_ = g.channel_columns(y_arr, omega, alpha)
        out = top + np.log(total)
    else:
        nodes, masses = atoms
        top, z, _ = _atom_sums(y_arr, nodes, masses / masses.sum(), omega)
        out = (top + np.log(z) + 0.5 * np.log(omega / (2 * np.pi))).reshape(y_arr.shape)
    return _match_shape(out, y)


@functools.lru_cache(maxsize=16)
def _hermite_rule(n_gh: int):
    """Gauss-Hermite (probabilists') nodes and weights, built once per n_gh.
    Read-only, since every caller shares them."""
    x, w = np.polynomial.hermite_e.hermegauss(n_gh)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _true_channel(family, alpha, omega_star: float, n_gh: int, grid=None):
    """Tensorized quadrature of the true channel (g_star; 1/omega_star).

    Returns the theta_star nodes as a column, the outputs y = theta_star + z
    (nodes by Gauss-Hermite noise nodes) and their joint weights. theta_star
    takes Gauss-Hermite nodes per mixture component or the prior's atoms."""
    components, atoms = _prior_law(family, alpha, truth=True, grid=grid)
    x, w = _hermite_rule(n_gh)
    if atoms is None:
        pw, pm, pp = components
        tn = (pm[:, None] + x[None, :] / np.sqrt(pp)[:, None]).ravel()
        tw = (pw[:, None] * w[None, :] / w.sum()).ravel()
    else:
        tn, masses = atoms
        tw = masses / masses.sum()
    y = tn[:, None] + x[None, :] / np.sqrt(omega_star)
    return tn[:, None], y, tw[:, None] * (w / w.sum())[None, :]


_NODES = 8  # noise nodes per lag-kernel GEMM; a fixed shape, since it sets the sums' last bits


def _shifted_sums(x, masses, stride: int, c, omega: float, stats):
    """z and the statistic sums of the posterior at y[i, k] = x[stride i] + c[k].

    On the exactly uniform grid x, with spacing h, atom j weighs
    (masses_j / max masses) exp(-omega ((stride i - j) h + c_k)^2 / 2): the
    kernel depends only on the lag stride i - j, so each noise node takes one
    exp per lag. The weights of output (i, k) are the window of that kernel
    starting at lag index stride i, read against the reversed masses. The
    kernels of _NODES noise nodes are built in place in one (_NODES, 2n - 1) array,
    and each truth row's windows are a (_NODES, n) view of it with leading
    dimension 2n - 1, which one BLAS GEMM takes without a copy against the
    (n, q) statistic columns (a transposed (q, n) array: OpenBLAS packs that
    layout faster). Every sum is one dot over the n atoms; at these sizes
    OpenBLAS keeps the product on the calling thread, so the bits do not
    depend on the BLAS thread count. Returns z, (rows, c.size), and the sums
    of the statistics, (rows, c.size, len(stats)).
    """
    n = x.size
    weights = masses / masses.max()
    cols = np.ascontiguousarray(np.stack([weights] + [weights * s for s in stats])[:, ::-1]).T
    lags = np.arange(1 - n, n) * (x[1] - x[0])
    out = np.empty((len(range(0, n, stride)), c.size, len(stats) + 1))
    for k in range(0, c.size, _NODES):
        kern = lags + c[k : k + _NODES, None]
        np.square(kern, out=kern)
        kern *= -0.5 * omega
        np.exp(kern, out=kern)
        windows = sliding_window_view(kern, n, axis=1)[:, ::stride].swapaxes(0, 1)
        np.matmul(windows, cols, out=out[:, k : k + _NODES])
    return out[..., 0], out[..., 1:]


_Z_FLOOR = np.exp(-600.0)  # a scaled z below this goes back to the log-space _atom_sums


def _channel_posterior(kind: str, g_star, alpha_star, g, alpha, omega: float, omega_star: float, n_gh: int):
    """The posterior under (g; omega) at each output of the true channel
    (g_star; 1/omega_star).

    Returns the theta_star column and the joint weights of `_true_channel`,
    and per output: for `kind` "moments" the posterior mean and second moment
    (last axis), for "log_marginal" log P_{g, omega}(y), for "grad_alpha" the
    posterior mean of grad_alpha log g (last axis). These are the public
    per-y functions at the outputs, unless g_star and g are exp families on
    one exactly uniform grid; then `_shifted_sums` gives them, and only the
    outputs whose scaled z falls below `_Z_FLOOR` take the per-y functions.
    """
    if kind == "moments":
        per_y = lambda y: np.stack(posterior_moments(y, g, omega, alpha), axis=-1)
        stats = lambda x: [x, x * x]
    elif kind == "log_marginal":
        per_y = lambda y: log_marginal(y, g, omega, alpha)
        stats = lambda x: []
    else:
        per_y = lambda y: posterior_grad_alpha_mean(g, alpha, y, omega)
        stats = lambda x: list(g.grad_alpha_log_g(x, alpha).T)
    if not (isinstance(g_star, ExpFamily) and isinstance(g, ExpFamily)):
        tn, y, w2d = _true_channel(g_star, alpha_star, omega_star, n_gh)
        return tn, w2d, per_y(y)
    # one grid per (family, alpha): the truth's, and the posterior's unless it is the same
    star_grid = g_star._grid(alpha_star)
    grid = star_grid if g is g_star and np.array_equal(alpha, alpha_star) else g._grid(alpha)
    tn, y, w2d = _true_channel(g_star, alpha_star, omega_star, n_gh, star_grid)
    _, (x, masses) = _prior_law(g, alpha, grid=grid)
    uniform = x[0] + (x[1] - x[0]) * np.arange(x.size)
    if not (np.array_equal(star_grid[0], x) and np.array_equal(x, uniform)):
        return tn, w2d, per_y(y)
    c = _hermite_rule(n_gh)[0] / np.sqrt(omega_star)
    z, sums = _shifted_sums(x, masses, _truth_stride(x.size), c, omega, stats(x))
    low = z < _Z_FLOOR
    z[low] = 1.0  # no log(0) or 0/0: these outputs are replaced below
    if kind == "log_marginal":
        out = np.log(z) + np.log(masses.max() / masses.sum()) + 0.5 * np.log(omega / (2 * np.pi))
    else:
        out = sums / z[..., None]
    if low.any():
        out[low] = per_y(y[low])
    return tn, w2d, out


def mse_pair(g_star, g, omega: float, omega_star: float, alpha_star=None, alpha=None, n_gh: int = 64):
    """(mse, mse_star) of the two-prior scalar channel: truth (g_star; 1/omega_star),
    posterior under (g; omega). The posterior variance and the truth error are
    averaged over the true channel by tensorized quadrature (Gauss-Hermite in the noise)."""
    if omega <= 0 or omega_star <= 0:
        raise ValueError("channel precisions must be positive")
    tn, w2d, post = _channel_posterior("moments", g_star, alpha_star, g, alpha, omega, omega_star, n_gh)
    m1, m2 = post[..., 0], post[..., 1]
    mse = float(np.sum(w2d * (m2 - m1**2)))
    mse_star = float(np.sum(w2d * (tn - m1) ** 2))
    return mse, mse_star


@dataclass
class EquilibriumSolution:
    omega: float
    omega_star: float
    mse: float
    mse_star: float
    ymse: float
    ymse_star: float
    free_energy: float
    residual_trace: list = field(default_factory=list)
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "omega_star": self.omega_star,
            "mse": self.mse,
            "mse_star": self.mse_star,
            "ymse": self.ymse,
            "ymse_star": self.ymse_star,
            "free_energy": self.free_energy,
            "converged": self.converged,
            "sweeps": len(self.residual_trace),
            "residual_trace": self.residual_trace,
        }


_DAMPING = 0.5  # the first step of the damped fixed-point iteration; halved on oscillation
_MAX_SWEEPS = 10000


def solve_fixed_point(
    delta: float,
    sigma2: float,
    g_star,
    g,
    alpha_star=None,
    alpha=None,
    tol: float = 1e-10,
    n_gh: int = 64,
    with_free_energy: bool = True,
) -> EquilibriumSolution:
    """Damped iteration of omega <- delta/(sigma2 + mse(omega, omega_star)).

    The truth prior is g_star at alpha_star, the posterior prior g at alpha;
    each is a PriorFamily or a DiscretePrior. Starts from omega = omega_star =
    delta/sigma2; on oscillation the step is halved. Raises on non-convergence
    with the residual trace attached.
    """
    if delta <= 0 or sigma2 <= 0:
        raise ValueError("delta and sigma2 must be positive")
    omega = omega_star = delta / sigma2
    rho = _DAMPING
    trace = []
    prev_res = np.inf
    mse = mse_star = np.nan
    for _ in range(_MAX_SWEEPS):
        mse, mse_star = mse_pair(g_star, g, omega, omega_star, alpha_star, alpha, n_gh)
        target_o = delta / (sigma2 + mse)
        target_s = delta / (sigma2 + mse_star)
        res = max(abs(omega - target_o), abs(omega_star - target_s))
        trace.append(res)
        if res <= tol:
            break
        if res > prev_res:  # oscillation: damp harder
            rho = max(rho * 0.5, 1e-3)
        prev_res = res
        omega = (1 - rho) * omega + rho * target_o
        omega_star = (1 - rho) * omega_star + rho * target_s
    converged = trace[-1] <= tol
    if not converged:
        raise RuntimeError(
            f"fixed point did not converge: last residual {trace[-1]:.3e} after {len(trace)} sweeps"
        )
    c_tti0 = delta / sigma2 - omega
    c_inf = omega**2 / omega_star
    ymse = sigma2**2 / delta * c_tti0
    ymse_star = sigma2**2 / delta * (c_inf + 2 * c_tti0) - sigma2
    fe = (
        free_energy(omega, omega_star, g_star, g, delta, sigma2, alpha_star, alpha, n_gh)
        if with_free_energy
        else np.nan
    )
    return EquilibriumSolution(
        omega=omega,
        omega_star=omega_star,
        mse=mse,
        mse_star=mse_star,
        ymse=ymse,
        ymse_star=ymse_star,
        free_energy=fe,
        residual_trace=trace,
        converged=converged,
    )


def free_energy(
    omega: float,
    omega_star: float,
    g_star,
    g,
    delta: float,
    sigma2: float,
    alpha_star=None,
    alpha=None,
    n_gh: int = 64,
) -> float:
    """Replica free energy f(omega, omega_star, s) at s = 1/sigma2.

    f = -E_{g_star, omega_star} log P_{g, omega}(Y)
        - (1/2) (2 delta + log(2 pi / omega) - delta log(delta s / omega)
                 + (1 - delta) omega/omega_star
                 + (omega/s)(omega/omega_star - 2)).
    """
    if omega <= 0 or omega_star <= 0:
        raise ValueError("precisions must be positive")
    _, w2d, logp = _channel_posterior("log_marginal", g_star, alpha_star, g, alpha, omega, omega_star, n_gh)
    e_logp = float(np.sum(w2d * logp))
    s = 1.0 / sigma2
    bracket = (
        2 * delta
        + np.log(2 * np.pi / omega)
        - delta * np.log(delta * s / omega)
        + (1 - delta) * omega / omega_star
        + (omega / s) * (omega / omega_star - 2.0)
    )
    return -e_logp - 0.5 * bracket


def posterior_grad_alpha_mean(family: PriorFamily, alpha, y, omega: float):
    """Posterior average of grad_alpha log g(theta, alpha) given Y = y.

    Shape y.shape + (K,)."""
    y_arr = np.asarray(y, dtype=float)
    components, atoms = _prior_law(family, alpha)
    if atoms is None:
        _, _, r, mu, _ = family.channel_columns(y_arr, omega, alpha)
        cols = family._alpha_score_columns([mu_k - m_k for mu_k, m_k in zip(mu, components[1].tolist())], r)
        return np.stack(cols, axis=-1) if cols else np.zeros(y_arr.shape + (0,))
    nodes, masses = atoms
    _, z, (s,) = _atom_sums(y_arr, nodes, masses, omega, (family.grad_alpha_log_g(nodes, alpha),))
    return (s / z[:, None]).reshape(y_arr.shape + (family.dim_alpha,))


def grad_F(
    alpha,
    delta: float,
    sigma2: float,
    g_star,
    prior_family: PriorFamily,
    alpha_star=None,
    regularizer: Optional[SmoothHinge] = None,
    n_gh: int = 64,
) -> np.ndarray:
    """Gradient of the limiting free energy in the prior parameter:
    grad F(alpha) = -E[grad_alpha log g(theta, alpha)] under the joint
    scalar-channel law at the alpha-dependent fixed point."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    sol = solve_fixed_point(
        delta, sigma2, g_star, prior_family, alpha_star, alpha, n_gh=n_gh, with_free_energy=False
    )
    _, w2d, gmean = _channel_posterior(
        "grad_alpha", g_star, alpha_star, prior_family, alpha, sol.omega, sol.omega_star, n_gh
    )
    out = -np.sum(w2d[..., None] * gmean, axis=(0, 1))
    if regularizer is not None:
        out = out + regularizer.grad(alpha)
    return out
