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

One posterior pass (`_posterior`) gives log P(y), the posterior moments and,
on request, the posterior alpha-score of each channel output. Gaussian-mixture families use conjugate closed forms, read from the prior's
component columns (`GaussianMixture.channel_columns`); exp-family densities
(on their quadrature grid) use exact weighted-atom sums,
32 channel outputs at a time. When an exp-family truth and an exp-family
posterior share one uniform grid, the averages over the true channel use a
kernel that depends only on the lag between grid points (`_shifted_sums`):
one BLAS GEMM per `_TRUTH_ROWS` (4) truth rows and chunk of Gauss-Hermite
noise nodes. Each fixed-point sweep is one such pass, and the free energy
comes from the last.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .priors import ExpFamily, PriorFamily, SmoothHinge


def _prior_law(family, alpha, truth: bool = False):
    """The prior as Gaussian-mixture components or as weighted atoms.

    Returns (None, (nodes, masses)) for an exp-family prior, with masses
    proportional to the prior mass of each node; any other family is a
    Gaussian mixture and gives ((weights, means, precisions), None). An
    exp-family density becomes the atoms of its uniform grid (density times
    spacing). For `truth` nodes the grid is thinned to every `_TRUTH_STRIDE`-th
    point (4097 points give 513 nodes), because every truth node adds n_gh
    channel outputs at which the posterior is summed over all atoms.
    """
    if isinstance(family, ExpFamily):
        x, dens, _ = family._grid(alpha)
        if truth:
            x, dens = x[::_TRUTH_STRIDE], dens[::_TRUTH_STRIDE]
        return None, (x, dens * (x[1] - x[0]))
    return family.components(alpha), None


_TRUTH_STRIDE = 8  # exp-family truth nodes: every 8th point of the posterior's grid
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


def _posterior(y, g, omega: float, alpha=None, grad: bool = False):
    """The posterior of the scalar channel at each y, on a last axis:
    log P_{g, omega}(y), E[theta | y], E[theta^2 | y] and, with `grad`, the
    K columns of E[grad_alpha log g(theta, alpha) | y].

    Gaussian mixtures read one `channel_columns` update; exp-family priors
    take one `_atom_sums` pass over their grid atoms.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    y = np.asarray(y, dtype=float)
    components, atoms = _prior_law(g, alpha)
    if atoms is None:
        top, total, r, mu, v = g.channel_columns(y, omega, alpha)
        cols = [
            top + np.log(total),
            sum([r_k * mu_k for r_k, mu_k in zip(r, mu)], 0.0),
            sum([r_k * (v_k + np.square(mu_k)) for r_k, v_k, mu_k in zip(r, v, mu)], 0.0),
        ]
        if grad:
            cols += g._alpha_score_columns([mu_k - m_k for mu_k, m_k in zip(mu, components[1].tolist())], r)
        return np.stack(cols, axis=-1)
    nodes, masses = atoms
    stats = (nodes, nodes * nodes) + ((g.grad_alpha_log_g(nodes, alpha),) if grad else ())
    top, z, sums = _atom_sums(y, nodes, masses, omega, stats)
    log_p = top + np.log(z) - np.log(masses.sum()) + 0.5 * np.log(omega / (2 * np.pi))
    out = np.column_stack([log_p] + [(s.T / z).T for s in sums])
    return out.reshape(y.shape + out.shape[1:])


def posterior_moments(y, g, omega: float, alpha=None):
    """(posterior mean, posterior second moment) of the scalar channel.

    `g` is a PriorFamily with parameter `alpha`; Gaussian mixtures use
    conjugate closed forms, exp-family priors atom sums.
    """
    post = _posterior(y, g, omega, alpha)
    return _match_shape(post[..., 1], y), _match_shape(post[..., 2], y)


def _match_shape(value, template):
    return float(value) if np.isscalar(template) or np.asarray(template).ndim == 0 else value


def log_marginal(y, g, omega: float, alpha=None):
    """log P_{g, omega}(y): marginal density of the scalar channel."""
    return _match_shape(_posterior(y, g, omega, alpha)[..., 0], y)


def posterior_grad_alpha_mean(family: PriorFamily, alpha, y, omega: float):
    """Posterior average of grad_alpha log g(theta, alpha) given Y = y.

    Shape y.shape + (K,)."""
    return _posterior(y, family, omega, alpha, grad=True)[..., 3:]


@functools.lru_cache(maxsize=16)
def _hermite_rule(n_gh: int):
    """Gauss-Hermite (probabilists') nodes and weights, built once per n_gh.
    Read-only, since every caller shares them."""
    x, w = np.polynomial.hermite_e.hermegauss(n_gh)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _true_channel(family, alpha, omega_star: float, n_gh: int):
    """Tensorized quadrature of the true channel (g_star; 1/omega_star).

    Returns the theta_star nodes as a column, the Gauss-Hermite noise offsets
    c (the outputs are y = theta_star + c) and their joint weights. theta_star
    takes Gauss-Hermite nodes per mixture component or the prior's atoms."""
    components, atoms = _prior_law(family, alpha, truth=True)
    x, w = _hermite_rule(n_gh)
    if atoms is None:
        pw, pm, pp = components
        tn = (pm[:, None] + x[None, :] / np.sqrt(pp)[:, None]).ravel()
        tw = (pw[:, None] * w[None, :] / w.sum()).ravel()
    else:
        tn, masses = atoms
        tw = masses / masses.sum()
    return tn[:, None], x / np.sqrt(omega_star), tw[:, None] * (w / w.sum())[None, :]


_NODES = 8  # noise nodes per lag-kernel GEMM; a fixed shape, since it sets the sums' last bits
_TRUTH_ROWS = 4  # truth rows per lag-kernel GEMM; 2 or 4 keep the bits of one row per GEMM, 8 does not at q = 5
_Z_FLOOR = np.exp(-600.0)  # a scaled z below this goes back to the log-space _atom_sums


def _shifted_sums(x, masses, stride: int, c, omega: float, stats):
    """The posterior at y[i, k] = x[stride i] + c[k], in `_posterior`'s layout.

    On the exactly uniform grid x, with spacing h, atom j weighs
    (masses_j / max masses) exp(-omega ((stride i - j) h + c_k)^2 / 2): the
    kernel depends only on the lag stride i - j, so each noise node takes one
    exp per lag. The weights of output (i, k) are the window of that kernel
    starting at lag index stride i, read against the reversed masses. The
    kernels of _NODES noise nodes are built in place in one array, one row per
    node, and the truth rows i = J b + j (j < J = _TRUTH_ROWS) share the
    window of length n + stride (J - 1) starting at lag index stride J b. In
    the statistic blocks, a zero-padded (J q, n + stride (J - 1)) array, block
    j holds the (q, n) columns of the weights and the weighted statistics,
    shifted right by stride j. One BLAS GEMM of each (_NODES, n + stride (J - 1))
    window, a view with the kernel's leading dimension, against the transposed
    blocks gives J truth rows (OpenBLAS packs that layout faster, and there it
    keeps the bits of one GEMM per truth row), through one (nb, _NODES, J q)
    buffer into their place in the output. Every sum is one dot over the n
    atoms plus exact zeros; at these sizes OpenBLAS keeps the product on the
    calling thread, so the bits do not depend on the BLAS thread count.

    The (rows, c.size, q) sums become log P (from z, the weights' sum) and
    the posterior means of the statistics in place. Returns them and the mask
    of outputs whose z fell below `_Z_FLOOR`, which hold no values.
    """
    n, q, J = x.size, len(stats) + 1, _TRUTH_ROWS
    rows = len(range(0, n, stride))
    nb = -(-rows // J)
    span = n + stride * (J - 1)
    weights = masses / masses.max()
    reversed_cols = np.stack([weights] + [weights * s for s in stats])[:, ::-1]
    blocks = np.zeros((J, q, span))
    for j in range(J):
        blocks[j, :, stride * j : stride * j + n] = reversed_cols
    cols = blocks.reshape(J * q, span).T
    # the lags of every window, past 2n - 1 for the truth rows of a ragged last block
    lags = np.arange(1 - n, 1 - n + stride * J * (nb - 1) + span) * (x[1] - x[0])
    buf = np.empty((nb, _NODES, J * q))
    out = np.empty((nb * J, c.size, q))
    for k in range(0, c.size, _NODES):
        kern = lags + c[k : k + _NODES, None]
        np.square(kern, out=kern)
        kern *= -0.5 * omega
        np.exp(kern, out=kern)
        windows = sliding_window_view(kern, span, axis=1)[:, :: stride * J].swapaxes(0, 1)
        prod = np.matmul(windows, cols, out=buf[:, : len(kern)])
        out.reshape(nb, J, c.size, q)[:, :, k : k + _NODES] = prod.reshape(nb, -1, J, q).swapaxes(1, 2)
    out = out[:rows]
    z = out[..., 0]
    low = z < _Z_FLOOR
    z[low] = 1.0  # no log(0) or 0/0 in outputs that hold no values
    out[..., 1:] /= out[..., :1]
    np.log(z, out=z)
    z += np.log(masses.max() / masses.sum())
    z += 0.5 * np.log(omega / (2 * np.pi))
    return out, low


def _channel_posterior(
    g_star, alpha_star, g, alpha, omega: float, omega_star: float, n_gh: int, grad: bool = False
):
    """The theta_star column and the joint weights of `_true_channel`, and
    `_posterior` under (g; omega) at each output of that true channel
    (g_star; 1/omega_star). When g_star and g are exp families on one exactly
    uniform grid, `_shifted_sums` gives it, and only the outputs whose scaled
    z falls below `_Z_FLOOR` take `_posterior`.
    """
    tn, c, w2d = _true_channel(g_star, alpha_star, omega_star, n_gh)
    if isinstance(g_star, ExpFamily) and isinstance(g, ExpFamily):
        _, (x, masses) = _prior_law(g, alpha)
        uniform = x[0] + (x[1] - x[0]) * np.arange(x.size)
        if np.array_equal(g_star._grid(alpha_star)[0], x) and np.array_equal(x, uniform):
            stats = [x, x * x] + (list(g.grad_alpha_log_g(x, alpha).T) if grad else [])
            post, low = _shifted_sums(x, masses, _TRUTH_STRIDE, c, omega, stats)
            if low.any():
                post[low] = _posterior((tn + c)[low], g, omega, alpha, grad)
            return tn, w2d, post
    return tn, w2d, _posterior(tn + c, g, omega, alpha, grad)


def _channel_averages(g_star, alpha_star, g, alpha, omega: float, omega_star: float, n_gh: int):
    """mse, mse_star and E log P_{g, omega}(Y) over the true channel, from one
    posterior pass."""
    if omega <= 0 or omega_star <= 0:
        raise ValueError("channel precisions must be positive")
    tn, w2d, post = _channel_posterior(g_star, alpha_star, g, alpha, omega, omega_star, n_gh)
    log_p, m1, m2 = post[..., 0], post[..., 1], post[..., 2]
    mse = float(np.sum(w2d * (m2 - m1**2)))
    mse_star = float(np.sum(w2d * (tn - m1) ** 2))
    return mse, mse_star, float(np.sum(w2d * log_p))


def mse_pair(g_star, g, omega: float, omega_star: float, alpha_star=None, alpha=None, n_gh: int = 64):
    """(mse, mse_star) of the two-prior scalar channel: truth (g_star; 1/omega_star),
    posterior under (g; omega). The posterior variance and the truth error are
    averaged over the true channel by tensorized quadrature (Gauss-Hermite in the noise)."""
    return _channel_averages(g_star, alpha_star, g, alpha, omega, omega_star, n_gh)[:2]


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
    e_logp = _channel_averages(g_star, alpha_star, g, alpha, omega, omega_star, n_gh)[2]
    return _free_energy(e_logp, omega, omega_star, delta, sigma2)


def _free_energy(e_logp: float, omega: float, omega_star: float, delta: float, sigma2: float) -> float:
    s = 1.0 / sigma2
    bracket = (
        2 * delta
        + np.log(2 * np.pi / omega)
        - delta * np.log(delta * s / omega)
        + (1 - delta) * omega / omega_star
        + (omega / s) * (omega / omega_star - 2.0)
    )
    return -e_logp - 0.5 * bracket


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

    def to_dict(self) -> dict:
        return {**asdict(self), "sweeps": len(self.residual_trace)}


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
) -> EquilibriumSolution:
    """Damped iteration of omega <- delta/(sigma2 + mse(omega, omega_star)).

    The truth prior is g_star at alpha_star, the posterior prior g at alpha;
    each is a PriorFamily. Starts from omega = omega_star =
    delta/sigma2; on oscillation the step is halved. Each sweep is one pass
    over the channel posterior, and the free energy is read from the last.
    Raises RuntimeError on non-convergence; its `residual_trace` holds the trace.
    """
    if delta <= 0 or sigma2 <= 0:
        raise ValueError("delta and sigma2 must be positive")
    omega = omega_star = delta / sigma2
    rho = _DAMPING
    trace = []
    prev_res = np.inf
    for _ in range(_MAX_SWEEPS):
        mse, mse_star, e_logp = _channel_averages(g_star, alpha_star, g, alpha, omega, omega_star, n_gh)
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
    else:
        error = RuntimeError(f"fixed point did not converge: last residual {trace[-1]:.3e} after {len(trace)} sweeps")
        error.residual_trace = trace
        raise error
    c_tti0 = delta / sigma2 - omega
    c_inf = omega**2 / omega_star
    ymse = sigma2**2 / delta * c_tti0
    ymse_star = sigma2**2 / delta * (c_inf + 2 * c_tti0) - sigma2
    return EquilibriumSolution(
        omega=omega,
        omega_star=omega_star,
        mse=mse,
        mse_star=mse_star,
        ymse=ymse,
        ymse_star=ymse_star,
        free_energy=_free_energy(e_logp, omega, omega_star, delta, sigma2),
        residual_trace=trace,
    )


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
    sol = solve_fixed_point(delta, sigma2, g_star, prior_family, alpha_star, alpha, n_gh=n_gh)
    _, w2d, post = _channel_posterior(
        g_star, alpha_star, prior_family, alpha, sol.omega, sol.omega_star, n_gh, grad=True
    )
    out = -np.sum(w2d[..., None] * post[..., 3:], axis=(0, 1))
    if regularizer is not None:
        out = out + regularizer.grad(alpha)
    return out
