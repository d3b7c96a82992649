"""Discrete-time DMFT self-consistency solver.

The system is built iteratively in time: the scalar theta-side is advanced by
Monte Carlo over an ensemble of effective paths driven by a conditionally
sampled Gaussian memory field u, while the eta-side is linear in its Gaussian
inputs and is propagated deterministically on covariances (zero Monte Carlo
error). Response kernels follow their own closed recursions.

Internal state uses the raw per-step response units (theta-response base case
equals the step gamma); exported KernelTable grids are in density units
(raw / gamma), with the signal-field response r_eta_star kept in its natural
O(1) units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import KernelTable
from .model import ModelParams, check_divergence, component_rng
from .priors import PriorSpec, SmoothHinge, gradient_map_G

_STREAM_THETA_STAR = 101
_STREAM_THETA0 = 102
_STREAM_U = 103
_STREAM_BROWNIAN = 104

_DEFAULT_RESPONSE_BUDGET = 2 * 1024**3  # bytes for the per-path response array
_ROW_BLOCK = 32  # per-path response rows widened to float64 at a time


class IllConditionedKernelError(RuntimeError):
    """Cholesky extension failed beyond the jitter budget."""


class MemoryBudgetError(RuntimeError):
    """Per-path response storage would exceed the configured cap."""


class CholeskyExtender:
    """Lower-triangular Cholesky factor grown one row per time step.

    Conditional variances in [-1e-10, 0] are clamped to 0 (degenerate kernels
    are legitimate, e.g. a point-mass initial law); smaller values trigger
    escalating diagonal jitter 1e-12 -> 1e-8 before failing.
    """

    CLAMP_TOL = 1e-10
    JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

    def __init__(self, max_size: int):
        # Unit diagonal on degenerate rows keeps forward substitution well
        # posed (the corresponding coefficient comes out ~0).
        self._L_solve = np.eye(max_size)
        self.size = 0
        self.clamped_steps: list[int] = []
        self.jitter_log: list[tuple[int, float]] = []

    def extend(self, new_row: np.ndarray, new_diag: float) -> tuple[np.ndarray, float]:
        """Add one variable; returns (solve coefficients a, conditional sd).

        The conditional law of the new variable given the past is
        N(a . z_past, sd^2) where z_past are the standardized innovations.
        """
        k = self.size
        new_row = np.asarray(new_row, dtype=float)
        if new_row.shape != (k,):
            raise ValueError(f"expected covariance row of length {k}")
        L = self._L_solve
        a = np.empty(k)
        for i in range(k):
            a[i] = (new_row[i] - L[i, :i] @ a[:i]) / L[i, i]
        cond_var = float(new_diag - a @ a)
        for jit in self.JITTERS:
            if cond_var + jit >= -self.CLAMP_TOL:
                break
        else:
            raise IllConditionedKernelError(
                f"conditional variance {cond_var:.3e} at step {k} exceeds the jitter budget"
            )
        if jit > 0:
            self.jitter_log.append((k, jit))
        cond_var = cond_var + jit
        if cond_var < 0:
            self.clamped_steps.append(k)
            cond_var = 0.0
        sd = float(np.sqrt(cond_var))
        self._L_solve[k, :k] = a
        self._L_solve[k, k] = sd if sd > 0 else 1.0
        self.size = k + 1
        return a, sd


class EtaSide:
    """Deterministic propagation of the residual-side kernels.

    xi^t = eta^t + w* - eps is linear in (w*, eps, w^0..w^T); the recursion is
    applied to its coefficient vectors, and C_eta follows from the joint input
    covariance assembled out of the theta-side correlation grids.
    """

    def __init__(self, n_steps: int, sigma2: float, delta: float, beta: float):
        T = n_steps
        self.T, self.sigma2, self.delta, self.beta = T, sigma2, delta, beta
        self.xi = np.zeros((T + 1, T + 3))  # basis: (w*, eps, w^0..w^T)
        self.sig = np.zeros((T + 3, T + 3))  # input covariance, grown with C_theta
        self.sig[1, 1] = sigma2
        self.c_eta = np.full((T + 1, T + 1), np.nan)
        self.r_eta_raw = np.zeros((T + 1, T + 1))  # delta*beta * deta^t/dw^s, s < t
        self.deta_dwstar = np.zeros(T + 1)
        self._deta_dw = np.zeros((T + 1, T + 1))  # deta^t/dw^s before delta*beta scaling

    def add_step(self, t, c_theta_row, c_theta_star_t, c_star_star, r_theta_raw_row):
        """Ingest theta-side grids at time t and emit the eta-side row t.

        c_theta_row: C_theta(t, 0..t); r_theta_raw_row: R_theta^step(t, 0..t-1).
        """
        beta, delta = self.beta, self.delta
        # Grow the input covariance with the new theta row.
        self.sig[0, 0] = c_star_star
        self.sig[0, 2 + t] = self.sig[2 + t, 0] = c_theta_star_t
        self.sig[2 + t, 2 : 3 + t] = c_theta_row
        self.sig[2 : 3 + t, 2 + t] = c_theta_row

        row = -beta * (r_theta_raw_row @ self.xi[:t]) if t else np.zeros(self.T + 3)
        row[0] += 1.0
        row[1] -= 1.0
        row[2 + t] -= 1.0
        self.xi[t] = row

        k = 3 + t
        sv = self.sig[:k, :k] @ self.xi[t, :k]
        self.c_eta[t, : t + 1] = delta * beta**2 * (self.xi[: t + 1, :k] @ sv)
        self.c_eta[: t + 1, t] = self.c_eta[t, : t + 1]

        if t > 0:
            # deta^t/dw^s = beta (R_theta(t,s) - sum_{r>s} R_theta(t,r) deta^r/dw^s)
            conv = r_theta_raw_row[1:t] @ self._deta_dw[1:t, :t] if t > 1 else 0.0
            self._deta_dw[t, :t] = beta * (r_theta_raw_row - conv)
            self.r_eta_raw[t, :t] = delta * beta * self._deta_dw[t, :t]
            # deta^t/dw* = -beta sum_s R_theta(t,s) (deta^s/dw* + 1)
            self.deta_dwstar[t] = -beta * float(r_theta_raw_row @ (self.deta_dwstar[:t] + 1.0))

    def r_eta_star(self) -> np.ndarray:
        return self.delta * self.beta * self.deta_dwstar


def _response_rows_constant(t, v, coeff, gamma, r_eta_raw_row):
    """One step of the response recursion with theta-independent curvature.

    v[r, s] = (dtheta^r/du^s) / gamma; writes row t+1 given rows <= t."""
    if t > 0:
        mem = r_eta_raw_row[1:t] @ v[1:t, :t] if t > 1 else 0.0
        v[t + 1, :t] = v[t, :t] * coeff + gamma * mem
    v[t + 1, t] = 1.0


def _column_starts(steps: int) -> np.ndarray:
    """Offsets of the columns s = 0..steps of the column-packed strict lower
    triangle of a (steps+1)-square, in which column s holds rows s+1..steps:
    entry (r, s) sits at starts[s] + r - s - 1, and starts[steps] is the
    number of entries, steps(steps+1)/2."""
    s = np.arange(steps + 1)
    return s * steps - s * (s - 1) // 2


def _row_index(starts: np.ndarray, r: int) -> np.ndarray:
    """Where the entries (r, 0..r-1) of row r sit in the column-packed triangle."""
    return starts[:r] + (r - 1 - np.arange(r))


def _response_rows_paths(t, v, starts, row, coeff, gamma, r_eta_raw_row, scratch):
    """Per-path variant on the column-packed strict lower triangle: v has
    shape (steps(steps+1)/2, paths) with column s from starts[s]
    (_column_starts); row (t, paths) holds row t of v, gathered, and is
    overwritten; coeff (paths,); scratch a (steps, paths) float32 buffer.
    Row t+1 is formed in scratch and scattered into its columns.

    The memory sum for entry (t+1, s) over r = s+1..t-1 is one float32
    einsum along the contiguous stretch of column s, added in r order and
    kept off BLAS. The zero upper triangle adds nothing, so the bits are
    those of einsum("r,rsp->sp") over the full (r, s, path) slab."""
    new = scratch[: t + 1]
    w = r_eta_raw_row.astype(np.float32)
    for s, lo in enumerate(starts[:t].tolist()):
        np.einsum("r,rp->p", w[s + 1 : t], v[lo : lo + t - 1 - s], out=new[s])
    new[:t] *= np.float32(gamma)
    new[:t] += np.multiply(row, coeff, out=row)
    new[t] = 1.0
    v[_row_index(starts, t + 1)] = new


@dataclass
class DmftResult:
    table: KernelTable
    paths: np.ndarray  # (steps+1, paths): theta of every path at every step
    theta_star: np.ndarray
    chol_clamped_steps: list = field(default_factory=list)
    chol_jitter_log: list = field(default_factory=list)


def _row_blocks(n: int):
    """(start, stop) ranges of _ROW_BLOCK rows covering range(n): the blocks
    in which a per-path float32 response row, gathered from its columns into
    a (steps, paths) buffer, is widened to float64 for its mean and std. Both
    reduce each entry's paths on their own, so a block's height does not
    change a bit."""
    return [(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]


def _corr_stderr(paths: np.ndarray, c_theta: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Standard errors sqrt(E[p^2] - c^2)/sqrt(P) of the c_theta entries, p the
    per-path products. The squared paths are written once into sq, a dead
    (steps+1, paths) buffer; each E[p^2] row is one einsum over the whole path
    axis, as each c_theta row is."""
    P = paths.shape[1]
    np.square(paths, out=sq)
    se = np.zeros_like(c_theta)
    for t in range(len(paths)):
        sq_row = np.einsum("sp,p->s", sq[: t + 1], sq[t]) / P
        se[t, : t + 1] = np.sqrt(np.maximum(sq_row - c_theta[t, : t + 1] ** 2, 0.0)) / np.sqrt(P)
        se[: t + 1, t] = se[t, : t + 1]
    return se


def _response_budget_error(n_paths: int, n_steps: int, budget_bytes: int) -> Optional[str]:
    """Why a per-path response array of n_steps(n_steps+1)/2 float32 entries
    per path (the packed strict lower triangle) would exceed the budget, or
    None when it fits. The two (n_steps, paths) float32 buffers of the
    recursion are not counted."""
    per_path = n_steps * (n_steps + 1) // 2 * 4
    if n_paths * per_path <= budget_bytes:
        return None
    return (
        f"per-path response array needs {n_paths * per_path / 1024**3:.2f} GiB "
        f"(cap {budget_bytes / 1024**3:.2f} GiB); "
        f"reduce n_paths to <= {budget_bytes // per_path} or coarsen the grid"
    )


def solve_dmft(
    params: ModelParams,
    prior: PriorSpec,
    n_paths: int,
    seed: int,
    regularizer: Optional[SmoothHinge] = None,
    response_budget_bytes: int = _DEFAULT_RESPONSE_BUDGET,
) -> DmftResult:
    """Solve the discrete DMFT system by the time-iterated construction.

    Per step: extend every path's theta with a freshly sampled conditional
    Gaussian field, update response arrays, take ensemble means for the
    theta-side kernels and the parameter flow, and propagate the eta-side
    deterministically.

    The ensemble is stored time-major, (steps+1, paths), and every reduction
    over paths is a contiguous numpy pass (einsum rows, mean, std). None goes
    through BLAS, whose threaded reductions would make the bits depend on the
    thread count. Row t of c_theta is one einsum over the (t+1, paths) slab.
    The loop never reads the c_theta standard errors, so they are formed after
    it, from squares of the paths written into the innovation buffer, which is
    dead by then: no third (steps+1, paths) array exists.

    A prior with theta-dependent curvature carries one response recursion per
    path. It is stored column-packed as the strict lower triangle, one float32
    (steps(steps+1)/2, paths) array in which column s (rows r > s) is
    contiguous (_column_starts), and `response_budget_bytes` bounds that
    array: 2 GiB fits 20000 paths at 200 steps. Each step gathers row t once
    into a (steps, paths) float32 buffer, which feeds both the r_theta means
    and SEs, widened to float64 _ROW_BLOCK rows at a time, and the new row's
    coefficient term. The memory term adds only the stored entries, in the
    order and precision of one float32 einsum over the full square, so the
    packing does not change a bit. A mixture prior's drift, curvature and
    alpha-gradient of a step share one responsibilities pass (family.at).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be >= 100")
    T = params.n_steps
    gamma, delta, beta, sigma2 = params.gamma_step, params.delta, params.beta, params.sigma2
    P = int(n_paths)
    K = prior.dim_alpha

    curvature = prior.family.theta_curvature_constant(prior.alpha)
    per_path = curvature is None
    if per_path:
        error = _response_budget_error(P, T, response_budget_bytes)
        if error:
            raise MemoryBudgetError(error)
        starts = _column_starts(T)
        v_resp = np.zeros((starts[T], P), dtype=np.float32)
        resp_row = np.empty((T, P), dtype=np.float32)  # row t, gathered from its columns
        resp_scratch = np.empty((T, P), dtype=np.float32)
    else:
        v_resp = np.zeros((T + 1, T + 1))

    rng_star = component_rng(seed, _STREAM_THETA_STAR)
    rng_t0 = component_rng(seed, _STREAM_THETA0)
    rng_u = component_rng(seed, _STREAM_U)
    rng_b = component_rng(seed, _STREAM_BROWNIAN)

    theta_star = prior.family.sample(prior.alpha_star, rng_star, P)
    theta = prior.theta0.sample(prior, rng_t0, P, theta_star)

    paths = np.zeros((T + 1, P))
    paths[0] = theta
    z_innov = np.zeros((T + 1, P))  # standardized innovations of the u draws; then the squared paths
    alpha = np.zeros((T + 1, K))
    alpha[0] = prior.alpha

    c_theta = np.full((T + 1, T + 1), np.nan)
    c_theta_star = np.zeros(T + 1)
    c_theta_star_se = np.zeros(T + 1)
    r_theta_raw = np.zeros((T + 1, T + 1))
    r_theta_se = np.zeros((T + 1, T + 1))
    c_star_star = float(np.mean(theta_star**2))
    scale2 = c_star_star + float(np.mean(theta**2))

    eta = EtaSide(T, sigma2, delta, beta)
    chol = CholeskyExtender(T + 1)

    sqP = np.sqrt(P)
    for t in range(T + 1):
        th_t = paths[t]
        c_row = np.einsum("sp,p->s", paths[: t + 1], th_t) / P
        c_theta[t, : t + 1] = c_row
        c_theta[: t + 1, t] = c_row
        check_divergence(c_row[t], scale2, t)  # c_row[t] is the paths' mean square
        star_prod = th_t * theta_star
        c_theta_star[t] = star_prod.mean()
        c_theta_star_se[t] = star_prod.std() / sqP
        if t > 0:
            if per_path:
                row_t = np.take(v_resp, _row_index(starts, t), axis=0, out=resp_row[:t], mode="clip")
                for lo, hi in _row_blocks(t):
                    rows = row_t[lo:hi].astype(np.float64)
                    r_theta_raw[t, lo:hi] = gamma * rows.mean(axis=1)
                    r_theta_se[t, lo:hi] = gamma * rows.std(axis=1) / sqP
            else:
                r_theta_raw[t, :t] = gamma * v_resp[t, :t]

        eta.add_step(t, c_theta[t, : t + 1], c_theta_star[t], c_star_star, r_theta_raw[t, :t])
        c_eta_row = eta.c_eta[t, : t + 1]
        r_eta_row = eta.r_eta_raw[t, :t]

        if t == T:
            break

        # Conditionally sample u^t given this path's past u draws.
        a, sd = chol.extend(c_eta_row[:t], float(c_eta_row[t]))
        z_innov[t] = rng_u.standard_normal(P)
        u_t = (a @ z_innov[:t] if t else 0.0) + sd * z_innov[t]

        # Response rows t+1 (chain rule through the theta recursion).
        family = prior.family.at(th_t, alpha[t])
        if per_path:
            ds = family.dtheta_drift_s(th_t, alpha[t]).astype(np.float32)
            coeff = np.float32(1.0) + np.float32(gamma) * (np.float32(-delta * beta) + ds)
            _response_rows_paths(t, v_resp, starts, resp_row[:t], coeff, gamma, r_eta_row, resp_scratch)
        else:
            coeff = 1.0 + gamma * (-delta * beta + curvature)
            _response_rows_constant(t, v_resp, coeff, gamma, r_eta_row)

        # theta step: drift + memory + field + Brownian increment.
        drift = -delta * beta * (th_t - theta_star) + family.drift_s(th_t, alpha[t])
        if t > 0:
            drift = drift + (r_eta_row @ paths[:t] - theta_star * r_eta_row.sum())
        paths[t + 1] = (
            th_t + gamma * (drift + u_t) + np.sqrt(2.0) * rng_b.normal(0.0, np.sqrt(gamma), size=P)
        )
        if K:
            alpha[t + 1] = alpha[t] + gamma * gradient_map_G(alpha[t], th_t, family, regularizer)

    c_theta_se = _corr_stderr(paths, c_theta, z_innov)
    times = gamma * np.arange(T + 1)
    table = KernelTable(
        times=times,
        gamma=gamma,
        source="dmft",
        c_theta=c_theta,
        c_theta_star=c_theta_star,
        c_star_star=c_star_star,
        c_eta=eta.c_eta,
        r_theta=r_theta_raw / gamma,
        r_eta=eta.r_eta_raw / gamma,
        r_eta_star=eta.r_eta_star(),
        alpha=alpha,
        stderr={"c_theta": c_theta_se, "c_theta_star": c_theta_star_se, "r_theta": r_theta_se / gamma},
    )
    return DmftResult(
        table=table,
        paths=paths,
        theta_star=theta_star,
        chol_clamped_steps=chol.clamped_steps,
        chol_jitter_log=chol.jitter_log,
    )


def linear_gaussian_dmft(
    params: ModelParams,
    lam: float,
    tau_star2: float,
) -> KernelTable:
    """Monte-Carlo-free DMFT solution for the fixed Gaussian prior, theta^0 = 0.

    With a linear score the theta recursion is linear in (theta*, u-field,
    Brownian increments), so the correlation grids propagate deterministically
    on coefficient vectors and the response recursion closes on itself.
    """
    T = params.n_steps
    gamma, delta, beta, sigma2 = params.gamma_step, params.delta, params.beta, params.sigma2
    if lam <= 0 or tau_star2 <= 0:
        raise ValueError("lam and tau_star2 must be positive")

    # Coefficient basis: (theta*, u^0..u^{T-1}, g^0..g^{T-1}).
    tc = np.zeros((T + 1, 1 + 2 * T))
    v_resp = np.zeros((T + 1, T + 1))
    c_theta = np.full((T + 1, T + 1), np.nan)
    c_theta_star = np.zeros(T + 1)
    r_theta_raw = np.zeros((T + 1, T + 1))
    eta = EtaSide(T, sigma2, delta, beta)
    coeff = 1.0 + gamma * (-delta * beta - lam)

    for t in range(T + 1):
        u_part = tc[: t + 1, 1 : 1 + T]
        g_part = tc[: t + 1, 1 + T :]
        sv_u = eta.c_eta[:t, :t] @ tc[t, 1 : 1 + t] if t else np.zeros(0)
        c_row = (
            tau_star2 * tc[: t + 1, 0] * tc[t, 0]
            + (u_part[:, :t] @ sv_u if t else 0.0)
            + gamma * (g_part @ tc[t, 1 + T :])
        )
        c_theta[t, : t + 1] = c_row
        c_theta[: t + 1, t] = c_row
        c_theta_star[t] = tau_star2 * tc[t, 0]
        if t > 0:
            r_theta_raw[t, :t] = gamma * v_resp[t, :t]

        eta.add_step(t, c_theta[t, : t + 1], c_theta_star[t], tau_star2, r_theta_raw[t, :t])
        if t == T:
            break

        r_eta_row = eta.r_eta_raw[t, :t]
        _response_rows_constant(t, v_resp, coeff, gamma, r_eta_row)

        drift = -(delta * beta + lam) * tc[t]
        drift[0] += delta * beta
        if t > 0:
            drift = drift + r_eta_row @ tc[:t]
            drift[0] -= r_eta_row.sum()
        new = tc[t] + gamma * drift
        new[1 + t] += gamma  # u^t enters the drift with unit coefficient
        new[1 + T + t] += np.sqrt(2.0)  # sqrt(2) * (b^{t+1} - b^t)
        tc[t + 1] = new

    times = gamma * np.arange(T + 1)
    return KernelTable(
        times=times,
        gamma=gamma,
        source="dmft-linear",
        c_theta=c_theta,
        c_theta_star=c_theta_star,
        c_star_star=tau_star2,
        c_eta=eta.c_eta,
        r_theta=r_theta_raw / gamma,
        r_eta=eta.r_eta_raw / gamma,
        r_eta_star=eta.r_eta_star(),
    )
