"""High-dimensional adaptive Langevin simulation and empirical kernels.

The chain is the Euler discretization

    theta^{t+1} = theta^t + gamma (-beta X^T (X theta^t - y) + s(theta^t, a^t))
                  + sqrt(2) (b^{t+1} - b^t),
    a^{t+1}     = a^t + gamma G(a^t, empirical law of theta^t),

with independent N(0, gamma) Brownian increments per coordinate. Correlation
kernels are coordinate averages; response traces are Jacobian-product traces
through the step matrices Omega^t = I - gamma beta X^T X
+ gamma diag(ds(theta^t, a^t)).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import KernelTable, time_index
from .model import DivergenceError  # noqa: F401  (evolve raises it, through check_divergence)
from .model import ModelInstance, ModelParams, check_divergence, component_rng, sample_instance
from .priors import PriorSpec, SmoothHinge, gradient_map_G

_STREAM_BROWNIAN = 201
_STREAM_PROBES = 202

RESPONSE_METHODS = ("exact-product", "probe")


@dataclass
class Trajectory:
    times: np.ndarray  # retained physical times
    theta_path: np.ndarray  # (retained, d)
    alpha_path: np.ndarray  # (retained, K)
    residual_path: np.ndarray  # (retained, n): X theta^t - y
    retain_every: int

    @property
    def full(self) -> bool:
        return self.retain_every == 1


def evolve(
    instance: ModelInstance,
    prior: PriorSpec,
    params: ModelParams,
    seed: int,
    retain_every: int = 10,
    regularizer: Optional[SmoothHinge] = None,
) -> Trajectory:
    """Run the Euler chain; returns a Trajectory."""
    X, y = instance.X, instance.y
    if X.shape != (params.n, params.d):
        raise ValueError("instance dimensions do not match params")
    T = params.n_steps
    if T % retain_every != 0:
        raise ValueError("retain_every must divide the step count")
    gamma, beta = params.gamma_step, params.beta
    K = prior.dim_alpha

    theta = instance.theta0.astype(float).copy()
    scale2 = (instance.theta_star @ instance.theta_star + theta @ theta) / params.d
    alpha = prior.alpha.copy()
    rng_b = component_rng(seed, _STREAM_BROWNIAN)

    kept = T // retain_every + 1
    theta_path = np.empty((kept, params.d))
    alpha_path = np.empty((kept, K))
    residual_path = np.empty((kept, params.n))

    # X^T (X theta - y) = gram theta - xty: one d x d product per step, not two n x d.
    gram, xty = X.T @ X, X.T @ y
    for t in range(T + 1):
        check_divergence(theta @ theta / params.d, scale2, t)
        if t % retain_every == 0:
            i = t // retain_every
            theta_path[i] = theta
            alpha_path[i] = alpha
            residual_path[i] = X @ theta - y
        if t == T:
            break
        drift = -beta * (gram @ theta - xty) + prior.family.drift_s(theta, alpha)
        incr = rng_b.normal(0.0, np.sqrt(gamma), size=params.d)
        new_theta = theta + gamma * drift + np.sqrt(2.0) * incr
        if K:
            alpha = alpha + gamma * gradient_map_G(alpha, theta, prior.family, regularizer)
        theta = new_theta

    return Trajectory(
        times=gamma * np.arange(0, T + 1, retain_every, dtype=float),
        theta_path=theta_path,
        alpha_path=alpha_path,
        residual_path=residual_path,
        retain_every=retain_every,
    )


def _replica_se(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the leading (replica) axis: the sample
    std (ddof 1) over sqrt(R). NaN with one replica, which has no spread."""
    R = values.shape[0]
    if R < 2:
        return np.full(values.shape[1:], np.nan)
    return values.std(axis=0, ddof=1) / np.sqrt(R)


@dataclass
class ResponseTraces:
    """Normalized Jacobian-product response traces between the response steps.

    Values are raw per-step responses: the theta-side base case (t = s+1)
    equals gamma exactly; divide by gamma for the density-unit kernels."""

    r_theta: np.ndarray  # (m, m), entries for t > s
    r_eta: np.ndarray
    r_theta_stderr: Optional[np.ndarray] = None  # probe mode only
    r_eta_stderr: Optional[np.ndarray] = None


def response_traces(
    trajectory: Optional[Trajectory],
    instance: ModelInstance,
    prior: PriorSpec,
    params: ModelParams,
    step_indices,
    method: str = "exact-product",
    n_probes: int = 32,
    seed: int = 0,
) -> ResponseTraces:
    """Estimate d^-1 Tr R_theta(t,s) and n^-1 Tr R_eta(t,s) on a step grid.

    Both methods push one block W through the Omega chain from each start
    step: the identity (exact-product) or d x n_probes Rademacher probes z
    (probe). Column k of W reads gamma z_k.w_k / d for R_theta and, as
    Tr(X R X^T) = Tr(X^T X R), delta beta^2 gamma (X z_k).(X w_k) / n for
    R_eta. The identity's columns are summed; the probes' are averaged, with
    Hutchinson standard errors. Constant curvature takes the exact product
    from the spectrum of X instead. Entries are raw per-step responses.
    """
    if method not in RESPONSE_METHODS:
        raise ValueError(f"method must be one of {RESPONSE_METHODS}")
    steps = np.asarray(sorted(set(int(k) for k in step_indices)))
    if steps.size and (steps[0] < 0 or steps[-1] > params.n_steps):
        raise ValueError("requested steps outside the simulated range")
    m = steps.size
    gamma, beta, delta = params.gamma_step, params.beta, params.delta
    X = instance.X
    d, n = params.d, params.n
    const = prior.family.theta_curvature_constant(prior.alpha)  # None: ds per step from the trajectory
    if const is None and (trajectory is None or not trajectory.full):
        raise ValueError("response traces for a theta-dependent score need a fully retained trajectory")

    r_theta = np.full((m, m), np.nan)
    r_eta = np.full((m, m), np.nan)

    if method == "exact-product" and const is not None:
        # Constant curvature: Omega is step-independent; use its spectrum, the
        # squared singular values of X (ascending, plus d - n zeros when n < d).
        # LAPACK's symmetric eigensolvers change their last bits with the BLAS
        # thread count; its SVD of X does not.
        sv = np.linalg.svd(X, compute_uv=False)
        evals = np.zeros(d)
        evals[d - sv.size :] = np.sort(sv**2)
        om = 1.0 - gamma * beta * evals + gamma * const
        for a in range(m):
            for b in range(a):
                k = steps[a] - steps[b] - 1
                pw = om**k
                r_theta[a, b] = gamma * float(np.mean(pw))
                r_eta[a, b] = delta * beta**2 * gamma * float(np.sum(evals * pw)) / n
        return ResponseTraces(r_theta, r_eta)

    probe = method == "probe"
    gram = X.T @ X
    r_theta_se = np.full((m, m), np.nan)
    r_eta_se = np.full((m, m), np.nan)
    rng = component_rng(seed, _STREAM_PROBES)
    for b in range(m):
        z = 2.0 * rng.integers(0, 2, size=(d, n_probes)) - 1.0 if probe else np.eye(d)
        xz = X @ z if probe else X
        w = z
        targets = {steps[a]: a for a in range(b + 1, m)}
        for t in range(steps[b] + 1, steps[-1] + 1):
            if t in targets:
                a = targets[t]
                est_theta = gamma * np.sum(z * w, axis=0) / d
                est_eta = delta * beta**2 * gamma * np.sum(xz * (X @ w), axis=0) / n
                for grid, se, est in ((r_theta, r_theta_se, est_theta), (r_eta, r_eta_se, est_eta)):
                    if probe:
                        grid[a, b] = est.mean()
                        se[a, b] = est.std(ddof=1) / np.sqrt(n_probes)
                    else:
                        grid[a, b] = est.sum()
            if t == steps[-1]:
                break
            if const is None:
                ds = prior.family.dtheta_drift_s(trajectory.theta_path[t], trajectory.alpha_path[t])[:, None]
            else:
                ds = const
            w = w - gamma * beta * (gram @ w) + gamma * ds * w
    if probe:
        return ResponseTraces(r_theta, r_eta, r_theta_se, r_eta_se)
    return ResponseTraces(r_theta, r_eta)


def simulate(
    params: ModelParams, prior: PriorSpec, seeds, retain_every: int = 10, design: str = "gaussian",
    response_steps=(), method: str = "exact-product", n_probes: int = 32,
    regularizer: Optional[SmoothHinge] = None, threads: int = 1,
) -> tuple[KernelTable, list[np.ndarray]]:
    """Replica-averaged kernels with across-replica standard errors, one
    replica per seed, on a pool of `threads` when that is more than one and
    in the calling thread otherwise; returns the table and each replica's
    retained theta path.

    A replica is reduced to its own terms as it ends, so no design outlives it:
    theta^t . theta^s / d, theta^t . theta_star / d, theta_star . theta_star / d,
    its alpha path, the residual Gram scaled by delta beta^2 / n (C_eta) and its
    response traces between `response_steps`. Means and standard errors follow
    in seed order; symmetric blocks are mirrored, responses are in density
    units, and their spread covers each replica's own design (and probes).
    """
    d, scale_eta = params.d, params.delta * params.beta**2 / params.n
    steps = sorted(set(int(k) for k in response_steps))

    def one(seed):
        inst = sample_instance(params, prior, seed=seed, design=design)
        traj = evolve(inst, prior, params, seed=seed, retain_every=retain_every, regularizer=regularizer)
        tp, rp, star = traj.theta_path, traj.residual_path, inst.theta_star
        traces = None
        if steps:
            traces = response_traces(
                traj if traj.full else None, inst, prior, params, steps,
                method=method, n_probes=n_probes, seed=seed,
            )
        gram_eta = scale_eta * (rp @ rp.T)
        return traj.times, tp @ tp.T / d, tp @ star / d, star @ star / d, traj.alpha_path, gram_eta, traces, tp

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            replicas = list(pool.map(one, seeds))  # in seed order
    else:
        replicas = list(map(one, seeds))
    times, ct, cs, ss, al, ce, traces, paths = zip(*replicas)
    ct, cs, ce = np.stack(ct), np.stack(cs), np.stack(ce)
    c_theta, c_eta = ct.mean(axis=0), ce.mean(axis=0)
    m = times[0].size
    table = KernelTable(
        times=times[0],
        gamma=params.gamma_step,
        source="simulate",
        c_theta=np.tril(c_theta) + np.tril(c_theta, -1).T,  # bit-exact symmetry
        c_theta_star=cs.mean(axis=0),
        c_star_star=float(np.array(ss).mean()),
        c_eta=np.tril(c_eta) + np.tril(c_eta, -1).T,
        r_theta=np.full((m, m), np.nan),
        r_eta=np.full((m, m), np.nan),
        r_eta_star=np.full(m, np.nan),
        alpha=np.stack(al).mean(axis=0),
        stderr={"c_theta": _replica_se(ct), "c_theta_star": _replica_se(cs), "c_eta": _replica_se(ce)},
    )
    if steps:
        rows = np.array([time_index(table.times, table.gamma * k) for k in steps])
        below = np.tril_indices(rows.size, -1)
        at = (rows[below[0]], rows[below[1]])
        for name in ("r_theta", "r_eta"):
            values = np.stack([getattr(tr, name) for tr in traces])
            getattr(table, name)[at] = values.mean(axis=0)[below] / table.gamma
            table.stderr[name] = np.full((m, m), np.nan)
            table.stderr[name][at] = _replica_se(values)[below] / table.gamma
    return table, list(paths)


def wasserstein2_1d(samples_a, samples_b) -> float:
    """W2 distance of two equal-size 1-d samples: root-mean-square difference
    of order statistics."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a.size != b.size:
        raise ValueError("sample sizes differ; use resample_to_common_size first")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _sorted_quantiles(x: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile(x, qs) of a sorted sample with 0 <= qs < 1: numpy's default
    linear method, interpolated the way numpy's _lerp does it, so the same bits."""
    v = (x.size - 1) * qs
    lo = np.floor(v)
    g, i = v - lo, lo.astype(np.intp)
    a, b = x[i], x[np.minimum(i + 1, x.size - 1)]
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def resample_to_common_size(samples_a, samples_b):
    """Empirical-quantile resampling of both samples to the larger one's size.

    Sorts each sample once: np.quantile partitions the sample around every one
    of its k levels, which is slow for k in the thousands."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    k = max(a.size, b.size)
    qs = (np.arange(k) + 0.5) / k
    return _sorted_quantiles(np.sort(a, axis=None), qs), _sorted_quantiles(np.sort(b, axis=None), qs)
