"""Prior families, score evaluators, and the parameter-gradient map.

Each family exposes the scalar score s(theta, alpha) = d/dtheta log g(theta, alpha),
its theta-derivative, the alpha-gradient of log g, sampling, and second moments.
All evaluators are pure and vectorized over theta.

The Gaussian-mixture evaluators work in component columns: for each component
k one array shaped like theta holds theta - m_k, one its log-weight, one its
responsibility. The maximum over components is `np.maximum` of the K columns,
and each sum over components adds the columns elementwise, so no (n, K) array
is built and reduced over its short last axis; numpy's per-call cost there
outweighed the arithmetic at K = 2. The columns keep the bits of the (n, K)
formulas (tests/closed_forms.py), because they keep numpy's reduction orders:
- a last-axis sum over K starts from +0.0 and adds left to right,
  ((0 + x_0) + x_1) + x_2, which is `sum(columns, 0.0)`;
- `np.mean` over the samples axis of an (n, K) alpha-gradient adds down the
  rows for K >= 2, which is `np.cumsum` of each column from +0.0, and adds
  pairwise for K = 1, whose (n, 1) column is contiguous, which is `np.mean` of
  the column.
Only `softmax`, `logsumexp` and `alpha_score` keep the (..., K) layout: the
scalar channel in equilibrium reads them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


def logsumexp(lw):
    """log sum exp over the last axis, shifted by the maximum."""
    m = lw.max(axis=-1, keepdims=True)
    return (m + np.log(np.sum(np.exp(lw - m), axis=-1, keepdims=True)))[..., 0]


def softmax(lw):
    """exp(lw) normalized over the last axis, shifted by the maximum."""
    w = np.exp(lw - lw.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


class InputDomainError(ValueError):
    """Raised when an evaluator receives non-finite theta or alpha."""


def _check_finite(theta, alpha) -> None:
    if not np.isfinite(theta).all():
        raise InputDomainError("non-finite theta")
    if alpha is not None and not np.isfinite(alpha).all():
        raise InputDomainError("non-finite alpha")


class PriorFamily:
    """Base class: a parametric family g(theta, alpha), alpha in R^K."""

    dim_alpha: int = 0

    def log_g(self, theta, alpha):
        raise NotImplementedError

    def drift_s(self, theta, alpha):
        """s(theta, alpha) = d/dtheta log g."""
        raise NotImplementedError

    def dtheta_drift_s(self, theta, alpha):
        """d/dtheta s(theta, alpha) = d^2/dtheta^2 log g."""
        raise NotImplementedError

    def grad_alpha_log_g(self, theta, alpha):
        """Gradient of log g in alpha; shape (..., K) for array theta."""
        cols = self._grad_alpha_columns(theta, alpha)
        return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(theta) + (0,))

    def _grad_alpha_columns(self, theta, alpha):
        """The K entries of grad_alpha log g, as a list of arrays shaped like theta."""
        raise NotImplementedError

    def sample(self, alpha, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def second_moment(self, alpha) -> float:
        """E[theta^2] under g(., alpha)."""
        raise NotImplementedError

    def theta_curvature_constant(self, alpha) -> Optional[float]:
        """Return d/dtheta s when it does not depend on theta, else None."""
        return None


class GaussianMixture(PriorFamily):
    """Gaussian mixture g = sum_k w_k N(m_k, 1/p_k) whose components depend on alpha.

    Subclasses set up `components(alpha) -> (weights, means, precisions)` and
    the alpha score twice: `alpha_score(r, centers, alpha)` in the (..., K)
    layout, for the posterior component means of the scalar channel, and
    `_alpha_score_columns` in component columns, for centers at theta itself.
    Precisions `omega` never depend on alpha. Responsibilities are computed in
    log space with max-subtraction.
    """

    omega: np.ndarray

    def components(self, alpha):
        raise NotImplementedError

    def alpha_score(self, r, centers, alpha):
        raise NotImplementedError

    def _alpha_score_columns(self, diff, r, alpha):
        """`alpha_score` at centers theta, from the columns diff_k = theta - m_k
        and r_k of `_responsibilities`: a list of K arrays shaped like theta."""
        raise NotImplementedError

    def _log_weights(self, theta, alpha):
        """Columns diff_k = theta - m_k and log(w_k N(theta; m_k, 1/p_k))."""
        w, m, p = self.components(alpha)
        theta = np.asarray(theta, dtype=float)
        diff = [theta - m_k for m_k in m.tolist()]
        log_c = (np.log(w) + 0.5 * np.log(p / (2 * np.pi))).tolist()
        return diff, [c_k - h_k * d_k**2 for c_k, h_k, d_k in zip(log_c, (0.5 * p).tolist(), diff)]

    @staticmethod
    def _shifted_exp(lw):
        """(max_k lw_k, exp(lw_k - max), their sum)."""
        top = functools.reduce(np.maximum, lw)
        e = [np.exp(lw_k - top) for lw_k in lw]
        return top, e, sum(e, 0.0)

    def _responsibilities(self, theta, alpha):
        """(diff, r) columns; a single component has r = 1 exactly, with no log-space pass."""
        if self.omega.size == 1:
            diff = [np.asarray(theta, dtype=float) - self.components(alpha)[1][0]]
            return diff, [np.ones_like(diff[0])]
        diff, lw = self._log_weights(theta, alpha)
        _, e, total = self._shifted_exp(lw)
        return diff, [e_k / total for e_k in e]

    def log_g(self, theta, alpha=None):
        top, _, total = self._shifted_exp(self._log_weights(theta, alpha)[1])
        return top + np.log(total)

    def drift_s(self, theta, alpha=None):
        if self.omega.size == 1:  # -omega (theta - m), without the responsibility column
            # + 0.0 reads m = -0.0 as +0.0: the mixture formula's sum never ends at -0.0
            s = np.subtract(self.components(alpha)[1].item(0) + 0.0, theta, dtype=float)
            s *= self.omega.item(0)
            return s
        diff, r = self._responsibilities(theta, alpha)
        terms = [r_k * w_k * -d_k for r_k, w_k, d_k in zip(r, self.omega.tolist(), diff)]
        return sum(terms, 0.0)

    def dtheta_drift_s(self, theta, alpha=None):
        diff, r = self._responsibilities(theta, alpha)
        omega = self.omega.tolist()
        v = [w_k * -d_k for w_k, d_k in zip(omega, diff)]
        rv = [r_k * v_k for r_k, v_k in zip(r, v)]
        second = [rv_k * v_k for rv_k, v_k in zip(rv, v)]
        rw = [r_k * w_k for r_k, w_k in zip(r, omega)]
        mean_v = sum(rv, 0.0)
        return sum(second, 0.0) - mean_v**2 - sum(rw, 0.0)

    def _grad_alpha_columns(self, theta, alpha=None):
        return self._alpha_score_columns(*self._responsibilities(theta, alpha), alpha)

    def sample(self, alpha, rng, size):
        w, m, p = self.components(alpha)
        if w.size == 1:  # a single Gaussian draws no component labels
            return rng.normal(m[0], 1.0 / np.sqrt(p[0]), size=size)
        comp = rng.choice(w.size, size=size, p=w)
        return rng.normal(m[comp], 1.0 / np.sqrt(p[comp]))

    def second_moment(self, alpha=None):
        w, m, p = self.components(alpha)
        return float(np.sum(w * (m**2 + 1.0 / p)))

    def theta_curvature_constant(self, alpha=None):
        """-p for a single component, whose score is linear in theta."""
        return -float(self.omega[0]) if self.omega.size == 1 else None


class GaussianFixed(GaussianMixture):
    """g = N(0, 1/lam); no adaptive parameter (K = 0)."""

    dim_alpha = 0

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.lam = float(lam)
        self.omega = np.array([self.lam])

    def components(self, alpha=None):
        return np.ones(1), np.zeros(1), self.omega

    def alpha_score(self, r, centers, alpha=None):
        return np.zeros(r.shape[:-1] + (0,))

    def _grad_alpha_columns(self, theta, alpha=None):
        return []


class GaussianMeanMixture(GaussianMixture):
    """Mixture sum_k p_k N(alpha_k, 1/omega_k) with adaptive means alpha in R^K."""

    def __init__(self, weights: Sequence[float], precisions: Sequence[float]):
        self.p = np.asarray(weights, dtype=float)
        self.omega = np.asarray(precisions, dtype=float)
        if self.p.shape != self.omega.shape or self.p.ndim != 1:
            raise ValueError("weights and precisions must be 1-d of equal length")
        if np.any(self.p <= 0) or np.any(self.omega <= 0):
            raise ValueError("weights and precisions must be positive")
        self.p = self.p / self.p.sum()
        self.dim_alpha = len(self.p)

    def components(self, alpha):
        return self.p, np.asarray(alpha, dtype=float).reshape(self.dim_alpha), self.omega

    def alpha_score(self, r, centers, alpha):
        return self.omega * (centers - self.components(alpha)[1]) * r

    def _alpha_score_columns(self, diff, r, alpha):
        return [w_k * d_k * r_k for w_k, d_k, r_k in zip(self.omega.tolist(), diff, r)]

    def _grad_alpha_columns(self, theta, alpha=None):
        if self.omega.size == 1:  # omega (theta - m), without the responsibility column r = 1
            s = np.subtract(theta, self.components(alpha)[1].item(0), dtype=float)
            s *= self.omega.item(0)
            return [s]
        return super()._grad_alpha_columns(theta, alpha)


class GaussianLocation(GaussianMeanMixture):
    """g = N(alpha, scale^2) with adaptive location alpha in R (K = 1): a
    one-component mean mixture."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        super().__init__([1.0], [1.0 / (scale * scale)])
        self.scale = float(scale)


class GaussianWeightMixture(GaussianMixture):
    """Mixture with fixed means/precisions and adaptive softmax weights alpha.

    Component weights are pi_k = exp(alpha_k) / sum_j exp(alpha_j); the
    alpha-gradient `resp - pi` sums to zero across coordinates exactly.
    """

    def __init__(self, means: Sequence[float], precisions: Sequence[float]):
        self.mu = np.asarray(means, dtype=float)
        self.omega = np.asarray(precisions, dtype=float)
        if self.mu.shape != self.omega.shape or self.mu.ndim != 1:
            raise ValueError("means and precisions must be 1-d of equal length")
        if np.any(self.omega <= 0):
            raise ValueError("precisions must be positive")
        self.dim_alpha = len(self.mu)

    def components(self, alpha):
        return softmax(np.asarray(alpha, dtype=float).reshape(self.dim_alpha)), self.mu, self.omega

    def alpha_score(self, r, centers, alpha):
        return r - self.components(alpha)[0]

    def _alpha_score_columns(self, diff, r, alpha):
        return [r_k - pi_k for r_k, pi_k in zip(r, self.components(alpha)[0].tolist())]


class ExpFamily(PriorFamily):
    """Exponential family g = exp(sum_k alpha_k theta^k - A(alpha)) on the line.

    The sufficient statistics are the monomials theta^k of the given integer
    powers k >= 1. The log-partition A(alpha) is a trapezoid sum on n_grid
    points of [-L, L], with L expanded from l_init until the boundary tail
    mass is below 1e-12.
    """

    l_init = 8.0
    n_grid = 4097

    def __init__(self, powers: Sequence[int]):
        if not powers or not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in powers):
            raise ValueError(f"powers must be a non-empty array of integers >= 1, got {powers!r}")
        self.powers = list(powers)
        self.dim_alpha = len(self.powers)

    def _monomials(self, x, order: int):
        """d^order/dx^order of x^k for each power k, order 0, 1 or 2."""
        x = np.asarray(x, dtype=float)
        if order == 0:
            return [x**k for k in self.powers]
        if order == 1:
            return [k * x ** (k - 1) for k in self.powers]
        return [k * (k - 1) * x ** (k - 2) if k >= 2 else np.zeros_like(x) for k in self.powers]

    def _theta_derivative(self, theta, alpha, order: int):
        """d^order/dtheta^order of sum_k alpha_k theta^k, order 0, 1 or 2."""
        theta = np.asarray(theta, dtype=float)
        alpha = np.asarray(alpha, dtype=float).reshape(self.dim_alpha)
        out = np.zeros_like(theta)
        for a_k, t_k in zip(alpha, self._monomials(theta, order)):
            out = out + a_k * t_k
        return out

    def _grid(self, alpha):
        # Expand the support until both tails carry < 1e-12 of the mass.
        half = self.l_init
        for _ in range(40):
            x = np.linspace(-half, half, self.n_grid)
            lg = self._theta_derivative(x, alpha, 0)
            m = lg.max()
            w = np.exp(lg - m)
            total = np.trapezoid(w, x)
            edge = max(w[0], w[-1]) * half
            if edge < 1e-12 * total:
                return x, w, m
            half *= 1.5
        raise ValueError(f"exp(sum_k alpha_k theta^k) does not normalize for alpha = {np.asarray(alpha).tolist()}")

    def log_partition(self, alpha) -> float:
        x, w, m = self._grid(alpha)
        return float(m + np.log(np.trapezoid(w, x)))

    def grad_log_partition(self, alpha) -> np.ndarray:
        x, w, _ = self._grid(alpha)
        z = np.trapezoid(w, x)
        return np.array([np.trapezoid(w * t_k, x) / z for t_k in self._monomials(x, 0)])

    def log_g(self, theta, alpha):
        return self._theta_derivative(theta, alpha, 0) - self.log_partition(alpha)

    def drift_s(self, theta, alpha):
        return self._theta_derivative(theta, alpha, 1)

    def dtheta_drift_s(self, theta, alpha):
        return self._theta_derivative(theta, alpha, 2)

    def _grad_alpha_columns(self, theta, alpha):
        grad_a = self.grad_log_partition(alpha)
        return [t_k - g_k for t_k, g_k in zip(self._monomials(theta, 0), grad_a)]

    def sample(self, alpha, rng, size):
        # Grid-based inverse CDF; adequate for the smooth densities used here.
        x, w, _ = self._grid(alpha)
        cdf = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * 0.5 * np.diff(x))])
        cdf /= cdf[-1]
        return np.interp(rng.random(size), cdf, x)

    def second_moment(self, alpha):
        x, w, _ = self._grid(alpha)
        z = np.trapezoid(w, x)
        return float(np.trapezoid(w * x * x, x) / z)


@dataclass
class SmoothHinge:
    """Confining regularizer: 0 inside ||alpha|| <= D, cubic ramp of width eps,
    then linear with slope 3*eps. Continuously differentiable everywhere."""

    D: float = 10.0
    eps: float = 1.0

    def grad(self, alpha) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        r = float(np.linalg.norm(alpha))
        if r <= self.D or r == 0.0:
            return np.zeros_like(alpha)
        if r <= self.D + self.eps:
            dr = 3 * (r - self.D) ** 2 / self.eps
        else:
            dr = 3 * self.eps
        return dr * alpha / r


_THETA0_KINDS = ("zero", "gaussian", "prior", "star")


@dataclass
class Theta0Spec:
    """Initial law of theta^0: point mass at 0 (default), N(0, var),
    i.i.d. from the true prior, or a copy of theta_star."""

    kind: str = "zero"
    var: float = 1.0

    def __post_init__(self):
        if self.kind not in _THETA0_KINDS:
            raise ValueError(f"theta0 kind must be one of {_THETA0_KINDS}")

    def sample(self, prior: "PriorSpec", rng: np.random.Generator, size: int, theta_star):
        """Draw theta^0 for `size` coordinates; "star" copies theta_star."""
        if self.kind == "zero":
            return np.zeros(size)
        if self.kind == "gaussian":
            return rng.normal(0.0, np.sqrt(self.var), size=size)
        if self.kind == "prior":
            return prior.family.sample(prior.alpha_star, rng, size)
        return theta_star.copy()


@dataclass
class PriorSpec:
    """A prior family with its current parameter, the true parameter, and the
    initial law of theta^0."""

    family: PriorFamily
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha_star: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta0: Theta0Spec = field(default_factory=Theta0Spec)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).reshape(-1)
        self.alpha_star = np.asarray(self.alpha_star, dtype=float).reshape(-1)
        k = self.family.dim_alpha
        if self.alpha.size != k or self.alpha_star.size != k:
            raise ValueError(f"alpha and alpha_star must have dimension {k}")

    @property
    def dim_alpha(self) -> int:
        return self.family.dim_alpha


def gradient_map_G(
    alpha,
    samples,
    family: PriorFamily,
    regularizer: Optional[SmoothHinge] = None,
) -> np.ndarray:
    """Empirical-Bayes gradient map: mean over samples of grad_alpha log g,
    minus the regularizer gradient when one is configured."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size == 0:
        raise ValueError("gradient_map_G requires a non-empty sample set")
    _check_finite(samples, alpha)
    cols = family._grad_alpha_columns(samples, alpha)
    # the bits of np.mean over the first axis of the (n, K) gradient (module docstring)
    if len(cols) == 1:
        out = np.array([np.mean(cols[0])])
    else:
        out = np.array([np.cumsum(c)[-1] + 0.0 for c in cols]) / samples.size
    if regularizer is not None:
        out = out - regularizer.grad(alpha)
    return out
