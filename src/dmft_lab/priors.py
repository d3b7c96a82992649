"""Prior families, score evaluators, and the parameter-gradient map.

Each family exposes the scalar score s(theta, alpha) = d/dtheta log g(theta, alpha),
its theta-derivative, the alpha-gradient of log g, sampling, and second moments.
All evaluators are pure and vectorized over theta.

The Gaussian-mixture evaluators and the mixture's scalar-channel update work
in component columns: for each component k one array shaped like theta (or
the channel output) holds theta - m_k, one its log-weight, one its
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
  the column;
- a square is `np.square`, as numpy's array power takes it: a scalar theta
  makes numpy scalars, whose `** 2` is libm's pow and can round differently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class InputDomainError(ValueError):
    """Raised when an evaluator receives non-finite theta or alpha."""


def _check_finite(theta, alpha) -> None:
    if not np.isfinite(theta).all():
        raise InputDomainError("non-finite theta")
    if alpha is not None and not np.isfinite(alpha).all():
        raise InputDomainError("non-finite alpha")


class PriorFamily:
    """Base class: a parametric family g(theta, alpha), alpha in R^K.

    A family defines log_g, drift_s = d/dtheta log g, dtheta_drift_s, the K
    columns of grad_alpha log g (_grad_alpha_columns, which grad_alpha_log_g
    stacks), sample(alpha, rng, size) and second_moment(alpha) = E[theta^2].
    A Monte Carlo step calls the first three through at(theta, alpha).
    """

    dim_alpha: int = 0

    def grad_alpha_log_g(self, theta, alpha):
        """Gradient of log g in alpha; shape (..., K) for array theta."""
        cols = self._grad_alpha_columns(theta, alpha)
        return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(theta) + (0,))

    def theta_curvature_constant(self, alpha) -> Optional[float]:
        """Return d/dtheta s when it does not depend on theta, else None."""
        return None

    def at(self, theta, alpha):
        """The family's evaluators for one step at (theta, alpha): drift_s,
        dtheta_drift_s and the alpha-gradient columns that gradient_map_G
        averages. The family itself, unless they share work there."""
        return self


class GaussianMixture(PriorFamily):
    """Gaussian mixture g = sum_k w_k N(m_k, 1/p_k) with fixed weights and precisions.

    Subclasses set up `components(alpha) -> (weights, means, precisions)`;
    alpha, if any, holds the means. Responsibilities are computed in log space
    with max-subtraction.
    """

    omega: np.ndarray

    def _alpha_score_columns(self, diff, r):
        """grad_alpha log g averaged over the components with responsibilities
        r_k at centers c, diff_k = c - m_k (theta, or the channel's component
        posterior means): omega_k (c - m_k) r_k per adaptive mean m_k = alpha_k,
        none for a fixed prior (dim_alpha 0)."""
        return [w_k * d_k * r_k for w_k, d_k, r_k in zip(self.omega.tolist()[: self.dim_alpha], diff, r)]

    def channel_columns(self, y, omega: float, alpha):
        """Conjugate update of the scalar channel Y = theta + N(0, 1/omega) at y.

        Component k has channel marginal w_k N(y; m_k, 1/omega + 1/p_k),
        posterior mean mu_k = (omega y + p_k m_k) / (omega + p_k) and posterior
        variance v_k = 1/(omega + p_k). Returns (top, total, r, mu, v): the log
        marginal is top + log(total), and r, mu and v are K columns shaped
        like y (v of floats).
        """
        w, m, p = self.components(alpha)
        y = np.asarray(y, dtype=float)
        var = 1.0 / omega + 1.0 / p
        log_c = np.log(w) - 0.5 * np.log(2 * np.pi * var)
        lw = [c_k - 0.5 * np.square(y - m_k) / v_k for c_k, m_k, v_k in zip(log_c.tolist(), m.tolist(), var.tolist())]
        top, e, total = self._shifted_exp(lw)
        v = (1.0 / (omega + p)).tolist()
        mu = [(omega * y + pm_k) * v_k for pm_k, v_k in zip((p * m).tolist(), v)]
        return top, total, [e_k / total for e_k in e], mu, v

    def _log_weights(self, theta, alpha):
        """Columns diff_k = theta - m_k and log(w_k N(theta; m_k, 1/p_k))."""
        w, m, p = self.components(alpha)
        theta = np.asarray(theta, dtype=float)
        diff = [theta - m_k for m_k in m.tolist()]
        log_c = (np.log(w) + 0.5 * np.log(p / (2 * np.pi))).tolist()
        return diff, [c_k - h_k * np.square(d_k) for c_k, h_k, d_k in zip(log_c, (0.5 * p).tolist(), diff)]

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

    def at(self, theta, alpha=None):
        """Several components share one responsibilities pass (_MixtureStep);
        a single component has none to share."""
        return self if self.omega.size == 1 else _MixtureStep(self, theta, alpha)

    def drift_s(self, theta, alpha=None):
        if self.omega.size == 1:  # -omega (theta - m), without the responsibility column
            # + 0.0 reads m = -0.0 as +0.0: the mixture formula's sum never ends at -0.0
            s = np.subtract(self.components(alpha)[1].item(0) + 0.0, theta, dtype=float)
            s *= self.omega.item(0)
            return s
        return self._drift_columns(*self._responsibilities(theta, alpha))

    def _drift_columns(self, diff, r):
        terms = [r_k * w_k * -d_k for r_k, w_k, d_k in zip(r, self.omega.tolist(), diff)]
        return sum(terms, 0.0)

    def dtheta_drift_s(self, theta, alpha=None):
        return self._curvature_columns(*self._responsibilities(theta, alpha))

    def _curvature_columns(self, diff, r):
        omega = self.omega.tolist()
        v = [w_k * -d_k for w_k, d_k in zip(omega, diff)]
        rv = [r_k * v_k for r_k, v_k in zip(r, v)]
        second = [rv_k * v_k for rv_k, v_k in zip(rv, v)]
        rw = [r_k * w_k for r_k, w_k in zip(r, omega)]
        mean_v = sum(rv, 0.0)
        return sum(second, 0.0) - np.square(mean_v) - sum(rw, 0.0)

    def _grad_alpha_columns(self, theta, alpha=None):
        return self._alpha_score_columns(*self._responsibilities(theta, alpha))

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


class _MixtureStep(PriorFamily):
    """A mixture of several components at one (theta, alpha): drift_s,
    dtheta_drift_s and the alpha-gradient columns all read the (diff, r)
    columns of one responsibilities pass, made here. They must be called at
    that theta and alpha, which they do not read again."""

    def __init__(self, mixture: GaussianMixture, theta, alpha):
        self.mixture, self.dim_alpha = mixture, mixture.dim_alpha
        self.columns = mixture._responsibilities(theta, alpha)

    def drift_s(self, theta, alpha=None):
        return self.mixture._drift_columns(*self.columns)

    def dtheta_drift_s(self, theta, alpha=None):
        return self.mixture._curvature_columns(*self.columns)

    def _grad_alpha_columns(self, theta, alpha=None):
        return self.mixture._alpha_score_columns(*self.columns)


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


class GaussianLocation(GaussianMeanMixture):
    """g = N(alpha, scale^2) with adaptive location alpha in R (K = 1): a
    one-component mean mixture."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        super().__init__([1.0], [1.0 / (scale * scale)])
        self.scale = float(scale)


_GRID_MEMO = 8  # exp-family grids kept: a fixed point reads one or two


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
        """(x, w, m): the grid x of [-L, L], w = exp(sum_k alpha_k x^k - m) on
        it and its maximum m. Built once per alpha and shared, so x and w are
        read-only; the memo keeps the last _GRID_MEMO grids of all families,
        so an alpha that changes every call (a gradient flow) holds no more.
        """
        alpha = np.asarray(alpha, dtype=float).reshape(self.dim_alpha) + 0.0  # -0.0 and 0.0: one key
        return self._built_grid(alpha.tobytes())

    @functools.lru_cache(maxsize=_GRID_MEMO)
    def _built_grid(self, key: bytes):
        alpha = np.frombuffer(key)
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
                x.setflags(write=False)
                w.setflags(write=False)
                return x, w, m
            half *= 1.5
        raise ValueError(f"exp(sum_k alpha_k theta^k) does not normalize for alpha = {alpha.tolist()}")

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


_THETA0_KINDS = ("zero", "prior", "star")


@dataclass
class Theta0Spec:
    """Initial law of theta^0: point mass at 0 (default), i.i.d. from the
    true prior, or a copy of theta_star."""

    kind: str = "zero"

    def __post_init__(self):
        if self.kind not in _THETA0_KINDS:
            raise ValueError(f"theta0 kind must be one of {_THETA0_KINDS}")

    def sample(self, prior: "PriorSpec", rng: np.random.Generator, size: int, theta_star):
        """Draw theta^0 for `size` coordinates; "star" copies theta_star."""
        if self.kind == "zero":
            return np.zeros(size)
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
