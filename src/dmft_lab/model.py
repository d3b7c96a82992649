"""Linear-model parameters and instance sampling.

An instance is one realization (X, theta_star, eps, y, theta0). Sampling uses
counter-based Philox streams keyed by (seed, component), so each component is
reproducible independently of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import PriorSpec

# Philox stream ids per instance component.
_STREAM_X = 0
_STREAM_THETA_STAR = 1
_STREAM_EPS = 2
_STREAM_THETA0 = 3

DESIGNS = ("gaussian", "rademacher")

NORM_GUARD = 1e6  # the largest RMS of theta, in units of the run's scale, that a chain or path ensemble may reach


class DivergenceError(RuntimeError):
    """State blew up (NaN/Inf or norm guard); reports the offending step."""


def check_divergence(mean_square: float, scale2: float, step: int) -> None:
    """The guard of `simulate` and `dmft`: raise at `step` when theta's mean square is non-finite
    or above NORM_GUARD^2 scale2, scale2 the mean square of theta_star plus that of theta^0."""
    if not np.isfinite(mean_square) or mean_square > NORM_GUARD**2 * scale2:
        raise DivergenceError(f"theta diverged at step {step}: mean square {mean_square:.3e} (gamma too large?)")


@dataclass
class ModelParams:
    """Scalar parameters of the model and the Euler discretization."""

    n: int
    d: int
    sigma2: float
    beta: float
    gamma_step: float
    horizon: float

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.gamma_step <= 0:
            raise ValueError("gamma_step must be positive")
        if self.horizon < self.gamma_step:
            raise ValueError("horizon must be >= gamma_step")
        steps = self.horizon / self.gamma_step
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integral multiple of gamma_step")

    @property
    def delta(self) -> float:
        """The aspect ratio n/d."""
        return self.n / self.d

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.gamma_step)


@dataclass
class ModelInstance:
    """One realization of the linear model, plus the quenched initialization."""

    X: np.ndarray
    theta_star: np.ndarray
    eps: np.ndarray
    y: np.ndarray
    theta0: np.ndarray

    @property
    def d(self) -> int:
        return self.X.shape[1]


def component_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    Philox is keyed by the pair directly, so every component draws from its
    own stream and generation order across components is irrelevant."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(stream)]))


def sample_instance(
    params: ModelParams,
    prior: PriorSpec,
    seed: int,
    design: str = "gaussian",
) -> ModelInstance:
    """Draw (X, theta_star, eps, y, theta0), deterministic in the seed.

    X entries are i.i.d. N(0, 1/d) ("gaussian") or +-1/sqrt(d) ("rademacher").
    theta_star ~ g(., alpha_star) i.i.d.; eps ~ N(0, sigma2) i.i.d.; all
    components are drawn from independent streams of a counter-based RNG.
    """
    n, d = params.n, params.d
    rng_x = component_rng(seed, _STREAM_X)
    if design == "gaussian":
        X = rng_x.normal(0.0, 1.0 / np.sqrt(d), size=(n, d))
    elif design == "rademacher":
        X = (2.0 * rng_x.integers(0, 2, size=(n, d)) - 1.0) / np.sqrt(d)
    else:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")

    theta_star = prior.family.sample(prior.alpha_star, component_rng(seed, _STREAM_THETA_STAR), d)
    eps = component_rng(seed, _STREAM_EPS).normal(0.0, np.sqrt(params.sigma2), size=n)
    y = X @ theta_star + eps

    theta0 = prior.theta0.sample(prior, component_rng(seed, _STREAM_THETA0), d, theta_star)

    return ModelInstance(X=X, theta_star=theta_star, eps=eps, y=y, theta0=theta0)
