import numpy as np
import pytest

from dmft_lab.model import ModelParams, component_rng, sample_instance
from dmft_lab.priors import GaussianFixed, PriorSpec, Theta0Spec


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, d=1, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=2, d=1, sigma2=-1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=2, d=1, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=0.05)
    with pytest.raises(TypeError):  # delta is n/d, not a parameter
        ModelParams(n=4, d=2, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0, delta=2.0)
    p = ModelParams(n=4, d=2, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    assert p.delta == 2.0 and p.n_steps == 10
    assert ModelParams(n=3, d=7, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0).delta == 3 / 7


def test_same_seed_bit_identical():
    params = ModelParams(n=20, d=10, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    a = sample_instance(params, prior, seed=42)
    b = sample_instance(params, prior, seed=42)
    for name in ("X", "theta_star", "eps", "y", "theta0"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = sample_instance(params, prior, seed=43)
    assert not np.array_equal(a.X, c.X)


def test_linear_model_identity_exact():
    params = ModelParams(n=30, d=15, sigma2=2.0, beta=0.5, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=3)
    # y is stored as the literal fp sum X@theta* + eps, so the identity is
    # bitwise when evaluated in the same association.
    assert np.array_equal(inst.y, inst.X @ inst.theta_star + inst.eps)


def test_design_second_moment():
    params = ModelParams(n=2000, d=1000, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=11)
    second = np.mean((np.sqrt(params.d) * inst.X) ** 2)
    assert abs(second - 1.0) < 5.0 / np.sqrt(params.n * params.d)


def test_design_entry_mean_clt():
    params = ModelParams(n=2000, d=1000, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=5)
    mean = np.mean(np.sqrt(params.d) * inst.X)
    assert abs(mean) < 4.0 / np.sqrt(params.n * params.d)


def test_noiseless_identity_case():
    # d = n = 1 with near-zero noise: y = X theta*.
    params = ModelParams(n=1, d=1, sigma2=1e-30, beta=1.0, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=9)
    assert inst.y[0] == pytest.approx(inst.X[0, 0] * inst.theta_star[0], abs=1e-12)


def test_rademacher_design():
    params = ModelParams(n=50, d=25, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=2, design="rademacher")
    vals = np.unique(np.round(np.sqrt(params.d) * inst.X, 12))
    assert set(vals) == {-1.0, 1.0}
    with pytest.raises(ValueError):
        sample_instance(params, prior, seed=2, design="bogus")


def test_theta0_kinds_are_quenched():
    params = ModelParams(n=10, d=5, sigma2=1.0, beta=1.0, gamma_step=0.1, horizon=1.0)
    star = PriorSpec(GaussianFixed(1.0), theta0=Theta0Spec("star"))
    inst = sample_instance(params, star, seed=4)
    assert np.array_equal(inst.theta0, inst.theta_star)
    zero = PriorSpec(GaussianFixed(1.0))
    assert np.all(sample_instance(params, zero, seed=4).theta0 == 0.0)


def test_component_streams_are_independent_of_order():
    # Drawing the same stream twice gives the same values regardless of what
    # other streams were consumed in between.
    a1 = component_rng(123, 0).normal(size=5)
    _ = component_rng(123, 1).normal(size=100)
    a2 = component_rng(123, 0).normal(size=5)
    assert np.array_equal(a1, a2)
