import tracemalloc

import numpy as np
import pytest
from closed_forms import mixture_gradient_map, mixture_scores, same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from dmft_lab import priors
from dmft_lab.dmft import solve_dmft
from dmft_lab.model import ModelParams
from dmft_lab.priors import (
    ExpFamily,
    GaussianFixed,
    GaussianLocation,
    GaussianMeanMixture,
    InputDomainError,
    PriorSpec,
    SmoothHinge,
    Theta0Spec,
    gradient_map_G,
)

FAMILIES = {
    "fixed": (GaussianFixed(1.3), np.zeros(0)),
    "location": (GaussianLocation(0.8), np.array([0.4])),
    "mean_mixture": (
        GaussianMeanMixture([0.3, 0.7], [1.0, 2.5]),
        np.array([-1.0, 0.5]),
    ),
    "exp_family": (ExpFamily([1, 2]), np.array([0.5, -0.7])),
}

theta_box = st.floats(-3.0, 3.0)
shift_box = st.floats(-0.5, 0.5)


def _fd(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_drift_gaussian_fixed_unit():
    # N(0, 1/lam) with lam = 1 at theta = 1 has score -1.
    assert GaussianFixed(1.0).drift_s(1.0, None) == -1.0


def test_drift_location_at_mode():
    assert GaussianLocation(1.0).drift_s(2.0, np.array([2.0])) == 0.0


def test_drift_single_component_mixture():
    fam = GaussianMeanMixture([1.0], [2.0])
    assert fam.drift_s(1.0, np.array([0.0])) == pytest.approx(-2.0, abs=1e-14)


def test_gradient_map_rejects_nonfinite():
    with pytest.raises(InputDomainError):
        gradient_map_G(None, [np.nan], GaussianFixed(1.0))
    with pytest.raises(InputDomainError):
        gradient_map_G(np.array([np.inf]), [0.0], GaussianLocation())


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(theta=theta_box, bump=shift_box)
def test_theta_score_matches_log_density(name, theta, bump):
    family, alpha0 = FAMILIES[name]
    alpha = alpha0 + bump if alpha0.size else alpha0
    s = float(np.asarray(family.drift_s(theta, alpha)))
    fd = _fd(lambda t: float(np.asarray(family.log_g(t, alpha))), theta)
    assert abs(fd - s) <= 1e-6 * (1.0 + abs(s))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(theta=theta_box, bump=shift_box)
def test_theta_curvature_matches_score_derivative(name, theta, bump):
    family, alpha0 = FAMILIES[name]
    alpha = alpha0 + bump if alpha0.size else alpha0
    ds = float(np.asarray(family.dtheta_drift_s(theta, alpha)))
    fd = _fd(lambda t: float(np.asarray(family.drift_s(t, alpha))), theta)
    assert abs(fd - ds) <= 1e-5 * (1.0 + abs(ds))


@pytest.mark.parametrize("name", [n for n in sorted(FAMILIES) if FAMILIES[n][1].size])
@settings(max_examples=20, deadline=None)
@given(theta=theta_box, bump=shift_box)
def test_alpha_gradient_matches_log_density(name, theta, bump):
    family, alpha0 = FAMILIES[name]
    alpha = alpha0 + bump
    grad = np.asarray(family.grad_alpha_log_g(theta, alpha), dtype=float).reshape(-1)
    for k in range(alpha.size):
        def f(a_k):
            a = alpha.copy()
            a[k] = a_k
            return float(np.asarray(family.log_g(theta, a)))

        fd = _fd(f, alpha[k])
        assert abs(fd - grad[k]) <= 1e-6 * (1.0 + abs(grad[k]))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-50.0, 50.0), bump=shift_box)
def test_score_linear_growth_bound(name, theta, bump):
    # |s(theta, alpha)| <= C (1 + |theta| + ||alpha||) with a family constant.
    family, alpha0 = FAMILIES[name]
    alpha = alpha0 + bump if alpha0.size else alpha0
    s = float(np.asarray(family.drift_s(theta, alpha)))
    big = 10.0 * (1.0 + max(np.abs(theta), 1.0))
    assert abs(s) <= big * (1.0 + abs(theta) + np.linalg.norm(alpha))


def test_gradient_map_location_mean():
    out = gradient_map_G(np.array([0.0]), [1.0, 3.0], GaussianLocation(1.0))
    assert out == pytest.approx([2.0], abs=1e-14)


def test_gradient_map_stationary_at_sample():
    out = gradient_map_G(np.array([0.7]), [0.7], GaussianLocation(1.0))
    assert out == pytest.approx([0.0], abs=1e-14)


def test_gradient_map_rejects_empty_samples():
    with pytest.raises(ValueError):
        gradient_map_G(np.array([0.0]), [], GaussianLocation(1.0))


def test_gradient_map_applies_regularizer():
    family = GaussianLocation(1.0)
    reg = SmoothHinge(D=0.0, eps=1.0)
    raw = gradient_map_G(np.array([2.0]), [2.0], family)
    penalized = gradient_map_G(np.array([2.0]), [2.0], family, regularizer=reg)
    assert penalized[0] == pytest.approx(raw[0] - reg.grad(np.array([2.0]))[0], abs=1e-14)


def test_exp_family_normalizer_matches_gaussian():
    # alpha = (mu/s2, -1/(2 s2)) reproduces N(mu, s2) exactly.
    fam = ExpFamily([1, 2])
    mu, s2 = 0.7, 1.5
    alpha = np.array([mu / s2, -0.5 / s2])
    a_val = fam.log_partition(alpha)
    expected = 0.5 * np.log(2 * np.pi * s2) + mu**2 / (2 * s2)
    assert a_val == pytest.approx(expected, abs=1e-9)
    grad = fam.grad_log_partition(alpha)
    assert grad[0] == pytest.approx(mu, abs=1e-9)  # E[theta]
    assert grad[1] == pytest.approx(mu**2 + s2, abs=1e-8)  # E[theta^2]
    assert fam.second_moment(alpha) == pytest.approx(mu**2 + s2, abs=1e-8)


def test_exp_family_grid_is_built_once_per_alpha_and_read_only():
    fam = ExpFamily([2, 4])
    x, w, m = fam._grid(np.array([-0.5, -0.1]))
    again = fam._grid([-0.5, -0.1])
    assert again[0] is x and again[1] is w and again[2] == m
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_exp_family_grid_ignores_the_sign_of_zero():
    fam = ExpFamily([1, 2])
    plus = fam._grid(np.array([0.0, -0.5]))
    minus = fam._grid(np.array([-0.0, -0.5]))
    unkeyed = ExpFamily._built_grid.__wrapped__(fam, np.array([-0.0, -0.5]).tobytes())
    assert all(same_bits(a, b) and same_bits(a, c) for a, b, c in zip(plus, minus, unkeyed))


def test_exp_family_grid_memo_stays_bounded_in_a_gradient_flow():
    # MC-DMFT moves alpha every step, and each step's gradient map reads grad_log_partition.
    memo = ExpFamily._built_grid
    memo.cache_clear()
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=1.0)
    prior = PriorSpec(ExpFamily([1, 2]), alpha=np.array([0.5, -0.7]), alpha_star=np.array([0.2, -0.5]))
    res = solve_dmft(params, prior, n_paths=200, seed=1)
    assert len(np.unique(res.table.alpha, axis=0)) == params.n_steps + 1
    info = memo.cache_info()
    assert info.misses >= params.n_steps
    assert info.currsize == priors._GRID_MEMO


def test_smooth_hinge_is_c1():
    reg = SmoothHinge(D=1.0, eps=0.5)
    grad = lambda r: reg.grad(np.array([r]))[0]
    assert grad(0.5) == 0.0
    # continuous at D and at D + eps
    for r in (1.0, 1.5):
        assert abs(grad(r + 1e-9) - grad(r - 1e-9)) < 1e-5
    # the cubic ramp's slope 3 (r - D)^2 / eps, then the linear branch's 3 eps
    for r in (1.1, 1.3, 1.5):
        assert grad(r) == pytest.approx(3 * (r - 1.0) ** 2 / 0.5, abs=1e-12)
    assert grad(10.0) == pytest.approx(3 * 0.5, abs=1e-12)


def test_theta0_spec_kinds():
    for kind in ("bogus", "gaussian"):
        with pytest.raises(ValueError):
            Theta0Spec(kind)


def test_prior_spec_dimension_check():
    with pytest.raises(ValueError):
        PriorSpec(GaussianLocation(1.0), alpha=[0.0, 1.0], alpha_star=[0.0, 1.0])


def test_sampling_matches_moments(rng):
    for name, (family, alpha) in FAMILIES.items():
        x = family.sample(alpha, rng, 200000)
        assert np.mean(x**2) == pytest.approx(family.second_moment(alpha), rel=0.02)


def test_curvature_constant_only_for_one_component():
    assert GaussianFixed(2.0).theta_curvature_constant() == -2.0
    assert GaussianLocation(0.5).theta_curvature_constant(np.array([0.3])) == -4.0
    assert GaussianMeanMixture([1.0], [3.0]).theta_curvature_constant(np.array([0.0])) == -3.0
    assert GaussianMeanMixture([0.5, 0.5], [3.0, 3.0]).theta_curvature_constant(np.zeros(2)) is None


def test_location_scores_equal_closed_forms(rng):
    # One component: responsibilities are exactly 1, so the mixture formulas
    # reduce to the Gaussian closed forms bit for bit.
    fam, alpha = GaussianLocation(0.8), np.array([0.4])
    omega = 1.0 / (0.8 * 0.8)
    theta = 3.0 * rng.normal(size=1000)
    assert np.array_equal(fam.drift_s(theta, alpha), omega * (alpha[0] - theta))
    assert np.array_equal(fam.dtheta_drift_s(theta, alpha), np.full(theta.shape, -omega))
    assert np.array_equal(fam.grad_alpha_log_g(theta, alpha), (omega * (theta - alpha[0]))[:, None])


@pytest.mark.parametrize(
    "family, alpha", [(GaussianFixed(1.3), None), (GaussianLocation(0.8), np.array([0.4]))], ids=["fixed", "location"]
)
def test_one_component_drift_has_the_mixture_bits_and_one_temporary(rng, family, alpha):
    # The mixture formula with r = 1 built about 5 path-sized temporaries;
    # the direct form keeps its bits with the result and one temporary.
    theta = 3.0 * rng.normal(size=20000)
    diff = theta[:, None] - family.components(alpha)[1]
    want = np.sum(np.ones_like(diff) * family.omega * (-diff), axis=-1)
    assert np.array_equal(family.drift_s(theta, alpha), want)
    tracemalloc.start()
    try:
        family.drift_s(theta, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * theta.nbytes


@st.composite
def mixture_cases(draw):
    """A Gaussian family with its alpha, and theta: a scalar or n coordinates,
    some of them exactly at a component mean; or an exp family, whose
    "means" are the points 0 and 1."""
    kind, k = draw(st.sampled_from([("fixed", 1), ("location", 1), ("mean", 2), ("mean", 3), ("exp", 2)]))
    positive = st.floats(0.1, 10.0)
    line = st.floats(-3.0, 3.0)
    if kind == "exp":
        family, alpha = ExpFamily([1, 2]), np.array([draw(line), -draw(positive)])
    elif kind == "fixed":
        family, alpha = GaussianFixed(draw(positive)), np.zeros(0)
    elif kind == "location":
        family, alpha = GaussianLocation(draw(positive)), np.array([draw(line)])
    else:
        family = GaussianMeanMixture([draw(positive) for _ in range(k)], [draw(positive) for _ in range(k)])
        alpha = np.array([draw(line) for _ in range(k)])
    means = np.array([0.0, 1.0]) if kind == "exp" else family.components(alpha)[1]
    n = draw(st.sampled_from([None, 1, 2, 7, 400, 2000]))
    if n is None:
        theta = draw(st.one_of(st.floats(-30.0, 30.0), st.sampled_from(means.tolist())))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        theta = draw(st.floats(0.1, 10.0)) * rng.normal(size=n)
        theta[rng.integers(0, n, size=min(n, k))] = means[: min(n, k)]
    return family, alpha, theta


@settings(max_examples=200, deadline=None)
@given(case=mixture_cases(), hinge=st.sampled_from([None, SmoothHinge(D=1.0, eps=0.5)]))
def test_score_columns_have_the_component_axis_bits(case, hinge):
    # A step's evaluators (family.at: one responsibilities pass shared by a
    # mixture of several components, the family itself otherwise) give the
    # bits of the family's own, the alpha-gradient with or without a hinge.
    family, alpha, theta = case
    step = family.at(theta, alpha)
    assert (step is family) == (isinstance(family, ExpFamily) or family.omega.size == 1)
    assert same_bits(step.drift_s(theta, alpha), family.drift_s(theta, alpha))
    assert same_bits(step.dtheta_drift_s(theta, alpha), family.dtheta_drift_s(theta, alpha))
    assert same_bits(gradient_map_G(alpha, theta, step, hinge), gradient_map_G(alpha, theta, family, hinge))
    if isinstance(family, ExpFamily):
        return
    # The evaluators work on per-component columns; the (..., K) formulas
    # of closed_forms are the reference, signed zeros included.
    drift, curvature, grad_alpha = mixture_scores(family, theta, alpha)
    assert same_bits(family.drift_s(theta, alpha), drift)
    assert same_bits(family.dtheta_drift_s(theta, alpha), curvature)
    assert same_bits(family.grad_alpha_log_g(theta, alpha), grad_alpha)
    assert same_bits(gradient_map_G(alpha, theta, family), mixture_gradient_map(alpha, theta, family))


@pytest.mark.parametrize(
    "theta", [2.885738285235279, 6.9444656162231855, -3.775789025835823, 3.647272905583609, 2.499215213083609]
)
def test_scalar_theta_keeps_the_component_axis_bits(theta):
    # A scalar theta makes numpy scalars, whose ** 2 is libm's pow; it rounds
    # the squares of theta - m_k (the first three) and of the mean score in
    # the curvature (the last two) away from the array's x * x.
    family, alpha = GaussianMeanMixture([0.4, 0.6], [1.0, 2.0]), np.array([-0.5, 1.0])
    drift, curvature, grad_alpha = mixture_scores(family, theta, alpha)
    assert same_bits(family.drift_s(theta, alpha), drift)
    assert same_bits(family.dtheta_drift_s(theta, alpha), curvature)
    assert same_bits(family.grad_alpha_log_g(theta, alpha), grad_alpha)
    for score in (family.drift_s, family.dtheta_drift_s):
        assert same_bits(score(theta, alpha), score(np.array([theta]), alpha)[0])


def test_theta0_spec_sample_kinds(rng):
    prior = PriorSpec(GaussianFixed(4.0))
    star = np.arange(5.0)
    assert np.array_equal(Theta0Spec("zero").sample(prior, rng, 5, star), np.zeros(5))
    copy = Theta0Spec("star").sample(prior, rng, 5, star)
    assert np.array_equal(copy, star) and copy is not star
    draws = Theta0Spec("prior").sample(prior, rng, 100000, star)
    assert np.mean(draws**2) == pytest.approx(0.25, rel=0.03)
