import tracemalloc

import numpy as np
import pytest
from closed_forms import channel_references, same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from dmft_lab import equilibrium
from dmft_lab.equilibrium import (
    free_energy,
    grad_F,
    log_marginal,
    mse_pair,
    posterior_grad_alpha_mean,
    posterior_moments,
    solve_fixed_point,
)
from dmft_lab.priors import (
    ExpFamily,
    GaussianFixed,
    GaussianLocation,
    GaussianMeanMixture,
    SmoothHinge,
)

MATCHED = dict(delta=2.0, sigma2=1.0)


def test_posterior_mean_gaussian_conjugate():
    # prior N(0, 1), omega = 1, y = 2: posterior mean y/2 = 1.
    m1, m2 = posterior_moments(2.0, GaussianFixed(1.0), 1.0)
    assert m1 == pytest.approx(1.0, abs=1e-14)
    assert m2 == pytest.approx(1.0 + 0.5, abs=1e-14)  # mean^2 + var


def test_posterior_mean_symmetric_prior_at_zero():
    for g, alpha in (
        (GaussianFixed(2.0), None),
        (GaussianMeanMixture([0.5, 0.5], [1.0, 1.0]), np.array([-1.0, 1.0])),
    ):
        m1, _ = posterior_moments(0.0, g, 1.3, alpha)
        assert m1 == pytest.approx(0.0, abs=1e-14)


def test_posterior_moments_numeric_matches_closed_form():
    # Exponential-family Gaussian equals the conjugate closed form.
    fam = ExpFamily([1, 2])
    alpha = np.array([0.0, -0.5])  # N(0, 1)
    m1n, m2n = posterior_moments(0.8, fam, 2.0, alpha)
    m1c, m2c = posterior_moments(0.8, GaussianFixed(1.0), 2.0)
    assert m1n == pytest.approx(m1c, abs=1e-8)
    assert m2n == pytest.approx(m2c, abs=1e-8)
    with pytest.raises(ValueError):
        posterior_moments(0.0, GaussianFixed(1.0), -1.0)


OMEGA_CASES = {
    # case -> (prior, alpha)
    "gaussian": (GaussianFixed(1.0), None),
    "exp_family": (ExpFamily([2]), np.array([-0.5])),
    "gaussian_location": (GaussianLocation(1.0), np.array([0.0])),
}


@pytest.mark.parametrize("omega", [0.0, -1.0])
@pytest.mark.parametrize("case", ["gaussian", "exp_family"])
def test_per_y_functions_refuse_a_nonpositive_omega(case, omega):
    prior, alpha = OMEGA_CASES[case]
    with pytest.raises(ValueError, match="omega must be positive"):
        posterior_moments(0.7, prior, omega, alpha)
    with pytest.raises(ValueError, match="omega must be positive"):
        log_marginal(0.7, prior, omega, alpha)


@pytest.mark.parametrize("omega", [0.0, -1.0])
@pytest.mark.parametrize("case", ["gaussian_location", "exp_family"])
def test_grad_alpha_mean_refuses_a_nonpositive_omega(case, omega):
    family, alpha = OMEGA_CASES[case]
    with pytest.raises(ValueError, match="omega must be positive"):
        posterior_grad_alpha_mean(family, alpha, 0.7, omega)


def test_mse_pair_matched_gaussian_conjugacy():
    omega = 1.7
    mse, mse_star = mse_pair(GaussianFixed(1.0), GaussianFixed(1.0), omega, omega)
    assert mse == pytest.approx(1.0 / (1.0 + omega), abs=1e-12)
    assert mse_star == pytest.approx(mse, abs=1e-10)  # tower property, matched


@pytest.mark.parametrize(
    "family,alpha,n_gh,tol",
    [
        (GaussianMeanMixture([0.4, 0.6], [1.0, 2.0]), np.array([-0.5, 1.0]), 64, 2e-6),
        (GaussianLocation(0.8), np.array([0.3]), 64, 1e-9),
        (GaussianMeanMixture([0.2, 0.3, 0.5], [1.0, 2.0, 0.5]), np.array([-1.0, 0.0, 2.0]), 64, 2e-6),
        (ExpFamily([1, 2]), np.array([0.4, -0.6]), 16, 1e-4),
    ],
)
def test_mse_pair_matched_tower_all_families(family, alpha, n_gh, tol):
    # Correctly specified channel: E(theta* - <theta>)^2 = E<(theta-<theta>)^2>.
    mse, mse_star = mse_pair(family, family, 1.3, 1.3, alpha_star=alpha, alpha=alpha, n_gh=n_gh)
    assert mse == pytest.approx(mse_star, abs=tol)


def test_mse_vanishes_in_strong_channel():
    mse, _ = mse_pair(GaussianFixed(1.0), GaussianFixed(1.0), 1e8, 1e8)
    assert mse < 2e-8


def test_fixed_point_matched_gaussian():
    sol = solve_fixed_point(
        **MATCHED, g_star=GaussianFixed(1.0), g=GaussianFixed(1.0), tol=1e-13
    )
    assert sol.omega == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert sol.omega_star == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert sol.mse == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)
    assert sol.mse_star == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)
    assert sol.residual_trace[-1] <= 1e-13
    assert sol.ymse == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-10)


def test_fixed_point_mismatched_gaussian_closed_form():
    # nominal variance 2, true variance 1: xi solves 2 xi^2 + xi - 2 = 0.
    sol = solve_fixed_point(
        **MATCHED, g_star=GaussianFixed(1.0), g=GaussianFixed(0.5), tol=1e-13
    )
    xi_inv = (-1.0 + np.sqrt(17.0)) / 4.0
    assert 1.0 / sol.omega == pytest.approx(xi_inv, abs=1e-8)
    mse_star_cf = (1.0 * 2.0**2 + 2.0 * xi_inv**2 * 1.0) / (2.0 * (xi_inv + 2.0) ** 2 - 2.0**2)
    assert sol.mse_star == pytest.approx(mse_star_cf, abs=1e-8)


def test_uninformative_channel_limit():
    # sigma2 -> infinity: omega -> 0 and mse -> Var_g(theta).
    sol = solve_fixed_point(delta=2.0, sigma2=1e6, g_star=GaussianFixed(1.0), g=GaussianFixed(1.0))
    assert sol.omega < 3e-6
    assert sol.mse == pytest.approx(1.0, abs=1e-3)


def test_free_energy_stationarity():
    gs = GaussianFixed(1.0)
    sol = solve_fixed_point(**MATCHED, g_star=gs, g=gs, tol=1e-13)
    h = 1e-5
    for which in (0, 1):
        args = [sol.omega, sol.omega_star]
        args[which] += h
        up = free_energy(args[0], args[1], gs, gs, **MATCHED)
        args[which] -= 2 * h
        dn = free_energy(args[0], args[1], gs, gs, **MATCHED)
        assert abs((up - dn) / (2 * h)) <= 1e-6


def test_free_energy_matched_gaussian_closed_form():
    gs = GaussianFixed(1.0)
    sol = solve_fixed_point(**MATCHED, g_star=gs, g=gs, tol=1e-13)
    delta, sigma2 = MATCHED["delta"], MATCHED["sigma2"]
    tau2 = tau_s2 = 1.0
    om = sol.omega
    xi_inv = 1.0 / om
    gauss_integral = (
        delta / 2 * np.log(sigma2 * om / delta)
        + 0.5 * np.log(tau2 * xi_inv / (tau2 + xi_inv))
        + 0.5 * np.log(2 * np.pi)
        - tau_s2 / (2 * (tau2 + xi_inv))
        + delta / 2
        - sigma2 * om
    )
    log_p = gauss_integral - delta / 2 * np.log(2 * np.pi * sigma2) - 0.5 * np.log(2 * np.pi * tau2)
    expected = -log_p - delta / 2 * (1 + np.log(2 * np.pi * sigma2))
    assert sol.free_energy == pytest.approx(expected, abs=1e-8)


def test_immse_slope():
    gs = GaussianFixed(1.0)

    def f_at(s):
        sol = solve_fixed_point(delta=2.0, sigma2=1.0 / s, g_star=gs, g=gs, tol=1e-13)
        return sol.free_energy, sol.ymse_star

    for s in (0.5, 1.0, 2.0):
        h = 1e-2
        stencil = [f_at(s + k * h)[0] for k in (-2, -1, 0, 1, 2)]
        dfds = (stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
        assert abs(dfds - 1.0 * f_at(s)[1]) <= 1e-4  # (delta/2) ymse* with delta = 2


def test_grad_f_zero_at_matched_parameter():
    g = GaussianLocation(1.0)
    val = grad_F(np.array([1.0]), 2.0, 1.0, g, g, alpha_star=np.array([1.0]))
    assert np.linalg.norm(val) <= 1e-6


def test_grad_f_symmetry():
    # symmetric truth centered at alpha: location gradient vanishes there.
    g = GaussianLocation(1.0)
    gs = GaussianMeanMixture([0.5, 0.5], [1.0, 1.0])
    val = grad_F(
        np.array([0.0]), 2.0, 1.0, gs, g, alpha_star=np.array([-0.7, 0.7])
    )
    assert abs(val[0]) <= 1e-8


def test_grad_f_matches_free_energy_derivative():
    # total alpha-derivative of f at the fixed point equals the partial one.
    g = GaussianLocation(1.0)
    gs = GaussianLocation(1.0)
    a_star = np.array([0.6])
    a0 = 0.2

    def f_of_alpha(a):
        sol = solve_fixed_point(
            2.0, 1.0, gs, g, alpha_star=a_star, alpha=np.array([a]), tol=1e-13
        )
        return sol.free_energy

    h = 1e-4
    fd = (f_of_alpha(a0 + h) - f_of_alpha(a0 - h)) / (2 * h)
    gf = grad_F(np.array([a0]), 2.0, 1.0, gs, g, alpha_star=a_star)
    assert abs(fd - gf[0]) <= 1e-5


def test_log_marginal_gaussian():
    # channel marginal is N(0, 1/omega + tau2).
    var = 1.0 / 2.0 + 1.0
    got = log_marginal(0.7, GaussianFixed(1.0), 2.0)
    want = -0.5 * np.log(2 * np.pi * var) - 0.7**2 / (2 * var)
    assert got == pytest.approx(want, abs=1e-12)


def test_solver_refuses_a_negative_delta():
    with pytest.raises(ValueError):
        solve_fixed_point(delta=-1.0, sigma2=1.0, g_star=GaussianFixed(1.0), g=GaussianFixed(1.0))


def test_solver_failure_carries_the_residual_trace(monkeypatch):
    monkeypatch.setattr(equilibrium, "_MAX_SWEEPS", 3)
    with pytest.raises(RuntimeError, match="after 3 sweeps") as err:
        solve_fixed_point(delta=2.0, sigma2=1.0, g_star=GaussianFixed(1.0), g=GaussianFixed(1.0))
    trace = err.value.residual_trace
    assert len(trace) == 3 and min(trace) > 1e-10
    assert f"last residual {trace[-1]:.3e}" in str(err.value)
    # The same sweeps, with room to converge, give the same residuals.
    monkeypatch.setattr(equilibrium, "_MAX_SWEEPS", 10000)
    sol = solve_fixed_point(delta=2.0, sigma2=1.0, g_star=GaussianFixed(1.0), g=GaussianFixed(1.0))
    assert sol.residual_trace[:3] == trace


def test_grad_f_adds_the_regularizer_gradient():
    # |alpha| = 0.5 lies outside D = 0.2, inside the cubic ramp.
    g, alpha, reg = GaussianLocation(1.0), np.array([0.5]), SmoothHinge(D=0.2, eps=1.0)
    assert np.all(reg.grad(alpha) != 0)
    args = (2.0, 1.0, GaussianLocation(1.0), g, np.array([0.0]))
    got = grad_F(alpha, *args, regularizer=reg, n_gh=16)
    assert got.tobytes() == (grad_F(alpha, *args, n_gh=16) + reg.grad(alpha)).tobytes()


# Scalars whose square numpy's float64 scalar power (libm's pow) rounds away
# from x * x: a 0-d channel output must still take the array's square.
POW_ROUNDED = [-37.17582267360757, -0.11822531949290749, 38.72368377813987, -16.648040414241414]


@st.composite
def channel_cases(draw):
    """A Gaussian family with its alpha (means may sit at -0.0), omega in
    [1e-2, 1e2], and y: a scalar or an array, with +-0.0 and +-40 among them."""
    kind, k = draw(st.sampled_from([("fixed", 1), ("location", 1), ("mean", 2), ("mean", 3)]))
    positive = st.floats(0.1, 10.0)
    line = st.one_of(st.floats(-3.0, 3.0), st.just(-0.0))
    if kind == "fixed":
        family, alpha = GaussianFixed(draw(positive)), None
    elif kind == "location":
        family, alpha = GaussianLocation(draw(positive)), np.array([draw(line)])
    else:
        family = GaussianMeanMixture([draw(positive) for _ in range(k)], [draw(positive) for _ in range(k)])
        alpha = np.array([draw(line) for _ in range(k)])
    omega = 10.0 ** draw(st.floats(-2.0, 2.0))
    shape = draw(st.sampled_from([(), (1,), (7,), (5, 101)]))
    if shape == ():
        y = draw(st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0, 40.0, -40.0] + POW_ROUNDED)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        y = draw(st.floats(0.1, 10.0)) * rng.normal(size=shape)
        y.flat[rng.integers(0, y.size, size=4)] = [0.0, -0.0, 40.0, -40.0]
    return family, alpha, omega, y


@settings(max_examples=150, deadline=None)
@given(case=channel_cases())
def test_channel_columns_have_the_component_axis_bits(case):
    # The scalar channel reads the prior's component columns; the (..., K)
    # formulas of closed_forms are the reference, signed zeros included.
    family, alpha, omega, y = case
    (m1, m2), log_p, grad = channel_references(family, y, omega, alpha)
    got_m1, got_m2 = posterior_moments(y, family, omega, alpha)
    assert same_bits(got_m1, m1) and same_bits(got_m2, m2)
    assert same_bits(log_marginal(y, family, omega, alpha), log_p)
    assert same_bits(posterior_grad_alpha_mean(family, alpha, y, omega), grad)


def test_exp_family_atom_path_matches_gaussian_closed_forms():
    # alpha = (0, -1/2) makes the exp family N(0, 1): its grid atoms must give
    # the conjugate location score, E[theta^2 | y] - 1 and the Gaussian marginal.
    fam = ExpFamily([1, 2])
    alpha = np.array([0.0, -0.5])
    omega = 1.3
    y = np.linspace(-3.0, 3.0, 13).reshape(13, 1) + np.array([0.0, 0.1])
    got = posterior_grad_alpha_mean(fam, alpha, y, omega)
    assert got.shape == y.shape + (2,)
    loc = posterior_grad_alpha_mean(GaussianLocation(1.0), np.array([0.0]), y, omega)
    assert np.max(np.abs(got[..., 0] - loc[..., 0])) <= 1e-10
    _, m2 = posterior_moments(y, GaussianFixed(1.0), omega)
    assert np.max(np.abs(got[..., 1] - (m2 - 1.0))) <= 1e-10
    var = 1.0 + 1.0 / omega
    want = -0.5 * np.log(2 * np.pi * var) - y**2 / (2 * var)
    assert np.max(np.abs(log_marginal(y, fam, omega, alpha) - want)) <= 1e-10


# ------------------------------------------------- row-blocked atom posterior


def _dense_atom_posterior(y, nodes, masses, omega):
    """The whole (y, atoms) posterior matrix, each row scaled to a largest
    weight of 1, and the log of that scale: the reference for `_atom_sums`."""
    lp = np.atleast_1d(y).reshape(-1, 1) - nodes
    np.square(lp, out=lp)
    lp *= 0.5 * omega
    np.subtract(np.log(masses + 1e-300), lp, out=lp)
    top = lp.max(axis=1, keepdims=True)
    lp -= top
    return np.exp(lp, out=lp), top[:, 0]


EXP_FAMILY = (ExpFamily([2, 4]), np.array([-0.5, -0.1]))


@pytest.mark.parametrize("n", [1, 3, 91, 4104, 77])  # 77: three blocks, the last partial
@pytest.mark.parametrize("prior,alpha", [EXP_FAMILY], ids=["exp_family"])
def test_blocked_atom_sums_match_the_dense_matrix_bitwise(prior, alpha, n):
    omega = 1.3
    y = np.random.default_rng(n).normal(scale=2.0, size=n)
    _, (nodes, masses) = equilibrium._prior_law(prior, alpha)
    post, _ = _dense_atom_posterior(y, nodes, masses, omega)
    z = post.sum(axis=1)
    m1, m2 = posterior_moments(y, prior, omega, alpha)
    assert np.array_equal(m1, (post @ nodes) / z)
    assert np.array_equal(m2, (post @ (nodes * nodes)) / z)
    post, top = _dense_atom_posterior(y, nodes, masses, omega)
    want = top + np.log(post.sum(axis=1)) - np.log(masses.sum()) + 0.5 * np.log(omega / (2 * np.pi))
    assert np.array_equal(log_marginal(y, prior, omega, alpha), want)


def test_blocked_grad_alpha_mean_matches_the_dense_matrix():
    # A (atoms, K) statistic is a GEMM, whose last bits depend on the block.
    fam, alpha = EXP_FAMILY
    omega = 1.3
    y = np.random.default_rng(5).normal(scale=2.0, size=(513, 8))
    _, (nodes, masses) = equilibrium._prior_law(fam, alpha)
    post, _ = _dense_atom_posterior(y, nodes, masses, omega)
    want = (post @ fam.grad_alpha_log_g(nodes, alpha)) / post.sum(axis=1)[:, None]
    got = posterior_grad_alpha_mean(fam, alpha, y, omega)
    assert got.shape == y.shape + (2,)
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-12


def test_exp_family_posterior_holds_no_dense_matrix():
    # (513, 8) outputs by 4097 grid atoms would be a 134 MB float64 matrix.
    fam, alpha = EXP_FAMILY
    y = np.linspace(-4.0, 4.0, 513 * 8).reshape(513, 8)
    tracemalloc.start()
    try:
        posterior_moments(y, fam, 1.3, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_hermite_rule_is_cached_read_only():
    x, w = equilibrium._hermite_rule(8)
    assert equilibrium._hermite_rule(8)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0
    want = np.polynomial.hermite_e.hermegauss(8)
    assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])


# ------------------------------------------------- shift-invariant channel sums


def _per_y_channel(g_star, alpha_star, g, alpha, omega, omega_star, n_gh, grad=False):
    """`_channel_posterior` from `_true_channel` and the public per-y functions only."""
    tn, c, w2d = equilibrium._true_channel(g_star, alpha_star, omega_star, n_gh)
    y = tn + c
    cols = [log_marginal(y, g, omega, alpha), *posterior_moments(y, g, omega, alpha)]
    post = np.stack(cols, axis=-1)
    if grad:
        post = np.concatenate([post, posterior_grad_alpha_mean(g, alpha, y, omega)], axis=-1)
    return tn, w2d, post


def _channel_values(g_star, alpha_star, g, alpha, omega, omega_star, n_gh):
    """mse, mse_star, the free energy, and -E[grad_alpha log g] over the true
    channel with the scale of its summands, at fixed precisions."""
    mse, mse_star = mse_pair(g_star, g, omega, omega_star, alpha_star, alpha, n_gh)
    fe = free_energy(omega, omega_star, g_star, g, 2.0, 1.0, alpha_star, alpha, n_gh)
    _, w2d, post = equilibrium._channel_posterior(g_star, alpha_star, g, alpha, omega, omega_star, n_gh, grad=True)
    gmean = post[..., 3:]
    grad = -np.sum(w2d[..., None] * gmean, axis=(0, 1))
    scale = np.sum(w2d[..., None] * np.abs(gmean), axis=(0, 1))
    return np.array([mse, mse_star, fe]), grad, scale


SHIFTED_CASES = {
    # case -> (g_star, alpha_star, g, alpha, omega, omega_star, n_gh)
    "matched_8": (*EXP_FAMILY, *EXP_FAMILY, 1.3, 1.1, 8),
    "matched_64": (*EXP_FAMILY, *EXP_FAMILY, 1.3, 1.1, 64),
    "other_alpha": (*EXP_FAMILY, ExpFamily([2, 4]), np.array([-0.6, -0.05]), 1.3, 1.1, 8),
    # Outputs far in the tails of a narrow prior: their scaled z underflows.
    "fallback": (ExpFamily([2]), np.array([-50.0]), ExpFamily([2]), np.array([-50.0]), 40.0, 40.0, 16),
}


@pytest.mark.parametrize("case", SHIFTED_CASES)
def test_shifted_channel_sums_match_the_per_y_functions(monkeypatch, case):
    args = SHIFTED_CASES[case]
    g_star, alpha_star, g, alpha, _, _, n_gh = args
    assert np.array_equal(g_star._grid(alpha_star)[0], g._grid(alpha)[0])  # the shifted path applies
    rows = []
    atom_sums = equilibrium._atom_sums
    monkeypatch.setattr(equilibrium, "_atom_sums", lambda y, *a: rows.append(y.size) or atom_sums(y, *a))
    values, grad, scale = _channel_values(*args)
    fell_back = sum(rows) // 3  # three channel averages per _channel_values
    assert (0 < fell_back < 513 * n_gh) if case == "fallback" else fell_back == 0
    monkeypatch.setattr(equilibrium, "_channel_posterior", _per_y_channel)
    want, want_grad, _ = _channel_values(*args)
    assert np.all(np.abs(values - want) <= 1e-13 * np.abs(want))
    # grad_alpha is near 0 in the matched case, so it is held to the scale of its summands.
    assert np.all(np.abs(grad - want_grad) <= 1e-13 * scale)


def _shifted_sums_by_row(x, masses, stride, c, omega, stats):
    """`_shifted_sums` with one GEMM per truth row: its (_NODES, n) windows
    against the (n, q) columns of the weights and weighted statistics."""
    n = x.size
    weights = masses / masses.max()
    cols = np.ascontiguousarray(np.stack([weights] + [weights * s for s in stats])[:, ::-1]).T
    lags = np.arange(1 - n, n) * (x[1] - x[0])
    out = np.empty((len(range(0, n, stride)), c.size, len(stats) + 1))
    for k in range(0, c.size, equilibrium._NODES):
        kern = np.exp(-0.5 * omega * np.square(lags + c[k : k + equilibrium._NODES, None]))
        windows = np.lib.stride_tricks.sliding_window_view(kern, n, axis=1)[:, ::stride].swapaxes(0, 1)
        np.matmul(windows, cols, out=out[:, k : k + equilibrium._NODES])
    z = out[..., 0]
    low = z < equilibrium._Z_FLOOR
    z[low] = 1.0
    out[..., 1:] /= out[..., :1]
    np.log(z, out=z)
    z += np.log(masses.max() / masses.sum())
    z += 0.5 * np.log(omega / (2 * np.pi))
    return out, low


@pytest.mark.parametrize("grad", [False, True], ids=["moments", "alpha_score"])
@pytest.mark.parametrize("n_gh", [8, 64])
@pytest.mark.parametrize("case", ["matched_8", "other_alpha"])
def test_batched_shifted_sums_match_one_gemm_per_row_bitwise(case, n_gh, grad):
    # 513 truth rows are not a multiple of _TRUTH_ROWS: the last GEMM's block is ragged.
    _, _, g, alpha, omega, omega_star, _ = SHIFTED_CASES[case]
    _, (x, masses) = equilibrium._prior_law(g, alpha)
    stride = equilibrium._TRUTH_STRIDE
    assert len(range(0, x.size, stride)) % equilibrium._TRUTH_ROWS != 0
    c = equilibrium._hermite_rule(n_gh)[0] / np.sqrt(omega_star)
    stats = [x, x * x] + (list(g.grad_alpha_log_g(x, alpha).T) if grad else [])
    got, got_low = equilibrium._shifted_sums(x, masses, stride, c, omega, stats)
    want, want_low = _shifted_sums_by_row(x, masses, stride, c, omega, stats)
    assert got.shape == want.shape == (513, n_gh, len(stats) + 1)
    assert np.array_equal(got, want) and np.array_equal(got_low, want_low)


def test_grad_f_shifted_matches_the_per_y_functions(monkeypatch):
    # Truth and posterior on one grid with different alpha: grad_F is O(1).
    g_star, alpha_star, g, alpha, *_ = SHIFTED_CASES["other_alpha"]
    got = grad_F(alpha, 2.0, 1.0, g_star, g, alpha_star, n_gh=8)
    monkeypatch.setattr(equilibrium, "_channel_posterior", _per_y_channel)
    want = grad_F(alpha, 2.0, 1.0, g_star, g, alpha_star, n_gh=8)
    assert np.min(np.abs(want)) > 1e-3
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_grids_that_differ_keep_the_per_y_bits(monkeypatch):
    # The flatter prior's support expands past L = 8, so the grids differ.
    g_star, alpha_star = EXP_FAMILY
    g, alpha = ExpFamily([2]), np.array([-0.02])
    assert not np.array_equal(g_star._grid(alpha_star)[0], g._grid(alpha)[0])
    args = (g_star, alpha_star, g, alpha, 1.3, 1.1, 8)
    values, grad, _ = _channel_values(*args)
    monkeypatch.setattr(equilibrium, "_channel_posterior", _per_y_channel)
    want, want_grad, _ = _channel_values(*args)
    assert values.tobytes() == want.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_matched_exp_family_takes_the_shifted_path(monkeypatch):
    # No output of this channel falls back, so the row-blocked sums must not run.
    def refuse(*args, **kwargs):
        raise AssertionError("_atom_sums reached")

    monkeypatch.setattr(equilibrium, "_atom_sums", refuse)
    fam, alpha = EXP_FAMILY
    # Kernels of one chunk of noise nodes: no (outputs, atoms) matrix, and at
    # n_gh 64 not the 64 node kernels at once (64 x 8193 float64, 4.2 MB).
    for n_gh, peak_mb in ((8, 8), (64, 4)):
        tracemalloc.start()
        try:
            mse, mse_star = mse_pair(fam, fam, 1.3, 1.1, alpha, alpha, n_gh=n_gh)
            fe = free_energy(1.3, 1.1, fam, fam, 2.0, 1.0, alpha, alpha, n_gh=n_gh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite([mse, mse_star, fe]).all()
        assert peak < peak_mb * 2**20, n_gh


def test_lattice_pass_holds_one_output_array():
    # At n_gh 64 the (513, 64, 3) sums are 0.79 MB; a second copy of them
    # (a reordered GEMM output) put the peak at 3.18 MB.
    fam, alpha = EXP_FAMILY
    mse_pair(fam, fam, 1.3, 1.1, alpha, alpha, n_gh=64)  # grid, Hermite rule and lazy imports
    tracemalloc.start()
    try:
        mse_pair(fam, fam, 1.3, 1.1, alpha, alpha, n_gh=64)
        free_energy(1.3, 1.1, fam, fam, 2.0, 1.0, alpha, alpha, n_gh=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20


# ------------------------------------------------- one channel pass per sweep


@pytest.mark.parametrize("g_star,n_gh,sweeps", [(GaussianFixed(1.0), 64, 43), (EXP_FAMILY[0], 8, 40)])
def test_fixed_point_takes_one_channel_pass_per_sweep(monkeypatch, g_star, n_gh, sweeps):
    calls = []
    channel_posterior = equilibrium._channel_posterior
    monkeypatch.setattr(equilibrium, "_channel_posterior", lambda *a: calls.append(1) or channel_posterior(*a))
    alpha = EXP_FAMILY[1] if isinstance(g_star, ExpFamily) else None
    sol = solve_fixed_point(2.0, 1.0, g_star, g_star, alpha, alpha, n_gh=n_gh)
    assert len(calls) == len(sol.residual_trace) == sweeps


FREE_ENERGY_CASES = {
    # case -> (g_star, alpha_star, g, alpha, n_gh)
    "gaussian_matched": (GaussianFixed(1.0), None, GaussianFixed(1.0), None, 64),
    "gaussian_mismatched": (GaussianFixed(1.0), None, GaussianFixed(0.5), None, 64),
    "mean_mixture": (
        GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), np.array([-1.0, 1.0]),
        GaussianMeanMixture([0.5, 0.5], [4.0, 4.0]), np.array([-0.5, 0.5]), 64,
    ),
    "quartic_matched": (*EXP_FAMILY, *EXP_FAMILY, 8),
    "grids_differ": (*EXP_FAMILY, ExpFamily([2]), np.array([-0.02]), 2),  # per-y atom sums: 0.16 s a sweep at n_gh 8
    # the truth as the atoms of its grid, under a Gaussian posterior
    "discrete_truth": (*EXP_FAMILY, GaussianFixed(1.0), None, 8),
}


@pytest.mark.parametrize("case", FREE_ENERGY_CASES)
def test_fixed_point_free_energy_is_its_last_sweeps(case):
    # tol 1e-6 halves the sweeps of the differing grids' per-y atom sums.
    g_star, alpha_star, g, alpha, n_gh = FREE_ENERGY_CASES[case]
    sol = solve_fixed_point(2.0, 1.0, g_star, g, alpha_star, alpha, tol=1e-6, n_gh=n_gh)
    fe = free_energy(sol.omega, sol.omega_star, g_star, g, 2.0, 1.0, alpha_star, alpha, n_gh)
    assert np.float64(sol.free_energy).tobytes() == np.float64(fe).tobytes()
