"""Every agreement check must be able to fail.

Each case monkeypatches one known-wrong variant into shipped code and asserts
that the acceptance criterion's own computation (`closed_forms.criterion_*`,
the function `test_acceptance.py` asserts on) reports the failure, and that
it passes without the fault. This is mutation testing (DeMillo, Lipton and
Sayward 1978), done by hand.
"""

import inspect
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import closed_forms
from dmft_lab import dmft, model, mp_oracle, simulator
from dmft_lab.model import ModelParams, sample_instance
from dmft_lab.priors import GaussianFixed, GaussianMixture, PriorSpec


def rewrite_line(monkeypatch, cls, name, old, new):
    """Replace `cls.name` (a class or module attribute) by a copy of its
    source in which the text `old`, which must occur exactly once, reads `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert source.count(old) == 1, f"{old!r} is not one line of {cls.__name__}.{name}"
    namespace = {}
    exec(source.replace(old, new), vars(inspect.getmodule(cls)), namespace)
    monkeypatch.setattr(cls, name, namespace[name])


def time_scale_error(monkeypatch):
    """Every mode decays on a 1 % faster clock."""
    propagator = mp_oracle._propagator
    monkeypatch.setattr(mp_oracle, "_propagator", lambda h, t, gamma: propagator(h, 1.01 * np.asarray(t), gamma))


def continuous_forms_on_a_faster_clock(monkeypatch):
    """The continuous (gamma = 0) closed forms decay on a 5 % faster clock;
    the Euler chain's forms are left as they are."""
    rewrite_line(
        monkeypatch, mp_oracle, "_propagator", "np.exp(-np.minimum(h * t, _EXP_CAP))",
        "np.exp(-np.minimum(1.05 * h * t, _EXP_CAP))",
    )


def brownian_weight_halved(monkeypatch):
    """The linear engine's correlation rows with the Brownian increments at
    weight gamma, not 2 gamma (variance gamma, times sqrt(2) squared)."""
    rewrite_line(monkeypatch, dmft, "linear_gaussian_dmft", "2.0 * gamma * v_t", "gamma * v_t")


def design_scaled_by_n(monkeypatch):
    """The design's entries drawn at variance 1/n instead of 1/d."""
    rewrite_line(monkeypatch, model, "sample_instance", "1.0 / np.sqrt(d)", "1.0 / np.sqrt(n)")


def conditional_draw_without_its_past(monkeypatch):
    """The MC-DMFT memory field u^t drawn from its own innovation alone: the
    conditioning coefficients on the past innovations zeroed."""
    extend = dmft.CholeskyExtender.extend

    def mutant(self, new_row, new_diag):
        a, sd = extend(self, new_row, new_diag)
        return np.zeros_like(a), sd

    monkeypatch.setattr(dmft.CholeskyExtender, "extend", mutant)


def eta_trace_without_delta(monkeypatch):
    """The simulator's R_eta trace without its factor delta."""
    response_traces = simulator.response_traces

    def mutant(trajectory, instance, prior, params, *args, **kwargs):
        traces = response_traces(trajectory, instance, prior, params, *args, **kwargs)
        return replace(traces, r_eta=traces.r_eta / params.delta)

    monkeypatch.setattr(simulator, "response_traces", mutant)


def probe_stderr_halved(monkeypatch):
    """The simulator's probe standard errors at half their size."""
    response_traces = simulator.response_traces

    def mutant(*args, **kwargs):
        traces = response_traces(*args, **kwargs)
        if traces.r_theta_stderr is None:  # the exact product has none
            return traces
        return replace(traces, r_theta_stderr=0.5 * traces.r_theta_stderr, r_eta_stderr=0.5 * traces.r_eta_stderr)

    monkeypatch.setattr(simulator, "response_traces", mutant)


def signal_response_without_unit(monkeypatch):
    """xi^t built without the direct w* term `+ 1.0`, whose w* coefficient
    less 1 is deta^t/dw*."""
    rewrite_line(monkeypatch, dmft.EtaSide, "add_step", "row[0] += 1.0", "row[0] += 0.0")


def noise_variance_dropped(monkeypatch):
    """The eta side's input covariance without its sigma2 noise entry."""
    init = dmft.EtaSide.__init__

    def mutant(self, *args):
        init(self, *args)
        self.sig[1, 1] = 0.0

    monkeypatch.setattr(dmft.EtaSide, "__init__", mutant)


def correlation_stderr_halved(monkeypatch):
    """The MC-DMFT c_theta standard errors at half their size."""
    corr_stderr = dmft._corr_stderr
    monkeypatch.setattr(dmft, "_corr_stderr", lambda *args: 0.5 * corr_stderr(*args))


def posterior_variance_without_the_channel(monkeypatch):
    """Each mixture component's channel posterior variance 1/p_k, without the
    channel precision omega of 1/(omega + p_k)."""
    rewrite_line(monkeypatch, GaussianMixture, "channel_columns", "1.0 / (omega + p)", "1.0 / p")


def marginal_normalizer_without_the_channel(monkeypatch):
    """The channel marginal of each mixture component normalized with the
    prior variance 1/p_k alone, without the 1/omega term of its variance."""
    rewrite_line(monkeypatch, GaussianMixture, "channel_columns", "np.log(2 * np.pi * var)", "np.log(2 * np.pi / p)")


def truth_drawn_at_the_students_alpha(monkeypatch):
    """MC-DMFT draws theta* from the prior at its own starting alpha, not at
    alpha*."""
    rewrite_line(
        monkeypatch, dmft, "solve_dmft", "prior.family.sample(prior.alpha_star, rng_star, P)",
        "prior.family.sample(prior.alpha, rng_star, P)",
    )


def alpha_step_halved(monkeypatch):
    """MC-DMFT's alpha update at half the step gamma. The simulator's update
    and `gradient_map_G`, which both routes call, are left as they are."""
    rewrite_line(monkeypatch, dmft, "solve_dmft", "gamma * gradient_map_G(", "0.5 * gamma * gradient_map_G(")


def replicas_reordered_on_the_pool(monkeypatch):
    """The simulator's thread pool returns the replicas in reverse seed order."""
    rewrite_line(monkeypatch, simulator, "simulate", "pool.map(one, seeds)", "pool.map(one, seeds[::-1])")


@pytest.fixture(scope="module")
def oracle_pack():
    oracle = mp_oracle.OracleParams(lam=1.0, sigma2=1.0, delta=2.0, tau_star2=1.0)
    return oracle, mp_oracle.mp_quadrature(2.0, 400)


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_01_catches_a_time_scale_error_in_the_propagator(monkeypatch, oracle_pack, mutate):
    if mutate:
        time_scale_error(monkeypatch)
    failed = closed_forms.failed(closed_forms.criterion_01(*oracle_pack))
    assert failed == (["fdt"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_02_catches_a_halved_brownian_weight(
    monkeypatch, oracle_pack, gaussian_default_params, linear_table, mutate
):
    table = linear_table  # criterion 02's own input
    if mutate:
        brownian_weight_halved(monkeypatch)
        table = dmft.linear_gaussian_dmft(gaussian_default_params, 1.0, 1.0)
    times = 0.25 * np.arange(9)
    failed = closed_forms.failed(closed_forms.criterion_02(table, *oracle_pack, times))
    assert failed == (["c_theta", "c_eta"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_02b_catches_continuous_forms_on_a_faster_clock(
    monkeypatch, oracle_pack, linear_table, refined_linear_table, mutate
):
    # The Euler chain's forms are untouched, so criterion 02 still passes:
    # only the refinement shows the wrong limit.
    if mutate:
        continuous_forms_on_a_faster_clock(monkeypatch)
    times = 0.25 * np.arange(9)
    assert not closed_forms.failed(closed_forms.criterion_02(linear_table, *oracle_pack, times))
    failed = closed_forms.failed(closed_forms.criterion_02b(linear_table, refined_linear_table, *oracle_pack, times))
    expected = ["c_theta refined", "c_theta_star refined", "c_eta refined", "gamma_mp refined", "fine"]
    assert failed == (expected if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_03_catches_a_conditional_draw_without_its_past(
    monkeypatch, gaussian_default_params, gaussian_default_prior, mc_result, linear_table, mutate
):
    result = mc_result  # criterion 03's own input
    if mutate:
        conditional_draw_without_its_past(monkeypatch)
        result = dmft.solve_dmft(gaussian_default_params, gaussian_default_prior, 20000, seed=5)
    times = 0.25 * np.arange(9)
    failed = closed_forms.failed(closed_forms.criterion_03(result.table, linear_table, times))
    assert ("c_theta band" in failed) if mutate else not failed


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_04_catches_an_eta_trace_without_its_delta(monkeypatch, oracle_pack, sim_pack, mutate):
    sim = sim_pack
    table = sim.table  # criterion 04's own input
    if mutate:
        eta_trace_without_delta(monkeypatch)
        table, _ = simulator.simulate(sim.params, sim.prior, sim.seeds, retain_every=10, response_steps=sim.steps)
    failed = closed_forms.failed(closed_forms.criterion_04(table, *oracle_pack, sim.times))
    assert failed == (["r_eta"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_probe_se_calibration_catches_halved_probe_stderrs(monkeypatch, mutate):
    if mutate:
        probe_stderr_halved(monkeypatch)
    failed = closed_forms.failed(closed_forms.probe_se_calibration())
    assert failed == (["r_theta", "r_eta"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_05_catches_a_signal_response_without_its_unit(monkeypatch, mutate):
    # The criterion on a small MC-DMFT solve and simulator instance at one step.
    params = ModelParams(n=60, d=30, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=1.0)
    prior = PriorSpec(GaussianFixed(1.0))
    inst = sample_instance(params, prior, seed=1)
    traces = [simulator.response_traces(None, inst, prior, params, [s, s + 1]) for s in (0, 10, 19)]
    if mutate:
        signal_response_without_unit(monkeypatch)
    table = dmft.solve_dmft(params, prior, n_paths=200, seed=1).table
    failed = closed_forms.failed(closed_forms.criterion_05(table, traces))
    assert failed == (["field identity"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_06_catches_a_design_scaled_by_n(monkeypatch, oracle_pack, finite_d_bridge, mutate):
    finite_d = finite_d_bridge  # criterion 06's own input
    if mutate:
        design_scaled_by_n(monkeypatch)
        finite_d = closed_forms.finite_d_bridge(oracle_pack[0])
    failed = closed_forms.failed(closed_forms.criterion_06(finite_d, *oracle_pack))
    assert failed == (["c_theta", "c_theta_star"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_07_catches_a_posterior_variance_without_the_channel(monkeypatch, mutate):
    if mutate:
        posterior_variance_without_the_channel(monkeypatch)
    failed = closed_forms.failed(closed_forms.criterion_07())
    assert failed == (["matched", "mismatched mse*"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_08_catches_a_marginal_normalizer_without_the_channel(monkeypatch, mutate):
    if mutate:
        marginal_normalizer_without_the_channel(monkeypatch)
    failed = closed_forms.failed(closed_forms.criterion_08())
    assert failed == (["stationarity", "immse"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_09_catches_the_noise_variance_dropped(
    monkeypatch, oracle_pack, long_time_params, long_time_table, mutate
):
    table = long_time_table  # criterion 09's own input
    if mutate:
        noise_variance_dropped(monkeypatch)
        table = dmft.linear_gaussian_dmft(long_time_params, 1.0, 1.0)
    failed = closed_forms.failed(closed_forms.criterion_09(table, *oracle_pack))
    assert ("c_eta" in failed) if mutate else not failed


@pytest.mark.parametrize("mutate", [False, True])
def test_se_calibration_catches_halved_correlation_stderrs(
    monkeypatch, se_calibration_runs, se_calibration_solves, mutate
):
    tables = se_calibration_runs  # the calibration test's own input
    if mutate:
        correlation_stderr_halved(monkeypatch)
        tables = se_calibration_solves(range(50))  # the budget follows the seed count
    failed = closed_forms.failed(closed_forms.se_calibration(tables))
    assert failed == (["c_theta"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_10_catches_a_truth_drawn_at_the_students_alpha(
    monkeypatch, sim_pack, mc_result, adaptive_pack, mutate
):
    # The fixed Gaussian prior has no alpha, so the mutant draws its truth as
    # before: only the adaptive solve is rerun.
    params, prior, table, paths, result = adaptive_pack  # criterion 10's own input
    if mutate:
        truth_drawn_at_the_students_alpha(monkeypatch)
        result = dmft.solve_dmft(params, prior, 20000, seed=5)
    checks = closed_forms.criterion_10((sim_pack.table, sim_pack.paths, mc_result), (table, paths, result))
    assert closed_forms.failed(checks) == (["adaptive location"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_11_catches_a_halved_alpha_step(monkeypatch, adaptive_pack, mutate):
    params, prior, table, _, result = adaptive_pack  # criterion 11's own input
    if mutate:
        alpha_step_halved(monkeypatch)
        result = dmft.solve_dmft(params, prior, 20000, seed=5)
    failed = closed_forms.failed(closed_forms.criterion_11(table, result.table))
    assert failed == (["alpha trajectory"] if mutate else [])


@pytest.mark.parametrize("mutate", [False, True])
def test_criterion_12_catches_replicas_reordered_on_the_pool(monkeypatch, tmp_path, reproducibility_runs, mutate):
    runs = reproducibility_runs  # criterion 12's own input
    if mutate:
        replicas_reordered_on_the_pool(monkeypatch)
        runs = closed_forms.reproducibility_runs(tmp_path)
    failed = closed_forms.failed(closed_forms.criterion_12(runs))
    assert failed == (["simulate"] if mutate else [])
