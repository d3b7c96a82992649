"""Every agreement check must be able to fail.

Each case monkeypatches one known-wrong variant into shipped code and asserts
that the acceptance criterion's own computation (`closed_forms.criterion_*`,
the function `test_acceptance.py` asserts on) reports the failure, and that
it passes without the fault. This is mutation testing (DeMillo, Lipton and
Sayward 1978), done by hand.
"""

from dataclasses import replace

import numpy as np
import pytest

import closed_forms
from dmft_lab import dmft, mp_oracle, simulator
from dmft_lab.model import ModelParams, sample_instance
from dmft_lab.priors import GaussianFixed, PriorSpec


def time_scale_error(monkeypatch):
    """Every mode decays on a 1 % faster clock."""
    propagator = mp_oracle._propagator
    monkeypatch.setattr(mp_oracle, "_propagator", lambda h, t, gamma: propagator(h, 1.01 * np.asarray(t), gamma))


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
    """deta^t/dw* recursed without the `+ 1.0` of the direct w* term."""
    add_step = dmft.EtaSide.add_step

    def mutant(self, t, c_theta_row, c_theta_star_t, c_star_star, r_theta_raw_row):
        add_step(self, t, c_theta_row, c_theta_star_t, c_star_star, r_theta_raw_row)
        if t > 0:
            self.deta_dwstar[t] = -self.beta * float(r_theta_raw_row @ self.deta_dwstar[:t])

    monkeypatch.setattr(dmft.EtaSide, "add_step", mutant)


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
