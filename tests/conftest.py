from dataclasses import replace
from types import SimpleNamespace

import closed_forms
import numpy as np
import pytest

from dmft_lab import simulator
from dmft_lab.dmft import linear_gaussian_dmft, solve_dmft
from dmft_lab.kernels import KernelTable
from dmft_lab.model import ModelParams
from dmft_lab.mp_oracle import OracleParams, mp_quadrature
from dmft_lab.priors import GaussianFixed, PriorSpec


@pytest.fixture(scope="session")
def gaussian_default_params():
    return ModelParams(n=800, d=400, sigma2=1.0, beta=1.0, gamma_step=0.01, horizon=2.0)


@pytest.fixture(scope="session")
def gaussian_default_prior():
    return PriorSpec(GaussianFixed(1.0))


@pytest.fixture(scope="session")
def default_oracle():
    return OracleParams(lam=1.0, sigma2=1.0, delta=2.0, tau_star2=1.0)


@pytest.fixture(scope="session")
def default_law():
    return mp_quadrature(2.0, 400)


@pytest.fixture(scope="session")
def finite_d_bridge(default_oracle):
    """Criterion 06's input, five finite-d designs (about 4 s), shared by the
    criterion and its mutation test."""
    return closed_forms.finite_d_bridge(default_oracle)


@pytest.fixture(scope="session")
def long_time_params(gaussian_default_params):
    """gaussian_default's model up to T = 10: criterion 09's setting."""
    return replace(gaussian_default_params, horizon=10.0)


@pytest.fixture(scope="session")
def long_time_table(long_time_params):
    """The linear engine's kernels in criterion 09's setting (1001 steps,
    about 2 s), shared by the criterion and its mutation test."""
    return linear_gaussian_dmft(long_time_params, 1.0, 1.0)


@pytest.fixture(scope="session")
def linear_table(gaussian_default_params):
    """The linear engine's kernels for gaussian_default: criterion 03's
    reference, shared by criteria 02 and 02b."""
    return linear_gaussian_dmft(gaussian_default_params, 1.0, 1.0)


@pytest.fixture(scope="session")
def mc_result(gaussian_default_params, gaussian_default_prior):
    """gaussian_default's MC-DMFT solve, 20000 paths at seed 5 (about 2 s):
    criterion 03's input, shared by criteria 05 and 10 and by criterion 03's
    mutation test."""
    return solve_dmft(gaussian_default_params, gaussian_default_prior, 20000, seed=5)


@pytest.fixture(scope="session")
def se_calibration_solves():
    """Makes one MC-DMFT table per seed, gaussian_default's prior at 2000
    paths and T = 40: the input of `closed_forms.se_calibration`."""
    params = ModelParams(n=800, d=400, sigma2=1.0, beta=1.0, gamma_step=0.05, horizon=2.0)
    prior = PriorSpec(GaussianFixed(1.0))
    return lambda seeds: [solve_dmft(params, prior, 2000, seed=s).table for s in seeds]


@pytest.fixture(scope="session")
def se_calibration_runs(se_calibration_solves):
    """200 independent seeds (about 3 s), shared by the calibration test and
    its mutation test."""
    return se_calibration_solves(range(200))


@pytest.fixture(scope="session")
def sim_pack(gaussian_default_params, gaussian_default_prior):
    """gaussian_default's simulation, criterion 04's input: 20 replicas
    (seeds 7000 + r), every 10th step kept, and exact response traces between
    the steps of `times`. Shared by criteria 04, 05 and 10 and by criterion
    04's mutation test, which reruns `simulate` on `seeds`."""
    params, prior = gaussian_default_params, gaussian_default_prior
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    steps = (times / params.gamma_step + 0.5).astype(int)
    seeds = [7000 + r for r in range(20)]
    table, paths = simulator.simulate(params, prior, seeds, retain_every=10, response_steps=steps)
    return SimpleNamespace(params=params, prior=prior, times=times, steps=steps, seeds=seeds, paths=paths, table=table)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def nan_table():
    """Makes a KernelTable on the given times with every kernel entry NaN."""

    def make(times, gamma, source):
        m = len(times)
        square, vector = np.full((m, m), np.nan), np.full(m, np.nan)
        return KernelTable(
            times, gamma, source, c_theta=square.copy(), c_theta_star=vector.copy(), c_star_star=np.nan,
            c_eta=square.copy(), r_theta=square.copy(), r_eta=square.copy(), r_eta_star=vector.copy(),
            alpha=np.full((m, 0), np.nan),
        )

    return make
