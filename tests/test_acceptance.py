"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The linear DMFT engine solves the Euler chain at step gamma, not the
continuous-time dynamics. Each eigenmode of that chain is an AR(1) process, so
its large-d kernels have closed forms (`mp_oracle` with `gamma > 0`).
Criterion 2 checks the engine against those forms at gamma = 0.01 and prints
the step bias, Euler minus continuous forms: about 1.41 gamma on C_eta.
Criterion 2b checks the continuous limit: every error against the gamma = 0
forms shrinks when the step is halved.
"""

import time

import numpy as np
import pytest

import closed_forms
from dmft_lab import mp_oracle, simulator
from dmft_lab.model import sample_instance

DELTA, SIGMA2, LAM, TAU2 = 2.0, 1.0, 1.0, 1.0
GAMMA = 0.01
COARSE = np.array([0.25 * k for k in range(9)])  # {0, 0.25, ..., 2}


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def oracle_pack():
    oracle = mp_oracle.OracleParams(lam=LAM, sigma2=SIGMA2, delta=DELTA, tau_star2=TAU2)
    return oracle, mp_oracle.mp_quadrature(DELTA, 400)


# --------------------------------------------------------------- criterion 1


def test_criterion_01_oracle_self_consistency(oracle_pack):
    oracle, law = oracle_pack
    t0 = time.time()
    checks = closed_forms.criterion_01(oracle, law)
    elapsed = time.time() - t0
    worst, fdt = max(m for m, _ in checks.values()), checks["fdt"][0]
    failed = closed_forms.failed(checks)
    ok = not failed and elapsed < 1.0
    _line(1, ok, f"oracle identities max residual {worst:.2e}, fdt {fdt:.2e}, {elapsed:.2f}s")
    assert not failed
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 2


def test_criterion_02_linear_dmft_vs_oracle(oracle_pack, linear_table):
    oracle, law = oracle_pack
    checks = closed_forms.criterion_02(linear_table, oracle, law, COARSE)
    failed = closed_forms.failed(checks)
    bias = closed_forms.max_gaps(
        closed_forms.chain_forms(oracle, law, COARSE, GAMMA), closed_forms.chain_forms(oracle, law, COARSE)
    )
    detail = "  ".join(f"{k}={err:.1e} (step bias {bias[k]:.4f})" for k, (err, _) in checks.items())
    _line(2, not failed, f"gamma=0.01 vs Euler-chain closed forms: {detail}")
    assert not failed


def test_criterion_02b_refinement_strictly_smaller(oracle_pack, linear_table, refined_linear_table):
    checks = closed_forms.criterion_02b(linear_table, refined_linear_table, *oracle_pack, COARSE)
    failed = closed_forms.failed(checks)
    ratios = "  ".join(f"{name.split()[0]}={ratio:.3f}" for name, (ratio, _) in checks.items() if name != "fine")
    _line(2, not failed, f"halved step, error ratios fine/coarse: {ratios}; worst fine {checks['fine'][0]:.4f}")
    assert not failed


# --------------------------------------------------------------- criterion 3


def test_criterion_03_mc_dmft_vs_linear(mc_result, linear_table):
    t0 = time.time()
    checks = closed_forms.criterion_03(mc_result.table, linear_table, COARSE)
    failed = closed_forms.failed(checks)
    within_se = not any(name.endswith(" band") for name in failed)
    detail = "  ".join(f"{name}={margin:.4f}" for name, (margin, _) in checks.items() if not name.endswith(" band"))
    _line(3, not failed, f"{detail}  (4se bands {'ok' if within_se else 'violated'}, {time.time() - t0:.0f}s)")
    assert not failed


# --------------------------------------------------------------- criterion 4


def test_criterion_04_simulator_vs_oracle(oracle_pack, sim_pack):
    checks = closed_forms.criterion_04(sim_pack.table, *oracle_pack, sim_pack.times)
    failed = closed_forms.failed(checks)
    detail = "  ".join(f"{kernel}={margin:.4f}" for kernel, (margin, _) in checks.items())
    _line(4, not failed, f"d=400, 20 replicas vs oracle: {detail}")
    assert not failed


# --------------------------------------------------------------- criterion 5


def test_criterion_05_response_identities(mc_result, sim_pack):
    params, prior = sim_pack.params, sim_pack.prior
    inst = sample_instance(params, prior, seed=sim_pack.seeds[0])
    traces = [simulator.response_traces(None, inst, prior, params, [s, s + 1]) for s in (0, 100, 199)]
    checks = closed_forms.criterion_05(mc_result.table, traces)
    failed = closed_forms.failed(checks)
    _line(5, not failed, ", ".join(f"{name} {margin:.1e}" for name, (margin, _) in checks.items()))
    assert not failed


# --------------------------------------------------------------- criterion 6


def test_criterion_06_finite_d_bridge(oracle_pack, finite_d_bridge):
    checks = closed_forms.criterion_06(finite_d_bridge, *oracle_pack)
    failed = closed_forms.failed(checks)
    (dev_theta, _), (dev_star, _) = checks["c_theta"], checks["c_theta_star"]
    _line(6, not failed, f"d=2000 eigenmode oracle vs asymptotic at (1, 0.5): C_theta dev {dev_theta:.5f}, "
          f"C_theta* dev {dev_star:.5f}")
    assert not failed


# --------------------------------------------------------------- criterion 7


def test_criterion_07_equilibrium_closed_forms():
    t0 = time.time()
    checks = closed_forms.criterion_07()
    elapsed = time.time() - t0
    failed = closed_forms.failed(checks)
    (dev_matched, _), (dev_mis, _) = checks["matched"], checks["mismatched mse*"]
    ok = not failed and elapsed < 1.0
    _line(7, ok, f"matched dev {dev_matched:.1e}, mismatched mse* dev {dev_mis:.1e}, {elapsed:.2f}s")
    assert not failed
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 8


def test_criterion_08_stationarity_and_immse():
    checks = closed_forms.criterion_08()
    failed = closed_forms.failed(checks)
    (grad_dev, _), (immse_dev, _) = checks["stationarity"], checks["immse"]
    _line(8, not failed, f"stationarity {grad_dev:.1e}, I-MMSE slope dev {immse_dev:.1e}")
    assert not failed


# --------------------------------------------------------------- criterion 9


def test_criterion_09_long_time_handoff(oracle_pack, long_time_table):
    oracle, law = oracle_pack
    checks = closed_forms.criterion_09(long_time_table, oracle, law)
    failed = closed_forms.failed(checks)
    (dev_theta, _), (dev_eta, _) = checks["c_theta"], checks["c_eta"]
    _line(9, not failed, f"T=10: |C_theta - tau*^2| = {dev_theta:.5f}, |C_eta - delta/sigma2| = {dev_eta:.5f}")
    assert not failed


# -------------------------------------------------------------- criterion 10


def test_criterion_10_marginal_w2(sim_pack, adaptive_pack, mc_result):
    _, _, table, paths, res = adaptive_pack
    checks = closed_forms.criterion_10((sim_pack.table, sim_pack.paths, mc_result), (table, paths, res))
    failed = closed_forms.failed(checks)
    (w2_gauss, _), (w2_loc, _) = checks["gaussian"], checks["adaptive location"]
    _line(10, not failed, f"W2 at t=1: gaussian {w2_gauss:.4f}, adaptive location {w2_loc:.4f}")
    assert not failed


# -------------------------------------------------------------- criterion 11


def test_criterion_11_adaptive_alpha_trajectory(adaptive_pack):
    _, _, table, _, res = adaptive_pack
    checks = closed_forms.criterion_11(table, res.table)
    failed = closed_forms.failed(checks)
    (dev, _), (grad_norm, _) = checks["alpha trajectory"], checks["grad F"]
    _line(11, not failed, f"alpha trajectory max dev {dev:.4f}; |grad F(alpha*)| = {grad_norm:.1e}")
    assert not failed


# -------------------------------------------------------------- criterion 12


def test_criterion_12_reproducibility(reproducibility_runs):
    checks = closed_forms.criterion_12(reproducibility_runs)
    failed = closed_forms.failed(checks)
    identical = {pipeline: margin == 0 for pipeline, (margin, _) in checks.items()}
    _line(12, not failed, f"byte-identical reruns (incl. thread-count variation): {identical}")
    assert not failed
