"""The benchmark's inputs load and its tracer installs against the package.

`benchmark/workloads.py` builds each run config from the shipped configs, and
`benchmark/tracing.py` wraps package functions by name and reads result fields
(`DmftResult.chol_clamped_steps`, `EquilibriumSolution.residual_trace`, ...),
so a pipeline, source or config rule, or a rename in `src/`, that breaks the
benchmark fails here first. Both files are imported read-only.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dmft_lab import cli

ROOT = Path(__file__).resolve().parents[1]


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", ROOT / "benchmark" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks up its own module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_run_config_loads(name):
    runs = WORKLOADS[name].runs(ROOT)
    assert runs
    for label, raw in runs:
        assert cli.load_config(raw).pipeline == raw["pipeline"], label


_TOLERANCE = "an input of a compare, which names what it checks"
# Every `cli._TABLE` key that no shipped run sets to a value other than its
# default, with the reason it stays. A key with neither goes from the table.
NO_TRAFFIC = {
    "out": "set for each invocation; the benchmark passes it as an override",
    "threads": "set for each invocation; the benchmark passes it as an override",
    "response_budget_bytes": "a memory cap that depends on the machine, refused before allocation",
    "design": "the Rademacher design stays until its universality check against the oracle",
    "response_method": "probe mode stays: closed_forms.probe_se_calibration checks its standard errors",
    "n_probes": "probe mode stays: closed_forms.probe_se_calibration checks its standard errors",
    "regularizer.D": "the adaptive mixture's hinge on alpha, kept for a config that sets it",
    "regularizer.eps": "the adaptive mixture's hinge on alpha, kept for a config that sets it",
    "compare.marginal_times": _TOLERANCE,
    **{f"compare.tolerances.{k}": _TOLERANCE for k in ("c_theta", "c_theta_star", "c_star_star", "r_theta", "r_eta_star")},
}


def test_every_table_key_has_traffic_or_a_reason():
    # A key has traffic when a config of configs/ or a workload run sets it to
    # a value other than its default (compared as JSON, so a tuple default
    # equals the array that gives it).
    raws = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    raws += [raw for workload in WORKLOADS.values() for _, raw in workload.runs(ROOT)]
    idle = set()
    for section, keys in cli._TABLE.items():
        for key, (_, _, default) in keys.items():
            default = json.loads(json.dumps(default))
            given = [cli._sections(raw).get(section, {}) for raw in raws]
            if not any(key in values and values[key] != default for values in given):
                idle.add(f"{section}.{key}".lstrip("."))
    unreasoned, stale = sorted(idle - NO_TRAFFIC.keys()), sorted(NO_TRAFFIC.keys() - idle)
    assert not unreasoned, f"keys that no shipped run sets, without a reason: {unreasoned}"
    assert not stale, f"reasons for keys that runs set or the table no longer has: {stale}"


def test_tracer_hooks_count_a_mixture_compare_and_an_exp_family_equilibrium(tmp_path):
    tracing = _benchmark_module("tracing")
    tracer = tracing.Tracer("test")
    mixture = {"family": "gaussian_mean_mixture", "weights": [0.5, 0.5], "precisions": [4.0, 4.0],
               "alpha0": [-0.5, 0.5], "alpha_star": [-1.0, 1.0]}
    compare = {
        "pipeline": "compare", "seed": 11, "prior": mixture, "replicas": 2, "n_paths": 200, "retain_every": 2,
        "model": {"n": 60, "d": 30, "sigma2": 1.0, "beta": 1.0, "gamma": 0.05, "horizon": 0.5},
        "compare": {"sources": ["simulate", "dmft"], "marginal_times": [0.5], "tolerances": {"alpha": 10.0, "w2": 10.0}},
    }
    exp_family = {
        "pipeline": "equilibrium",
        "equilibrium": {
            "g_star": {"family": "exp_family", "powers": [2, 4], "alpha0": [-0.5, -0.1]},
            "delta": 2.0, "sigma2": 1.0, "n_gh": 2,
        },
    }
    # the oracle-grid workload's path: two written tables, then cli.compare_artifacts
    gaussian = dict(compare, prior={"family": "gaussian_fixed", "lam": 1.0}, retain_every=1)
    del gaussian["compare"]
    for pipeline in ("oracle", "dmft-linear"):
        assert cli.run(dict(gaussian, pipeline=pipeline), out=str(tmp_path / pipeline)) == 0
    tracing.install(tracer)
    try:
        assert cli.run(compare, out=str(tmp_path / "compare")) == 0
        assert cli.run(exp_family, out=str(tmp_path / "eq")) == 0
        report = cli.compare_artifacts(tmp_path / "oracle", tmp_path / "dmft-linear", {"default": 1.0})
    finally:
        tracer.uninstall()
    T, P = 10, 200
    assert tracer.counts["dmft.corr_row_entries"] == P * (T + 1) * (T + 2) // 2
    assert tracer.counts["simulator.coord_steps"] == 2 * T * 30
    sweeps = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())["sweeps"]
    assert tracer.counts["equilibrium.sweeps"] == sweeps > 0
    totals = tracer.layer_totals()
    assert totals["cli.run.calls"] == 2
    assert totals["cli.compare_artifacts.calls"] == 1
    assert totals["kernels.compare_tables.calls"] == 2  # the compare run's and compare_artifacts'
    assert next(k for k in report.discrepancies if k.kernel == "c_theta").n_entries == (T + 1) ** 2
    assert not hasattr(cli.run, "__wrapped__")  # uninstalled
