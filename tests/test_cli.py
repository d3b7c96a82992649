import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dmft_lab import cli, dmft, mp_oracle, simulator
from dmft_lab.cli import ConfigError, compare_artifacts, load_artifact, load_config, run
from dmft_lab.kernels import compare_tables
from dmft_lab.model import sample_instance

SMALL_MODEL = {"n": 60, "d": 30, "sigma2": 1.0, "beta": 1.0, "gamma": 0.05, "horizon": 0.5}


def small_config(pipeline, **extra):
    cfg = {
        "pipeline": pipeline,
        "seed": 3,
        "model": dict(SMALL_MODEL),
        "prior": {"family": "gaussian_fixed", "lam": 1.0},
        "replicas": 3,
        "n_paths": 400,
        "retain_every": 2,
    }
    cfg.update(extra)
    return cfg


def test_validation_collects_all_errors(tmp_path):
    bad = {"pipeline": "simulate", "replicas": 0, "model": {"n": 10}}
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    msg = str(err.value)
    assert "seed" in msg and "replicas" in msg and "model" in msg and "prior" in msg


def test_simulate_zero_replicas_exits_nonzero(tmp_path):
    cfg = small_config("simulate", replicas=0, out=str(tmp_path / "o"))
    assert run(cfg) == 2


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        load_config(small_config("simulate", prior={"family": "cauchy"}))


def test_simulate_pipeline_writes_artifacts(tmp_path):
    out = tmp_path / "sim"
    cfg = small_config("simulate", out=str(out))
    assert run(cfg) == 0
    table, manifest = load_artifact(out)
    assert manifest["pipeline"] == "simulate"
    assert manifest["source"] == "simulate"
    assert manifest["seed"] == 3
    assert table.n_times == 6
    assert np.all(np.isfinite(table.c_theta))


def test_rerun_is_byte_identical_across_threads(tmp_path):
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        cfg = small_config("simulate", out=str(out))
        assert run(cfg, threads=threads) == 0
        outs.append((out / "kernels_simulate.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_equilibrium_file_keeps_the_residual_trace(tmp_path):
    # The matched exp family reaches the shift-invariant channel sums in every sweep.
    g_star = {"family": "exp_family", "powers": [2, 4], "alpha0": [-0.5, -0.1]}
    cfg = _equilibrium(g_star=g_star, n_gh=8)
    files = []
    for threads in (1, 3):
        assert run(cfg, out=str(tmp_path / str(threads)), threads=threads) == 0
        files.append((tmp_path / str(threads) / "equilibrium.json").read_bytes())
    assert files[0] == files[1]
    sol = json.loads(files[0])
    assert len(sol["residual_trace"]) == sol["sweeps"] > 1
    assert sol["residual_trace"][-1] <= 1e-10 < sol["residual_trace"][-2]  # solve_fixed_point's default tol


def test_simulate_applies_the_regularizer(tmp_path):
    # The hinge at D = 0.01 binds long before alpha nears alpha_star = 1.
    location = {"family": "gaussian_location", "alpha0": [0.0], "alpha_star": [1.0]}
    alphas = []
    for name, extra in (("free", {}), ("hinged", {"regularizer": {"D": 0.01, "eps": 0.01}})):
        out = tmp_path / name
        assert run(small_config("simulate", out=str(out), prior=location, **extra)) == 0
        alphas.append(load_artifact(out)[0].alpha[-1, 0])
    assert alphas[1] < alphas[0] - 1e-3


def test_import_loads_no_test_only_scipy_module(tmp_path):
    # scipy serves the tests alone: importing the CLI and running a dmft
    # pipeline loads no scipy module.
    cfg = json.dumps(small_config("dmft", out=str(tmp_path / "mc")))
    code = (
        "import json, sys, dmft_lab.cli as cli\n"
        f"assert cli.run(json.loads({cfg!r})) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert loaded.strip() == "[]"


def test_dmft_pipeline_and_artifact(tmp_path):
    out = tmp_path / "mc"
    cfg = small_config("dmft", out=str(out))
    assert run(cfg) == 0
    table, manifest = load_artifact(out)
    assert manifest["source"] == "dmft"
    assert table.gamma == pytest.approx(0.05)


def test_oracle_requires_posterior_beta(tmp_path):
    cfg = small_config("oracle", out=str(tmp_path / "o"))
    cfg["model"]["beta"] = 0.5
    with pytest.raises(ConfigError):
        cli._run_oracle(load_config(cfg))


def test_compare_oracle_vs_linear(tmp_path):
    out = tmp_path / "cmp"
    cfg = small_config(
        "compare",
        out=str(out),
        compare={
            "sources": ["oracle", "dmft-linear"],
            "times": [0.0, 0.25, 0.5],
            "tolerances": {"default": 0.08},
        },
    )
    assert run(cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    kernels = {k["kernel"]: k for k in report["kernels"]}
    assert kernels["c_theta"]["max_abs"] < 0.08
    # deterministic sources: tightening the tolerance flips the exit code
    cfg["compare"]["tolerances"] = {"default": 1e-12}
    cfg["out"] = str(tmp_path / "cmp2")
    assert run(cfg) == 1


def test_compare_at_uneven_times_writes_a_report(tmp_path):
    # the compared times need not be evenly spaced; each is compared on both grids
    compare = dict(ORACLE_COMPARE, times=[0.0, 0.1, 0.45], tolerances={"default": 1.0})
    assert run(small_config("compare", out=str(tmp_path), compare=compare, retain_every=1)) == 0
    kernels = {k["kernel"]: k for k in json.loads((tmp_path / "report.json").read_text())["kernels"]}
    assert kernels["r_theta"]["n_entries"] == 3
    assert kernels["c_theta"]["n_entries"] == 9


def test_compare_simulate_vs_dmft_with_w2(tmp_path):
    out = tmp_path / "w2"
    cfg = small_config(
        "compare",
        out=str(out),
        compare={
            "sources": ["simulate", "dmft"],
            "tolerances": {"default": 1.0, "w2": 1.0},
            "marginal_times": [0.5],
        },
    )
    assert run(cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert "0.5" in report["w2_marginals"]
    assert report["w2_marginals"]["0.5"] < 1.0


def test_compare_whose_w2_exceeds_its_tolerance_fails(tmp_path):
    compare = {"sources": ["simulate", "dmft"], "tolerances": {"default": 1.0, "w2": 1e-9}, "marginal_times": [0.5]}
    assert run(small_config("compare", out=str(tmp_path), compare=compare)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(k["passed"] for k in report["kernels"])  # only the W2 check fails
    assert report["w2_marginals"]["0.5"] > 1e-9 and report["passed"] is False
    assert json.loads((tmp_path / "manifest.json").read_text())["report_passed"] is False


def test_equilibrium_pipeline_json_and_sweep(tmp_path):
    out = tmp_path / "eq"
    cfg = {
        "pipeline": "equilibrium",
        "out": str(out),
        "equilibrium": {
            "g_star": {"family": "gaussian_fixed", "lam": 1.0},
            "g": {"family": "gaussian_fixed", "lam": 1.0},
            "delta": 2.0,
            "sigma2": 1.0,
            "sweep_sigma2": [0.5, 1.0],
        },
    }
    assert run(cfg) == 0
    sol = json.loads((out / "equilibrium.json").read_text())
    assert sol["omega"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "param,omega,omega_star,mse,mse_star,ymse,free_energy"
    assert len(sweep) == 3
    assert json.loads((out / "manifest.json").read_text())["files"] == ["sweep.csv", "equilibrium.json"]


def test_compare_artifacts_refuses_model_mismatch(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(small_config("dmft-linear", out=str(out_a))) == 0
    other = small_config("dmft-linear", out=str(out_b))
    other["model"]["sigma2"] = 2.0
    other["model"]["beta"] = 0.5
    assert run(other) == 0
    with pytest.raises(ConfigError):
        compare_artifacts(out_a, out_b)
    report = compare_artifacts(out_a, out_a.parent / "a")
    assert report.passed


def test_manifest_carries_config_hash(tmp_path):
    out = tmp_path / "h"
    cfg = small_config("dmft-linear", out=str(out))
    assert run(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_hash"]) == 16
    assert manifest["files"] == ["kernels_dmft-linear.csv"]


def test_manifest_build_asks_git_once_per_process(tmp_path, monkeypatch):
    calls = []
    spawn = subprocess.run
    monkeypatch.setattr(cli.subprocess, "run", lambda args, **kw: calls.append(args) or spawn(args, **kw))
    cli._git_describe.cache_clear()
    builds = []
    for name in ("a", "b"):
        cfg = small_config("dmft-linear", out=str(tmp_path / name))
        assert run(cfg) == 0
        builds.append(json.loads((tmp_path / name / "manifest.json").read_text())["build"])
    assert calls == [["git", "describe", "--always", "--dirty"]]
    assert builds[0] == builds[1]


def test_main_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config("dmft-linear")))
    code = cli.main(["dmft-linear", "--config", str(cfg_path), "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "kernels_dmft-linear.csv").exists()


def test_main_overrides_the_config_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config("dmft-linear")))
    assert cli.main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 0
    assert "config pipeline 'dmft-linear' overridden by CLI 'oracle'" in capsys.readouterr().err
    assert json.loads((tmp_path / "m" / "manifest.json").read_text())["files"] == ["kernels_oracle.csv"]


# ------------------------------------------------------------ pipeline table

ORACLE_COMPARE = {"sources": ["oracle", "dmft-linear"], "times": [0.0, 0.25, 0.5], "tolerances": {"default": 0.08}}

# pipeline -> (extra config, manifest source, manifest files in write order)
PIPELINE_RUNS = {
    "simulate": ({}, "simulate", ["kernels_simulate.csv"]),
    "dmft": ({}, "dmft", ["kernels_dmft.csv"]),
    "dmft-linear": ({}, "dmft-linear", ["kernels_dmft-linear.csv"]),
    "oracle": ({}, "oracle", ["kernels_oracle.csv"]),
    "equilibrium": (
        {"equilibrium": {"g_star": {"family": "gaussian_fixed", "lam": 1.0}, "delta": 2.0, "sigma2": 1.0}},
        "equilibrium", ["equilibrium.json"],
    ),
    "compare": (
        {"compare": ORACLE_COMPARE}, "compare", ["kernels_oracle.csv", "kernels_dmft-linear.csv", "report.json"],
    ),
}


@pytest.mark.parametrize("pipeline", cli.PIPELINES)
def test_every_pipeline_writes_its_artifacts(tmp_path, pipeline):
    # the manifest lists every file the run wrote, and nothing else is on disk
    extra, source, files = PIPELINE_RUNS[pipeline]
    out = tmp_path / pipeline
    assert run(small_config(pipeline, out=str(out), **extra)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pipeline"] == pipeline
    assert manifest["source"] == source
    assert manifest["files"] == files
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])


def test_load_artifact_refuses_a_directory_of_two_tables(tmp_path):
    assert run(small_config("compare", out=str(tmp_path), compare=ORACLE_COMPARE)) == 0
    with pytest.raises(ValueError, match="2 kernel CSVs, not one: kernels_oracle.csv, kernels_dmft-linear.csv"):
        load_artifact(tmp_path)


def _response_run(tmp_path, method, steps):
    """A simulate run's table read back from its CSV, the response traces of
    its replicas recomputed one by one, and the rows of its response steps."""
    cfg = small_config("simulate", out=str(tmp_path / "r"), response_steps=steps, response_method=method, n_probes=8)
    assert run(cfg) == 0
    table, _ = load_artifact(tmp_path / "r")
    c = load_config(cfg)
    traces = []
    for r in range(c.opts["replicas"]):
        rs = c.opts["seed"] * 1000 + r
        inst = sample_instance(c.model, c.prior, seed=rs)
        traces.append(simulator.response_traces(None, inst, c.prior, c.model, steps, method=method, n_probes=8, seed=rs))
    return table, traces, [k // c.opts["retain_every"] for k in steps]


@pytest.mark.parametrize("method", simulator.RESPONSE_METHODS)
def test_response_csv_is_the_replica_mean_over_gamma(tmp_path, method):
    steps = [0, 4, 10]
    table, traces, rows = _response_run(tmp_path, method, steps)
    below = np.tril(np.ones((len(steps),) * 2, dtype=bool), k=-1)
    for name in ("r_theta", "r_eta"):
        want = np.mean([getattr(tr, name) for tr in traces], axis=0) / table.gamma
        grid = getattr(table, name)
        assert np.array_equal(grid[np.ix_(rows, rows)][below], want[below])
        assert np.count_nonzero(~np.isnan(grid)) == below.sum()  # nothing off the response steps


def test_probe_response_csv_carries_the_replica_spread_as_stderr(tmp_path):
    # The replica rule of the correlation kernels: std (ddof 1) over the 3
    # replicas' traces, over sqrt(3). It covers the probe noise as well.
    steps = [0, 4, 10]
    table, traces, rows = _response_run(tmp_path, "probe", steps)
    below = np.tril(np.ones((len(steps),) * 2, dtype=bool), k=-1)
    for name in ("r_theta", "r_eta"):
        values = np.array([getattr(tr, name) for tr in traces])
        want = values.std(axis=0, ddof=1) / np.sqrt(len(traces)) / table.gamma
        se = table.stderr[name]
        assert np.array_equal(se[np.ix_(rows, rows)][below], want[below])
        assert np.array_equal(np.isnan(se), np.isnan(getattr(table, name)))  # one SE per entry


# ------------------------------------------------------------- strict config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name, **compare):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["compare"].update(compare)
    return cfg


def _gaussian_default(tmp_path, **compare):
    return dict(_shipped("gaussian_default.json", **compare), out=str(tmp_path / "out"))


def _config_error(cfg) -> str:
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    return str(err.value)


def test_misspelled_tolerance_and_stray_keys_exit_2(tmp_path):
    cfg = _gaussian_default(tmp_path, tolerances={"c_etaa": 1e-12})
    cfg.update(replica=20, retain_evry=10)
    assert run(cfg) == 2
    msg = _config_error(cfg)
    assert "compare.tolerances.c_etaa: unknown key (did you mean 'c_eta'?)" in msg
    assert "replica: unknown key (did you mean 'replicas'?)" in msg
    assert "retain_evry: unknown key (did you mean 'retain_every'?)" in msg


@pytest.mark.parametrize(
    "path,key,hint",
    [
        ((), "n_path", "n_paths"),
        (("model",), "sigma_2", "sigma2"),
        (("prior",), "lamb", "lam"),
        (("theta0",), "kinds", "kind"),
        (("compare",), "marginal_time", "marginal_times"),
        (("equilibrium",), "n_ghh", "n_gh"),
        (("equilibrium", "g_star"), "alpha_str", "alpha0"),
        (("regularizer",), "epsilon", "eps"),
    ],
)
def test_unknown_key_rejected_in_every_section(path, key, hint):
    cfg = small_config(
        "compare", compare=dict(ORACLE_COMPARE), theta0={"kind": "zero"}, regularizer={"D": 5.0},
        equilibrium={"g_star": {"family": "gaussian_fixed", "lam": 1.0}, "delta": 2.0, "sigma2": 1.0},
    )
    load_config(cfg)  # every section above is known as written
    section = cfg
    for name in path:
        section = section[name]
    section[key] = 1.0
    where = ".".join(path + (key,))
    assert f"{where}: unknown key (did you mean {hint!r}?)" in _config_error(cfg)


def test_equilibrium_pipeline_requires_its_section():
    assert "equilibrium: the equilibrium pipeline needs" in _config_error(small_config("equilibrium"))


def test_family_keys_are_per_family():
    msg = _config_error(small_config("dmft-linear", prior={"family": "gaussian_fixed", "lam": 1.0, "scale": 2.0}))
    assert "prior.scale: unknown key" in msg
    msg = _config_error(small_config("dmft-linear", prior={"family": "gausian_fixed", "lam": 1.0}))
    assert "prior.family: unknown family 'gausian_fixed' (did you mean 'gaussian_fixed'?)" in msg


@pytest.mark.parametrize("alias", ["tolerances", "marginal_times", "times"])
def test_top_level_compare_aliases_rejected(alias):
    value = {"default": 0.1} if alias == "tolerances" else [0.5]
    cfg = small_config("compare", compare=dict(ORACLE_COMPARE), **{alias: value})
    assert f"{alias}: unknown key" in _config_error(cfg)


def test_table_pipelines_accept_a_compare_block():
    for pipeline in ("oracle", "dmft-linear"):
        cfg = load_config(small_config(pipeline, compare=dict(ORACLE_COMPARE)))
        assert cfg.compare["tolerances"] == {"default": 0.08}


def test_compare_without_any_tolerance_exits_2(tmp_path):
    assert run(_gaussian_default(tmp_path, tolerances={})) == 2
    assert not (tmp_path / "out").exists()  # refused before either source ran


def test_compare_whose_tolerances_match_no_kernel_exits_2(tmp_path):
    # linear sources carry no alpha kernel, so this tolerance checks nothing
    cfg = small_config("compare", out=str(tmp_path / "a"), compare=dict(ORACLE_COMPARE, tolerances={"alpha": 0.05}))
    assert run(cfg) == 2


def test_compare_with_only_a_w2_check(tmp_path):
    compare = {"sources": ["simulate", "dmft"], "tolerances": {"w2": 1.0}}
    ok = small_config("compare", out=str(tmp_path / "on"), compare=dict(compare, marginal_times=[0.5]))
    assert run(ok) == 0
    # an off-grid marginal time gives no W2 pair, so nothing is checked
    off = small_config("compare", out=str(tmp_path / "off"), compare=dict(compare, marginal_times=[0.33]))
    assert run(off) == 2
    assert not (tmp_path / "off").exists()


LOCATION = {"family": "gaussian_location", "alpha0": [0.0]}
W2_COMPARE = {"sources": ["simulate", "dmft"], "tolerances": {"alpha": 10.0, "w2": 1e-9}}
MIXTURE = {"family": "gaussian_mean_mixture", "weights": [0.5, 0.5], "precisions": [1.0, 3.0], "alpha0": [-1.0, 1.0]}
EQUILIBRIUM = {"g_star": {"family": "gaussian_fixed", "lam": 1.0}, "delta": 2.0, "sigma2": 1.0}


def _equilibrium(**values):
    return small_config("equilibrium", equilibrium=dict(EQUILIBRIUM, **values))


@pytest.mark.parametrize(
    "config,times,message",
    [
        # off the step grid of gamma = 0.01
        ("gaussian_default.json", [0.0, 0.333], "compare.times: [0.333] not on the grid 0, 0.01, ..., 2"),
        # on the step grid but off the grid simulate retains (every 10 steps)
        ("adaptive_location.json", [0.0, 0.05], "compare.times: [0.05] not on the grid 0, 0.1, ..., 2 that simulate"),
        ("gaussian_default.json", [0.0, "half"], "compare.times: must be an array of numbers"),
        # values a source would refuse only after the output directory exists;
        # a dict is a whole config, whose compare times stay as they are
        (small_config("simulate", design="sobol"), None, "design: must be one of ('gaussian', 'rademacher')"),
        (small_config("simulate", response_steps=[0, 4], response_method="hutch"), None, "response_method: must be one of"),
        # a key that no shipped run set, since removed: the oracle takes 400 nodes
        (small_config("oracle", quad_nodes=400), None, "quad_nodes: unknown key"),
        # a compare needs two routes
        (small_config("compare", compare=dict(ORACLE_COMPARE, sources=["oracle"])), None,
         "compare.sources: must be two different routes of simulate|dmft|dmft-linear|oracle, got ['oracle']"),
        (small_config("simulate", response_steps=[0, 4], response_method="probe", n_probes=1), None, "n_probes: must be >= 2"),
        (small_config("simulate", response_steps=[0, 11]), None, "response_steps: [11] outside 0..10"),
        (small_config("simulate", response_steps=[0, 4], prior=MIXTURE), None, "theta-dependent prior needs retain_every = 1"),
        (small_config("dmft-linear", prior=MIXTURE), None, "prior.family: dmft-linear requires gaussian_fixed"),
        (small_config("oracle", prior=MIXTURE), None, "prior.family: oracle requires gaussian_fixed"),
        (small_config("oracle", model=dict(SMALL_MODEL, beta=0.5)), None, "model.beta: the oracle closed forms require"),
        # the simulation would run first and leave its table without a manifest
        (
            small_config(
                "compare", prior={"family": "gaussian_location", "alpha0": [0.0]},
                compare={"sources": ["simulate", "oracle"], "tolerances": {"default": 0.1}},
            ),
            None,
            "prior.family: oracle requires gaussian_fixed",
        ),
        (small_config("dmft", prior=MIXTURE, response_budget_bytes=10), None, "n_paths: per-path response array needs"),
        (small_config("compare", compare=dict(ORACLE_COMPARE, sources=["dmft", "dmft-linear"]), n_paths=50), None,
         "n_paths: must be >= 100 for a dmft source"),
        (small_config("simulate", model=dict(SMALL_MODEL, horizon=0.52)), None, "model: horizon must be an integral multiple"),
        (small_config("compare", compare=dict(ORACLE_COMPARE), model=dict(SMALL_MODEL, horizon=0.52)), None,
         "model: horizon must be an integral multiple"),
        (small_config("simulate", retain_every=3), None, "retain_every: 3 does not divide the 10 steps"),
        # mistyped numbers, which every later check reads
        (small_config("dmft", n_paths="many"), None, "n_paths: must be an integer, got 'many'"),
        (small_config("simulate", model=dict(SMALL_MODEL, sigma2="one")), None, "model.sigma2: must be a number, got 'one'"),
        (small_config("simulate", model=dict(SMALL_MODEL, gamma="x")), None, "model.gamma: must be a number, got 'x'"),
        (small_config("simulate", replicas="3"), None, "replicas: must be an integer, got '3'"),
        (small_config("simulate", replicas=True), None, "replicas: must be an integer, got True"),
        (small_config("simulate", retain_every="2"), None, "retain_every: must be an integer, got '2'"),
        # a route that does not exist
        (small_config("compare", compare=dict(ORACLE_COMPARE, sources=["oracle", "dmft_linear"])), None,
         "compare.sources: must be two different routes of"),
        (small_config("simulate", threads="x"), None, "threads: must be an integer, got 'x'"),
        # equilibrium values that solve_fixed_point would refuse or truncate
        (_equilibrium(n_gh="x"), None, "equilibrium.n_gh: must be an integer >= 1, got 'x'"),
        (_equilibrium(n_gh=0), None, "equilibrium.n_gh: must be an integer >= 1, got 0"),
        (_equilibrium(n_gh=2.5), None, "equilibrium.n_gh: must be an integer >= 1, got 2.5"),
        (_equilibrium(delta="two"), None, "equilibrium.delta: must be a number > 0, got 'two'"),
        (_equilibrium(delta=-1), None, "equilibrium.delta: must be a number > 0, got -1"),
        # a key that no shipped run set, since removed: the fixed point stops at tol 1e-10
        (_equilibrium(tol=1e-6), None, "equilibrium.tol: unknown key"),
        (_equilibrium(sweep_sigma2=["a"]), None, "equilibrium.sweep_sigma2: must be an array of numbers > 0"),
        # values and objects that used to be checked or built only once the run started
        (small_config("simulate", regularizer={"D": "x"}), None, "regularizer.D: must be a number, got 'x'"),
        (small_config("dmft", regularizer={"eps": "x"}), None, "regularizer.eps: must be a number, got 'x'"),
        # a key that no shipped run set, since removed: the closed forms model the prior's own theta_star
        (small_config("oracle", tau_star2=0.5), None, "tau_star2: unknown key"),
        (small_config("simulate", theta0={"kind": "zero", "var": 1.0}), None, "theta0.var: unknown key"),
        (small_config("simulate", theta0={"kind": "gaussian"}), None,
         "theta0.kind: must be one of ('zero', 'prior', 'star'), got 'gaussian'"),
        (_shipped("gaussian_default.json", tolerances={"c_eta": "x"}), None,
         "compare.tolerances.c_eta: must be a number >= 0 or null, got 'x'"),
        (small_config("compare", compare=dict(ORACLE_COMPARE, marginal_times="x")), None,
         "compare.marginal_times: must be an array of numbers, got 'x'"),
        (small_config("simulate", response_steps="ab"), None, "response_steps: must be an array of integers, got 'ab'"),
        (small_config("simulate", prior={"family": "gaussian_fixed", "lam": "x"}), None, "prior: '<=' not supported"),
        (small_config("simulate", response_steps=[0, 2.5]), None, "response_steps: must be an array of integers"),
        (_equilibrium(g_star={"family": "gaussian_fixed"}), None,
         "equilibrium.g_star: GaussianFixed.__init__() missing 1 required positional argument: 'lam'"),
        (_equilibrium(g_star={"family": "gaussian_fixed", "lam": 1.0, "alpha0": [1.0]}), None,
         "equilibrium.g_star: alpha0 must have dimension 0"),
        (_equilibrium(g={"family": "gaussian_fixed", "lam": -1}), None, "equilibrium.g: lam must be positive"),
        (small_config("simulate", model=dict(SMALL_MODEL, sigma2=0)), None, "model: float division by zero"),
        (small_config("simulate", seed=-1), None, "seed: must be an integer >= 0, got -1"),
        # replica r is seeded with seed * 1000 + r, a 64-bit Philox key
        (small_config("simulate", seed=2**62), None, "seed: seed * 1000 + replicas - 1 must fit in 64 bits"),
        # JSON has no NaN or Infinity; Python's parser reads them, and 1e999 as inf
        (_equilibrium(delta=float("inf")), None, "config: non-finite number Infinity"),
        (small_config("simulate", regularizer={"D": float("nan")}), None, "config: non-finite number NaN"),
        (json.dumps(small_config("simulate", regularizer={"D": 1.5})).replace("1.5", "1e999").encode(), None,
         "non-finite number 1e999"),
        # a compare of a route with itself checks nothing: both runs write the same table
        (small_config("compare", prior=LOCATION, compare=dict(W2_COMPARE, sources=["dmft", "dmft"])), None,
         "compare.sources: must be two different routes of simulate|dmft|dmft-linear|oracle, got ['dmft', 'dmft']"),
        (small_config("compare", compare=dict(ORACLE_COMPARE, sources=["oracle", "oracle"])), None,
         "compare.sources: must be two different routes of simulate|dmft|dmft-linear|oracle, got ['oracle', 'oracle']"),
        # sources that would ignore a value of the config
        (small_config("dmft-linear", theta0={"kind": "prior"}), None,
         "theta0.kind: dmft-linear assumes theta0 = 0, got 'prior'"),
        (_equilibrium(g_star={"family": "gaussian_location", "alpha0": [0.0], "alpha_star": [3.0]}), None,
         "equilibrium.g_star.alpha_star: unknown key"),
        (_equilibrium(g_star={"family": "exp_family", "powers": [2.5], "alpha0": [-0.5]}), None,
         "equilibrium.g_star: powers must be a non-empty array of integers >= 1, got [2.5]"),
        # simulate keeps only every retain_every-th step, so a response step between them has no row
        (small_config("simulate", response_steps=[0, 3, 4]), None, "response_steps: [3] not multiples of retain_every = 2"),
        # bytes are the text of a config file, read by both `main` and `run`
        (b"[]", None, "config: must be a JSON object, got array"),
        (b'{"pipeline": "simulate",', None, "config: cannot read"),
        # exp_family densities that do not normalize: the zero default, a positive top coefficient
        (_equilibrium(g_star={"family": "exp_family", "powers": [2, 4]}), None,
         "equilibrium.g_star: exp(sum_k alpha_k theta^k) does not normalize for alpha = [0.0, 0.0]"),
        (_equilibrium(g={"family": "exp_family", "powers": [2, 4], "alpha0": [-0.5, 0.1]}), None,
         "equilibrium.g: exp(sum_k alpha_k theta^k) does not normalize for alpha = [-0.5, 0.1]"),
        (small_config("simulate", prior={"family": "exp_family", "powers": [2, 4]}), None,
         "prior: exp(sum_k alpha_k theta^k) does not normalize for alpha = [0.0, 0.0]"),
        (small_config("simulate", prior={"family": "exp_family", "powers": [2], "alpha0": [-0.5], "alpha_star": [0.5]}),
         None, "prior: exp(sum_k alpha_k theta^k) does not normalize for alpha = [0.5]"),
        # compare times that are empty, decreasing or repeated
        (small_config("compare", compare=dict(ORACLE_COMPARE, sources=["dmft-linear", "dmft"], times=[])), None,
         "compare.times: must be an array of numbers, non-empty and strictly increasing, got []"),
        (small_config("compare", compare=dict(ORACLE_COMPARE, times=[0.5, 0.0])), None,
         "compare.times: must be an array of numbers, non-empty and strictly increasing, got [0.5, 0.0]"),
        (small_config("compare", compare=dict(ORACLE_COMPARE, times=[0.25, 0.25])), None,
         "compare.times: must be an array of numbers, non-empty and strictly increasing, got [0.25, 0.25]"),
        # under a w2 tolerance every marginal time is checked, also beside a kernel tolerance
        (small_config("compare", prior=LOCATION, compare=dict(W2_COMPARE, marginal_times=[0.55])), None,
         "compare.marginal_times: [0.55] not on the grid 0, 0.1, ..., 0.5 that simulate retains (retain_every = 2)"),
        # on the step grid of dmft, but not on the grid simulate retains
        (small_config("compare", prior=LOCATION, compare=dict(W2_COMPARE, marginal_times=[0.5, 0.05])), None,
         "compare.marginal_times: [0.05] not on the grid 0, 0.1, ..., 0.5 that simulate retains (retain_every = 2)"),
        # a closed-form source draws no marginals, so a w2 tolerance beside it would check nothing
        (
            small_config(
                "compare",
                compare={"sources": ["dmft", "dmft-linear"], "tolerances": {"default": 1.0, "w2": 1e-9},
                         "marginal_times": [0.5]},
            ),
            None,
            "compare.tolerances.w2: W2 needs two Monte Carlo sources, got ['dmft', 'dmft-linear']",
        ),
        # the model's delta is n/d, so a config cannot state it
        (small_config("simulate", model=dict(SMALL_MODEL, delta=2.0)), None, "model.delta: unknown key"),
        # options no config reached, since removed
        (small_config("simulate", prior={"family": "gaussian_weight_mixture", "means": [0.0], "precisions": [1.0]}),
         None, "prior.family: unknown family 'gaussian_weight_mixture'"),
        (small_config("simulate", prior=dict(MIXTURE, means=[0.0, 1.0])), None, "prior.means: unknown key"),
    ],
)
def test_off_grid_compare_times_exit_2_before_any_source(tmp_path, config, times, message):
    if isinstance(config, bytes):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(config)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    else:
        cfg = json.loads((CONFIG_DIR / config).read_text()) if isinstance(config, str) else dict(config)
        if times is not None:
            cfg["compare"]["times"] = times
    assert message in _config_error(cfg)
    assert run(cfg, out=str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


# Every value of the config table but `out`, which any string fits.
TABLE_KEYS = [(section, key) for section, keys in cli._TABLE.items() for key in keys if key != "out"]


@pytest.mark.parametrize("section,key", TABLE_KEYS, ids=[f"{s}.{k}".lstrip(".") for s, k in TABLE_KEYS])
def test_every_table_value_is_checked_by_load_config(section, key):
    if section == "equilibrium":
        cfg = _equilibrium()
    else:
        cfg = small_config("compare", compare=ORACLE_COMPARE, theta0={"kind": "zero"}, regularizer={"D": 5.0})
    cfg = json.loads(json.dumps(cfg))
    load_config(cfg)  # valid as written
    target = cfg
    for name in filter(None, section.split(".")):
        target = target.setdefault(name, {})
    target[key] = "x"
    assert f"{section}.{key}".lstrip(".") + ": must be" in _config_error(cfg)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    load_config(path)


# gaussian_fixed lam 1 at delta 2: h_max = 1 + 2 (1 + 2^-1/2)^2 = 6.83, so gamma < 0.2929
UNSTABLE_MODEL = {"n": 800, "d": 400, "sigma2": 1.0, "beta": 1.0, "gamma": 0.3, "horizon": 60.0}


@pytest.mark.parametrize(
    "pipeline, extra",
    [
        ("simulate", {}),
        ("dmft", {}),
        ("dmft-linear", {}),
        ("compare", {"compare": {"sources": ["oracle", "dmft-linear"], "tolerances": {"default": 1.0}}}),
    ],
)
def test_an_unstable_euler_step_exits_2_before_any_source(tmp_path, pipeline, extra):
    cfg = small_config(pipeline, model=dict(UNSTABLE_MODEL), retain_every=1, **extra)
    message = _config_error(cfg)
    assert "model.gamma: 0.3 makes the Euler step of" in message
    assert "= 2.049 must be < 2, so gamma < 0.292893" in message
    assert run(cfg, out=str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


def test_the_step_bound_reads_the_largest_precision_and_spares_the_oracle():
    # a mixture's bound is set by its stiffest component; the oracle's
    # continuous kernels take no step, and exp_family has no bound
    model = dict(UNSTABLE_MODEL, gamma=0.25, horizon=2.5)
    mixture = {"family": "gaussian_mean_mixture", "weights": [0.5, 0.5], "precisions": [1.0, 4.0],
               "alpha0": [-1.0, 1.0]}
    assert "gamma < 0.203491" in _config_error(small_config("simulate", model=model, prior=mixture, retain_every=1))
    load_config(small_config("simulate", model=dict(model, gamma=0.2, horizon=2.0), prior=mixture))
    load_config(small_config("oracle", model=dict(UNSTABLE_MODEL), retain_every=1))
    load_config(small_config("simulate", model=dict(UNSTABLE_MODEL), retain_every=1,
                             prior={"family": "exp_family", "powers": [2, 4], "alpha0": [0.0, -0.1]}))


def test_a_simulate_source_needs_replicas_before_any_output(tmp_path):
    # a compare, not only the simulate pipeline: the simulation would refuse
    # zero replicas only after the output directory exists
    cfg = small_config("compare", compare={"sources": ["simulate", "dmft"], "tolerances": {"default": 1.0}})
    del cfg["replicas"]
    assert "replicas: must be >= 1 for a simulate source" in _config_error(cfg)
    assert run(cfg, out=str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


def test_more_replicas_than_the_seed_stride_exit_2(tmp_path):
    # replica r of seed s runs at seed s * 1000 + r: replica 1000 of seed 3
    # would be replica 0 of seed 4, sharing its instance and Brownian path
    cfg = small_config("simulate", replicas=1001)
    assert "replicas: must be <= 1000" in _config_error(cfg)
    assert run(cfg, out=str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()
    load_config(dict(cfg, replicas=1000))


def test_simulate_keeps_about_one_design_alive():
    # Each replica is reduced as it ends, so of 8 designs of n x d floats one
    # is alive at a time, beside step temporaries of one replica. At delta 80
    # a stable step is below 0.02; gamma 0.01 keeps the 10 steps.
    n, d, R = 4000, 50, 8
    cli._SOURCES["simulate"](load_config(small_config("simulate")))  # lazy imports of a first run
    model = dict(SMALL_MODEL, n=n, d=d, gamma=0.01, horizon=0.1)
    cfg = load_config(small_config("simulate", model=model, replicas=R, retain_every=10))
    tracemalloc.start()
    try:
        cli._SOURCES["simulate"](cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 8 + 16 * n * 8


def test_seed_is_required_only_where_a_source_draws(tmp_path):
    # oracle against dmft-linear draws nothing
    cfg = _gaussian_default(tmp_path)
    del cfg["seed"]
    assert run(cfg) == 0
    cfg["compare"]["sources"] = ["dmft", "dmft-linear"]
    assert "seed: required for a dmft source" in _config_error(cfg)


def test_acceptance_scale_mixture_dmft_fits_the_default_budget():
    # P=20000, T=200: the packed triangle needs 1.50 GiB of the 2 GiB default.
    cfg = _shipped("adaptive_location.json")
    cfg.update(pipeline="dmft", prior=dict(MIXTURE, alpha_star=[-1.0, 1.0]))
    del cfg["compare"]
    tracemalloc.start()
    try:
        run = load_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (run.model.n_steps, run.opts["n_paths"]) == (200, 20000)
    assert peak < 2**20  # checked, not allocated


def test_budget_one_byte_below_the_packed_triangle_exits_2(tmp_path):
    # 10 steps: 55 float32 entries per path; 400 paths need 88000 bytes.
    per_path = 55 * 4
    cfg = small_config("dmft", prior=MIXTURE, response_budget_bytes=400 * per_path)
    load_config(cfg)
    cfg["response_budget_bytes"] -= 1
    assert f"reduce n_paths to <= {cfg['response_budget_bytes'] // per_path} " in _config_error(cfg)
    assert run(cfg, out=str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


def test_closed_forms_honor_tau_star2():
    # Both closed forms solve the misspecified system theta_star ~ N(0, 0.5), lam = 1,
    # and agree within gaussian_default's tolerances at its nine times.
    cfg = load_config(_shipped("gaussian_default.json"))
    model, compare = cfg.model, cfg.compare
    oracle = mp_oracle.OracleParams(lam=1.0, sigma2=model.sigma2, delta=model.delta, tau_star2=0.5)
    closed = mp_oracle.oracle_table(np.asarray(compare["times"]), oracle, mp_oracle.mp_quadrature(model.delta))
    linear = dmft.linear_gaussian_dmft(model, 1.0, 0.5)
    assert closed.c_star_star == linear.c_star_star == 0.5
    assert compare_tables(closed, linear, compare["tolerances"], compare["times"]).passed


def test_sigma2_sweep_row_matches_equilibrium_json_bit_for_bit(tmp_path):
    # The sweep row at the config's own sigma2 is the same solve.
    g = {"family": "gaussian_fixed", "lam": 0.5}
    assert run(_equilibrium(g=g, sweep_sigma2=[0.5, 1.0]), out=str(tmp_path)) == 0
    sol = json.loads((tmp_path / "equilibrium.json").read_text())
    header, *rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    row = dict(zip(header, map(float, next(r for r in rows if float(r[0]) == 1.0))))
    for name in ("omega", "omega_star", "mse", "mse_star", "ymse", "free_energy"):
        assert row[name] == sol[name]


# (compare section, other config keys, whether the report checks anything);
# small_config's grids: dmft every 0.05, simulate and oracle every 0.1.
COMPARE_CASES = [
    ({"sources": ["simulate", "dmft"], "tolerances": {"alpha": 0.05}}, {}, False),
    ({"sources": ["simulate", "dmft"], "tolerances": {"alpha": 0.05}}, {"prior": LOCATION}, True),
    ({"sources": ["simulate", "dmft"], "tolerances": {"r_eta_star": 0.1}}, {}, False),
    ({"sources": ["dmft", "dmft-linear"], "tolerances": {"r_eta_star": 0.1}}, {}, True),
    ({"sources": ["simulate", "dmft"], "tolerances": {"r_theta": 0.1}}, {}, False),
    ({"sources": ["simulate", "dmft"], "tolerances": {"r_theta": 0.1}}, {"response_steps": [0, 4, 8]}, True),
    ({"sources": ["oracle", "dmft-linear"], "tolerances": {"r_eta": 0.1}, "times": [0.5]}, {}, False),
    ({"sources": ["oracle", "dmft-linear"], "tolerances": {"default": None, "c_eta": None}}, {}, False),
    ({"sources": ["simulate", "dmft"], "tolerances": {"w2": 1.0}, "marginal_times": [0.25]}, {}, False),
    ({"sources": ["simulate", "dmft"], "tolerances": {"w2": 1.0}, "marginal_times": [0.2]}, {}, True),
    ({"sources": ["dmft", "dmft-linear"], "tolerances": {"w2": 1.0}, "marginal_times": [0.25]}, {}, False),
]


@pytest.mark.parametrize("compare,extra,checks", COMPARE_CASES)
def test_load_config_knows_whether_a_compare_checks_anything(tmp_path, monkeypatch, compare, extra, checks):
    cfg = small_config("compare", out=str(tmp_path / "out"), compare=compare, **extra)
    if not checks:
        assert "no compared kernel and no W2 marginal has a tolerance" in _config_error(cfg)
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()
    # The refusal must agree with the report the compare would have written.
    monkeypatch.setattr(cli, "_compare_checks_something", lambda cfg: None)
    assert run(cfg) in (0, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    kernel_checked = any(k["tolerance"] is not None for k in report["kernels"])
    w2_checked = report["w2_tolerance"] is not None and bool(report["w2_marginals"])
    assert (kernel_checked or w2_checked) == checks


@pytest.mark.parametrize(
    "path,value,kind",
    [
        (("compare",), [], "array"),
        (("theta0",), "zero", "string"),
        (("model",), 3, "number"),
        (("equilibrium",), None, "null"),
        (("regularizer",), True, "boolean"),
        (("compare", "tolerances"), [0.1], "array"),
        (("prior",), "gaussian_fixed", "string"),
        (("equilibrium", "g_star"), 1.0, "number"),
    ],
)
def test_non_object_section_exits_2(tmp_path, path, value, kind):
    cfg = small_config(
        "compare", out=str(tmp_path / "out"), compare=dict(ORACLE_COMPARE),
        equilibrium={"g_star": {"family": "gaussian_fixed", "lam": 1.0}, "delta": 2.0, "sigma2": 1.0},
    )
    section = cfg
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = value
    assert f"{'.'.join(path)}: must be a JSON object, got {kind}" in _config_error(cfg)
    assert run(cfg) == 2
    assert not (tmp_path / "out").exists()


def test_non_object_config_file_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[]")
    assert "config: must be a JSON object, got array" in _config_error(str(path))
