"""Run configuration, pipeline orchestration, and reproducible I/O.

Usage: dmft-lab <pipeline> --config <file> [--out <dir>] [--seed <u64>]
[--threads <n>]. Pipelines: simulate, dmft, dmft-linear, oracle, equilibrium,
compare, response. Every run writes kernels_<source>.csv (where applicable),
manifest.json, and (for compare) report.json into the output directory; the
env var DMFT_LAB_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import difflib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import dmft, equilibrium, mp_oracle, simulator
from .kernels import (
    COMPARED_KERNELS,
    KernelTable,
    compare_tables,
    config_hash,
    read_table_csv,
    restrict_to_times,
    time_index,
    write_table_csv,
)
from .model import DESIGNS, ModelParams, sample_instance
from .priors import (
    ExpFamily,
    GaussianFixed,
    GaussianLocation,
    GaussianMeanMixture,
    GaussianWeightMixture,
    PriorSpec,
    SmoothHinge,
    Theta0Spec,
    polynomial_stats,
)

PIPELINES = ("simulate", "dmft", "dmft-linear", "oracle", "equilibrium", "compare", "response")

_DEFAULT_MARGINAL_TIMES = [1.0]


class ConfigError(ValueError):
    """Config validation failure; message lists every offending field."""


# Prior family name -> (its own config keys, builder from the prior section).
_FAMILIES = {
    "gaussian_fixed": (("lam",), lambda c: GaussianFixed(c["lam"])),
    "gaussian_location": (("scale",), lambda c: GaussianLocation(c.get("scale", 1.0))),
    "gaussian_mean_mixture": (
        ("weights", "precisions"),
        lambda c: GaussianMeanMixture(c["weights"], c["precisions"]),
    ),
    "gaussian_weight_mixture": (
        ("means", "precisions"),
        lambda c: GaussianWeightMixture(c["means"], c["precisions"]),
    ),
    "exp_family": (("powers",), lambda c: ExpFamily(polynomial_stats(c["powers"]))),
}
_PRIOR_KEYS = ("family", "alpha0", "alpha_star")

# Every key the CLI reads, by section; the same table for every pipeline.
_KEYS = {
    "": (
        "pipeline", "seed", "out", "threads", "model", "prior", "theta0", "replicas", "n_paths",
        "quad_nodes", "retain_every", "design", "response_steps", "response_method", "n_probes",
        "response_budget_bytes", "regularizer", "tau_star2", "compare", "equilibrium",
    ),
    "model": ("n", "d", "sigma2", "beta", "gamma", "horizon", "delta"),
    "theta0": ("kind", "var"),
    "compare": ("sources", "times", "tolerances", "marginal_times"),
    "compare.tolerances": COMPARED_KERNELS + ("default", "w2"),
    "equilibrium": ("g_star", "g", "delta", "sigma2", "tol", "n_gh", "sweep_sigma2"),
    "regularizer": ("D", "eps"),
}


def _json_type(value) -> str:
    names = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}
    return names.get(type(value), "number")


def _hint(name, allowed) -> str:
    match = difflib.get_close_matches(str(name), list(allowed), n=1)
    return f" (did you mean {match[0]!r}?)" if match else ""


def _unknown(where: str, section: dict, allowed) -> list[str]:
    return [f"{where}{key}: unknown key{_hint(key, allowed)}" for key in section if key not in allowed]


def _sections(raw: dict) -> dict:
    """Every config section present, by dotted name: the `_KEYS` sections and the prior sections."""
    out = {"": raw}
    for name in ("model", "theta0", "compare", "equilibrium", "regularizer", "prior"):
        if name in raw:
            out[name] = raw[name]
    for parent, child in (("compare", "tolerances"), ("equilibrium", "g_star"), ("equilibrium", "g")):
        if isinstance(out.get(parent), dict) and child in out[parent]:
            out[f"{parent}.{child}"] = out[parent][child]
    return out


def _key_errors(raw) -> list[str]:
    """Non-object sections, unknown keys, tolerance names and prior families anywhere in a config."""
    if not isinstance(raw, dict):
        return [f"config: must be a JSON object, got {_json_type(raw)}"]
    errors = []
    for name, section in _sections(raw).items():
        if not isinstance(section, dict):
            errors.append(f"{name}: must be a JSON object, got {_json_type(section)}")
        elif name in _KEYS:
            errors += _unknown(f"{name}." if name else "", section, _KEYS[name])
        else:
            fam = section.get("family")
            if isinstance(fam, str) and fam in _FAMILIES:
                errors += _unknown(f"{name}.", section, _PRIOR_KEYS + _FAMILIES[fam][0])
            else:
                errors.append(f"{name}.family: unknown family {fam!r}{_hint(fam, _FAMILIES)}")
    return errors


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no integer


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Numeric values by dotted key: (what the value must be, its test). The ranges
# here are those that no later check enforces; a null seed or model.delta means
# "not given".
_NUMERIC = {
    **{
        key: ("an integer", _is_int)
        for key in (
            "threads", "replicas", "n_paths", "quad_nodes", "retain_every", "n_probes",
            "response_budget_bytes", "model.n", "model.d",
        )
    },
    **{
        key: ("a number", _is_number)
        for key in ("tau_star2", "model.sigma2", "model.beta", "model.gamma", "model.horizon")
    },
    "seed": ("an integer", lambda v: v is None or _is_int(v)),
    "model.delta": ("a number", lambda v: v is None or _is_number(v)),
    "equilibrium.n_gh": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "equilibrium.delta": ("a number > 0", lambda v: _is_number(v) and v > 0),
    "equilibrium.sigma2": ("a number > 0", lambda v: _is_number(v) and v > 0),
    "equilibrium.tol": ("a number >= 0", lambda v: _is_number(v) and v >= 0),
    "equilibrium.sweep_sigma2": (
        "an array of numbers > 0",
        lambda v: isinstance(v, list) and all(_is_number(x) and x > 0 for x in v),
    ),
}


def _number_errors(raw: dict) -> list[str]:
    """Numeric values of the wrong type or out of their range (after _key_errors: every section is an object)."""
    sections = _sections(raw)
    errors = []
    for key, (what, ok) in _NUMERIC.items():
        name, _, field = key.rpartition(".")
        section = sections.get(name, {})
        if field in section and not ok(section[field]):
            errors.append(f"{key}: must be {what}, got {section[field]!r}")
    return errors


def _build_prior(cfg: dict, theta0_cfg: Optional[dict]) -> PriorSpec:
    family = _FAMILIES[cfg["family"]][1](cfg)
    k = family.dim_alpha
    alpha0 = np.asarray(cfg.get("alpha0", np.zeros(k)), dtype=float)
    alpha_star = np.asarray(cfg.get("alpha_star", alpha0), dtype=float)
    theta0 = Theta0Spec(**(theta0_cfg or {}))
    return PriorSpec(family, alpha0, alpha_star, theta0)


@dataclass
class RunConfig:
    pipeline: str
    raw: dict
    seed: Optional[int]
    out_dir: Path
    threads: int
    model: Optional[ModelParams] = None
    prior: Optional[PriorSpec] = None
    replicas: int = 0
    n_paths: int = 0
    quad_nodes: int = 400
    retain_every: int = 10
    response_steps: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    compare_sources: list = field(default_factory=list)
    marginal_times: list = field(default_factory=lambda: list(_DEFAULT_MARGINAL_TIMES))

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _compare_checks_something(cfg: RunConfig) -> None:
    """Refuse, before any source runs, a compare whose times are off the grid
    of a source or whose report would check nothing.

    Every compare time must lie on the step grid 0, gamma, ..., horizon, and
    on the retained grid (every `retain_every` steps) when `simulate` is a
    source. A kernel is compared when both sources carry it on the compared
    grid (the rule `compare_tables` applies): `simulate` has no `r_eta_star` and lag
    responses only between two of its `response_steps`, and `alpha` needs two
    Monte Carlo sources and an adaptive prior. A W2 check needs two Monte Carlo
    sources and a marginal time on both grids.
    """
    params, tol, sources = cfg.model, cfg.tolerances, cfg.compare_sources
    full = params.gamma_step * np.arange(params.n_steps + 1)
    retained = full[:: cfg.retain_every]  # the simulate and oracle grids
    simulate = "simulate" in sources
    monte_carlo = all(s in ("simulate", "dmft", "dmft-mc") for s in sources)
    coarse = any(s in ("simulate", "oracle", "mp-oracle") for s in sources)
    times = cfg.raw["compare"].get("times")
    if times is not None:
        try:
            times = np.asarray(times, dtype=float).ravel()
        except (TypeError, ValueError):
            raise ConfigError(f"compare.times: must be an array of numbers, got {times!r}") from None
        on, every = (retained, cfg.retain_every) if simulate else (full, 1)
        off = [t for t in times.tolist() if time_index(on, t) is None]
        if off:
            raise ConfigError(
                f"compare.times: {off} not on the grid 0, {every * params.gamma_step:g}, ..., {on[-1]:g}"
                + (f" that simulate retains (retain_every = {every})" if simulate else "")
            )
    grid = times if times is not None else (retained if coarse else full)
    lag_steps = {k for k in cfg.response_steps if time_index(grid, params.gamma_step * k) is not None}
    lagged = grid.size >= 2 and (not simulate or len(lag_steps) >= 2)
    present = {"r_theta": lagged, "r_eta": lagged, "r_eta_star": not simulate}
    present["alpha"] = monte_carlo and cfg.prior.dim_alpha > 0
    kernels = [k for k in COMPARED_KERNELS if present.get(k, True)]
    if any(tol.get(k, tol.get("default")) is not None for k in kernels):
        return
    marginal_grid = retained if simulate else full
    w2 = monte_carlo and any(time_index(marginal_grid, t) is not None for t in cfg.marginal_times)
    if tol.get("w2") is None or not w2:
        raise ConfigError(
            "compare: no compared kernel and no W2 marginal has a tolerance "
            f"(compared {kernels}); set compare.tolerances"
        )


def _value_errors(raw: dict, sources, model: Optional[ModelParams], prior: Optional[PriorSpec]) -> list[str]:
    """Values that the run would otherwise refuse only deep inside a source."""
    errors = []
    closed = [s for s in sources if s in ("dmft-linear", "oracle", "mp-oracle")]
    if closed and prior is not None and not isinstance(prior.family, GaussianFixed):
        errors.append(f"prior.family: {closed[0]} requires gaussian_fixed, got {raw['prior']['family']!r}")
    oracle = any(s in ("oracle", "mp-oracle") for s in sources)
    if oracle and model is not None and abs(model.beta * model.sigma2 - 1.0) > 1e-12:
        errors.append(f"model.beta: the oracle closed forms require beta = 1/sigma2, got {model.beta:g}")
    if oracle and int(raw.get("quad_nodes", 400)) < mp_oracle.MIN_QUAD_NODES:
        errors.append(f"quad_nodes: must be >= {mp_oracle.MIN_QUAD_NODES} for an oracle source")
    per_path = prior is not None and prior.family.theta_curvature_constant(prior.alpha) is None
    if any(s in ("dmft", "dmft-mc") for s in sources):
        n_paths = int(raw.get("n_paths", 0))
        budget = int(raw.get("response_budget_bytes", dmft._DEFAULT_RESPONSE_BUDGET))
        over = per_path and model is not None and dmft._response_budget_error(n_paths, model.n_steps, budget)
        if n_paths < 100:
            errors.append("n_paths: must be >= 100 for a dmft source")
        elif over:
            errors.append(f"n_paths: {over}")
    design = raw.get("design", "gaussian")
    if design not in DESIGNS:
        errors.append(f"design: must be one of {DESIGNS}, got {design!r}")
    method = raw.get("response_method", "exact-product")
    if method not in simulator.RESPONSE_METHODS:
        errors.append(f"response_method: must be one of {simulator.RESPONSE_METHODS}, got {method!r}")
    elif method == "probe" and int(raw.get("n_probes", 32)) < 2:
        errors.append("n_probes: must be >= 2 in probe mode")
    steps, retain = raw.get("response_steps", []), int(raw.get("retain_every", 10))
    if retain < 1:
        errors.append("retain_every: must be >= 1")
    elif model is not None and any(s in ("simulate", "response") for s in sources):
        if model.n_steps % retain:
            errors.append(f"retain_every: {retain} does not divide the {model.n_steps} steps")
        off = [k for k in steps if not 0 <= k <= model.n_steps]
        if off:
            errors.append(f"response_steps: {off} outside 0..{model.n_steps}")
        if steps and per_path and retain != 1:
            errors.append("response_steps: a theta-dependent prior needs retain_every = 1")
    return errors


def _read_json(path) -> object:
    """The parsed JSON of a config file; a file that cannot be read or parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None


def load_config(config, out_override=None, seed_override=None, threads_override=None) -> RunConfig:
    """Parse and validate a run config (JSON path or dict); collects all
    field errors before reporting."""
    if isinstance(config, (str, os.PathLike)):
        raw = _read_json(config)
    else:
        raw = json.loads(json.dumps(config))  # defensive copy, JSON-clean
    # Unknown keys are reported alone: one may be a misspelled required key.
    # Then mistyped numbers, alone too: every check below reads them.
    errors = _key_errors(raw) or _number_errors(raw)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    pipeline = raw.get("pipeline")
    if pipeline not in PIPELINES:
        errors.append(f"pipeline: must be one of {PIPELINES}, got {pipeline!r}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    needs_seed = pipeline in ("simulate", "dmft", "response", "compare")
    if needs_seed and seed is None:
        errors.append("seed: required (explicit seeds only; no wall-clock seeding)")

    model = prior = None
    needs_model = pipeline in ("simulate", "dmft", "dmft-linear", "oracle", "response", "compare")
    if needs_model:
        mc = raw.get("model")
        if not isinstance(mc, dict):
            errors.append("model: required section")
        else:
            try:
                model = ModelParams(
                    n=mc["n"], d=mc["d"], sigma2=mc["sigma2"], beta=mc.get("beta", 1.0 / mc["sigma2"]),
                    gamma_step=mc["gamma"], horizon=mc["horizon"], delta=mc.get("delta"),
                )
            except (KeyError, ValueError) as exc:
                errors.append(f"model: {exc}")
        pc = raw.get("prior")
        if not isinstance(pc, dict):
            errors.append("prior: required section")
        else:
            try:
                prior = _build_prior(pc, raw.get("theta0"))
            except (KeyError, ValueError) as exc:
                errors.append(f"prior: {exc}")

    replicas = int(raw.get("replicas", 0))
    if pipeline in ("simulate", "response") and replicas < 1:
        errors.append("replicas: must be >= 1 for the simulate/response pipelines")
    if pipeline == "response" and not raw.get("response_steps"):
        errors.append("response_steps: required for the response pipeline")
    ec = raw.get("equilibrium", {})
    if pipeline == "equilibrium" and not all(k in ec for k in ("g_star", "delta", "sigma2")):
        errors.append("equilibrium: the equilibrium pipeline needs g_star, delta and sigma2")
    cc = raw.get("compare", {})
    sources = [pipeline]
    if pipeline == "compare":
        sources = cc.get("sources", [])
        allowed = ("simulate", "dmft", "dmft-mc", "dmft-linear", "oracle", "mp-oracle")
        if len(sources) != 2 or any(s not in allowed for s in sources):
            errors.append("compare.sources: exactly two of simulate|dmft|dmft-linear|oracle")
    errors += _value_errors(raw, sources, model, prior)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    out = out_override or os.environ.get("DMFT_LAB_OUT") or raw.get("out", "out")
    threads = int(threads_override if threads_override is not None else raw.get("threads", 1))
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    cfg = RunConfig(
        pipeline=pipeline,
        raw=raw,
        seed=None if seed is None else int(seed),
        out_dir=Path(out),
        threads=threads,
        model=model,
        prior=prior,
        replicas=replicas,
        n_paths=int(raw.get("n_paths", 0)),
        quad_nodes=int(raw.get("quad_nodes", 400)),
        retain_every=int(raw.get("retain_every", 10)),
        response_steps=list(raw.get("response_steps", [])),
        tolerances=dict(cc.get("tolerances", {})),
        compare_sources=list(cc.get("sources", [])),
        marginal_times=list(cc.get("marginal_times", _DEFAULT_MARGINAL_TIMES)),
    )
    if pipeline == "compare":
        _compare_checks_something(cfg)
    return cfg


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).parent,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(cfg: RunConfig, source: str, files: list[str], extra: dict):
    manifest = {
        "config_hash": cfg.hash,
        "pipeline": cfg.pipeline,
        "source": source,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "replicas": cfg.replicas,
        "n_paths": cfg.n_paths,
        "model": cfg.raw.get("model"),
        "prior": cfg.raw.get("prior"),
        "build": _git_describe(),
        "files": files,
    }
    manifest.update(extra)
    _write_json(cfg.out_dir / "manifest.json", manifest)


def _replica_seeds(seed: int, replicas: int) -> list[int]:
    return [seed * 1000 + r for r in range(replicas)]


def _run_simulate(cfg: RunConfig):
    params, prior = cfg.model, cfg.prior
    seeds = _replica_seeds(cfg.seed, cfg.replicas)
    reg = _regularizer(cfg)

    def one(rs: int):
        inst = sample_instance(params, prior, seed=rs, design=cfg.raw.get("design", "gaussian"))
        traj = simulator.evolve(inst, prior, params, seed=rs, retain_every=cfg.retain_every, regularizer=reg)
        traces = None
        if cfg.response_steps:
            traces = simulator.response_traces(
                traj if traj.full else None, inst, prior, params, cfg.response_steps,
                method=cfg.raw.get("response_method", "exact-product"),
                n_probes=int(cfg.raw.get("n_probes", 32)), seed=rs,
            )
        return inst, traj, traces

    if cfg.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(rs) for rs in seeds]
    instances = [r[0] for r in results]
    trajs = [r[1] for r in results]
    table = simulator.empirical_kernels(trajs, instances, params)
    if cfg.response_steps:
        traces = simulator.average_response_traces([r[2] for r in results])
        simulator.attach_response(table, traces)
    marginals = {}
    for t in cfg.marginal_times:
        idx = time_index(trajs[0].times, t)
        if idx is not None:
            marginals[t] = np.concatenate([tr.theta_path[idx] for tr in trajs])
    return table, marginals


def _run_dmft(cfg: RunConfig):
    reg = _regularizer(cfg)
    res = dmft.solve_dmft(
        cfg.model, cfg.prior, n_paths=cfg.n_paths, seed=cfg.seed, regularizer=reg,
        response_budget_bytes=int(cfg.raw.get("response_budget_bytes", dmft._DEFAULT_RESPONSE_BUDGET)),
    )
    marginals = {}
    for t in cfg.marginal_times:
        try:
            _, th = dmft.dmft_marginal_samples(res, t, min(cfg.n_paths, 20000))
            marginals[t] = th
        except ValueError:
            pass
    return res.table, marginals


def _regularizer(cfg: RunConfig) -> Optional[SmoothHinge]:
    rc = cfg.raw.get("regularizer")
    if not rc:
        return None
    return SmoothHinge(D=float(rc.get("D", 10.0)), eps=float(rc.get("eps", 1.0)))


def _run_linear(cfg: RunConfig):
    family = cfg.prior.family
    return dmft.linear_gaussian_dmft(cfg.model, family.lam, family.second_moment()), {}


def _run_oracle(cfg: RunConfig):
    params, prior = cfg.model, cfg.prior
    oracle = mp_oracle.OracleParams(
        lam=prior.family.lam,
        sigma2=params.sigma2,
        delta=params.delta,
        # the closed forms tolerate a misspecified prior: the true second
        # moment may be overridden independently of the nominal precision
        tau_star2=float(cfg.raw.get("tau_star2", prior.family.second_moment())),
    )
    law = mp_oracle.mp_quadrature(params.delta, cfg.quad_nodes)
    times = cfg.raw.get("compare", {}).get("times")
    if times is None:
        times = params.gamma_step * np.arange(0, params.n_steps + 1, cfg.retain_every)
    return mp_oracle.oracle_table(np.asarray(times, dtype=float), oracle, law), {}


# Kernel-table source name (aliases included) -> (table, marginal samples).
# The response pipeline is simulate with response_steps required.
_SOURCES = {
    "simulate": _run_simulate,
    "response": _run_simulate,
    "dmft": _run_dmft,
    "dmft-mc": _run_dmft,
    "dmft-linear": _run_linear,
    "oracle": _run_oracle,
    "mp-oracle": _run_oracle,
}


def _run_equilibrium(cfg: RunConfig) -> dict:
    ec = cfg.raw["equilibrium"]
    g_star = _build_prior(ec["g_star"], None)
    g = _build_prior(ec.get("g", ec["g_star"]), None)
    delta = float(ec["delta"])
    sigma2 = float(ec["sigma2"])
    sol = equilibrium.solve_fixed_point(
        delta, sigma2, g_star, g,
        tol=float(ec.get("tol", 1e-10)), n_gh=int(ec.get("n_gh", 64)),
    )
    out = sol.to_dict()
    sweep = ec.get("sweep_sigma2")
    if sweep:
        rows = ["param,omega,omega_star,mse,mse_star,ymse,free_energy"]
        for s2 in sweep:
            so = equilibrium.solve_fixed_point(delta, float(s2), g_star, g, n_gh=int(ec.get("n_gh", 64)))
            rows.append(
                ",".join(
                    "%.17g" % v
                    for v in (s2, so.omega, so.omega_star, so.mse, so.mse_star, so.ymse, so.free_energy)
                )
            )
        with open(cfg.out_dir / "sweep.csv", "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return out


def _run_compare(cfg: RunConfig) -> dict:
    tables = []
    marginal_sets = []
    compare_times = cfg.raw.get("compare", {}).get("times")
    for source in cfg.compare_sources:
        table, marg = _SOURCES[source](cfg)
        tables.append(table)
        marginal_sets.append(marg)
        write_table_csv(table, cfg.out_dir / f"kernels_{table.source}.csv")
    if compare_times:
        tables = [restrict_to_times(t, compare_times) for t in tables]
    report = compare_tables(tables[0], tables[1], cfg.tolerances)
    w2_tol = cfg.tolerances.get("w2")
    for t in cfg.marginal_times:
        a = marginal_sets[0].get(t)
        b = marginal_sets[1].get(t)
        if a is None or b is None:
            continue
        ra, rb = simulator.resample_to_common_size(a, b)
        w2 = simulator.wasserstein2_1d(ra, rb)
        report.w2_marginals[str(t)] = w2
        if w2_tol is not None and w2 > w2_tol:
            report.passed = False
    report.w2_tolerance = w2_tol
    return report.to_dict()


def run(config_path, out=None, seed=None, threads=None) -> int:
    """Execute the configured pipeline; returns the process exit status."""
    extra: dict = {}
    status = 0
    try:
        cfg = load_config(config_path, out, seed, threads)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.pipeline == "equilibrium":
            source, name = "equilibrium", "equilibrium.json"
            _write_json(cfg.out_dir / name, _run_equilibrium(cfg))
        elif cfg.pipeline == "compare":
            source, name = "compare", "report.json"
            report = _run_compare(cfg)
            _write_json(cfg.out_dir / name, report)
            extra["report_passed"] = report["passed"]
            status = 0 if report["passed"] else 1
        else:
            table, _ = _SOURCES[cfg.pipeline](cfg)
            source, name = table.source, f"kernels_{table.source}.csv"
            write_table_csv(table, cfg.out_dir / name)
            if source == "simulate":
                extra["replica_seed_rule"] = "seed*1000 + replica"
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    _write_manifest(cfg, source, [name], extra)
    return status


def load_artifact(out_dir) -> tuple[KernelTable, dict]:
    """Read back a written kernel table and its manifest."""
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    csvs = [f for f in manifest["files"] if f.startswith("kernels_")]
    if not csvs:
        raise FileNotFoundError("artifact contains no kernel CSV")
    return read_table_csv(out_dir / csvs[0]), manifest


def compare_artifacts(dir_a, dir_b, tolerances=None):
    """Compare two on-disk artifacts; refuses mixed model parameters."""
    ta, ma = load_artifact(dir_a)
    tb, mb = load_artifact(dir_b)
    if ma.get("model") != mb.get("model"):
        raise ConfigError("refusing to compare artifacts with different model parameters")
    return compare_tables(ta, tb, tolerances)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dmft-lab", description=__doc__)
    parser.add_argument("pipeline", choices=PIPELINES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        raw = _read_json(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if isinstance(raw, dict):  # anything else is refused by load_config
        if raw.get("pipeline") not in (None, args.pipeline):
            print(f"config pipeline {raw['pipeline']!r} overridden by CLI {args.pipeline!r}", file=sys.stderr)
        raw["pipeline"] = args.pipeline
    return run(raw, args.out, args.seed, args.threads)


if __name__ == "__main__":
    sys.exit(main())
