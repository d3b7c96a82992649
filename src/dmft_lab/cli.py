"""Run configuration, pipeline orchestration, and reproducible I/O.

Usage: dmft-lab <pipeline> --config <file> [--out <dir>] [--seed <u64>]
[--threads <n>]. Pipelines: the four kernel routes simulate, dmft, dmft-linear
and oracle, then equilibrium and compare. A route has one name: its pipeline,
its compare source, the source line of its table and its file
kernels_<route>.csv. Every run writes that file (where applicable),
manifest.json, and (for compare) report.json into the output directory; the
manifest lists every other file the run wrote, in write order.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
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
    time_index,
    write_table_csv,
)
# sample_instance stays bound here: benchmark/tracing.py times it as cli.sample_instance.
from .model import DESIGNS, ModelParams, sample_instance  # noqa: F401
from .priors import (
    _THETA0_KINDS,
    ExpFamily,
    GaussianFixed,
    GaussianLocation,
    GaussianMeanMixture,
    GaussianMixture,
    PriorSpec,
    SmoothHinge,
    Theta0Spec,
)
from .simulator import RESPONSE_METHODS

# The kernel routes, each a pipeline and a compare source of the same name.
ROUTES = ("simulate", "dmft", "dmft-linear", "oracle")
PIPELINES = ROUTES + ("equilibrium", "compare")
# The Monte Carlo sources: they draw from the seed and carry marginal samples. The
# others are closed forms of theta0 = 0 and a Gaussian theta_star; all but the
# oracle run the Euler step gamma.
_MONTE_CARLO = ("simulate", "dmft")
# Replica r of seed s runs at seed s * _REPLICAS + r: more replicas would reuse seed s + 1's.
_REPLICAS = 1000


class ConfigError(ValueError):
    """Config validation failure; message lists every offending field."""


# Prior family name -> (its own config keys, builder taking the given ones by name).
_FAMILIES = {
    "gaussian_fixed": (("lam",), GaussianFixed),
    "gaussian_location": (("scale",), GaussianLocation),
    "gaussian_mean_mixture": (("weights", "precisions"), GaussianMeanMixture),
    "exp_family": (("powers",), ExpFamily),
}
# The keys of each prior section besides its family's; only `prior` draws theta_star.
_PRIOR_KEYS = {
    "prior": ("family", "alpha0", "alpha_star"),
    "equilibrium.g_star": ("family", "alpha0"),
    "equilibrium.g": ("family", "alpha0"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no integer


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def _array_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# Every value the CLI reads, by section: key -> (what the value must be, the
# test of a given value, its default). A key whose default is None has none: left
# out, it stays out. Ranges that depend on the pipeline or on other values are
# checked by _value_errors; ModelParams and the prior families check their own.
_TABLE = {
    "": {
        "pipeline": (f"one of {PIPELINES}", lambda v: v in PIPELINES, None),
        "seed": ("an integer >= 0", lambda v: v is None or _is_int(v) and v >= 0, None),
        "out": ("a string", lambda v: isinstance(v, str), "out"),
        "threads": ("an integer", _is_int, 1),
        "replicas": ("an integer", _is_int, 0),
        "n_paths": ("an integer", _is_int, 0),
        "retain_every": ("an integer", _is_int, 10),
        "design": (f"one of {DESIGNS}", lambda v: v in DESIGNS, "gaussian"),
        "response_steps": ("an array of integers", _array_of(_is_int), ()),
        "response_method": (f"one of {RESPONSE_METHODS}", lambda v: v in RESPONSE_METHODS, "exact-product"),
        "n_probes": ("an integer", _is_int, 32),
        "response_budget_bytes": ("an integer", _is_int, dmft._DEFAULT_RESPONSE_BUDGET),
    },
    "model": {
        **{key: ("an integer", _is_int, None) for key in ("n", "d")},
        **{key: ("a number", _is_number, None) for key in ("sigma2", "beta", "gamma", "horizon")},
    },
    "theta0": {
        "kind": (f"one of {_THETA0_KINDS}", lambda v: v in _THETA0_KINDS, None),
    },
    "compare": {
        "sources": (
            f"two different routes of {'|'.join(ROUTES)}",
            lambda v: isinstance(v, list) and len(v) == 2 and all(s in ROUTES for s in v) and v[0] != v[1],
            None,
        ),
        "times": (
            "an array of numbers, non-empty and strictly increasing",
            lambda v: v is None or _array_of(_is_number)(v) and v != [] and all(a < b for a, b in zip(v, v[1:])),
            None,
        ),
        "marginal_times": ("an array of numbers", _array_of(_is_number), (1.0,)),
    },
    "compare.tolerances": {
        key: ("a number >= 0 or null", lambda v: v is None or _is_number(v) and v >= 0, None)
        for key in COMPARED_KERNELS + ("default", "w2")
    },
    "equilibrium": {
        "delta": ("a number > 0", _is_positive, None),
        "sigma2": ("a number > 0", _is_positive, None),
        "n_gh": ("an integer >= 1", lambda v: _is_int(v) and v >= 1, 64),
        "sweep_sigma2": ("an array of numbers > 0", _array_of(_is_positive), None),
    },
    "regularizer": {key: ("a number", _is_number, None) for key in ("D", "eps")},
}

# Sections inside a section, by dotted name; a prior section's keys are its family's.
_SUBSECTIONS = (
    "model", "prior", "theta0", "compare", "equilibrium", "regularizer",
    "compare.tolerances", "equilibrium.g_star", "equilibrium.g",
)


def _json_type(value) -> str:
    names = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}
    return names.get(type(value), "number")


def _hint(name, allowed) -> str:
    match = difflib.get_close_matches(str(name), list(allowed), n=1)
    return f" (did you mean {match[0]!r}?)" if match else ""


def _unknown(where: str, section: dict, allowed) -> list[str]:
    return [f"{where}{key}: unknown key{_hint(key, allowed)}" for key in section if key not in allowed]


def _sections(raw: dict) -> dict:
    """Every config section present, by dotted name ("" is the top level)."""
    out = {"": raw}
    for name in _SUBSECTIONS:
        parent, _, child = name.rpartition(".")
        if isinstance(out.get(parent), dict) and child in out[parent]:
            out[name] = out[parent][child]
    return out


def _key_errors(raw) -> list[str]:
    """Non-object sections, unknown keys, tolerance names and prior families anywhere in a config."""
    if not isinstance(raw, dict):
        return [f"config: must be a JSON object, got {_json_type(raw)}"]
    errors = []
    for name, section in _sections(raw).items():
        if not isinstance(section, dict):
            errors.append(f"{name}: must be a JSON object, got {_json_type(section)}")
        elif name in _TABLE:
            inner = [s.rpartition(".")[2] for s in _SUBSECTIONS if s.rpartition(".")[0] == name]
            errors += _unknown(f"{name}." if name else "", section, list(_TABLE[name]) + inner)
        else:
            fam = section.get("family")
            if isinstance(fam, str) and fam in _FAMILIES:
                errors += _unknown(f"{name}.", section, _PRIOR_KEYS[name] + _FAMILIES[fam][0])
            else:
                errors.append(f"{name}.family: unknown family {fam!r}{_hint(fam, _FAMILIES)}")
    return errors


def _values(raw: dict, overrides: dict) -> tuple[dict, list[str]]:
    """Each `_TABLE` section, defaults filled in and overrides (unless None) applied,
    each prior section as given or None, and every given value of the wrong type or range."""
    sections = _sections(raw)
    sections[""] = {**raw, **{key: v for key, v in overrides.items() if v is not None}}
    values = {name: sections.get(name) for name in _SUBSECTIONS if name not in _TABLE}
    errors = []
    for name, keys in _TABLE.items():
        given, values[name] = sections.get(name, {}), {}
        for key, (what, ok, default) in keys.items():
            if key in given and not ok(given[key]):
                errors.append(f"{name}.{key}".lstrip(".") + f": must be {what}, got {given[key]!r}")
            if key in given or default is not None:
                values[name][key] = given.get(key, default)
    return values, errors


def _build_family(cfg: dict):
    """(family, alpha0) of a prior section; alpha0 defaults to zeros. Evaluating
    log g at each alpha refuses one whose density does not normalize (exp_family)."""
    keys, build = _FAMILIES[cfg["family"]]
    family = build(**{key: cfg[key] for key in keys if key in cfg})
    alpha0 = np.asarray(cfg.get("alpha0", np.zeros(family.dim_alpha)), dtype=float).reshape(-1)
    if alpha0.size != family.dim_alpha:
        raise ValueError(f"alpha0 must have dimension {family.dim_alpha}")
    family.log_g(0.0, alpha0)
    return family, alpha0


def _build_prior(cfg: dict, theta0: dict) -> PriorSpec:
    family, alpha0 = _build_family(cfg)
    prior = PriorSpec(family, alpha0, cfg.get("alpha_star", alpha0), Theta0Spec(**theta0))
    family.log_g(0.0, prior.alpha_star)
    return prior


def _built(errors: list, name: str, build):
    """The object `build()` returns, or None with its error recorded under `name`."""
    try:
        return build()
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"{name}: {exc}")
        return None


@dataclass
class RunConfig:
    """A checked run: its config values, defaults filled in, and every object it uses.
    `raw` is the config as given, read only for the config hash and the manifest."""

    pipeline: str
    raw: dict
    out_dir: Path
    opts: dict  # the top-level values
    compare: dict  # the compare values, `tolerances` included
    sources: list  # the sources run, by pipeline name
    model: Optional[ModelParams] = None
    prior: Optional[PriorSpec] = None
    regularizer: Optional[SmoothHinge] = None
    equilibrium: Optional[dict] = None  # the equilibrium values; g_star, alpha_star, g and alpha built


def _compare_checks_something(cfg: RunConfig) -> None:
    """Refuse, before any source runs, a compare whose report would check
    nothing or whose times are off the grid of a source.

    Every compare time must lie on the step grid 0, gamma, ..., horizon, and
    on the retained grid (every `retain_every` steps) when `simulate` is a
    source; without them `compare_tables` compares every time both sources
    carry. A kernel is compared when both sources carry it at the compared
    times: `simulate` has no `r_eta_star` and lag responses only between two
    of its `response_steps`, and `alpha` needs two Monte Carlo sources and an
    adaptive prior. A W2 check needs two Monte Carlo sources, so a `w2`
    tolerance beside a closed-form source is refused, and under a `w2`
    tolerance every marginal time must lie on the same grid as compare times.
    """
    params, tol, sources, retain = cfg.model, cfg.compare["tolerances"], cfg.sources, cfg.opts["retain_every"]
    full = params.gamma_step * np.arange(params.n_steps + 1)
    retained = full[::retain]  # the simulate and oracle grids
    simulate = "simulate" in sources
    monte_carlo = all(s in _MONTE_CARLO for s in sources)
    coarse = any(s in ("simulate", "oracle") for s in sources)
    on, every = (retained, retain) if simulate else (full, 1)
    times = cfg.compare.get("times")
    grid = np.asarray(times, dtype=float) if times is not None else (retained if coarse else full)
    lag_steps = {k for k in cfg.opts["response_steps"] if time_index(grid, params.gamma_step * k) is not None}
    lagged = grid.size >= 2 and (not simulate or len(lag_steps) >= 2)
    present = {"r_theta": lagged, "r_eta": lagged, "r_eta_star": not simulate}
    present["alpha"] = monte_carlo and cfg.prior.dim_alpha > 0
    kernels = [k for k in COMPARED_KERNELS if present.get(k, True)]
    marginal_times = cfg.compare["marginal_times"] if monte_carlo and tol.get("w2") is not None else []
    if not any(tol.get(k, tol.get("default")) is not None for k in kernels) and not any(
        time_index(on, t) is not None for t in marginal_times
    ):
        raise ConfigError(
            "compare: no compared kernel and no W2 marginal has a tolerance "
            f"(compared {kernels}); set compare.tolerances"
        )
    if tol.get("w2") is not None and not monte_carlo:
        raise ConfigError(f"compare.tolerances.w2: W2 needs two Monte Carlo sources, got {sources}")
    for key, given in (("compare.times", times or []), ("compare.marginal_times", marginal_times)):
        off = [t for t in given if time_index(on, t) is None]
        if off:
            raise ConfigError(
                f"{key}: {off} not on the grid 0, {every * params.gamma_step:g}, ..., {on[-1]:g}"
                + (f" that simulate retains (retain_every = {every})" if simulate else "")
            )


def _step_rate(model: ModelParams, prior: PriorSpec) -> Optional[float]:
    """h_max = omega_max + delta beta (1 + delta^(-1/2))^2 for a Gaussian family,
    None for exp_family. The Euler step contracts every mode when gamma h_max < 2.

    omega_max is the largest prior precision (lam for gaussian_fixed); a
    mixture's curvature d s/d theta never falls below -omega_max. The second
    term is the upper Marcenko-Pastur edge of beta X^T X. The stepping sources
    share the bound: dmft-linear and dmft run the Euler chain of the d -> infinity
    limit. simulate's finite-d design has its top eigenvalue above the edge by
    O(d^(-2/3)) (Tracy-Widom fluctuations), so a gamma just under 2 / h_max can
    still grow the top mode of a small-d run. An exp_family with a power above 2
    has a curvature unbounded in theta, so no step is stable everywhere
    (Euler-Maruyama can diverge at any gamma; Hutzenthaler, Jentzen & Kloeden
    2011, Proc. R. Soc. A 467:1563). Such a config is not refused: a simulate
    or dmft run that blows up is stopped by the divergence guard both share
    (`model.check_divergence`: the mean square of theta above NORM_GUARD^2
    times the run's own scale^2, the mean squares of theta_star and theta^0).
    """
    if not isinstance(prior.family, GaussianMixture):
        return None
    edge = (1.0 + model.delta**-0.5) ** 2
    return float(np.max(prior.family.omega)) + model.delta * model.beta * edge


def _value_errors(values: dict, sources, model: Optional[ModelParams], prior: Optional[PriorSpec]) -> list[str]:
    """Values that the run would otherwise refuse only deep inside a source."""
    opts, errors = values[""], []
    drawn = [s for s in sources if s in _MONTE_CARLO]
    closed = [s for s in sources if s not in drawn]
    if closed and prior is not None and not isinstance(prior.family, GaussianFixed):
        errors.append(f"prior.family: {closed[0]} requires gaussian_fixed, got {values['prior']['family']!r}")
    if closed and values["theta0"].get("kind", "zero") != "zero":
        errors.append(f"theta0.kind: {closed[0]} assumes theta0 = 0, got {values['theta0']['kind']!r}")
    if drawn and opts.get("seed") is None:
        errors.append(f"seed: required for a {drawn[0]} source (explicit seeds only; no wall-clock seeding)")
    if opts.get("seed") is not None and opts["seed"] * _REPLICAS + opts["replicas"] > 2**64:
        errors.append(f"seed: seed * {_REPLICAS} + replicas - 1 must fit in 64 bits, got seed {opts['seed']}")
    if "oracle" in sources and model is not None and abs(model.beta * model.sigma2 - 1.0) > 1e-12:
        errors.append(f"model.beta: the oracle closed forms require beta = 1/sigma2, got {model.beta:g}")
    stepping = [s for s in sources if s != "oracle"]
    rate = _step_rate(model, prior) if stepping and model is not None and prior is not None else None
    if rate is not None and model.gamma_step * rate >= 2.0:
        errors.append(
            f"model.gamma: {model.gamma_step:g} makes the Euler step of {stepping[0]} unstable: gamma * "
            f"(omega_max + delta beta (1 + delta^-1/2)^2) = {model.gamma_step * rate:.4g} must be < 2, "
            f"so gamma < {2.0 / rate:.6g}"
        )
    per_path = prior is not None and prior.family.theta_curvature_constant(prior.alpha) is None
    if "simulate" in sources and opts["replicas"] < 1:
        errors.append("replicas: must be >= 1 for a simulate source")
    elif "simulate" in sources and opts["replicas"] > _REPLICAS:
        errors.append(
            f"replicas: must be <= {_REPLICAS}: replica r runs at seed * {_REPLICAS} + r, so more "
            "would repeat the replicas of the next seed"
        )
    if "dmft" in sources and opts["n_paths"] < 100:
        errors.append("n_paths: must be >= 100 for a dmft source")
    elif "dmft" in sources and per_path and model is not None:
        if over := dmft._response_budget_error(opts["n_paths"], model.n_steps, opts["response_budget_bytes"]):
            errors.append(f"n_paths: {over}")
    if opts["response_method"] == "probe" and opts["n_probes"] < 2:
        errors.append("n_probes: must be >= 2 in probe mode")
    steps, retain = opts["response_steps"], opts["retain_every"]
    if retain < 1:
        errors.append("retain_every: must be >= 1")
    elif model is not None and "simulate" in sources:
        if model.n_steps % retain:
            errors.append(f"retain_every: {retain} does not divide the {model.n_steps} steps")
        off = [k for k in steps if not 0 <= k <= model.n_steps]
        if off:
            errors.append(f"response_steps: {off} outside 0..{model.n_steps}")
        if steps and per_path and retain != 1:
            errors.append("response_steps: a theta-dependent prior needs retain_every = 1")
        unretained = [k for k in steps if k % retain]
        if unretained:
            errors.append(f"response_steps: {unretained} not multiples of retain_every = {retain}")
    if opts["threads"] < 1:
        errors.append("threads: must be >= 1")
    return errors


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and numbers beyond the float range are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_json(path) -> object:
    """The parsed JSON of a config file; a file that cannot be read or parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None


def load_config(config, out_override=None, seed_override=None, threads_override=None) -> RunConfig:
    """Parse and check a run config (JSON path or dict) and build every object
    the run uses; collects all field errors before reporting."""
    if isinstance(config, (str, os.PathLike)):
        raw = _read_json(config)
    else:
        try:  # defensive copy, JSON-clean
            raw = json.loads(json.dumps(config), parse_float=_finite, parse_constant=_finite)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None
    # Unknown keys are reported alone: one may be a misspelled required key.
    # Then values of the wrong type or range, alone too: every check below reads them.
    errors = _key_errors(raw)
    if not errors:
        values, errors = _values(raw, {"seed": seed_override, "threads": threads_override})
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    opts = values[""]
    pipeline = opts.get("pipeline")

    model = prior = equilibrium_run = None
    if pipeline is None:
        errors.append("pipeline: required")
    elif pipeline != "equilibrium":
        m = values["model"]
        if not m:
            errors.append("model: required section")
        else:
            model = _built(errors, "model", lambda: ModelParams(
                n=m["n"], d=m["d"], sigma2=m["sigma2"], beta=m.get("beta", 1.0 / m["sigma2"]),
                gamma_step=m["gamma"], horizon=m["horizon"],
            ))
        if values["prior"] is None:
            errors.append("prior: required section")
        else:
            prior = _built(errors, "prior", lambda: _build_prior(values["prior"], values["theta0"]))

    if pipeline == "equilibrium":
        ec, gc = values["equilibrium"], values["equilibrium.g"]
        if values["equilibrium.g_star"] is None or "delta" not in ec or "sigma2" not in ec:
            errors.append("equilibrium: the equilibrium pipeline needs g_star, delta and sigma2")
        else:
            g_star = _built(errors, "equilibrium.g_star", lambda: _build_family(values["equilibrium.g_star"]))
            g = g_star if gc is None else _built(errors, "equilibrium.g", lambda: _build_family(gc))
            if g_star and g:
                equilibrium_run = dict(ec, g_star=g_star[0], alpha_star=g_star[1], g=g[0], alpha=g[1])
    sources = values["compare"].get("sources", []) if pipeline == "compare" else [pipeline]
    if not sources:
        errors.append("compare.sources: required for the compare pipeline")
    errors += _value_errors(values, sources, model, prior)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    cfg = RunConfig(
        pipeline=pipeline,
        raw=raw,
        out_dir=Path(out_override or opts["out"]),
        opts=opts,
        compare=dict(values["compare"], tolerances=values["compare.tolerances"]),
        sources=sources,
        model=model,
        prior=prior,
        regularizer=SmoothHinge(**values["regularizer"]) if values["regularizer"] else None,
        equilibrium=equilibrium_run,
    )
    if pipeline == "compare":
        _compare_checks_something(cfg)
    return cfg


@functools.lru_cache(maxsize=1)
def _git_describe() -> str:
    """The checkout's `git describe`, asked once per process: each run's manifest records it."""
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
        "config_hash": config_hash(cfg.raw),
        "pipeline": cfg.pipeline,
        "source": source,
        **{key: cfg.opts.get(key) for key in ("seed", "threads", "replicas", "n_paths")},
        "model": cfg.raw.get("model"),
        "prior": cfg.raw.get("prior"),
        "theta0": cfg.prior.theta0.kind if cfg.prior else None,
        "build": _git_describe(),
        "files": files,
    }
    manifest.update(extra)
    _write_json(cfg.out_dir / "manifest.json", manifest)


def _marginals(table: KernelTable, paths: list, times) -> dict:
    """The theta draws at each of `times` on the table's grid: that time's row
    of every time-major array in `paths`, pooled. Off-grid times are left out."""
    out = {}
    for t in times:
        i = time_index(table.times, t)
        if i is not None:
            out[t] = np.concatenate([p[i] for p in paths])
    return out


def _run_simulate(cfg: RunConfig):
    opts = cfg.opts
    table, paths = simulator.simulate(
        cfg.model, cfg.prior, [opts["seed"] * _REPLICAS + r for r in range(opts["replicas"])],
        retain_every=opts["retain_every"], design=opts["design"], response_steps=opts["response_steps"],
        method=opts["response_method"], n_probes=opts["n_probes"], regularizer=cfg.regularizer,
        threads=opts["threads"],
    )
    return table, _marginals(table, paths, cfg.compare["marginal_times"])


def _run_dmft(cfg: RunConfig):
    opts = cfg.opts
    res = dmft.solve_dmft(
        cfg.model, cfg.prior, n_paths=opts["n_paths"], seed=opts["seed"], regularizer=cfg.regularizer,
        response_budget_bytes=opts["response_budget_bytes"],
    )
    return res.table, _marginals(res.table, [res.paths], cfg.compare["marginal_times"])


# The closed forms model the config's own prior: theta_star of second moment 1 / lam.
def _run_linear(cfg: RunConfig):
    family = cfg.prior.family
    return dmft.linear_gaussian_dmft(cfg.model, family.lam, family.second_moment()), {}


def _run_oracle(cfg: RunConfig):
    params, family = cfg.model, cfg.prior.family
    oracle = mp_oracle.OracleParams(
        lam=family.lam, sigma2=params.sigma2, delta=params.delta, tau_star2=family.second_moment()
    )
    law = mp_oracle.mp_quadrature(params.delta)
    times = cfg.compare.get("times")
    if times is None:
        times = params.gamma_step * np.arange(0, params.n_steps + 1, cfg.opts["retain_every"])
    return mp_oracle.oracle_table(np.asarray(times, dtype=float), oracle, law), {}


# Kernel-table source, by pipeline name -> (table, marginal samples).
_SOURCES = {
    "simulate": _run_simulate,
    "dmft": _run_dmft,
    "dmft-linear": _run_linear,
    "oracle": _run_oracle,
}


def _run_equilibrium(cfg: RunConfig) -> list[str]:
    """Solve the fixed point, and each sweep point when sweep_sigma2 is set;
    writes sweep.csv (for a sweep), then equilibrium.json. Returns the names
    written, in order."""
    ec = cfg.equilibrium
    solve = functools.partial(
        equilibrium.solve_fixed_point, ec["delta"],
        **{key: ec[key] for key in ("g_star", "g", "alpha_star", "alpha", "n_gh")},
    )
    out = solve(ec["sigma2"]).to_dict()
    sweep = ec.get("sweep_sigma2")
    if sweep:
        rows = ["param,omega,omega_star,mse,mse_star,ymse,free_energy"]
        for s2 in sweep:
            so = solve(s2)
            rows.append(
                ",".join(
                    "%.17g" % v
                    for v in (s2, so.omega, so.omega_star, so.mse, so.mse_star, so.ymse, so.free_energy)
                )
            )
        with open(cfg.out_dir / "sweep.csv", "w") as fh:
            fh.write("\n".join(rows) + "\n")
    _write_json(cfg.out_dir / "equilibrium.json", out)
    return ["sweep.csv", "equilibrium.json"] if sweep else ["equilibrium.json"]


def _report(cfg: RunConfig, tables: list, marginal_sets: list) -> dict:
    """The compare report of the two sources' tables and marginal draws."""
    report = compare_tables(tables[0], tables[1], cfg.compare["tolerances"], cfg.compare.get("times"))
    w2_tol = cfg.compare["tolerances"].get("w2")
    for t in cfg.compare["marginal_times"]:
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
    try:
        cfg = load_config(config_path, out, seed, threads)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    extra: dict = {}
    status = 0
    if cfg.pipeline == "equilibrium":
        source, files = "equilibrium", _run_equilibrium(cfg)
    else:
        tables, marginal_sets, files = [], [], []
        for route in cfg.sources:  # each table is written before the next source runs
            table, marginals = _SOURCES[route](cfg)
            source, name = table.source, f"kernels_{table.source}.csv"
            write_table_csv(table, cfg.out_dir / name)
            files.append(name)
            tables.append(table)
            marginal_sets.append(marginals)
        if cfg.pipeline == "compare":
            source = "compare"
            report = _report(cfg, tables, marginal_sets)
            _write_json(cfg.out_dir / "report.json", report)
            files.append("report.json")
            extra["report_passed"] = report["passed"]
            status = 0 if report["passed"] else 1
        elif source == "simulate":
            extra["replica_seed_rule"] = f"seed*{_REPLICAS} + replica"
    _write_manifest(cfg, source, files, extra)
    return status


def load_artifact(out_dir) -> tuple[KernelTable, dict]:
    """Read back the one kernel table of a written run and its manifest; a
    directory with none or several (a compare's two) is refused."""
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    csvs = [f for f in manifest["files"] if f.startswith("kernels_")]
    if not csvs:
        raise FileNotFoundError("artifact contains no kernel CSV")
    if len(csvs) > 1:
        raise ValueError(f"artifact contains {len(csvs)} kernel CSVs, not one: {', '.join(csvs)}")
    return read_table_csv(out_dir / csvs[0]), manifest


def compare_artifacts(dir_a, dir_b, tolerances=None):
    """Compare two on-disk artifacts; refuses mixed model parameters, priors or theta0 laws."""
    ta, ma = load_artifact(dir_a)
    tb, mb = load_artifact(dir_b)
    for key, what in (("model", "model parameters"), ("prior", "priors"), ("theta0", "theta0 laws")):
        if ma.get(key) != mb.get(key):
            raise ConfigError(f"refusing to compare artifacts with different {what}")
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
