"""What the shipped runs reach: the `dmft_lab` functions that no run enters,
and the config values that no run names.

The runs are the five configs of `configs/` and the runs of the four
benchmark workloads (`benchmark/workloads.py`, read as it is), each made by
`cli.run` (and `cli.compare_artifacts`, where a workload compares two runs)
under `sys.setprofile` and `threading.setprofile`, for replica threads. The
command line (`cli.main`) is not run. A function counts as entered when one of its calls starts; a
config value counts as named when the run's checked config uses it: the prior
families of `prior` and of `equilibrium.g_star`/`g`, the theta0 kind of a
run with a prior, the design of a run with a simulate source and the response
method of one that also has `response_steps`.

    PYTHONPATH=src python tests/reach.py

It takes about ten seconds on two cores and writes its artifacts to a temporary
directory. Not a test: pytest collects only `test_*.py`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import tempfile
import threading
import types
from pathlib import Path

import dmft_lab
from dmft_lab import cli, model, priors, simulator

ROOT = Path(__file__).resolve().parent.parent


def _runs() -> list[tuple[str, list, tuple]]:
    """(label, [(run label, raw config)], the run labels whose artifacts
    `cli.compare_artifacts` compares or ()) of every config and workload."""
    out = [(p.stem, [("", json.loads(p.read_text()))], ()) for p in sorted((ROOT / "configs").glob("*.json"))]
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    return out + [(name, w.runs(ROOT), w.compare_artifacts or ()) for name, w in workloads.WORKLOADS.items()]


def _functions() -> dict:
    """(file, first line, name) -> module:qualname of every named function of the package."""
    out = {}
    for info in pkgutil.iter_modules(dmft_lab.__path__, "dmft_lab."):
        module = importlib.import_module(info.name)
        stack = [compile(Path(module.__file__).read_text(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):  # no class body
                out[(code.co_filename, code.co_firstlineno, code.co_name)] = f"{info.name}:{code.co_qualname}"
    return out


def _named(cfg: cli.RunConfig) -> dict:
    """The config values of the checked run, by kind."""
    family_names = {build: name for name, (_, build) in cli._FAMILIES.items()}
    families = [cfg.prior.family] if cfg.prior else []
    if cfg.equilibrium:
        families += [cfg.equilibrium["g_star"], cfg.equilibrium["g"]]
    simulate = "simulate" in cfg.sources
    return {
        "families": {family_names.get(type(f), type(f).__name__) for f in families},
        "theta0 kinds": {cfg.prior.theta0.kind} if cfg.prior else set(),
        "designs": {cfg.opts["design"]} if simulate else set(),
        "response methods": {cfg.opts["response_method"]} if simulate and cfg.opts["response_steps"] else set(),
    }


def main() -> int:
    functions = _functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    named = {kind: set() for kind in ("families", "theta0 kinds", "designs", "response methods")}
    with tempfile.TemporaryDirectory() as out:
        for label, runs, compared in _runs():
            where = Path(out) / label
            raws = [dict(raw, out=str(where / run)) for run, raw in runs]
            for raw in raws:
                for kind, values in _named(cli.load_config(raw)).items():
                    named[kind] |= values
            sys.setprofile(profile)
            threading.setprofile(profile)
            try:
                status = [cli.run(raw) for raw in raws]
                if compared:  # as the workload does, with the first run's tolerances
                    cli.compare_artifacts(*(where / run for run in compared), raws[0]["compare"]["tolerances"])
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"ran {label}: exit {status}", file=sys.stderr)
    print("dmft_lab functions no run enters:")
    for name in sorted(name for key, name in functions.items() if key not in entered):
        print(f"  {name}")
    known = {
        "families": set(cli._FAMILIES),
        "theta0 kinds": set(priors._THETA0_KINDS),
        "designs": set(model.DESIGNS),
        "response methods": set(simulator.RESPONSE_METHODS),
    }
    print("config values no run names:")
    for kind, values in known.items():
        print(f"  {kind}: {', '.join(sorted(values - named[kind])) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
