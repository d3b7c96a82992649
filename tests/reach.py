"""What the shipped runs reach: the `dmft_lab` functions that no run enters,
the lines of the entered ones that no run executes, and the config values
that no run names.

The runs are the five configs of `configs/` and the runs of the four
benchmark workloads (`benchmark/workloads.py`, read as it is), each made by
`cli.run` (and `cli.compare_artifacts`, where a workload compares two runs)
under `sys.settrace` and `threading.settrace`, for replica threads. The
command line (`cli.main`) is not run. A function counts as entered when one of
its calls starts, and a line as executed when the tracer sees it start in a
`dmft_lab` frame; module and class bodies run at import and are left out. A
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
    """(file, first line, name) -> (module:qualname, its own executable lines)
    of every named function of the package; a nested function's lines are its own."""
    out = {}
    for info in pkgutil.iter_modules(dmft_lab.__path__, "dmft_lab."):
        module = importlib.import_module(info.name)
        stack = [compile(Path(module.__file__).read_text(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):  # no class body
                lines = {line for *_, line in code.co_lines() if line and line != code.co_firstlineno}
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                out[key] = (f"{info.name}:{code.co_qualname}", lines)
    return out


def _spans(lines) -> str:
    """Sorted line numbers as runs: 3-5, 9."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


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
    package = str(Path(dmft_lab.__file__).parent)
    entered, executed = set(), set()

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return trace_lines if code.co_filename.startswith(package) else None

    named = {kind: set() for kind in ("families", "theta0 kinds", "designs", "response methods")}
    with tempfile.TemporaryDirectory() as out:
        for label, runs, compared in _runs():
            where = Path(out) / label
            raws = [dict(raw, out=str(where / run)) for run, raw in runs]
            for raw in raws:
                for kind, values in _named(cli.load_config(raw)).items():
                    named[kind] |= values
            threading.settrace(trace)
            sys.settrace(trace)
            try:
                status = [cli.run(raw) for raw in raws]
                if compared:  # as the workload does, with the first run's tolerances
                    cli.compare_artifacts(*(where / run for run in compared), raws[0]["compare"]["tolerances"])
            finally:
                sys.settrace(None)
                threading.settrace(None)
            print(f"ran {label}: exit {status}", file=sys.stderr)
    print("dmft_lab functions no run enters:")
    for name in sorted(name for key, (name, _) in functions.items() if key not in entered):
        print(f"  {name}")
    print("lines of entered dmft_lab functions no run executes:")
    for key, (name, lines) in sorted(functions.items(), key=lambda item: item[1][0]):
        missed = {line for line in lines if (key[0], line) not in executed}
        if key in entered and missed:
            print(f"  {name}: {_spans(missed)}")
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
