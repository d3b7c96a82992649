"""Span recording around the calls into dmft-lab's layers, from outside the package.

The program is not edited: `install` replaces each traced function at the
attribute its caller resolves (a module global or a class attribute) with a
wrapper that records a span.  A span is `[name, start, end, parent, nested]`,
where `parent` is the index of the enclosing span (-1 at the top) and `nested`
marks a span inside another span of the same name, so busy time is counted
once.  Spans stay in memory until `write_spans` is called at the end of a run.

Counts that a span cannot give (work sizes, bytes written) are added by hooks
that see the call's bound arguments and its return value.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace `owner.attr` by a span-recording wrapper named `name`."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._active[name] > 0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._active[name] += 1
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, out)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), int(value))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_totals(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.busy_s` and `<span>.self_s` for every span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            if not nested:
                out[f"{name}.busy_s"] += end - start
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "nested"],
                    "spans": self.spans,
                },
                fh,
            )


# ------------------------------------------------------------- count hooks


def _solve_dmft(tracer, a, result):
    P, T = int(a["n_paths"]), a["params"].n_steps
    prior = a["prior"]
    per_path = prior.family.theta_curvature_constant(prior.alpha) is None
    tracer.counts["dmft.corr_row_entries"] += P * (T + 1) * (T + 2) // 2
    tracer.counts["dmft.resp_entries"] += (P if per_path else 1) * T * (T + 1) // 2
    tracer.counts["dmft.resp_tensor_bytes"] += P * (T + 1) * (T + 1) * 4 if per_path else 0
    tracer.counts["dmft.chol_clamped_steps"] += len(result.chol_clamped_steps)
    tracer.counts["dmft.chol_jitter_events"] += len(result.chol_jitter_log)


def _evolve(tracer, a, result):
    tracer.counts["simulator.coord_steps"] += a["params"].n_steps * a["instance"].d


def _solve_fixed_point(tracer, a, result):
    tracer.counts["equilibrium.sweeps"] += len(result.residual_trace)


def _posterior_moments(tracer, a, result):
    # Grid families build a dense (channel outputs x density grid) float64
    # matrix; the closed-form families build none.
    g = a["g"]
    family = getattr(g, "family", g)
    n_grid = getattr(family, "n_grid", 0)
    tracer.peak("equilibrium.posterior_matrix_bytes", getattr(a["y"], "size", 1) * n_grid * 8)


def _write_csv(tracer, a, result):
    tracer.counts["kernels.write_table_csv.bytes"] += os.path.getsize(a["path"])


def _read_csv(tracer, a, result):
    tracer.counts["kernels.read_table_csv.bytes"] += os.path.getsize(a["path"])


_HOOKS = {
    "dmft.solve_dmft": _solve_dmft,
    "simulator.evolve": _evolve,
    "equilibrium.solve_fixed_point": _solve_fixed_point,
    "equilibrium.posterior_moments": _posterior_moments,
}


def _public_functions(module):
    return [
        attr
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_")
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the cli pipelines cross."""
    from dmft_lab import cli, dmft, equilibrium, mp_oracle, priors, simulator

    # cli imports these by name, so its own globals are what it calls.
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "compare_artifacts", "cli.compare_artifacts")
    tracer.wrap(cli, "sample_instance", "model.sample_instance")
    tracer.wrap(cli, "write_table_csv", "kernels.write_table_csv", _write_csv)
    tracer.wrap(cli, "read_table_csv", "kernels.read_table_csv", _read_csv)
    tracer.wrap(cli, "compare_tables", "kernels.compare_tables")
    for module in (simulator, dmft, mp_oracle, equilibrium):
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in _public_functions(module):
            name = f"{short}.{attr}"
            tracer.wrap(module, attr, name, _HOOKS.get(name))
    tracer.wrap(dmft, "gradient_map_G", "priors.gradient_map_G")
    tracer.wrap(simulator, "gradient_map_G", "priors.gradient_map_G")
    tracer.wrap(dmft.EtaSide, "add_step", "dmft.EtaSide.add_step")
    tracer.wrap(dmft.CholeskyExtender, "extend", "dmft.CholeskyExtender.extend")
    families = [c for c in vars(priors).values() if isinstance(c, type) and issubclass(c, priors.PriorFamily)]
    for cls in families:
        for attr in ("drift_s", "dtheta_drift_s"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, f"priors.{attr}")
