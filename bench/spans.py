"""Span tracing of fracflux from outside the package.

A ``Tracer`` keeps every span in memory as ``[name, start, end, parent,
attrs]``; ``install`` replaces the module-level names through which the
layers call each other (and the scipy factorization the solver calls) with
wrappers that open a span around the call.  Nothing inside ``src/`` changes:
the wrappers live here and are removed again by the function ``install``
returns.  ``layer_metrics`` turns the spans into the per-layer figures that
the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` inside a span; ``attrs(args, result)`` annotates a normal return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(args, out)
            return out

        return traced


class _TracedFactor:
    """Stands in for a SuperLU object so that its triangular solves are spans."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("scipy.solve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(tracer: Tracer, splu):
    @functools.wraps(splu)
    def traced(matrix, *args, **kwargs):
        idx = tracer.begin("scipy.splu")
        try:
            lu = splu(matrix, *args, **kwargs)
        finally:
            tracer.end(idx)
        # L and U are copied out on access, so count them in a span of their
        # own that the factorization time leaves out
        with tracer.span("trace.overhead"):
            tracer.spans[idx][4] = {"nnz": lu.L.nnz + lu.U.nnz}
        return _TracedFactor(lu, tracer)

    return traced


def _picard_attrs(args, out):
    cfg = args[1]
    history = out[1].residual_history
    capped = cfg.theta_bar is not None and history[-1] > cfg.theta_bar
    return {"sweeps": len(history), "capped": int(capped)}


def install(tracer: Tracer):
    """Wrap the layer boundaries of the loaded fracflux package; returns an undo."""
    from fracflux import cgm, cli, experiments, solver

    undo: list = []

    def put(owner, key, value):
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def everywhere(name, module, attr, attrs=None):
        # a function imported by name lives on in every importer's namespace
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "fracflux" and getattr(mod, attr, None) is original:
                put(mod, attr, traced)

    def as_called_by(name, caller, attr):
        put(caller, attr, tracer.wrap(name, getattr(caller, attr)))

    everywhere("cli.run", cli, "run")
    for preset in list(experiments.PRESETS):
        put(experiments.PRESETS, preset, tracer.wrap("experiments.build", experiments.PRESETS[preset]))
    as_called_by("experiments.noise", cli, "noisy_observations")
    as_called_by("fracops.mittag_leffler", experiments, "mittag_leffler")
    everywhere("cgm.run_cgm", cgm, "run_cgm", lambda args, out: {"k_star": out.k_star})
    everywhere("solver.solve_nonlinear", solver, "solve_nonlinear", _picard_attrs)
    everywhere("solver.solve_sensitivity", solver, "solve_sensitivity")
    as_called_by("solver.march", solver.GridOperator, "march")
    as_called_by("solver.adjoint_gradient", solver.GridOperator, "adjoint_gradient")
    put(solver, "splu", _traced_splu(tracer, solver.splu))
    as_called_by("materials.kappa_from_iterate", solver, "kappa_from_iterate")
    as_called_by("mesh.spacetime_h1_diff", solver, "spacetime_h1_diff")
    for attr in ("trace_norm", "trace_inner", "restrict_to_edge"):
        as_called_by("mesh.trace", cgm, attr)

    def restore():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore


# name and unit; the order is the order of the report
LAYER_METRICS = [
    ("solver.factorizations", "count"),
    ("solver.factor_s", "s"),
    ("solver.lu_nnz", "count"),
    ("solver.trisolves", "count"),
    ("solver.trisolve_s", "s"),
    ("solver.levels_per_factor", "1"),
    ("solver.march_calls", "count"),
    ("solver.march_s", "s"),
    ("solver.march_self_s", "s"),
    ("solver.adjoint_calls", "count"),
    ("solver.adjoint_s", "s"),
    ("solver.sensitivity_calls", "count"),
    ("solver.sensitivity_s", "s"),
    ("solver.nonlinear_solves", "count"),
    ("solver.picard_sweeps", "count"),
    ("solver.nonlinear_s", "s"),
    ("solver.picard_capped", "count"),
    ("solver.picard_converged_ratio", "1"),
    ("materials.kappa_calls", "count"),
    ("materials.kappa_s", "s"),
    ("mesh.h1_diff_calls", "count"),
    ("mesh.h1_diff_s", "s"),
    ("mesh.trace_s", "s"),
    ("fracops.mittag_leffler_s", "s"),
    ("cgm.iterations", "count"),
    ("cgm.trial_solves", "count"),
    ("cgm.accepted_trial_ratio", "1"),
    ("cgm.sd_retries", "count"),
    ("cgm.self_s", "s"),
    ("experiments.build_s", "s"),
    ("experiments.synth_solves", "count"),
    ("experiments.noise_s", "s"),
    ("cli.self_s", "s"),
]


def _totals(spans: list[list], members: list[int]) -> dict:
    """Counts, times, self times and attribute sums over the given spans."""
    child_time: dict[int, float] = {}
    for i in members:
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    tot: dict = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for i in members:
        name, start, end, parent, attrs = spans[i]
        add(("count", name), 1)
        add(("time", name), end - start)
        add(("self", name), end - start - child_time.get(i, 0.0))
        for key, value in (attrs or {}).items():
            add((key, name), value)
        if parent >= 0:
            add(("parented", name, spans[parent][0]), 1)
    return tot


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures: set-up spans once, plus the timed rounds' spans per round.

    A span belongs to the phase of its outermost ancestor, which the
    benchmark names ``setup`` or ``round``.
    """
    phase = []
    for name, _, _, parent, _ in spans:
        phase.append(phase[parent] if parent >= 0 else name)
    setup = _totals(spans, [i for i, p in enumerate(phase) if p == "setup"])
    loop = _totals(spans, [i for i, p in enumerate(phase) if p == "round"])

    def get(*key):
        return setup.get(key, 0) + loop.get(key, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    factors, trisolves = get("count", "scipy.splu"), get("count", "scipy.solve")
    solves, capped = get("count", "solver.solve_nonlinear"), get("capped", "solver.solve_nonlinear")
    iterations = get("k_star", "cgm.run_cgm")
    trials = get("parented", "solver.solve_nonlinear", "cgm.run_cgm") - get("count", "cgm.run_cgm")
    sensitivities = get("count", "solver.solve_sensitivity")
    return {
        "solver.factorizations": factors,
        "solver.factor_s": get("time", "scipy.splu"),
        "solver.lu_nnz": get("nnz", "scipy.splu"),
        "solver.trisolves": trisolves,
        "solver.trisolve_s": get("time", "scipy.solve"),
        "solver.levels_per_factor": ratio(trisolves, factors),
        "solver.march_calls": get("count", "solver.march"),
        "solver.march_s": get("time", "solver.march"),
        "solver.march_self_s": get("self", "solver.march"),
        "solver.adjoint_calls": get("count", "solver.adjoint_gradient"),
        "solver.adjoint_s": get("time", "solver.adjoint_gradient"),
        "solver.sensitivity_calls": sensitivities,
        "solver.sensitivity_s": get("time", "solver.solve_sensitivity"),
        "solver.nonlinear_solves": solves,
        "solver.picard_sweeps": get("sweeps", "solver.solve_nonlinear"),
        "solver.nonlinear_s": get("time", "solver.solve_nonlinear"),
        "solver.picard_capped": capped,
        "solver.picard_converged_ratio": ratio(solves - capped, solves),
        "materials.kappa_calls": get("count", "materials.kappa_from_iterate"),
        "materials.kappa_s": get("time", "materials.kappa_from_iterate"),
        "mesh.h1_diff_calls": get("count", "mesh.spacetime_h1_diff"),
        "mesh.h1_diff_s": get("time", "mesh.spacetime_h1_diff"),
        "mesh.trace_s": get("time", "mesh.trace"),
        "fracops.mittag_leffler_s": get("time", "fracops.mittag_leffler"),
        "cgm.iterations": iterations,
        "cgm.trial_solves": trials,
        "cgm.accepted_trial_ratio": ratio(iterations, trials),
        "cgm.sd_retries": sensitivities / 2 - iterations,
        "cgm.self_s": get("self", "cgm.run_cgm"),
        "experiments.build_s": get("time", "experiments.build"),
        "experiments.synth_solves": get("parented", "solver.solve_nonlinear", "experiments.build"),
        "experiments.noise_s": get("time", "experiments.noise"),
        "cli.self_s": get("self", "cli.run"),
    }
