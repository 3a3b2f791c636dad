"""Tests of the benchmark itself (kept out of the default test collection).

    python3 -m pytest -q bench/check_bench.py

They show that the output checks reject a perturbed solution or
reconstruction, and that the traced counters are exact and repeat.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fracflux import (  # noqa: E402
    BoundaryFlux,
    BoundaryTrace,
    Constant,
    Edge,
    Grid,
    GridOperator,
    NonlinearProblem,
    PicardConfig,
    StopReason,
    cgm,
    mittag_leffler,
    solver,
)
from fracflux.experiments import PRESETS  # noqa: E402


def test_reference_mittag_leffler_matches_the_series_where_it_holds():
    zs = -np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(checks.mittag_leffler(0.3, zs), mittag_leffler(0.3, zs), rtol=1e-13)
    np.testing.assert_allclose(checks.mittag_leffler(0.5, [-1.0]), [0.42758357615580705], rtol=1e-15)


def _forward_outcome(grid, values, eta, exact):
    example = SimpleNamespace(problem=SimpleNamespace(grid=grid))
    out = (SimpleNamespace(values=values), SimpleNamespace(eta_star=eta))
    (outcome,) = run.Fwd1Full().check(out, example, exact)
    return outcome


def test_forward_check_rejects_perturbed_solution():
    g = Grid.from_spacing(0.05, 0.001)
    exact = checks.fwd1_exact(0.3, g.xs, g.ys, g.ts)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    bump = (np.sin(np.pi * X) * (1.0 - Y))[:, :, None] * g.ts[None, None, :]
    bump /= checks.h1_error(bump, g.hx, g.hy, g.tau)
    ok = _forward_outcome(g, exact + 1.1e-2 * bump, 4, exact)
    assert ok.problems == [] and ok.error == pytest.approx(1.1e-2)
    assert _forward_outcome(g, exact + 5e-2 * bump, 4, exact).problems
    assert _forward_outcome(g, exact + 1.1e-2 * bump, 9, exact).problems


def _inversion_outcome(grid, f1, f2, stop, J_history):
    flux = BoundaryFlux(BoundaryTrace(grid, Edge.GAMMA1, f1), BoundaryTrace(grid, Edge.GAMMA2, f2))
    report = SimpleNamespace(reconstructed=flux, stop_reason=stop, J_history=J_history)
    example = SimpleNamespace(problem=SimpleNamespace(grid=grid), observations=SimpleNamespace(epsilon_bar=1e-7))
    exact = checks.inv1_fluxes(0.3, grid.xs, grid.ys, grid.ts)
    (outcome,) = run.Inv1Cgm().check(report, example, exact)
    return outcome


def test_inversion_check_rejects_perturbed_reconstruction():
    g = Grid.from_spacing(0.1, 0.05)
    f1, f2 = checks.inv1_fluxes(0.3, g.xs, g.ys, g.ts)
    good = _inversion_outcome(g, f1 + 1e-3, f2, StopReason.DISCREPANCY, [1.0, 1e-3, 5e-8])
    assert good.problems == [] and good.error == pytest.approx(1e-3, rel=1e-12)
    assert _inversion_outcome(g, f1, f2 - 0.02, StopReason.DISCREPANCY, [1.0, 5e-8]).problems
    assert _inversion_outcome(g, f1, f2, StopReason.MAX_ITER, [1.0, 5e-8]).problems
    assert _inversion_outcome(g, f1, f2, StopReason.DISCREPANCY, [1.0, 1.0, 5e-8]).problems
    assert _inversion_outcome(g, f1, f2, StopReason.DISCREPANCY, [1.0, 2e-7]).problems


def test_sweep_check_rejects_error_that_falls_as_noise_grows():
    assert checks.sweep_problems([(1.0, 1.0), (1.0, 2.0), (3.0, 2.5)]) == []
    (problem,) = checks.sweep_problems([(1.0, 1.0), (2.0, 2.0), (3.0, 1.5)])
    assert problem[0] == 2


def _linear_inputs(grid):
    m = (grid.nx, grid.ny, grid.nt + 1)
    source = np.ones(m)
    f1 = np.ones((grid.ny, grid.nt + 1))
    f2 = np.ones((grid.nx, grid.nt + 1))
    return source, f1, f2, np.zeros((grid.nx, grid.ny))


def test_traced_counters_exact_on_constant_coefficient():
    grid = Grid(nx=6, ny=5, nt=8)
    source, f1, f2, g0 = _linear_inputs(grid)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span("round"):
            op = GridOperator(grid, 0.3, np.ones((grid.nx, grid.ny, grid.nt + 1)))
            op.march(source, f1, f2, g0)
            op.march(source, f1, f2, g0)
            op.adjoint_gradient(f1, f2)
            other = GridOperator(grid, 0.3, 2.0 * np.ones((grid.nx, grid.ny, grid.nt + 1)))
            other.march(source, f1, f2, g0)
            flux = BoundaryFlux(BoundaryTrace(grid, Edge.GAMMA1, f1), BoundaryTrace(grid, Edge.GAMMA2, f2))
            problem = NonlinearProblem(grid, 0.3, Constant(1.0), source, flux, g0)
            # called through the module, where the tracer puts its wrapper
            solver.solve_nonlinear(problem, PicardConfig(theta_bar=1e-12, fixed_iters=20))
    finally:
        restore()
    m = spans.layer_metrics(tracer.spans, rounds=1)
    assert list(m) == [name for name, _ in spans.LAYER_METRICS]
    # one factorization per GridOperator: two here, one per Picard sweep (two)
    assert m["solver.factorizations"] == 4
    assert m["solver.trisolves"] == 6 * grid.nt
    assert m["solver.march_calls"] == 5
    assert m["solver.adjoint_calls"] == 1
    assert m["solver.nonlinear_solves"] == 1 and m["solver.picard_sweeps"] == 2
    assert m["solver.picard_capped"] == 0 and m["solver.picard_converged_ratio"] == 1.0
    assert m["solver.lu_nnz"] > 0 and m["solver.march_self_s"] > 0
    assert solver.splu.__module__.startswith("scipy")
    assert not hasattr(GridOperator.march, "__wrapped__")


def _traced_inversion():
    grid = Grid(nx=5, ny=5, nt=6)
    example = PRESETS["Inv1"](grid, 0.3)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span("round"):
            cgm.run_cgm(example.problem, example.observations, max_iter=6)
    finally:
        restore()
    return spans.layer_metrics(tracer.spans, rounds=1)


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_inversion(), _traced_inversion()
    counts = [name for name, unit in spans.LAYER_METRICS if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cgm.iterations"] == 6 and first["solver.picard_capped"] > 0
    assert first["solver.factorizations"] > 0 and first["cgm.trial_solves"] >= 6
