"""Tests for the implicit marching solver, the nonlinear outer iteration,
and the adjoint machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from fracflux import solver
from fracflux.cgm import INNER_PICARD
from fracflux.fracops import l1_weights
from fracflux.materials import Constant, Tabulated
from fracflux.mesh import (
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    restrict_to_edge,
    trace_inner,
    trace_norm,
    zero_flux,
)
from fracflux.solver import (
    GridOperator,
    NonlinearProblem,
    PicardConfig,
    SolverError,
    solve_nonlinear,
    solve_sensitivity,
)
from l1_caputo import caputo


def _zero_fluxes(grid):
    return np.zeros((grid.ny, grid.nt + 1)), np.zeros((grid.nx, grid.nt + 1))


def test_zero_data_gives_zero_solution():
    g = Grid(nx=6, ny=6, nt=5)
    op = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
    u = op.march(np.zeros((g.nx, g.ny, g.nt + 1)), *_zero_fluxes(g), np.zeros((g.nx, g.ny)))
    assert np.all(u == 0.0)


def test_steady_bilinear_state_is_exact():
    # the scheme reproduces (1-x)(1-y) with unit coefficient to round-off on any grid
    g = Grid(nx=7, ny=5, nt=4)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    psi = (1 - X) * (1 - Y)
    f1 = np.tile(-(1 - g.ys)[:, None], (1, g.nt + 1))
    f2 = np.tile(-(1 - g.xs)[:, None], (1, g.nt + 1))
    op = GridOperator(g, 0.4, np.ones((g.nx, g.ny, g.nt + 1)))
    u = op.march(np.zeros((g.nx, g.ny, g.nt + 1)), f1, f2, psi)
    for n in range(g.nt + 1):
        assert u[:, :, n] == pytest.approx(psi, abs=1e-13)


def test_dirichlet_rows_are_exactly_zero():
    g = Grid(nx=6, ny=7, nt=4)
    rng = np.random.default_rng(5)
    op = GridOperator(g, 0.3, np.ones((g.nx, g.ny, g.nt + 1)) * 2.0)
    u = op.march(rng.normal(size=(g.nx, g.ny, g.nt + 1)), *_zero_fluxes(g), np.zeros((g.nx, g.ny)))
    assert np.max(np.abs(u[-1, :, :])) == 0.0
    assert np.max(np.abs(u[:, -1, :])) == 0.0


def test_manufactured_quadratic_time_convergence():
    # u = t^2 (1-x)(1-y) is spatially exact; error decays ~ tau^(2-beta)
    beta = 0.5
    errs = []
    for nt in (100, 400):
        g = Grid(nx=9, ny=9, nt=nt)
        X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
        psi = (1 - X) * (1 - Y)
        F = 2 * g.ts ** (2 - beta) / math.gamma(3 - beta) * psi[:, :, None]
        f1 = -np.outer(1 - g.ys, g.ts**2)
        f2 = -np.outer(1 - g.xs, g.ts**2)
        op = GridOperator(g, beta, np.ones((g.nx, g.ny, g.nt + 1)))
        u = op.march(F, f1, f2, np.zeros((g.nx, g.ny)))
        errs.append(np.max(np.abs(u - psi[:, :, None] * g.ts**2)))
    rate = np.log(errs[0] / errs[1]) / np.log(4.0)
    assert rate > 1.2
    assert errs[1] < 1e-5


def test_linearity_and_scaling_in_the_data():
    g = Grid(nx=6, ny=6, nt=8)
    rng = np.random.default_rng(7)
    op = GridOperator(g, 0.6, np.full((g.nx, g.ny, g.nt + 1), 1.5))
    F = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    f1 = rng.normal(size=(g.ny, g.nt + 1))
    f2 = rng.normal(size=(g.nx, g.nt + 1))
    g0 = np.zeros((g.nx, g.ny))
    base = op.march(F, f1, f2, g0)
    scaled = op.march(3.0 * F, 3.0 * f1, 3.0 * f2, g0)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12, abs=1e-12)


def test_rejects_nonpositive_coefficient():
    g = Grid(nx=5, ny=5, nt=3)
    kappa = np.ones((g.nx, g.ny, g.nt + 1))
    kappa[2, 2, 1] = 0.0
    with pytest.raises(SolverError):
        GridOperator(g, 0.5, kappa)


def test_rejects_incompatible_initial_data():
    g = Grid(nx=6, ny=5, nt=3)
    bad = np.ones((g.nx, g.ny))  # nonzero on the Dirichlet edges
    op = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
    src, zero = np.zeros((g.nx, g.ny, g.nt + 1)), np.zeros((g.nx, g.ny))
    f1, f2 = _zero_fluxes(g)
    with pytest.raises(SolverError):
        op.march(src, f1, f2, bad)
    # non-finite data must raise on a Dirichlet edge too, where nan > 0 is false
    for node in ((g.nx - 1, 2), (2, 2)):
        nan = np.zeros((g.nx, g.ny))
        nan[node] = np.nan
        with pytest.raises(SolverError):
            op.march(src, f1, f2, nan)
    # oversized or swapped inputs must not be truncated to the grid
    for call in (
        lambda: op.march(np.zeros((9, 9, 13)), f1, f2, zero),
        lambda: op.march(src, np.zeros((9, 12)), f2, zero),
        lambda: op.march(src, f1, np.zeros((9, 12)), zero),
        lambda: op.march(src, f2, f1, zero),
        lambda: op.adjoint_gradient(np.zeros((20, 50)), f2),
        lambda: op.adjoint_gradient(f1, np.zeros((20, 50))),
    ):
        with pytest.raises(SolverError):
            call()


def test_nonlinear_constant_model_converges_immediately():
    g = Grid(nx=9, ny=9, nt=20)
    rng = np.random.default_rng(2)
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=Constant(1.0),
        source=rng.normal(size=(g.nx, g.ny, g.nt + 1)),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    # the second config is the inversion's: a tolerance and a sweep cap
    for cfg in (PicardConfig(theta_bar=1e-12, max_outer=10), INNER_PICARD):
        u, report = solve_nonlinear(problem, cfg)
        assert report.eta_star == 1
        assert report.residual_history[-1] <= 1e-12
        assert report.converged is True


def test_non_finite_level_is_named_without_a_warning():
    g = Grid(nx=6, ny=6, nt=6)
    op = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
    src = np.zeros((g.nx, g.ny, g.nt + 1))
    src[2, 2, 3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite solution at level 3$"):
            op.march(src, *_zero_fluxes(g), np.zeros((g.nx, g.ny)))


def test_factors_are_built_once_per_level_and_kept_only_by_the_adjoint(monkeypatch):
    # march factors each distinct level and keeps nothing; the adjoint caches
    # its factors, and the sensitivity marches after it reuse every one
    g = Grid(nx=6, ny=5, nt=7)
    rng = np.random.default_rng(6)
    op = GridOperator(g, 0.5, 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1)))
    factored = []
    monkeypatch.setattr(solver, "splu", lambda a: factored.append(1) or splu(a))
    f1, f2 = _zero_fluxes(g)
    source = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    op.march(source, f1, f2, np.zeros((g.nx, g.ny)))
    assert len(factored) == g.nt
    op.march(source, f1, f2, np.zeros((g.nx, g.ny)))
    assert len(factored) == 2 * g.nt
    op.adjoint_gradient(rng.normal(size=f1.shape), rng.normal(size=f2.shape))
    assert len(factored) == 3 * g.nt
    solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=f1.shape)))
    solve_sensitivity(op, s2=BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=f2.shape)))
    assert len(factored) == 3 * g.nt


def test_constant_coefficient_march_keeps_its_one_factor(monkeypatch):
    # level 0 may differ: it is never solved for
    g = Grid(nx=6, ny=5, nt=7)
    kappa = np.full((g.nx, g.ny, g.nt + 1), 1.3)
    kappa[:, :, 0] = 2.0
    op = GridOperator(g, 0.5, kappa)
    factored = []
    monkeypatch.setattr(solver, "splu", lambda a: factored.append(1) or splu(a))
    f1, f2 = _zero_fluxes(g)
    source = np.ones((g.nx, g.ny, g.nt + 1))
    first = op.march(source, f1, f2, np.zeros((g.nx, g.ny)))
    assert np.array_equal(op.march(source, f1, f2, np.zeros((g.nx, g.ny))), first)
    op.adjoint_gradient(f1, f2)
    assert len(factored) == 1


def test_nonlinear_tabulated_model_converges():
    g = Grid(nx=9, ny=9, nt=20)
    model = Tabulated.from_function(lambda s: 1.0 / (1.0 + s), 10.0)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=model,
        source=np.repeat(np.sin(np.pi * X * Y)[:, :, None], g.nt + 1, axis=2),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    u, report = solve_nonlinear(problem, PicardConfig(theta_bar=1e-10, max_outer=50))
    assert report.residual_history[-1] <= 1e-10
    assert report.converged is True
    assert report.kappa.shape == (g.nx, g.ny, g.nt + 1)


def test_nonlinear_reports_failure_when_tolerance_unreachable():
    g = Grid(nx=7, ny=7, nt=10)
    model = Tabulated.from_function(lambda s: 1.0 / (1.0 + s), 10.0)
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=model,
        source=np.ones((g.nx, g.ny, g.nt + 1)),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    with pytest.raises(SolverError) as info:
        solve_nonlinear(problem, PicardConfig(theta_bar=1e-16, max_outer=4))
    history = info.value.residual_history
    assert len(history) == 4
    assert str(info.value).endswith(f"in 4 sweeps; last increment {history[-1]:.1e}")
    # a sweep budget below one would return the zero iterate unreported; an
    # infinite tolerance would report the first sweep as converged, and a nan
    # one would run every sweep and then fail
    for bad in (
        {"fixed_iters": 0},
        {"fixed_iters": -2},
        {"max_outer": 0},
        {"theta_bar": np.inf},
        {"theta_bar": np.nan},
    ):
        with pytest.raises(ValueError):
            PicardConfig(**{"theta_bar": 1e-4, **bad})


def test_sensitivity_superposition():
    g = Grid(nx=7, ny=7, nt=10)
    rng = np.random.default_rng(4)
    kappa = 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1))
    s1 = BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1)))
    s2 = BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1)))
    op = GridOperator(g, 0.5, kappa)
    both = solve_sensitivity(op, s1=s1, s2=s2)
    only1 = solve_sensitivity(op, s1=s1)
    only2 = solve_sensitivity(op, s2=s2)
    assert both.values == pytest.approx(only1.values + only2.values, rel=1e-12, abs=1e-13)
    doubled = solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, 2.0 * s1.values))
    assert doubled.values == pytest.approx(2.0 * only1.values, rel=1e-13, abs=1e-14)


def test_discrete_fractional_summation_by_parts():
    # with zero initial/final values the left operator applied level by level
    # is the exact transpose of the right operator, and history_transpose is
    # the memory part of that transpose at every level
    beta, tau, nt = 0.37, 0.1, 12
    w = l1_weights(beta, tau, nt)
    rng = np.random.default_rng(12)
    u = rng.normal(size=nt + 1)
    v = rng.normal(size=nt + 1)
    u[0] = 0.0
    v[nt] = 0.0
    lhs = sum(caputo(u[: n + 1], w) * v[n] for n in range(1, nt + 1))
    # transpose action: (A^T v)_m = scale (b_0 v^m + sum_q (b_q - b_{q-1}) v^{m+q})
    rhs = 0.0
    for m in range(1, nt + 1):
        acc = w.b[0] * v[m]
        for q in range(1, nt - m + 1):
            acc += (w.b[q] - w.b[q - 1]) * v[m + q]
        assert w.scale * (v[m] - w.history_transpose(v, m)) == pytest.approx(w.scale * acc, rel=1e-13)
        rhs += u[m] * w.scale * acc
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_adjoint_gradient_matches_finite_differences():
    g = Grid(nx=7, ny=7, nt=12)
    beta = 0.45
    rng = np.random.default_rng(21)
    kappa = np.ones((g.nx, g.ny, g.nt + 1)) * 1.3
    op = GridOperator(g, beta, kappa)
    src = rng.normal(size=(g.nx, g.ny, g.nt + 1)) * 0.2
    h1 = rng.normal(size=(g.ny, g.nt + 1)) * 0.1
    h2 = rng.normal(size=(g.nx, g.nt + 1)) * 0.1

    def cost(f1, f2):
        vals = op.march(src, f1, f2, np.zeros((g.nx, g.ny)))
        fl = Field(g, vals)
        d1 = restrict_to_edge(fl, Edge.GAMMA1).values - h1
        d2 = restrict_to_edge(fl, Edge.GAMMA2).values - h2
        return 0.5 * (
            trace_norm(BoundaryTrace(g, Edge.GAMMA1, d1)) ** 2
            + trace_norm(BoundaryTrace(g, Edge.GAMMA2, d2)) ** 2
        )

    f1 = rng.normal(size=(g.ny, g.nt + 1))
    f2 = rng.normal(size=(g.nx, g.nt + 1))
    vals = op.march(src, f1, f2, np.zeros((g.nx, g.ny)))
    fl = Field(g, vals)
    r1 = restrict_to_edge(fl, Edge.GAMMA1).values - h1
    r2 = restrict_to_edge(fl, Edge.GAMMA2).values - h2
    G1, G2 = op.adjoint_gradient(r1, r2)
    eps = 1e-6
    for _ in range(3):
        d1 = rng.normal(size=f1.shape)
        d2 = rng.normal(size=f2.shape)
        fd = (cost(f1 + eps * d1, f2 + eps * d2) - cost(f1 - eps * d1, f2 - eps * d2)) / (2 * eps)
        pred = trace_inner(
            BoundaryTrace(g, Edge.GAMMA1, G1), BoundaryTrace(g, Edge.GAMMA1, d1)
        ) + trace_inner(BoundaryTrace(g, Edge.GAMMA2, G2), BoundaryTrace(g, Edge.GAMMA2, d2))
        assert fd == pytest.approx(pred, rel=1e-6)


def test_lu_sharing_between_identical_levels():
    g = Grid(nx=6, ny=6, nt=6)
    op_const = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
    assert int(op_const._group[-1]) == 0
    rng = np.random.default_rng(8)
    op_vary = GridOperator(g, 0.5, 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1)))
    assert int(op_vary._group[-1]) == g.nt


@given(
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    nt=st.integers(1, 8),
    beta=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_operator_duality(nx, ny, nt, beta, seed):
    # sum_i <r_i, trace_i(march(0, d1, d2, 0))> = sum_i <adjoint_gradient(r)_i, d_i>
    # for a positive coefficient that varies between levels, some repeated
    g = Grid(nx=nx, ny=ny, nt=nt)
    rng = np.random.default_rng(seed)
    kappa = 0.5 + 2.0 * rng.random(size=(nx, ny, nt + 1))
    for n in 1 + np.flatnonzero(rng.random(nt) < 0.3):
        kappa[:, :, n] = kappa[:, :, n - 1]
    op = GridOperator(g, beta, kappa)
    d1, r1 = rng.normal(size=(2, ny, nt + 1))
    d2, r2 = rng.normal(size=(2, nx, nt + 1))
    u = Field(g, op.march(np.zeros((nx, ny, nt + 1)), d1, d2, np.zeros((nx, ny))))
    G1, G2 = op.adjoint_gradient(r1, r2)
    lhs = trace_inner(BoundaryTrace(g, Edge.GAMMA1, r1), restrict_to_edge(u, Edge.GAMMA1)) + trace_inner(
        BoundaryTrace(g, Edge.GAMMA2, r2), restrict_to_edge(u, Edge.GAMMA2)
    )
    rhs = trace_inner(BoundaryTrace(g, Edge.GAMMA1, G1), BoundaryTrace(g, Edge.GAMMA1, d1)) + trace_inner(
        BoundaryTrace(g, Edge.GAMMA2, G2), BoundaryTrace(g, Edge.GAMMA2, d2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0)
