"""Tests for the implicit marching solver, the nonlinear outer iteration,
and the adjoint machinery."""

import math

import numpy as np
import pytest

from fracflux.fracops import caputo_left_apply, l1_weights
from fracflux.materials import Constant, Tabulated
from fracflux.mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    restrict_to_edge,
    spacetime_h1_diff,
    trace_inner,
    trace_norm,
    zero_flux,
)
from fracflux.solver import (
    Direction,
    GridOperator,
    LinearProblemSpec,
    NonlinearProblem,
    PicardConfig,
    SolverError,
    solve_linear,
    solve_nonlinear,
    solve_sensitivity,
)


def _steady_setup(grid, beta=0.4):
    """Exact steady state u = (1-x)(1-y) with unit coefficient."""
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    psi = (1 - X) * (1 - Y)
    kappa = np.ones((grid.nx, grid.ny, grid.nt + 1))
    source = np.zeros_like(kappa)
    f1 = np.tile(-(1 - grid.ys)[:, None], (1, grid.nt + 1))
    f2 = np.tile(-(1 - grid.xs)[:, None], (1, grid.nt + 1))
    flux = BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, f1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, f2),
    )
    return LinearProblemSpec(grid, beta, kappa, source, flux, psi), psi


def test_zero_data_gives_zero_solution():
    g = Grid(nx=6, ny=6, nt=5)
    spec = LinearProblemSpec(
        g,
        0.5,
        np.ones((g.nx, g.ny, g.nt + 1)),
        np.zeros((g.nx, g.ny, g.nt + 1)),
        zero_flux(g),
        np.zeros((g.nx, g.ny)),
    )
    u = solve_linear(spec)
    assert np.all(u.values == 0.0)


def test_steady_bilinear_state_is_exact():
    # the scheme reproduces (1-x)(1-y) to round-off on any grid
    g = Grid(nx=7, ny=5, nt=4)
    spec, psi = _steady_setup(g)
    u = solve_linear(spec)
    for n in range(g.nt + 1):
        assert u.values[:, :, n] == pytest.approx(psi, abs=1e-13)


def test_dirichlet_rows_are_exactly_zero():
    g = Grid(nx=6, ny=7, nt=4)
    rng = np.random.default_rng(5)
    spec = LinearProblemSpec(
        g,
        0.3,
        np.ones((g.nx, g.ny, g.nt + 1)) * 2.0,
        rng.normal(size=(g.nx, g.ny, g.nt + 1)),
        zero_flux(g),
        np.zeros((g.nx, g.ny)),
    )
    u = solve_linear(spec)
    assert np.max(np.abs(u.values[-1, :, :])) == 0.0
    assert np.max(np.abs(u.values[:, -1, :])) == 0.0


def test_manufactured_quadratic_time_convergence():
    # u = t^2 (1-x)(1-y) is spatially exact; error decays ~ tau^(2-beta)
    beta = 0.5
    errs = []
    for nt in (100, 400):
        g = Grid(nx=9, ny=9, nt=nt)
        X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
        psi = (1 - X) * (1 - Y)
        F = 2 * g.ts ** (2 - beta) / math.gamma(3 - beta) * psi[:, :, None]
        flux = BoundaryFlux(
            f1=BoundaryTrace(g, Edge.GAMMA1, -np.outer(1 - g.ys, g.ts**2)),
            f2=BoundaryTrace(g, Edge.GAMMA2, -np.outer(1 - g.xs, g.ts**2)),
        )
        spec = LinearProblemSpec(
            g, beta, np.ones((g.nx, g.ny, g.nt + 1)), F, flux, np.zeros((g.nx, g.ny))
        )
        u = solve_linear(spec)
        errs.append(np.max(np.abs(u.values - psi[:, :, None] * g.ts**2)))
    rate = np.log(errs[0] / errs[1]) / np.log(4.0)
    assert rate > 1.2
    assert errs[1] < 1e-5


def test_linearity_and_scaling_in_the_data():
    g = Grid(nx=6, ny=6, nt=8)
    rng = np.random.default_rng(7)
    kappa = np.full((g.nx, g.ny, g.nt + 1), 1.5)
    F = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    flux = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1))),
        f2=BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1))),
    )
    base = solve_linear(LinearProblemSpec(g, 0.6, kappa, F, flux, np.zeros((g.nx, g.ny))))
    scaled_flux = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, 3.0 * flux.f1.values),
        f2=BoundaryTrace(g, Edge.GAMMA2, 3.0 * flux.f2.values),
    )
    scaled = solve_linear(
        LinearProblemSpec(g, 0.6, kappa, 3.0 * F, scaled_flux, np.zeros((g.nx, g.ny)))
    )
    assert scaled.values == pytest.approx(3.0 * base.values, rel=1e-12, abs=1e-12)


def test_backward_direction_reverses_forward():
    # solving backward with time-reflected data reproduces the reflected
    # forward solution exactly
    g = Grid(nx=6, ny=6, nt=9)
    rng = np.random.default_rng(9)
    kappa = 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1))
    F = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    f1 = rng.normal(size=(g.ny, g.nt + 1))
    f2 = rng.normal(size=(g.nx, g.nt + 1))
    flux = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, f1), f2=BoundaryTrace(g, Edge.GAMMA2, f2)
    )
    fwd = solve_linear(LinearProblemSpec(g, 0.4, kappa, F, flux, np.zeros((g.nx, g.ny))))
    flux_r = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, f1[:, ::-1].copy()),
        f2=BoundaryTrace(g, Edge.GAMMA2, f2[:, ::-1].copy()),
    )
    bwd = solve_linear(
        LinearProblemSpec(
            g,
            0.4,
            kappa[:, :, ::-1].copy(),
            F[:, :, ::-1].copy(),
            flux_r,
            np.zeros((g.nx, g.ny)),
            Direction.BACKWARD,
        )
    )
    assert bwd.values == pytest.approx(fwd.values[:, :, ::-1], rel=1e-13, abs=1e-13)


def test_rejects_nonpositive_coefficient():
    g = Grid(nx=5, ny=5, nt=3)
    kappa = np.ones((g.nx, g.ny, g.nt + 1))
    kappa[2, 2, 1] = 0.0
    with pytest.raises(SolverError):
        GridOperator(g, 0.5, kappa)


def test_rejects_incompatible_initial_data():
    g = Grid(nx=5, ny=5, nt=3)
    bad = np.ones((g.nx, g.ny))  # nonzero on the Dirichlet edges
    spec = LinearProblemSpec(
        g,
        0.5,
        np.ones((g.nx, g.ny, g.nt + 1)),
        np.zeros((g.nx, g.ny, g.nt + 1)),
        zero_flux(g),
        bad,
    )
    with pytest.raises(SolverError):
        solve_linear(spec)


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
    u, report = solve_nonlinear(problem, PicardConfig(theta_bar=1e-12, max_outer=10))
    assert report.eta_star == 1
    assert report.residual_history[-1] <= 1e-12


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
    assert info.value.residual_history is not None


def test_sensitivity_superposition():
    g = Grid(nx=7, ny=7, nt=10)
    rng = np.random.default_rng(4)
    kappa = 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1))
    s1 = BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1)))
    s2 = BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1)))
    both = solve_sensitivity(g, 0.5, kappa, s1=s1, s2=s2)
    only1 = solve_sensitivity(g, 0.5, kappa, s1=s1)
    only2 = solve_sensitivity(g, 0.5, kappa, s2=s2)
    assert both.values == pytest.approx(only1.values + only2.values, rel=1e-12, abs=1e-13)
    doubled = solve_sensitivity(
        g, 0.5, kappa, s1=BoundaryTrace(g, Edge.GAMMA1, 2.0 * s1.values)
    )
    assert doubled.values == pytest.approx(2.0 * only1.values, rel=1e-13, abs=1e-14)


def test_discrete_fractional_summation_by_parts():
    # with zero initial/final values the left operator applied level by level
    # is the exact transpose of the right operator
    beta, tau, nt = 0.37, 0.1, 12
    w = l1_weights(beta, tau, nt)
    rng = np.random.default_rng(12)
    u = rng.normal(size=nt + 1)
    v = rng.normal(size=nt + 1)
    u[0] = 0.0
    v[nt] = 0.0
    lhs = sum(caputo_left_apply(u[: n + 1], w) * v[n] for n in range(1, nt + 1))
    # transpose action: (A^T v)_m = scale (b_0 v^m + sum_q (b_q - b_{q-1}) v^{m+q})
    rhs = 0.0
    for m in range(1, nt + 1):
        acc = w.b[0] * v[m]
        for q in range(1, nt - m + 1):
            acc += (w.b[q] - w.b[q - 1]) * v[m + q]
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
