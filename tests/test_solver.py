"""Tests for the implicit marching solver, the nonlinear outer iteration,
and the adjoint machinery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from fracflux import solver
from fracflux.cgm import INNER_PICARD
from fracflux.fracops import _BLOCK, l1_weights
from fracflux.materials import Constant, Rational
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
    # the second config is the inversion's: a tolerance and a sweep budget
    for cfg in (PicardConfig(theta_bar=1e-12, fixed_iters=10), INNER_PICARD):
        u, report = solve_nonlinear(problem, cfg)
        assert report.eta_star == 1
        assert report.residual_history[-1] <= 1e-12
        assert report.converged is True


def test_assembly_matches_a_dense_five_point_operator():
    # two levels of a random coefficient on a non-square grid, against the
    # finite-volume operator built cell by cell with harmonic-mean faces
    g = Grid(nx=7, ny=5, nt=3)
    beta = 0.6
    kappa = 0.5 + np.random.default_rng(11).random((g.nx, g.ny, g.nt + 1))
    op = GridOperator(g, beta, kappa)
    mx, my = g.nx - 1, g.ny - 1
    scale = l1_weights(beta, g.tau, g.nt).scale

    def dense(K):
        A = np.zeros((mx * my, mx * my))
        for i in range(mx):
            for j in range(my):
                p = i * my + j
                wx = g.hx * (0.5 if i == 0 else 1.0)
                wy = g.hy * (0.5 if j == 0 else 1.0)
                A[p, p] += scale * wx * wy
                # the face towards (i+1, j) and the face towards (i, j+1)
                for di, dj, length, h in ((1, 0, wy, g.hx), (0, 1, wx, g.hy)):
                    a, b = K[i, j], K[i + di, j + dj]
                    c = 2.0 * a * b / (a + b) * length / h
                    A[p, p] += c
                    if i + di < mx and j + dj < my:  # else a Dirichlet node
                        q = (i + di) * my + j + dj
                        A[q, q] += c
                        A[p, q] -= c
                        A[q, p] -= c
        return A

    A1, D1 = op._assemble(1), dense(kappa[:, :, 1])
    np.testing.assert_allclose(A1.toarray(), D1, rtol=1e-13, atol=0.0)
    lu = splu(A1, permc_spec="NATURAL")
    np.testing.assert_allclose(op._assemble(3).toarray(), dense(kappa[:, :, 3]), rtol=1e-13, atol=0.0)
    # level 3 refilled the operator's one matrix; level 1's factor still solves level 1
    b = np.random.default_rng(12).normal(size=mx * my)
    x = np.linalg.solve(D1, b)
    assert np.max(np.abs(lu.solve(b) - x)) <= 1e-13 * np.max(np.abs(x))


def test_non_finite_level_is_named_without_a_warning():
    # the second case's bad source lies past the first block, whose right-hand
    # sides the march forms inside its level loop
    for nt, level in ((6, 3), (40, 35)):
        g = Grid(nx=6, ny=6, nt=nt)
        op = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
        src = np.zeros((g.nx, g.ny, g.nt + 1))
        src[2, 2, level] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=f"non-finite solution at level {level}$"):
                op.march(src, *_zero_fluxes(g), np.zeros((g.nx, g.ny)))
    assert (level - 1) // _BLOCK > 0


def _whole_stack_march(op, source, f1, f2, g):
    """The march with every right-hand side formed up front and the levels kept
    as (nt+1, m) rows, transposed into the output at the end; factors every level."""
    w, nt, mx, my = op.w, op.grid.nt, op.mx, op.my
    base = op.vol * np.moveaxis(source[:mx, :my, 1:], 2, 0).reshape(nt, mx * my)
    base[:, op.P[0, :]] -= (f1[:my, 1:] * op.dyc[:, None]).T
    base[:, op.P[:, 0]] -= (f2[:mx, 1:] * op.dxc[:, None]).T
    rows = np.empty((nt + 1, mx * my))
    rows[0] = g[:mx, :my].ravel()
    diffs = np.zeros((nt, mx * my))
    for n0, n1 in w.blocks():
        block = -(op.svol * w.far_history(diffs, n0, n1)) + base[n0:n1]
        for n in range(n0 + 1, n1 + 1):
            rhs = block[n - n0 - 1] + op.svol * (rows[n - 1] - w.near_history(diffs, n0, n))
            rows[n] = op._factor(n).solve(rhs)
            diffs[n - 1] = rows[n] - rows[n - 1]
    out = np.zeros_like(source)
    out[:mx, :my, :] = rows.reshape(nt + 1, mx, my).transpose(1, 2, 0)
    out[:, :, 0] = g
    return out


@pytest.mark.parametrize("nt", [1, _BLOCK - 1, 2 * _BLOCK + 5])
@pytest.mark.parametrize("one_coefficient", [True, False])
def test_march_is_the_whole_stack_recursion_bit_for_bit(one_coefficient, nt):
    # the march forms each block's right-hand sides when it reaches the block and
    # writes the levels straight into its output; the reference does neither
    g = Grid(nx=7, ny=6, nt=nt)
    rng = np.random.default_rng(nt)
    if one_coefficient:
        kappa = _one_coefficient_kappa(g, seed=nt)
    else:  # every level far past the drift limit, so every level is factored
        kappa = 0.5 + rng.random((g.nx, g.ny, g.nt + 1))
    source = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    f1, f2 = rng.normal(size=(g.ny, g.nt + 1)), rng.normal(size=(g.nx, g.nt + 1))
    u0 = np.zeros((g.nx, g.ny))
    u0[:-1, :-1] = rng.normal(size=(g.nx - 1, g.ny - 1))
    op = GridOperator(g, 0.4, kappa)
    u = op.march(source, f1, f2, u0)
    assert op.cg_levels == 0
    assert np.array_equal(u, _whole_stack_march(GridOperator(g, 0.4, kappa), source, f1, f2, u0))


def test_factors_are_built_once_per_level_and_kept_only_by_the_adjoint(monkeypatch):
    # march factors each distinct level and keeps nothing; the adjoint caches
    # its factors, and the sensitivity marches after it reuse every one
    g = Grid(nx=6, ny=5, nt=7)
    rng = np.random.default_rng(6)
    op = GridOperator(g, 0.5, 1.0 + rng.random(size=(g.nx, g.ny, g.nt + 1)))
    factored = []
    monkeypatch.setattr(solver, "splu", lambda a, **kw: factored.append(1) or splu(a, **kw))
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
    monkeypatch.setattr(solver, "splu", lambda a, **kw: factored.append(1) or splu(a, **kw))
    f1, f2 = _zero_fluxes(g)
    source = np.ones((g.nx, g.ny, g.nt + 1))
    first = op.march(source, f1, f2, np.zeros((g.nx, g.ny)))
    assert np.array_equal(op.march(source, f1, f2, np.zeros((g.nx, g.ny))), first)
    op.adjoint_gradient(f1, f2)
    assert len(factored) == 1


def _drifting_kappa(g, rate, seed):
    # every level moves every node by a relative step of at most ``rate``
    rng = np.random.default_rng(seed)
    steps = 1.0 + rate * rng.uniform(-1.0, 1.0, size=(g.nx, g.ny, g.nt + 1))
    return (0.5 + rng.random((g.nx, g.ny)))[:, :, None] * np.cumprod(steps, axis=2)


def _counting_splu(monkeypatch):
    factored = []
    monkeypatch.setattr(solver, "splu", lambda a, **kw: factored.append(1) or splu(a, **kw))
    return factored


def test_slowly_drifting_levels_are_solved_by_cg_on_the_held_factor(monkeypatch):
    # per-level changes of at most 4e-4 stay under the drift limit for several
    # levels, which CG then solves to the accuracy of a factor per level; the
    # adjoint still factors every level, and the sensitivity marches after it
    # solve directly on those factors
    g = Grid(nx=8, ny=7, nt=40)
    kappa = _drifting_kappa(g, 4e-4, seed=3)
    rng = np.random.default_rng(9)
    source = rng.normal(size=(g.nx, g.ny, g.nt + 1))
    f1, f2 = rng.normal(size=(g.ny, g.nt + 1)), rng.normal(size=(g.nx, g.nt + 1))
    g0 = np.zeros((g.nx, g.ny))
    factored = _counting_splu(monkeypatch)
    with monkeypatch.context() as direct:
        direct.setattr(solver, "_LOG_DRIFT", 0.0)  # the gate closed: every level is factored
        ref = GridOperator(g, 0.4, kappa).march(source, f1, f2, g0)
    assert len(factored) == g.nt
    factored.clear()
    op = GridOperator(g, 0.4, kappa)
    u = op.march(source, f1, f2, g0)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
    marched = len(factored)
    assert op.factorizations == marched < g.nt // 4
    assert op.cg_levels == g.nt - marched
    op.adjoint_gradient(f1, f2)
    solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, f1))
    assert op.factorizations == len(factored) == marched + g.nt
    assert op.cg_levels == g.nt - marched


def test_a_level_that_drifted_past_the_limit_is_factored(monkeypatch):
    g = Grid(nx=6, ny=6, nt=12)
    kappa = _drifting_kappa(g, 1e-4, seed=5)
    kappa[:, :, 6:] *= 1.0 + 2.0 * solver._DRIFT
    op = GridOperator(g, 0.5, kappa)
    factored = []
    factor = op._factor
    monkeypatch.setattr(op, "_factor", lambda n: factored.append(n) or factor(n))
    op.march(np.ones((g.nx, g.ny, g.nt + 1)), *_zero_fluxes(g), np.zeros((g.nx, g.ny)))
    assert factored == [1, 6]
    assert op.cg_levels == g.nt - 2


def test_level_is_factored_when_cg_does_not_converge(monkeypatch):
    # unreachable at the derived iteration cap (see solver._CG_MAXITER); with
    # no iterations allowed, every gated level falls back to its own factor
    # and the march is the direct one, bit for bit
    g = Grid(nx=7, ny=6, nt=15)
    kappa = _drifting_kappa(g, 2e-4, seed=8)
    source = np.random.default_rng(1).normal(size=(g.nx, g.ny, g.nt + 1))
    args = (source, *_zero_fluxes(g), np.zeros((g.nx, g.ny)))
    with monkeypatch.context() as direct:
        direct.setattr(solver, "_LOG_DRIFT", 0.0)
        ref = GridOperator(g, 0.5, kappa).march(*args)
    monkeypatch.setattr(solver, "_CG_MAXITER", 0)
    op = GridOperator(g, 0.5, kappa)
    assert np.array_equal(op.march(*args), ref)
    assert op.factorizations == g.nt and op.cg_levels == 0


def test_solve_report_sums_factors_and_cg_levels_over_sweeps(monkeypatch):
    g = Grid(nx=9, ny=9, nt=50)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=Rational(),
        source=np.repeat(2.0 * np.sin(np.pi * X * Y)[:, :, None], g.nt + 1, axis=2),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    factored = _counting_splu(monkeypatch)
    _, report = solve_nonlinear(problem, PicardConfig(fixed_iters=4))
    assert report.factorizations == len(factored)
    assert report.cg_levels > 0
    constant = dataclasses.replace(problem, model=Constant(1.0))
    _, report = solve_nonlinear(constant, PicardConfig(fixed_iters=2))
    assert (report.factorizations, report.cg_levels) == (2, 0)


def test_nonlinear_rational_model_converges():
    g = Grid(nx=9, ny=9, nt=20)
    model = Rational()
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=model,
        source=np.repeat(np.sin(np.pi * X * Y)[:, :, None], g.nt + 1, axis=2),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    u, report = solve_nonlinear(problem, PicardConfig(theta_bar=1e-10, fixed_iters=50))
    assert report.residual_history[-1] <= 1e-10
    assert report.converged is True
    assert report.kappa.shape == (g.nx, g.ny, g.nt + 1)


def test_nonlinear_reports_failure_when_tolerance_unreachable():
    g = Grid(nx=7, ny=7, nt=10)
    model = Rational()
    problem = NonlinearProblem(
        grid=g,
        beta=0.5,
        model=model,
        source=np.ones((g.nx, g.ny, g.nt + 1)),
        flux=zero_flux(g),
        g=np.zeros((g.nx, g.ny)),
    )
    # the budget ends the solve without raising; the report says it fell short
    _, report = solve_nonlinear(problem, PicardConfig(theta_bar=1e-16, fixed_iters=4))
    assert report.converged is False
    assert len(report.residual_history) == 4
    assert report.eta_star == 4
    assert report.residual_history[-1] > 1e-16
    # a sweep budget below one would return the zero iterate unreported; an
    # infinite tolerance would report the first sweep as converged, and a nan
    # one would run every sweep and report it unconverged; a sweep budget that
    # is not an integer fails only inside solve_nonlinear, with a TypeError
    for bad in (
        {"fixed_iters": 0},
        {"fixed_iters": -2},
        {"fixed_iters": 2.5},
        {"fixed_iters": 3.0},
        {"fixed_iters": np.nan},
        {"fixed_iters": None},
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
    doubled = solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, 2.0 * s1.values))
    assert [t.edge for t in both] == [Edge.GAMMA1, Edge.GAMMA2]
    for t, t1, t2, t11 in zip(both, only1, only2, doubled):
        assert t.values == pytest.approx(t1.values + t2.values, rel=1e-12, abs=1e-13)
        assert t11.values == pytest.approx(2.0 * t1.values, rel=1e-13, abs=1e-14)


def test_sensitivity_rejects_a_trace_on_the_wrong_edge_or_grid():
    # on a square grid a Gamma2 trace has the shape of a Gamma1 trace
    g = Grid(nx=5, ny=5, nt=4)
    op = GridOperator(g, 0.5, np.ones((g.nx, g.ny, g.nt + 1)))
    values = np.ones((g.ny, g.nt + 1))
    other = Grid(nx=5, ny=5, nt=4, t_final=2.0)
    for kwargs in (
        {"s1": BoundaryTrace(g, Edge.GAMMA2, values)},
        {"s2": BoundaryTrace(g, Edge.GAMMA1, values)},
        {"s1": BoundaryTrace(other, Edge.GAMMA1, values)},
        {"s2": BoundaryTrace(other, Edge.GAMMA2, values)},
    ):
        with pytest.raises(ValueError, match="trace on the operator's grid"):
            solve_sensitivity(op, **kwargs)


def test_discrete_fractional_summation_by_parts():
    # with zero initial/final values the left operator applied level by level
    # is the exact transpose of the right operator, and the far block plus the
    # near part of the transposed memory sum is the memory part of that
    # transpose at every level, across two block boundaries
    beta, tau, nt = 0.37, 0.1, 2 * _BLOCK + 5
    w = l1_weights(beta, tau, nt)
    rng = np.random.default_rng(12)
    u = rng.normal(size=nt + 1)
    v = rng.normal(size=nt + 1)
    u[0] = 0.0
    v[nt] = 0.0
    lhs = sum(caputo(u[: n + 1], w) * v[n] for n in range(1, nt + 1))
    # transpose action: (A^T v)_m = scale (b_0 v^m + sum_q (b_q - b_{q-1}) v^{m+q})
    rhs = 0.0
    for n0, n1 in w.blocks():
        far = w.far_history_transpose(v, n0, n1)
        for m in range(n0 + 1, n1 + 1):
            acc = w.b[0] * v[m]
            for q in range(1, nt - m + 1):
                acc += (w.b[q] - w.b[q - 1]) * v[m + q]
            memory = far[m - n0 - 1] + w.near_history_transpose(v, m, n1)
            assert w.scale * (v[m] - memory) == pytest.approx(w.scale * acc, rel=1e-13)
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
    nt=st.integers(2, 12),
    beta=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
# nt past two block boundaries of the memory sums
@example(nx=4, ny=5, nt=2 * _BLOCK + 7, beta=0.3, seed=3)
@example(nx=5, ny=3, nt=3 * _BLOCK, beta=0.8, seed=11)
def test_grid_operator_duality_on_a_drifting_coefficient(nx, ny, nt, beta, seed):
    # the march solves most levels by CG on a held factor, the adjoint factors
    # every level; the two still agree to the duality tolerance
    g = Grid(nx=nx, ny=ny, nt=nt)
    rng = np.random.default_rng(seed)
    op = GridOperator(g, beta, _drifting_kappa(g, 1e-3, seed))
    d1, r1 = rng.normal(size=(2, ny, nt + 1))
    d2, r2 = rng.normal(size=(2, nx, nt + 1))
    u = Field(g, op.march(np.zeros((nx, ny, nt + 1)), d1, d2, np.zeros((nx, ny))))
    assert op.cg_levels > 0
    G1, G2 = op.adjoint_gradient(r1, r2)
    lhs = trace_inner(BoundaryTrace(g, Edge.GAMMA1, r1), restrict_to_edge(u, Edge.GAMMA1)) + trace_inner(
        BoundaryTrace(g, Edge.GAMMA2, r2), restrict_to_edge(u, Edge.GAMMA2)
    )
    rhs = trace_inner(BoundaryTrace(g, Edge.GAMMA1, G1), BoundaryTrace(g, Edge.GAMMA1, d1)) + trace_inner(
        BoundaryTrace(g, Edge.GAMMA2, G2), BoundaryTrace(g, Edge.GAMMA2, d2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0)


@given(
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    nt=st.integers(1, 8),
    beta=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    one_coefficient=st.booleans(),
)
@settings(max_examples=60, deadline=None)
# nt past two block boundaries of the memory sums
@example(nx=4, ny=5, nt=2 * _BLOCK + 7, beta=0.3, seed=3, one_coefficient=False)
@example(nx=5, ny=3, nt=3 * _BLOCK, beta=0.8, seed=11, one_coefficient=False)
# levels 1..nt share one coefficient: the adjoint runs on the trace kernel
@example(nx=4, ny=5, nt=2 * _BLOCK + 7, beta=0.3, seed=3, one_coefficient=True)
def test_grid_operator_duality(nx, ny, nt, beta, seed, one_coefficient):
    # sum_i <r_i, trace_i(march(0, d1, d2, 0))> = sum_i <adjoint_gradient(r)_i, d_i>
    # for a positive coefficient that varies between levels, some repeated,
    # or that levels 1..nt share
    g = Grid(nx=nx, ny=ny, nt=nt)
    rng = np.random.default_rng(seed)
    kappa = 0.5 + 2.0 * rng.random(size=(nx, ny, nt + 1))
    for n in 1 + np.flatnonzero(rng.random(nt) < 0.3):
        kappa[:, :, n] = kappa[:, :, n - 1]
    if one_coefficient:
        kappa[:, :, 2:] = kappa[:, :, 1:2]
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


def _one_coefficient_kappa(g, seed):
    # varies in space, shared by levels 1..nt; level 0 differs and is never solved for
    rng = np.random.default_rng(seed)
    kappa = np.repeat((0.5 + 2.0 * rng.random((g.nx, g.ny)))[:, :, None], g.nt + 1, axis=2)
    kappa[:, :, 0] = 1.0
    return kappa


def test_trace_kernel_matches_the_recursion():
    # past three block boundaries of the memory sums; the public march and
    # restrict_to_edge stay the recursion that the kernel path must reproduce
    g = Grid(nx=7, ny=6, nt=3 * _BLOCK + 5)
    kappa = _one_coefficient_kappa(g, seed=13)
    rng = np.random.default_rng(14)
    d = (rng.normal(size=(g.ny, g.nt + 1)), rng.normal(size=(g.nx, g.nt + 1)))
    r = (rng.normal(size=(g.ny, g.nt + 1)), rng.normal(size=(g.nx, g.nt + 1)))
    op = GridOperator(g, 0.35, kappa)
    assert op._invariant
    traces = solve_sensitivity(op, BoundaryTrace(g, Edge.GAMMA1, d[0]), BoundaryTrace(g, Edge.GAMMA2, d[1]))
    u = Field(g, GridOperator(g, 0.35, kappa).march(np.zeros((g.nx, g.ny, g.nt + 1)), *d, np.zeros((g.nx, g.ny))))
    marched = [restrict_to_edge(u, e).values for e in Edge]
    for t, ref in zip(traces, marched):
        assert np.max(np.abs(t.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    # sum_i <r_i, trace_i(march(0, d1, d2, 0))> = sum_i <adjoint_gradient(r)_i, d_i>
    G = op.adjoint_gradient(*r)
    lhs = sum(trace_inner(BoundaryTrace(g, e, x), BoundaryTrace(g, e, y)) for e, x, y in zip(Edge, r, marched))
    rhs = sum(trace_inner(BoundaryTrace(g, e, x), BoundaryTrace(g, e, y)) for e, x, y in zip(Edge, G, d))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _counting_factors(monkeypatch):
    """Counts of splu calls and of triangular solves on the factors they return."""
    counts = {"splu": 0, "solve": 0}

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            counts["solve"] += 1
            return self._lu.solve(rhs)

    def counting(a, **kw):
        counts["splu"] += 1
        return Counted(splu(a, **kw))

    monkeypatch.setattr(solver, "splu", counting)
    return counts


@pytest.mark.parametrize("first", ["adjoint", "sensitivity"])
def test_trace_kernel_is_built_once(monkeypatch, first):
    # the first adjoint or sensitivity call factors once and solves each level
    # once for all edge impulses; later calls only take FFT products
    g = Grid(nx=6, ny=5, nt=40)
    op = GridOperator(g, 0.5, _one_coefficient_kappa(g, seed=2))
    rng = np.random.default_rng(3)
    r1, r2 = rng.normal(size=(g.ny, g.nt + 1)), rng.normal(size=(g.nx, g.nt + 1))
    s1, s2 = BoundaryTrace(g, Edge.GAMMA1, r1), BoundaryTrace(g, Edge.GAMMA2, r2)
    counts = _counting_factors(monkeypatch)
    if first == "adjoint":
        op.adjoint_gradient(r1, r2)
    else:
        solve_sensitivity(op, s1=s1)
    assert counts == {"splu": 1, "solve": g.nt}
    for _ in range(2):
        op.adjoint_gradient(r1, r2)
        solve_sensitivity(op, s1=s1)
        solve_sensitivity(op, s2=s2)
    assert counts == {"splu": 1, "solve": g.nt}


@pytest.mark.parametrize("width, passes", [(4, 3), (1, 11)])
def test_trace_kernel_in_column_groups_matches_one_pass(monkeypatch, width, passes):
    # a cap on the increments that one pass holds splits the 11 edge impulses
    # into groups of at most ``width`` columns, all on the operator's one factor
    g = Grid(nx=7, ny=6, nt=2 * _BLOCK + 3)
    kappa = _one_coefficient_kappa(g, seed=5)
    one = GridOperator(g, 0.35, kappa)._trace_kernel()
    grouped = GridOperator(g, 0.35, kappa)
    monkeypatch.setattr(solver, "_KERNEL_BYTES", 8 * g.nt * (g.nx - 1) * (g.ny - 1) * width + 7)
    counts = _counting_factors(monkeypatch)
    K = grouped._trace_kernel()
    assert counts == {"splu": 1, "solve": passes * g.nt}
    assert np.max(np.abs(K - one)) <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("one_coefficient", [True, False])
def test_non_finite_residuals_and_fluxes_are_rejected(one_coefficient):
    # a nan residual used to give nan gradient entries without an error, and on
    # the kernel path an FFT would spread a nan flux over every level
    g = Grid(nx=6, ny=5, nt=8)
    kappa = _one_coefficient_kappa(g, seed=4) if one_coefficient else _drifting_kappa(g, 0.1, seed=4)
    op = GridOperator(g, 0.5, kappa)
    assert op._invariant is one_coefficient
    f1, f2 = np.ones((g.ny, g.nt + 1)), np.ones((g.nx, g.nt + 1))
    for bad in (np.nan, np.inf):
        b1, b2 = f1.copy(), f2.copy()
        b1[2, 3] = b2[1, 5] = bad
        with pytest.raises(SolverError, match="r1 must be finite"):
            op.adjoint_gradient(b1, f2)
        with pytest.raises(SolverError, match="r2 must be finite"):
            op.adjoint_gradient(f1, b2)
        with pytest.raises(SolverError, match="s1 must be finite"):
            solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, b1))
        with pytest.raises(SolverError, match="s2 must be finite"):
            solve_sensitivity(op, s2=BoundaryTrace(g, Edge.GAMMA2, b2))
