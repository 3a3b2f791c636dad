"""Tests for the cost/gradient pair, step-size algebra, and the CGM driver."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fracflux import cgm, solver
from fracflux.cgm import (
    INNER_PICARD,
    RESTART_EVERY,
    Observations,
    StopReason,
    cost,
    flux_error,
    gradient,
    run_cgm,
    step_sizes,
)
from fracflux.experiments import PRESETS, NoiseSpec, noisy_observations
from fracflux.materials import Constant
from fracflux.mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Grid,
    restrict_to_edge,
    trace_inner,
    trace_norm,
    zero_flux,
)
from fracflux.solver import GridOperator, NonlinearProblem, solve_nonlinear, solve_sensitivity


@pytest.fixture(scope="module")
def setup():
    """A small constant-coefficient identification problem with exact data."""
    g = Grid(nx=9, ny=9, nt=20)
    beta = 0.5
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    src = np.repeat(np.sin(2 * np.pi * X * Y)[:, :, None], g.nt + 1, axis=2)
    tf = np.exp(-g.ts) * (g.ts - g.ts**2)
    fex = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, np.outer(np.sin(3 * np.pi * g.ys), tf)),
        f2=BoundaryTrace(g, Edge.GAMMA2, np.outer(np.sin(2 * np.pi * g.xs), tf)),
    )
    problem = NonlinearProblem(g, beta, Constant(1.0), src, zero_flux(g), np.zeros((g.nx, g.ny)))
    u, _ = solve_nonlinear(replace(problem, flux=fex), INNER_PICARD)
    obs = Observations(
        h1=restrict_to_edge(u, Edge.GAMMA1),
        h2=restrict_to_edge(u, Edge.GAMMA2),
        epsilon_bar=1.25e-7,
    )
    return problem, obs, fex


def test_cost_at_exact_flux_is_tiny(setup):
    problem, obs, fex = setup
    assert cost(replace(problem, flux=fex), obs) <= 1e-20


def test_cost_positive_away_from_solution(setup):
    problem, obs, _ = setup
    J = cost(problem, obs)
    assert J > obs.epsilon_bar


def test_cost_is_quadratic_in_the_residual(setup):
    # with a constant coefficient the map flux -> trace is affine, so
    # doubling the distance from the minimizer quadruples the cost
    problem, obs, fex = setup
    g = problem.grid
    d = zero_flux(g)
    step1 = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, fex.f1.values + 1.0),
        f2=fex.f2,
    )
    step2 = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, fex.f1.values + 2.0),
        f2=fex.f2,
    )
    J1 = cost(replace(problem, flux=step1), obs)
    J2 = cost(replace(problem, flux=step2), obs)
    assert J2 == pytest.approx(4.0 * J1, rel=1e-9)


def test_gradient_vanishes_at_exact_flux(setup):
    problem, obs, fex = setup
    g1, g2 = gradient(replace(problem, flux=fex), obs)
    assert trace_norm(g1) <= 1e-10
    assert trace_norm(g2) <= 1e-10


def test_gradient_matches_finite_differences(setup):
    problem, obs, _ = setup
    g = problem.grid
    rng = np.random.default_rng(17)
    f = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1))),
        f2=BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1))),
    )
    g1, g2 = gradient(replace(problem, flux=f), obs)
    eps = 1e-6
    for _ in range(3):
        d1 = rng.normal(size=f.f1.values.shape)
        d2 = rng.normal(size=f.f2.values.shape)
        fp = BoundaryFlux(
            f1=BoundaryTrace(g, Edge.GAMMA1, f.f1.values + eps * d1),
            f2=BoundaryTrace(g, Edge.GAMMA2, f.f2.values + eps * d2),
        )
        fm = BoundaryFlux(
            f1=BoundaryTrace(g, Edge.GAMMA1, f.f1.values - eps * d1),
            f2=BoundaryTrace(g, Edge.GAMMA2, f.f2.values - eps * d2),
        )
        fd = (cost(replace(problem, flux=fp), obs) - cost(replace(problem, flux=fm), obs)) / (2 * eps)
        pred = trace_inner(g1, BoundaryTrace(g, Edge.GAMMA1, d1)) + trace_inner(
            g2, BoundaryTrace(g, Edge.GAMMA2, d2)
        )
        assert fd == pytest.approx(pred, rel=1e-6)


def test_step_sizes_decoupled_when_one_direction_is_zero(setup):
    problem, obs, _ = setup
    g = problem.grid
    rng = np.random.default_rng(23)
    kappa = np.ones((g.nx, g.ny, g.nt + 1))
    S1 = BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1)))
    S2 = BoundaryTrace(g, Edge.GAMMA2, np.zeros((g.nx, g.nt + 1)))
    op = GridOperator(g, problem.beta, kappa)
    a = solve_sensitivity(op, s1=S1)
    b = solve_sensitivity(op, s2=S2)
    r1 = rng.normal(size=(g.ny, g.nt + 1))
    r2 = rng.normal(size=(g.nx, g.nt + 1))
    z1, z2 = step_sizes(a, b, r1, r2)
    # with the second block empty the system degenerates to -R3/R1
    r = [BoundaryTrace(g, Edge.GAMMA1, r1), BoundaryTrace(g, Edge.GAMMA2, r2)]
    R1 = sum(trace_inner(x, x) for x in a)
    R3 = sum(trace_inner(x, y) for x, y in zip(a, r))
    assert z1 == pytest.approx(-R3 / R1, rel=1e-12)
    assert z2 == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_step_sizes_solve_the_normal_equations(setup, scale):
    # z minimizes |z1 a + z2 b + r|^2 over both edges at any scale of the data,
    # so a well-posed system with R1 R4 < 1 must not take the decoupled steps
    problem, _, _ = setup
    g = problem.grid
    rng = np.random.default_rng(29)
    op = GridOperator(g, problem.beta, np.ones((g.nx, g.ny, g.nt + 1)))
    sens1 = solve_sensitivity(op, s1=BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1))))
    sens2 = solve_sensitivity(op, s2=BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1))))
    a = [BoundaryTrace(g, t.edge, scale * t.values) for t in sens1]
    b = [BoundaryTrace(g, t.edge, scale * t.values) for t in sens2]
    r1 = scale * rng.normal(size=(g.ny, g.nt + 1))
    r2 = scale * rng.normal(size=(g.nx, g.nt + 1))
    z1, z2 = step_sizes(a, b, r1, r2)
    r = [BoundaryTrace(g, Edge.GAMMA1, r1), BoundaryTrace(g, Edge.GAMMA2, r2)]

    def inner(x, y):
        return sum(trace_inner(p, q) for p, q in zip(x, y))

    for u in (a, b):
        terms = (z1 * inner(u, a), z2 * inner(u, b), inner(u, r))
        assert abs(sum(terms)) <= 1e-10 * max(abs(t) for t in terms)


def test_step_optimality_condition(setup):
    # after the exact step the new gradient is orthogonal to the direction
    problem, obs, _ = setup
    g = problem.grid
    rep = run_cgm(problem, obs, max_iter=3)
    rec = rep.records[1]
    assert rec.J < rep.records[0].J
    # orthogonality is enforced implicitly by the closed-form steps: the cost
    # is minimized along the searched plane, so a repeat of the same direction
    # cannot decrease it further by more than round-off
    assert rep.J_history[2] < rep.J_history[1] < rep.J_history[0]


def test_run_cgm_from_exact_flux_stops_immediately(setup):
    problem, obs, fex = setup
    rep = run_cgm(replace(problem, flux=fex), obs, max_iter=10)
    assert rep.stop_reason is StopReason.DISCREPANCY
    assert rep.k_star == 0


def test_run_cgm_converges_and_is_monotone(setup):
    problem, obs, fex = setup
    rep = run_cgm(problem, obs, max_iter=200, exact_flux=fex)
    assert rep.stop_reason is StopReason.DISCREPANCY
    Js = rep.J_history
    assert all(Js[i + 1] < Js[i] for i in range(len(Js) - 1))
    e1, e2 = flux_error(rep.reconstructed, fex)
    assert e1 < 0.05 and e2 < 0.05


def test_run_cgm_max_iter_report(setup):
    problem, obs, _ = setup
    rep = run_cgm(problem, obs, max_iter=2)
    assert rep.stop_reason is StopReason.MAX_ITER
    assert rep.k_star == 2
    assert len(rep.J_history) == 3


@pytest.mark.parametrize("bad", [2.5, -1, np.nan, "3"])
def test_run_cgm_rejects_a_max_iter_that_is_not_a_non_negative_integer(setup, bad):
    # 2.5 ran three iterations, -1 stopped at once with MaxIter and nan ran uncapped
    problem, obs, _ = setup
    with pytest.raises(ValueError, match="max_iter"):
        run_cgm(problem, obs, max_iter=bad)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 4])
def test_run_cgm_final_cost_is_the_true_misfit(setup, max_iter):
    # constant k takes its trial steps from the sensitivity traces without a
    # forward solve; the cost they give must still be the misfit of the iterate
    problem, obs, _ = setup
    rep = run_cgm(problem, obs, max_iter=max_iter)
    assert rep.k_star == max_iter
    J = cost(replace(problem, flux=rep.reconstructed), obs)
    assert rep.J_history[-1] == pytest.approx(J, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("preset, unconverged", [("Inv2", False), ("Inv1", True)])
def test_run_cgm_counts_forward_solves_and_unconverged_ones(monkeypatch, preset, unconverged):
    # constant k converges at the second sweep and evaluates its trial steps
    # without a forward solve; Inv1's k = 1/(1+s) spends the sweep budget
    example = PRESETS[preset](Grid.from_spacing(0.25, 0.25), 0.5)
    calls, reports = [], []

    def counting(problem, cfg):
        calls.append(1)  # a diverging trial raises and returns no report
        u, rep = solve_nonlinear(problem, cfg)
        reports.append(rep)
        return u, rep

    monkeypatch.setattr(cgm, "solve_nonlinear", counting)
    rep = run_cgm(example.problem, example.observations, max_iter=2)
    if unconverged:
        assert rep.forward_solves == len(calls) >= rep.k_star + 1
    else:
        assert rep.forward_solves == len(calls) == 1
        assert rep.trial_steps >= rep.k_star > 0
    assert rep.unconverged_solves == sum(not r.converged for r in reports)
    assert (rep.unconverged_solves > 0) is unconverged


def test_constant_k_run_cgm_factors_one_operator_once(monkeypatch):
    # the first forward solve factors once per Picard sweep (two on constant
    # k); every later adjoint and sensitivity march reuses the one factor of
    # the operator that solve leaves behind, however many iterations run
    example = PRESETS["Inv2"](Grid.from_spacing(0.25, 0.25), 0.5)
    factorizations, splu = [], solver.splu

    def counting(A, **kwargs):
        factorizations.append(1)
        return splu(A, **kwargs)

    monkeypatch.setattr(solver, "splu", counting)
    rep = run_cgm(example.problem, example.observations, max_iter=3)
    assert rep.k_star >= 2
    assert len(factorizations) == 2 + 1


def _same_run(a, b) -> bool:
    return (
        a.J_history == b.J_history
        and a.records == b.records
        and np.array_equal(a.reconstructed.f1.values, b.reconstructed.f1.values)
        and np.array_equal(a.reconstructed.f2.values, b.reconstructed.f2.values)
    )


def _mutate(problem, name):
    """Change one interior entry of the problem's source, a flux or the initial data in place."""
    arrays = {"source": problem.source, "f1": problem.flux.f1.values, "f2": problem.flux.f2.values, "g": problem.g}
    arrays[name][(1, 1, 2)[: arrays[name].ndim]] += 0.25


def _copy(problem):
    """A distinct problem whose data equal the problem's now."""
    g = problem.grid
    flux = BoundaryFlux(*(BoundaryTrace(g, f.edge, f.values.copy()) for f in (problem.flux.f1, problem.flux.f2)))
    return NonlinearProblem(g, problem.beta, problem.model, problem.source.copy(), flux, problem.g.copy())


@pytest.mark.parametrize("name", ["source", "f1", "f2", "g"])
def test_constant_k_runs_on_one_problem_share_its_f0_state(monkeypatch, name):
    # the noise levels of a table sweep invert one problem object: after the
    # first run, a run on it solves nothing and factors nothing, and gives what
    # a run that solves for itself gives; a change to the problem's data in
    # place, or a distinct problem with equal data, is solved again
    example = PRESETS["Inv2"](Grid.from_spacing(0.25, 0.25), 0.5)
    problem, clean = example.problem, example.observations
    noisy = noisy_observations(clean, NoiseSpec(gamma=0.01, seed=3))
    solved, factorizations, splu = [], [], solver.splu

    def counting(problem, cfg):
        solved.append(problem)
        return solve_nonlinear(problem, cfg)

    monkeypatch.setattr(cgm, "solve_nonlinear", counting)
    monkeypatch.setattr(solver, "splu", lambda A, **kw: factorizations.append(1) or splu(A, **kw))
    first = run_cgm(problem, clean, max_iter=3)
    assert (len(solved), len(factorizations), first.forward_solves) == (1, 2 + 1, 1)
    before = _copy(problem)
    shared = run_cgm(problem, noisy, max_iter=3)
    assert (len(solved), len(factorizations), shared.forward_solves, shared.unconverged_solves) == (1, 3, 0, 0)
    assert shared.k_star >= 1

    _mutate(problem, name)
    mutated = run_cgm(problem, noisy, max_iter=3)
    assert len(solved) == 2 and solved[-1] is problem and mutated.forward_solves == 1
    assert not _same_run(mutated, shared)
    after = _copy(problem)
    assert _same_run(mutated, run_cgm(after, noisy, max_iter=3))
    assert len(solved) == 3 and solved[-1] is after
    assert _same_run(shared, run_cgm(before, noisy, max_iter=3))
    assert len(solved) == 4 and solved[-1] is before


def test_shared_f0_state_goes_with_its_problem():
    example = PRESETS["Inv2"](Grid.from_spacing(0.25, 0.25), 0.5)
    run_cgm(example.problem, example.observations, max_iter=1)
    problem, op = weakref.ref(example.problem), weakref.ref(cgm._shared[2])
    del example
    gc.collect()
    assert problem() is None and op() is None and cgm._shared is None


def test_nonlinear_runs_never_share_the_f0_state(monkeypatch):
    # max_iter = 0: the f0 solve is the run's last, so nothing replaces a state it might leave
    example = PRESETS["Inv1"](Grid.from_spacing(0.25, 0.25), 0.5)
    problem = example.problem
    solved = []

    def counting(problem, cfg):
        solved.append(problem)
        return solve_nonlinear(problem, cfg)

    monkeypatch.setattr(cgm, "solve_nonlinear", counting)
    reports = [run_cgm(problem, example.observations, max_iter=0) for _ in range(2)]
    assert [r.forward_solves for r in reports] == [1, 1]
    assert len(solved) == 2 and all(p is problem for p in solved)
    assert cgm._shared is None or cgm._shared[0]() is not problem


def test_run_cgm_counts_trial_steps_and_steepest_descent_retries(monkeypatch):
    # every trial on Inv1 is a forward solve; each iteration marches two
    # sensitivities, and each steepest-descent retry two more
    example = PRESETS["Inv1"](Grid.from_spacing(0.25, 0.25), 0.5)
    sensitivities = []

    def counting(op, s1=None, s2=None):
        sensitivities.append(1)
        return solve_sensitivity(op, s1=s1, s2=s2)

    monkeypatch.setattr(cgm, "solve_sensitivity", counting)
    rep = run_cgm(example.problem, example.observations, max_iter=12)
    assert rep.stop_reason is StopReason.MAX_ITER
    assert rep.trial_steps == rep.forward_solves - 1
    assert rep.sd_retries == len(sensitivities) / 2 - rep.k_star
    assert rep.sd_retries > 0


def test_run_cgm_records(setup):
    problem, obs, _ = setup
    rep = run_cgm(problem, obs, max_iter=6)
    recs = rep.records
    assert [r.k for r in recs] == list(range(6))
    assert [r.J for r in recs] == rep.J_history[:-1]
    # without an exact flux the error fields stay 0.0
    assert all((r.err1, r.err2) == (0.0, 0.0) for r in recs)
    # the public gradient is the one the loop takes its first step from
    g1, g2 = gradient(problem, obs)
    assert (trace_norm(g1), trace_norm(g2)) == (recs[0].grad_norm1, recs[0].grad_norm2)
    # Fletcher-Reeves: vartheta_i = (|g_i^k| / |g_i^(k-1)|)^2, or 0 on a restart
    # or a steepest-descent retry
    assert (recs[0].vartheta1, recs[0].vartheta2) == (0.0, 0.0)
    for prev, rec in zip(recs, recs[1:]):
        theta = (rec.vartheta1, rec.vartheta2)
        if rec.k % RESTART_EVERY == 0 or theta == (0.0, 0.0):
            assert theta == (0.0, 0.0)
            continue
        for now, before, vartheta in (
            (rec.grad_norm1, prev.grad_norm1, rec.vartheta1),
            (rec.grad_norm2, prev.grad_norm2, rec.vartheta2),
        ):
            assert vartheta == pytest.approx((now / before) ** 2, rel=1e-12, abs=0.0)


def _longer(grid):
    """Same node counts over twice the time span, so a different grid."""
    return Grid(grid.nx, grid.ny, grid.nt, t_final=2.0 * grid.t_final)


def _obs_on(grid, obs):
    h1 = BoundaryTrace(grid, Edge.GAMMA1, obs.h1.values)
    h2 = BoundaryTrace(grid, Edge.GAMMA2, obs.h2.values)
    return Observations(h1=h1, h2=h2, epsilon_bar=obs.epsilon_bar)


@pytest.mark.parametrize(
    "build",
    [
        # march slices its inputs to the grid, so a too-large source must be caught up front
        pytest.param(
            lambda p, o: NonlinearProblem(
                Grid(6, 6, 5), 0.5, p.model, np.zeros((9, 9, 13)), zero_flux(Grid(6, 6, 5)), np.zeros((6, 6))
            ),
            id="source-larger-than-grid",
        ),
        pytest.param(
            lambda p, o: replace(p, source=p.source[:, :, :-1]), id="source-missing-a-level"
        ),
        pytest.param(
            lambda p, o: replace(p, flux=zero_flux(Grid(9, 9, 12, t_final=3.0))), id="flux-on-other-grid"
        ),
        pytest.param(
            lambda p, o: Observations(h1=o.h2, h2=o.h1, epsilon_bar=o.epsilon_bar), id="obs-swapped-edges"
        ),
        pytest.param(
            lambda p, o: Observations(h1=o.h1, h2=_obs_on(_longer(p.grid), o).h2, epsilon_bar=o.epsilon_bar),
            id="obs-on-two-grids",
        ),
        pytest.param(
            lambda p, o: cost(p, _obs_on(_longer(p.grid), o)), id="obs-on-other-grid"
        ),
    ],
)
def test_inputs_on_mismatched_grids_are_rejected(setup, build):
    problem, obs, _ = setup
    with pytest.raises(ValueError):
        build(problem, obs)


@pytest.mark.parametrize("epsilon_bar", [0.0, np.nan, np.inf])
def test_observations_reject_bad_epsilon_bar(setup, epsilon_bar):
    # nan would never stop run_cgm by the discrepancy principle, inf would stop it at once
    _, obs, _ = setup
    with pytest.raises(ValueError):
        Observations(h1=obs.h1, h2=obs.h2, epsilon_bar=epsilon_bar)


@pytest.mark.parametrize("name, bad", [("h1", np.nan), ("h2", np.inf)])
def test_observations_reject_non_finite_traces(setup, name, bad):
    # a nan in h1 used to surface as a SolverError from the first sensitivity
    # march, and a constant-k run would take it without any error
    _, obs, _ = setup
    h = getattr(obs, name)
    values = h.values.copy()
    values[1, 1] = bad
    with pytest.raises(ValueError, match=name):
        replace(obs, **{name: BoundaryTrace(h.grid, h.edge, values)})
