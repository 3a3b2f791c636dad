"""Conjugate gradient identification of the two boundary fluxes.

Each iteration runs one nonlinear forward solve, one adjoint (transpose)
solve for the gradient, and two linearized sensitivity solves that feed the
closed-form 2x2 system for the per-flux step sizes; the iteration stops by
the discrepancy principle.  Directions use Fletcher-Reeves coefficients with
a restart every ``RESTART_EVERY`` iterations, and a non-decreasing cost
triggers one steepest-descent retry and then step halvings, ``MAX_BACKTRACKS``
+ 2 trials in all, before the run is declared stagnated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    restrict_to_edge,
    trace_inner,
    trace_norm,
)
from .solver import (
    GridOperator,
    NonlinearProblem,
    PicardConfig,
    SolverError,
    solve_nonlinear,
    solve_sensitivity,
)


RESTART_EVERY = 50  # iterations k with k % RESTART_EVERY == 0 take steepest descent
MAX_BACKTRACKS = 30  # an iteration tries at most MAX_BACKTRACKS + 2 steps before StagnatedJ
# the inner solve of every forward evaluation in the identification; on a nonlinear
# model it mostly ends at the 20-sweep cap, which SolveReport.converged reports
INNER_PICARD = PicardConfig(theta_bar=1e-12, fixed_iters=20)


@dataclass(frozen=True)
class Observations:
    """Boundary measurements on Gamma1 and Gamma2 and the stop threshold."""

    h1: BoundaryTrace
    h2: BoundaryTrace
    epsilon_bar: float

    def __post_init__(self):
        if not 0.0 < self.epsilon_bar < np.inf:  # also false for nan
            raise ValueError("epsilon_bar must be positive and finite")
        if self.h1.edge is not Edge.GAMMA1 or self.h2.edge is not Edge.GAMMA2:
            raise ValueError("h1 must live on Gamma1 and h2 on Gamma2")
        if self.h1.grid != self.h2.grid:
            raise ValueError("observations on different grids")


class StopReason(enum.Enum):
    DISCREPANCY = "Discrepancy"
    MAX_ITER = "MaxIter"
    STAGNATED_J = "StagnatedJ"
    VANISHED_GRADIENT = "VanishedGradient"


@dataclass(frozen=True)
class IterationRecord:
    """One row of the iteration log; the field order is the column order of ``convergence.csv``.

    The row of a discrepancy stop has no gradient, step or direction, so those
    fields are 0.0; the flux errors are 0.0 when no exact flux was given.
    """

    k: int
    J: float
    grad_norm1: float
    grad_norm2: float
    zeta1: float
    zeta2: float
    vartheta1: float
    vartheta2: float
    err1: float
    err2: float


@dataclass
class CgmReport:
    k_star: int
    J_history: list
    reconstructed: BoundaryFlux
    stop_reason: StopReason
    records: list[IterationRecord]


def _forward_state(problem: NonlinearProblem, obs: Observations):
    """Frozen coefficient, boundary residuals and misfit of the forward solve at ``problem.flux``."""
    if obs.h1.grid != problem.grid:
        raise ValueError("observations and problem on different grids")
    u, rep = solve_nonlinear(problem, INNER_PICARD)
    r1 = restrict_to_edge(u, Edge.GAMMA1).values - obs.h1.values
    r2 = restrict_to_edge(u, Edge.GAMMA2).values - obs.h2.values
    g = problem.grid
    J = 0.5 * (
        trace_norm(BoundaryTrace(g, Edge.GAMMA1, r1)) ** 2
        + trace_norm(BoundaryTrace(g, Edge.GAMMA2, r2)) ** 2
    )
    return rep.kappa, r1, r2, J


def cost(problem: NonlinearProblem, obs: Observations) -> float:
    """Boundary misfit (1/2) sum_i ||u(f)|_Gamma_i - h_i||^2 at the problem's flux f."""
    return _forward_state(problem, obs)[3]


def _adjoint_state(problem: NonlinearProblem, kappa: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    """Operator at the forward solve's coefficient and the misfit gradient traces."""
    op = GridOperator(problem.grid, problem.beta, kappa)
    g1, g2 = op.adjoint_gradient(r1, r2)
    g = problem.grid
    return op, BoundaryTrace(g, Edge.GAMMA1, g1), BoundaryTrace(g, Edge.GAMMA2, g2)


def gradient(problem: NonlinearProblem, obs: Observations):
    """Misfit gradient with respect to (f1, f2) at the problem's flux, as L2 boundary traces."""
    kappa, r1, r2, _ = _forward_state(problem, obs)
    return _adjoint_state(problem, kappa, r1, r2)[1:]


def flux_error(fk: BoundaryFlux, fexact: BoundaryFlux) -> tuple[float, float]:
    """L2 boundary-cylinder errors of the two reconstructed flux components."""
    if fk.grid != fexact.grid:
        raise ValueError("flux pair on mismatched grids")
    g = fk.grid
    e1 = trace_norm(BoundaryTrace(g, Edge.GAMMA1, fk.f1.values - fexact.f1.values))
    e2 = trace_norm(BoundaryTrace(g, Edge.GAMMA2, fk.f2.values - fexact.f2.values))
    return e1, e2


def step_sizes(sens1: Field, sens2: Field, r1: np.ndarray, r2: np.ndarray) -> tuple[float, float]:
    """Closed-form dual step sizes from the 2x2 normal system.

    ``sens1``/``sens2`` are the linearized responses to the two search
    directions; ``r1``/``r2`` the current boundary residuals.  Falls back to
    the decoupled single-flux formulas when the system is degenerate,
    |R2^2 - R1 R4| <= 1e-14 R1 R4; the test is relative, so it does not
    depend on the scale of the data, and it holds whenever R1 or R4 is 0.
    """
    g = sens1.grid
    a = [restrict_to_edge(sens1, Edge.GAMMA1), restrict_to_edge(sens1, Edge.GAMMA2)]
    b = [restrict_to_edge(sens2, Edge.GAMMA1), restrict_to_edge(sens2, Edge.GAMMA2)]
    r = [BoundaryTrace(g, Edge.GAMMA1, r1), BoundaryTrace(g, Edge.GAMMA2, r2)]
    R1 = sum(trace_inner(x, x) for x in a)
    R2 = sum(trace_inner(x, y) for x, y in zip(a, b))
    R3 = sum(trace_inner(x, y) for x, y in zip(a, r))
    R4 = sum(trace_inner(x, x) for x in b)
    R5 = sum(trace_inner(x, y) for x, y in zip(b, r))
    den = R2 * R2 - R1 * R4
    if abs(den) <= 1e-14 * R1 * R4:
        z1 = -R3 / R1 if R1 > 0.0 else 0.0
        z2 = -R5 / R4 if R4 > 0.0 else 0.0
        return z1, z2
    return (R3 * R4 - R2 * R5) / den, (R1 * R5 - R2 * R3) / den


def run_cgm(
    problem: NonlinearProblem,
    obs: Observations,
    max_iter: int = 1000,
    exact_flux: BoundaryFlux | None = None,
) -> CgmReport:
    """Identification loop from f^0 = ``problem.flux``; never raises on MaxIter.

    Per iteration: forward solve, discrepancy check, adjoint gradient,
    Fletcher-Reeves direction (restart every ``RESTART_EVERY`` iterations),
    two sensitivity solves, closed-form steps, iterate update.  The
    closed-form steps solve the frozen-coefficient quadratic model, which can
    overshoot when the coefficient reacts to the iterate; a non-decreasing
    candidate therefore falls back to steepest descent and then halves the
    step until the cost decreases, and only an exhausted backtrack
    (``MAX_BACKTRACKS`` + 2 trials) declares stagnation.  Every accepted step
    and a discrepancy stop log one ``IterationRecord``; with ``exact_flux``
    the records carry the flux errors of the iterate they start from.
    """
    grid = problem.grid
    f = problem.flux

    records: list[IterationRecord] = []
    S1 = S2 = gn_prev = None
    k = 0

    kappa, r1, r2, J = _forward_state(problem, obs)
    J_history = [J]

    while True:
        errors = flux_error(f, exact_flux) if exact_flux is not None else (0.0, 0.0)
        if J <= obs.epsilon_bar:
            stop_reason = StopReason.DISCREPANCY
            records.append(IterationRecord(k, J, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *errors))
            break
        if k >= max_iter:
            stop_reason = StopReason.MAX_ITER
            break

        op, g1t, g2t = _adjoint_state(problem, kappa, r1, r2)
        g1, g2 = g1t.values, g2t.values
        gn = (trace_norm(g1t), trace_norm(g2t))
        if float(np.hypot(*gn)) == 0.0:
            stop_reason = StopReason.VANISHED_GRADIENT
            break

        if k % RESTART_EVERY == 0:
            theta = (0.0, 0.0)
            S1, S2 = -g1, -g2
            on_sd = True
        else:
            # Fletcher-Reeves per flux; a vanished previous component restarts that flux
            theta = tuple(n**2 / p**2 if p > 0.0 else 0.0 for n, p in zip(gn, gn_prev))
            S1 = -g1 + theta[0] * S1
            S2 = -g2 + theta[1] * S2
            on_sd = False
        z1, z2 = _advance(op, S1, S2, r1, r2)

        accepted = None
        for _ in range(MAX_BACKTRACKS + 2):
            f_try = _update_flux(grid, f, z1, S1, z2, S2)
            try:
                kappa_try, r1_try, r2_try, J_try = _forward_state(replace(problem, flux=f_try), obs)
            except SolverError:
                J_try = np.inf  # diverging trial step: reject and shrink
            if J_try < J:
                accepted = (f_try, kappa_try, r1_try, r2_try, J_try)
                break
            if not on_sd:
                # retry the whole step along steepest descent first
                on_sd = True
                theta = (0.0, 0.0)
                S1, S2 = -g1, -g2
                z1, z2 = _advance(op, S1, S2, r1, r2)
            else:
                z1, z2 = 0.5 * z1, 0.5 * z2
        if accepted is None:
            stop_reason = StopReason.STAGNATED_J
            break

        records.append(IterationRecord(k, J, *gn, z1, z2, *theta, *errors))
        f, kappa, r1, r2, J = accepted
        gn_prev = gn
        k += 1
        J_history.append(J)

    return CgmReport(
        k_star=k,
        J_history=J_history,
        reconstructed=f,
        stop_reason=stop_reason,
        records=records,
    )


def _advance(op, S1, S2, r1, r2):
    sens1 = solve_sensitivity(op, s1=BoundaryTrace(op.grid, Edge.GAMMA1, S1))
    sens2 = solve_sensitivity(op, s2=BoundaryTrace(op.grid, Edge.GAMMA2, S2))
    return step_sizes(sens1, sens2, r1, r2)


def _update_flux(grid, f, z1, S1, z2, S2):
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, f.f1.values + z1 * S1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, f.f2.values + z2 * S2),
    )

