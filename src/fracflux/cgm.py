"""Conjugate gradient identification of the two boundary fluxes.

Each iteration runs one adjoint (transpose) solve for the gradient and two
linearized sensitivity solves that feed the closed-form 2x2 system for the
per-flux step sizes, then evaluates the trial step; the iteration stops by
the discrepancy principle.  On a nonlinear model a trial costs one nonlinear
forward solve.  With a ``Constant`` coefficient the flux-to-trace map is
affine, so the trial residual is the current one plus the step sizes times
the sensitivity traces, exactly, and the run's only forward solve is the
first; the operator that solve leaves builds its edge-trace kernel on the
first adjoint (see ``solver``), and every adjoint and sensitivity solve of
the run is then FFT products of length 2 nt.  That solve, its traces and
its operator, with the factor and kernel, are kept for the problem object
while it lives: a later run on it whose source, fluxes and initial data are
unchanged, such as the next noise level of a table sweep, solves nothing
and forms only the residuals of its own observations.  Directions use
Fletcher-Reeves coefficients with a restart every ``RESTART_EVERY``
iterations, and a non-decreasing cost triggers one steepest-descent retry
and then step halvings, ``MAX_BACKTRACKS`` + 2 trials in all, before the
run is declared stagnated.
"""

from __future__ import annotations

import enum
import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .materials import Constant
from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
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
# model it mostly spends its 20-sweep budget, counted in CgmReport.unconverged_solves
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
        for name, h in (("h1", self.h1), ("h2", self.h2)):
            if not np.all(np.isfinite(h.values)):
                raise ValueError(f"observation trace {name} contains non-finite values")
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
    """Outcome of ``run_cgm``.

    ``trial_steps`` counts every trial step evaluated, by a forward solve or,
    with a ``Constant`` coefficient, in closed form from the sensitivity
    traces; ``sd_retries`` counts the iterations that retried a rejected
    conjugate step along steepest descent.  ``forward_solves`` counts the
    nonlinear forward solves this run performed, the first and every trial
    step's on a nonlinear model, a trial whose solve raised included; so it
    is ``trial_steps + 1`` on a nonlinear model, and on a constant one 1, or
    0 when the run started from the f^0 solve of an earlier run on the same
    problem.  ``unconverged_solves`` counts those whose
    ``SolveReport.converged`` was False, for example because they spent the
    ``INNER_PICARD`` sweep budget.
    """

    k_star: int
    J_history: list
    reconstructed: BoundaryFlux
    stop_reason: StopReason
    records: list[IterationRecord]
    forward_solves: int
    unconverged_solves: int
    trial_steps: int
    sd_retries: int


def _norms(grid, a1: np.ndarray, a2: np.ndarray) -> tuple[float, float]:
    """L2 norms of a Gamma1 and a Gamma2 trace's values over their boundary cylinders."""
    return trace_norm(BoundaryTrace(grid, Edge.GAMMA1, a1)), trace_norm(BoundaryTrace(grid, Edge.GAMMA2, a2))


def _misfit(grid, r1: np.ndarray, r2: np.ndarray) -> float:
    """(1/2) sum_i ||r_i||^2 over the two boundary cylinders."""
    n1, n2 = _norms(grid, r1, r2)
    return 0.5 * (n1**2 + n2**2)


# The f^0 state of the last Constant-model problem that _forward_state solved:
# a weak reference to the problem, whose death frees the state, copies of the
# data the solve read, the operator, the Gamma1 and Gamma2 traces of the
# solution and its convergence flag.  A table sweep inverts one problem under
# several noise levels, and every level after the first starts from this.
_shared = None


def _release(ref) -> None:
    global _shared
    if _shared is not None and _shared[0] is ref:
        _shared = None


def _forward_state(problem: NonlinearProblem, obs: Observations):
    """Operator, residuals, misfit and convergence flag of the solve at ``problem.flux``, and whether this call solved.

    The operator carries the frozen coefficient of the solve.  After a solve
    it holds no factor; on a ``Constant`` model it is shared with every later
    call on the same problem object whose source, fluxes and initial data
    still equal those of the solve, together with the solution's traces, so
    such a call solves nothing and finds the operator with the factor and the
    edge-trace kernel that earlier runs left on it.  Only the residuals and
    the misfit are formed from ``obs`` anew.
    """
    global _shared
    if obs.h1.grid != problem.grid:
        raise ValueError("observations and problem on different grids")
    data = (problem.source, problem.flux.f1.values, problem.flux.f2.values, problem.g)
    if _shared is not None and _shared[0]() is problem and all(map(np.array_equal, _shared[1], data)):
        op, t1, t2, converged = _shared[2:]
        solved = False
    else:
        u, rep = solve_nonlinear(problem, INNER_PICARD)
        t1 = restrict_to_edge(u, Edge.GAMMA1).values
        t2 = restrict_to_edge(u, Edge.GAMMA2).values
        op = GridOperator(problem.grid, problem.beta, rep.kappa)
        converged, solved = rep.converged, True
        if isinstance(problem.model, Constant):
            _shared = (weakref.ref(problem, _release), [np.array(a) for a in data], op, t1, t2, converged)
    r1 = t1 - obs.h1.values
    r2 = t2 - obs.h2.values
    return op, r1, r2, _misfit(problem.grid, r1, r2), converged, solved


def cost(problem: NonlinearProblem, obs: Observations) -> float:
    """Boundary misfit (1/2) sum_i ||u(f)|_Gamma_i - h_i||^2 at the problem's flux f."""
    return _forward_state(problem, obs)[3]


def gradient(problem: NonlinearProblem, obs: Observations):
    """Misfit gradient with respect to (f1, f2) at the problem's flux, as L2 boundary traces."""
    op, r1, r2, *_ = _forward_state(problem, obs)
    g1, g2 = op.adjoint_gradient(r1, r2)
    return BoundaryTrace(op.grid, Edge.GAMMA1, g1), BoundaryTrace(op.grid, Edge.GAMMA2, g2)


def flux_error(fk: BoundaryFlux, fexact: BoundaryFlux) -> tuple[float, float]:
    """L2 boundary-cylinder errors of the two reconstructed flux components."""
    if fk.grid != fexact.grid:
        raise ValueError("flux pair on mismatched grids")
    return _norms(fk.grid, fk.f1.values - fexact.f1.values, fk.f2.values - fexact.f2.values)


def step_sizes(a: list[BoundaryTrace], b: list[BoundaryTrace], r1: np.ndarray, r2: np.ndarray) -> tuple[float, float]:
    """Closed-form dual step sizes from the 2x2 normal system.

    ``a``/``b`` are the Gamma1 and Gamma2 traces of the linearized responses
    to the two search directions; ``r1``/``r2`` the current boundary
    residuals.  Falls back to the decoupled single-flux formulas when the
    system is degenerate, |R2^2 - R1 R4| <= 1e-14 R1 R4; the test is
    relative, so it does not depend on the scale of the data, and it holds
    whenever R1 or R4 is 0.
    """
    g = a[0].grid
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

    One forward solve at f^0 (on a ``Constant`` model, none when an earlier
    run on the same, unchanged problem object made it), then per iteration:
    discrepancy check, adjoint gradient, Fletcher-Reeves direction (restart
    every ``RESTART_EVERY`` iterations), two sensitivity solves, closed-form
    steps, trial step.  A trial is a forward solve at the trial flux on a
    nonlinear model; with a ``Constant`` coefficient it is the exact affine
    update r_i + zeta1 sens1|Gamma_i + zeta2 sens2|Gamma_i of the residuals,
    and the run keeps the f^0 solve's operator: the first adjoint on it
    factors it once and builds its edge-trace kernel, which then serves
    every adjoint and sensitivity solve, of this run and of the later runs
    that share the solve, as FFT products.  The closed-form steps solve
    the frozen-coefficient quadratic model, which can overshoot when the
    coefficient reacts to the iterate; a non-decreasing trial therefore falls
    back to steepest descent and then halves the step until the cost
    decreases, and only an exhausted backtrack (``MAX_BACKTRACKS`` + 2 trials)
    declares stagnation.  Every accepted step and a discrepancy stop log one
    ``IterationRecord``; with ``exact_flux`` the records carry the flux errors
    of the iterate they start from.  ``max_iter`` must be a non-negative
    integer.
    """
    if not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    grid = problem.grid
    f = problem.flux
    # the coefficient does not depend on the state, so the flux-to-trace map is affine
    affine = isinstance(problem.model, Constant)

    records: list[IterationRecord] = []
    S1 = S2 = gn_prev = None
    k = 0

    op, r1, r2, J, converged, solved = _forward_state(problem, obs)
    J_history = [J]
    forward_solves, unconverged_solves = int(solved), int(solved and not converged)
    trial_steps = sd_retries = 0

    while True:
        errors = flux_error(f, exact_flux) if exact_flux is not None else (0.0, 0.0)
        if J <= obs.epsilon_bar:
            stop_reason = StopReason.DISCREPANCY
            records.append(IterationRecord(k, J, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *errors))
            break
        if k >= max_iter:
            stop_reason = StopReason.MAX_ITER
            break

        g1, g2 = op.adjoint_gradient(r1, r2)
        gn = _norms(grid, g1, g2)
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
        z1, z2, a, b = _advance(op, S1, S2, r1, r2)

        accepted = None
        for _ in range(MAX_BACKTRACKS + 2):
            f_try = _update_flux(grid, f, z1, S1, z2, S2)
            trial_steps += 1
            if affine:
                r1_try = r1 + z1 * a[0].values + z2 * b[0].values
                r2_try = r2 + z1 * a[1].values + z2 * b[1].values
                op_try, J_try = op, _misfit(grid, r1_try, r2_try)
            else:
                forward_solves += 1
                try:
                    op_try, r1_try, r2_try, J_try, converged, _ = _forward_state(replace(problem, flux=f_try), obs)
                except SolverError:
                    J_try = np.inf  # diverging trial step: reject and shrink
                else:
                    unconverged_solves += not converged
            if J_try < J:
                accepted = (f_try, op_try, r1_try, r2_try, J_try)
                break
            if not on_sd:
                # retry the whole step along steepest descent first
                on_sd = True
                sd_retries += 1
                theta = (0.0, 0.0)
                S1, S2 = -g1, -g2
                z1, z2, a, b = _advance(op, S1, S2, r1, r2)
            else:
                z1, z2 = 0.5 * z1, 0.5 * z2
        if accepted is None:
            stop_reason = StopReason.STAGNATED_J
            break

        records.append(IterationRecord(k, J, *gn, z1, z2, *theta, *errors))
        f, op, r1, r2, J = accepted
        gn_prev = gn
        k += 1
        J_history.append(J)

    return CgmReport(
        k_star=k,
        J_history=J_history,
        reconstructed=f,
        stop_reason=stop_reason,
        records=records,
        forward_solves=forward_solves,
        unconverged_solves=unconverged_solves,
        trial_steps=trial_steps,
        sd_retries=sd_retries,
    )


def _advance(op, S1, S2, r1, r2):
    """Closed-form steps along (S1, S2) and the Gamma1/Gamma2 traces of the two sensitivities."""
    a = solve_sensitivity(op, s1=BoundaryTrace(op.grid, Edge.GAMMA1, S1))
    b = solve_sensitivity(op, s2=BoundaryTrace(op.grid, Edge.GAMMA2, S2))
    return (*step_sizes(a, b, r1, r2), a, b)


def _update_flux(grid, f, z1, S1, z2, S2):
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, f.f1.values + z1 * S1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, f.f2.values + z2 * S2),
    )
