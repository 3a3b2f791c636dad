"""Conjugate gradient identification of the two boundary fluxes.

Each iteration runs one nonlinear forward solve, one adjoint (transpose)
solve for the gradient, and two linearized sensitivity solves that feed the
closed-form 2x2 system for the per-flux step sizes; the iteration stops by
the discrepancy principle.  Directions use Fletcher-Reeves coefficients with
periodic restarts, and a non-decreasing cost triggers one steepest-descent
retry before the run is declared stagnated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .materials import PlasticityModel
from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    restrict_to_edge,
    trace_inner,
    trace_norm,
    zero_flux,
)
from .solver import (
    GridOperator,
    NonlinearProblem,
    PicardConfig,
    SolverError,
    solve_nonlinear,
    solve_sensitivity,
)


class VanishedGradient(RuntimeError):
    """Both gradient components vanished; the iteration cannot continue."""


@dataclass(frozen=True)
class Observations:
    """Boundary measurements, optional noisy variants, and the stop threshold."""

    h1: BoundaryTrace
    h2: BoundaryTrace
    epsilon_bar: float
    h1_noisy: BoundaryTrace | None = None
    h2_noisy: BoundaryTrace | None = None

    def __post_init__(self):
        if self.epsilon_bar <= 0.0:
            raise ValueError("epsilon_bar must be positive")
        if (self.h1_noisy is None) != (self.h2_noisy is None):
            raise ValueError("provide noisy variants for both edges or neither")

    @property
    def active_h1(self) -> BoundaryTrace:
        return self.h1_noisy if self.h1_noisy is not None else self.h1

    @property
    def active_h2(self) -> BoundaryTrace:
        return self.h2_noisy if self.h2_noisy is not None else self.h2


@dataclass(frozen=True)
class InverseProblem:
    """Everything the flux identification needs besides the flux itself."""

    grid: Grid
    beta: float
    model: PlasticityModel
    source: np.ndarray
    g: np.ndarray
    picard: PicardConfig = field(default_factory=lambda: PicardConfig(theta_bar=1e-12, fixed_iters=20))
    bounds: tuple[float, float, float, float] | None = None


class StopReason(enum.Enum):
    DISCREPANCY = "Discrepancy"
    MAX_ITER = "MaxIter"
    STAGNATED_J = "StagnatedJ"
    VANISHED_GRADIENT = "VanishedGradient"


@dataclass
class CgmReport:
    k_star: int
    J_history: list
    reconstructed: BoundaryFlux
    stop_reason: StopReason
    error_history: list | None = None
    records: list | None = None


def _forward_state(problem: InverseProblem, flux: BoundaryFlux, obs: Observations):
    nl = NonlinearProblem(
        grid=problem.grid,
        beta=problem.beta,
        model=problem.model,
        source=problem.source,
        flux=flux,
        g=problem.g,
    )
    u, rep = solve_nonlinear(nl, problem.picard)
    r1 = restrict_to_edge(u, Edge.GAMMA1).values - obs.active_h1.values
    r2 = restrict_to_edge(u, Edge.GAMMA2).values - obs.active_h2.values
    g = problem.grid
    J = 0.5 * (
        trace_norm(BoundaryTrace(g, Edge.GAMMA1, r1)) ** 2
        + trace_norm(BoundaryTrace(g, Edge.GAMMA2, r2)) ** 2
    )
    return u, rep, r1, r2, J


def cost(f: BoundaryFlux, obs: Observations, problem: InverseProblem) -> float:
    """Boundary misfit (1/2) sum_i ||u(f)|_Gamma_i - h_i||^2."""
    return _forward_state(problem, f, obs)[4]


def gradient(f: BoundaryFlux, obs: Observations, problem: InverseProblem):
    """Misfit gradient with respect to (f1, f2) as L2 boundary traces."""
    _, rep, r1, r2, _ = _forward_state(problem, f, obs)
    op = GridOperator(problem.grid, problem.beta, rep.kappa)
    g1, g2 = op.adjoint_gradient(r1, r2)
    g = problem.grid
    return (BoundaryTrace(g, Edge.GAMMA1, g1), BoundaryTrace(g, Edge.GAMMA2, g2))


def flux_error(fk: BoundaryFlux, fexact: BoundaryFlux) -> tuple[float, float]:
    """L2 boundary-cylinder errors of the two reconstructed flux components."""
    if fk.grid != fexact.grid:
        raise ValueError("flux pair on mismatched grids")
    g = fk.grid
    e1 = trace_norm(BoundaryTrace(g, Edge.GAMMA1, fk.f1.values - fexact.f1.values))
    e2 = trace_norm(BoundaryTrace(g, Edge.GAMMA2, fk.f2.values - fexact.f2.values))
    return e1, e2


def fletcher_reeves(grad_now, grad_prev) -> tuple[float, float]:
    """Per-flux ratios of squared gradient norms; zero history means restart."""
    out = []
    norms_prev = [trace_norm(tp) for tp in grad_prev]
    if all(n == 0.0 for n in norms_prev):
        raise VanishedGradient("previous gradient vanished on both edges")
    for tn, npv in zip(grad_now, norms_prev):
        out.append(trace_norm(tn) ** 2 / npv**2 if npv > 0.0 else 0.0)
    return tuple(out)


def step_sizes(sens1: Field, sens2: Field, r1: np.ndarray, r2: np.ndarray) -> tuple[float, float]:
    """Closed-form dual step sizes from the 2x2 normal system.

    ``sens1``/``sens2`` are the linearized responses to the two search
    directions; ``r1``/``r2`` the current boundary residuals.  Falls back to
    the decoupled single-flux formulas when the system is degenerate.
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
    if abs(den) < 1e-14 * max(R1 * R4, 1.0):
        z1 = -R3 / R1 if R1 > 0.0 else 0.0
        z2 = -R5 / R4 if R4 > 0.0 else 0.0
        return z1, z2
    return (R3 * R4 - R2 * R5) / den, (R1 * R5 - R2 * R3) / den


def run_cgm(
    problem: InverseProblem,
    obs: Observations,
    init: BoundaryFlux | None = None,
    max_iter: int = 1000,
    exact_flux: BoundaryFlux | None = None,
    callback=None,
    reset_every: int = 50,
    max_backtracks: int = 30,
) -> CgmReport:
    """Full identification loop; returns the report, never raises on MaxIter.

    Per iteration: forward solve, discrepancy check, adjoint gradient,
    Fletcher-Reeves direction (restart every ``reset_every`` iterations),
    two sensitivity solves, closed-form steps, iterate update.  The
    closed-form steps solve the frozen-coefficient quadratic model, which can
    overshoot when the coefficient reacts to the iterate; a non-decreasing
    candidate therefore falls back to steepest descent and then halves the
    step until the cost decreases, and only an exhausted backtrack declares
    stagnation.
    """
    grid = problem.grid
    f = init if init is not None else zero_flux(grid)

    error_history: list[tuple[float, float]] | None = [] if exact_flux is not None else None
    records: list[dict] = []
    S1 = S2 = None
    grad_prev = None
    stop_reason = StopReason.MAX_ITER
    k_star = max_iter
    k = 0

    _, rep, r1, r2, J = _forward_state(problem, f, obs)
    J_history = [J]
    if error_history is not None:
        error_history.append(flux_error(f, exact_flux))

    while True:
        if J <= obs.epsilon_bar:
            stop_reason = StopReason.DISCREPANCY
            k_star = k
            _record(records, callback, k, J, None, None, None, error_history)
            break
        if k >= max_iter:
            stop_reason = StopReason.MAX_ITER
            k_star = k
            break

        op = GridOperator(grid, problem.beta, rep.kappa)
        g1, g2 = op.adjoint_gradient(r1, r2)
        g1t = BoundaryTrace(grid, Edge.GAMMA1, g1)
        g2t = BoundaryTrace(grid, Edge.GAMMA2, g2)
        gn = (trace_norm(g1t), trace_norm(g2t))
        if float(np.hypot(*gn)) == 0.0:
            stop_reason = StopReason.VANISHED_GRADIENT
            k_star = k
            break

        if k == 0 or (reset_every and k % reset_every == 0) or grad_prev is None:
            theta = (0.0, 0.0)
            S1, S2 = -g1, -g2
            on_sd = True
        else:
            try:
                theta = fletcher_reeves((g1t, g2t), grad_prev)
            except VanishedGradient:
                stop_reason = StopReason.VANISHED_GRADIENT
                k_star = k
                break
            S1 = -g1 + theta[0] * S1
            S2 = -g2 + theta[1] * S2
            on_sd = False
        z1, z2 = _advance(problem, op, grid, S1, S2, r1, r2)

        accepted = None
        for _ in range(max_backtracks + 2):
            f_try = _update_flux(grid, f, z1, S1, z2, S2, problem.bounds)
            try:
                _, rep_try, r1_try, r2_try, J_try = _forward_state(problem, f_try, obs)
            except SolverError:
                J_try = np.inf  # diverging trial step: reject and shrink
            if J_try < J:
                accepted = (f_try, rep_try, r1_try, r2_try, J_try)
                break
            if not on_sd:
                # retry the whole step along steepest descent first
                on_sd = True
                theta = (0.0, 0.0)
                S1, S2 = -g1, -g2
                z1, z2 = _advance(problem, op, grid, S1, S2, r1, r2)
            else:
                z1, z2 = 0.5 * z1, 0.5 * z2
        if accepted is None:
            stop_reason = StopReason.STAGNATED_J
            k_star = k
            break

        _record(records, callback, k, J, gn, (z1, z2), theta, error_history)
        f, rep, r1, r2, J = accepted
        grad_prev = (g1t, g2t)
        k += 1
        J_history.append(J)
        if error_history is not None:
            error_history.append(flux_error(f, exact_flux))

    return CgmReport(
        k_star=k_star,
        J_history=J_history,
        reconstructed=f,
        stop_reason=stop_reason,
        error_history=error_history,
        records=records,
    )


def _advance(problem, op, grid, S1, S2, r1, r2):
    sens1 = solve_sensitivity(grid, problem.beta, op.kappa, s1=BoundaryTrace(grid, Edge.GAMMA1, S1), op=op)
    sens2 = solve_sensitivity(grid, problem.beta, op.kappa, s2=BoundaryTrace(grid, Edge.GAMMA2, S2), op=op)
    return step_sizes(sens1, sens2, r1, r2)


def _update_flux(grid, f, z1, S1, z2, S2, bounds):
    v1 = f.f1.values + z1 * S1
    v2 = f.f2.values + z2 * S2
    if bounds is not None:
        lo1, hi1, lo2, hi2 = bounds
        v1 = np.clip(v1, lo1, hi1)
        v2 = np.clip(v2, lo2, hi2)
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, v1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, v2),
    )


def _record(records, callback, k, J, gn, zeta, theta, error_history):
    rec = {
        "k": k,
        "J": J,
        "grad_norm1": gn[0] if gn else 0.0,
        "grad_norm2": gn[1] if gn else 0.0,
        "zeta1": zeta[0] if zeta else 0.0,
        "zeta2": zeta[1] if zeta else 0.0,
        "vartheta1": theta[0] if theta else 0.0,
        "vartheta2": theta[1] if theta else 0.0,
    }
    if error_history:
        rec["err1"], rec["err2"] = error_history[-1]
    records.append(rec)
    if callback is not None:
        callback(rec)
