"""Implicit finite-difference solvers for the fractional diffusion problems.

One marching code path handles both time orientations: the terminal-value
problem is reflected in time, solved forward, and reflected back.  Space is
discretized by a conservative finite-volume scheme (harmonic-mean face
coefficients) on the unknowns i < nx-1, j < ny-1; the Dirichlet edges x=1 and
y=1 are eliminated, the flux edges x=0 and y=0 enter the right-hand side
through the boundary face integrals.  Time uses the L1 scheme, so every level
solves ``(scale*V + L_n) u^n = rhs(history)``.

``GridOperator`` owns the per-level matrices and their LU factors (levels with
identical coefficient slices share one factorization) and also implements the
transpose recursion that yields the exact gradient of the discrete boundary
misfit with respect to the two fluxes.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fracops import l1_weights
from .materials import PlasticityModel, kappa_from_iterate
from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    edge_weights,
    spacetime_h1_diff,
    time_weights,
)


class SolverError(RuntimeError):
    """Assembly or linear-solve failure, with optional diagnostics attached."""

    def __init__(self, message, residual_history=None, level=None):
        super().__init__(message)
        self.residual_history = residual_history
        self.level = level


class Direction(enum.Enum):
    FORWARD = "forward"  # data given at t = 0
    BACKWARD = "backward"  # data given at t = T


@dataclass(frozen=True)
class LinearProblemSpec:
    """One linearized solve: frozen coefficient, source, fluxes and g.

    ``kappa`` and ``source`` are (nx, ny, nt+1) arrays; ``initial_or_final``
    is the (nx, ny) slice prescribed at t=0 (forward) or t=T (backward).
    """

    grid: Grid
    beta: float
    kappa: np.ndarray
    source: np.ndarray
    flux: BoundaryFlux
    initial_or_final: np.ndarray
    direction: Direction = Direction.FORWARD


@dataclass(frozen=True)
class NonlinearProblem:
    """The quasilinear problem: coefficient k(|grad u|^2) from a material model."""

    grid: Grid
    beta: float
    model: PlasticityModel
    source: np.ndarray
    flux: BoundaryFlux
    g: np.ndarray
    direction: Direction = Direction.FORWARD


@dataclass(frozen=True)
class PicardConfig:
    """Outer-iteration control: tolerance theta_bar and/or a fixed sweep count."""

    theta_bar: float | None = None
    max_outer: int = 100
    fixed_iters: int | None = None

    def __post_init__(self):
        if self.theta_bar is None and self.fixed_iters is None:
            raise ValueError("need theta_bar or fixed_iters")
        if self.theta_bar is not None and self.theta_bar <= 0.0:
            raise ValueError("theta_bar must be positive")


@dataclass
class SolveReport:
    """Outcome of one nonlinear solve, including the final frozen coefficient."""

    eta_star: int
    residual_history: list
    cpu_seconds: float
    kappa: np.ndarray


def _check_g(grid: Grid, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.nx, grid.ny):
        raise SolverError(f"initial/final slice shape {g.shape} != {(grid.nx, grid.ny)}")
    if np.max(np.abs(g[-1, :])) > 0.0 or np.max(np.abs(g[:, -1])) > 0.0:
        raise SolverError("initial/final data must vanish on the Dirichlet edges")
    return g


class GridOperator:
    """Per-level systems (scale*V + L_n) for a fixed coefficient history.

    Levels whose coefficient slices are identical (detected by comparing
    adjacent levels, which covers the constant-coefficient case) share a
    single LU factorization; factors are built lazily.
    """

    def __init__(self, grid: Grid, beta: float, kappa: np.ndarray):
        kappa = np.asarray(kappa, dtype=float)
        expect = (grid.nx, grid.ny, grid.nt + 1)
        if kappa.shape != expect:
            raise SolverError(f"coefficient shape {kappa.shape} != {expect}")
        if not np.all(np.isfinite(kappa)) or kappa.min() <= 0.0:
            raise SolverError("coefficient must be finite and strictly positive")
        self.grid = grid
        self.w = l1_weights(beta, grid.tau, grid.nt)
        self.kappa = kappa
        mx, my = grid.nx - 1, grid.ny - 1
        self.mx, self.my = mx, my
        dxc = np.full(mx, grid.hx)
        dxc[0] *= 0.5
        dyc = np.full(my, grid.hy)
        dyc[0] *= 0.5
        self.dxc, self.dyc = dxc, dyc
        self.vol = np.outer(dxc, dyc).ravel()
        self.P = np.arange(mx * my).reshape(mx, my)
        group = np.zeros(grid.nt + 1, dtype=int)
        for n in range(1, grid.nt + 1):
            same = np.array_equal(kappa[:, :, n], kappa[:, :, n - 1])
            group[n] = group[n - 1] if same else group[n - 1] + 1
        self._group = group
        self._lus: dict[int, object] = {}

    def _assemble(self, n: int) -> sp.csc_matrix:
        K = self.kappa[:, :, n]
        mx, my = self.mx, self.my
        hx, hy = self.grid.hx, self.grid.hy
        # face coefficients: harmonic mean of the two cell values, times the
        # transverse face length over the normal spacing
        Ka, Kb = K[:mx, :my], K[1 : mx + 1, :my]
        ax = 2.0 * Ka * Kb / (Ka + Kb) * self.dyc[None, :] / hx
        Kc, Kd = K[:mx, :my], K[:mx, 1 : my + 1]
        ay = 2.0 * Kc * Kd / (Kc + Kd) * self.dxc[:, None] / hy
        diag = self.w.scale * self.vol.reshape(mx, my) + ax + ay
        diag = diag.copy()
        diag[1:, :] += ax[:-1, :]
        diag[:, 1:] += ay[:, :-1]
        P = self.P
        rx, cx = P[:-1, :].ravel(), P[1:, :].ravel()
        vx = -ax[:-1, :].ravel()
        ry, cy = P[:, :-1].ravel(), P[:, 1:].ravel()
        vy = -ay[:, :-1].ravel()
        rows = np.concatenate([P.ravel(), rx, cx, ry, cy])
        cols = np.concatenate([P.ravel(), cx, rx, cy, ry])
        vals = np.concatenate([diag.ravel(), vx, vx, vy, vy])
        m = mx * my
        return sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsc()

    def _lu(self, n: int):
        gid = self._group[n]
        lu = self._lus.get(gid)
        if lu is None:
            try:
                lu = splu(self._assemble(n))
            except RuntimeError as exc:  # pragma: no cover - singular system
                raise SolverError(f"factorization failed at level {n}: {exc}", level=n)
            self._lus[gid] = lu
        return lu

    def march(self, source: np.ndarray, f1: np.ndarray, f2: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Advance all time levels; returns the (nx, ny, nt+1) value array.

        ``f1``/``f2`` are flux samples shaped (ny, nt+1) / (nx, nt+1); the
        Dirichlet endpoint of each is ignored.
        """
        grid, w = self.grid, self.w
        mx, my, nt = self.mx, self.my, grid.nt
        g = _check_g(grid, g)
        out = np.zeros((grid.nx, grid.ny, nt + 1))
        out[:, :, 0] = g
        m = mx * my
        u = np.zeros((nt + 1, m))
        u[0] = g[:mx, :my].ravel()
        diffs = np.zeros((nt, m))  # diffs[q-1] = u^q - u^{q-1}
        s = w.scale
        row1, row2 = self.P[0, :], self.P[:, 0]
        for n in range(1, nt + 1):
            rhs = self.vol * (source[:mx, :my, n].ravel() + s * u[n - 1])
            if n > 1:
                rhs -= s * self.vol * (w.b[1:n] @ diffs[: n - 1][::-1])
            rhs[row1] -= f1[:my, n] * self.dyc
            rhs[row2] -= f2[:mx, n] * self.dxc
            un = self._lu(n).solve(rhs)
            if not np.all(np.isfinite(un)):
                raise SolverError(f"non-finite solution at level {n}", level=n)
            u[n] = un
            diffs[n - 1] = u[n] - u[n - 1]
            out[:mx, :my, n] = un.reshape(mx, my)
        return out

    def adjoint_gradient(self, r1: np.ndarray, r2: np.ndarray):
        """Exact gradient of the discrete misfit with respect to both fluxes.

        ``r1``/``r2`` are boundary residuals u|_Gamma - h shaped like flux
        traces.  Solves the transpose of the marching recursion backward in
        time (reusing the same factorizations) and returns the gradient in
        the L2(Gamma x (0,T)) sense, shaped (ny, nt+1) and (nx, nt+1).  The
        entries at n=0 and at the Dirichlet endpoints are exactly zero: the
        discrete solution does not depend on those flux samples.
        """
        grid, w = self.grid, self.w
        mx, my, nt = self.mx, self.my, grid.nt
        m = mx * my
        wt = time_weights(grid)
        c1 = edge_weights(grid, Edge.GAMMA1)
        c2 = edge_weights(grid, Edge.GAMMA2)
        db = w.b[:-1] - w.b[1:]  # db[q-1] = b_{q-1} - b_q > 0
        lam = np.zeros((nt + 1, m))
        s = w.scale
        row1, row2 = self.P[0, :], self.P[:, 0]
        for n in range(nt, 0, -1):
            rhs = np.zeros(m)
            rhs[row1] += wt[n] * c1[:my] * r1[:my, n]
            rhs[row2] += wt[n] * c2[:mx] * r2[:mx, n]
            nq = nt - n
            if nq:
                rhs += s * self.vol * (db[:nq] @ lam[n + 1 : nt + 1])
            lam[n] = self._lu(n).solve(rhs)
        g1 = np.zeros((grid.ny, nt + 1))
        g2 = np.zeros((grid.nx, nt + 1))
        g1[:my, 1:] = -(lam[1:, row1] / wt[1:, None]).T
        g2[:mx, 1:] = -(lam[1:, row2] / wt[1:, None]).T
        return g1, g2


def solve_linear(spec: LinearProblemSpec) -> Field:
    """Solve one linearized problem; backward problems are time-reflected."""
    kappa, source = spec.kappa, spec.source
    f1, f2 = spec.flux.f1.values, spec.flux.f2.values
    if spec.direction is Direction.BACKWARD:
        kappa = kappa[:, :, ::-1]
        source = source[:, :, ::-1]
        f1, f2 = f1[:, ::-1], f2[:, ::-1]
    op = GridOperator(spec.grid, spec.beta, np.ascontiguousarray(kappa))
    vals = op.march(source, f1, f2, spec.initial_or_final)
    if spec.direction is Direction.BACKWARD:
        vals = vals[:, :, ::-1]
    return Field(spec.grid, np.ascontiguousarray(vals))


def solve_nonlinear(problem: NonlinearProblem, cfg: PicardConfig) -> tuple[Field, SolveReport]:
    """Successive linearization: freeze k at the previous iterate and resolve.

    Starts from the zero iterate; stops when the L2(0,T;H1) increment drops
    to ``theta_bar`` or after ``fixed_iters`` sweeps.  Three consecutive
    residual increases abort the iteration.
    """
    start = time.perf_counter()
    grid = problem.grid
    u_old = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    history: list[float] = []
    limit = cfg.fixed_iters if cfg.fixed_iters is not None else cfg.max_outer
    rises = 0
    converged = False
    u_new = u_old
    for it in range(1, limit + 1):
        kappa = kappa_from_iterate(problem.model, grid, u_old)
        spec = LinearProblemSpec(
            grid=grid,
            beta=problem.beta,
            kappa=kappa,
            source=problem.source,
            flux=problem.flux,
            initial_or_final=problem.g,
            direction=problem.direction,
        )
        u_new = solve_linear(spec).values
        res = spacetime_h1_diff(grid, u_new, u_old)
        history.append(res)
        if cfg.theta_bar is not None and res <= cfg.theta_bar:
            converged = True
            break
        rises = rises + 1 if len(history) >= 2 and res > 1.5 * history[-2] else 0
        if rises >= 3:
            raise SolverError("Picard iteration diverging", residual_history=history)
        u_old = u_new
    if not converged and cfg.fixed_iters is None:
        raise SolverError(
            f"no convergence to theta_bar={cfg.theta_bar} in {cfg.max_outer} sweeps",
            residual_history=history,
        )
    eta_star = max(len(history) - 1, 1) if converged else len(history)
    report = SolveReport(
        eta_star=eta_star,
        residual_history=history,
        cpu_seconds=time.perf_counter() - start,
        kappa=kappa_from_iterate(problem.model, grid, u_new),
    )
    return Field(grid, u_new), report


def solve_sensitivity(
    grid: Grid,
    beta: float,
    frozen_kappa: np.ndarray,
    s1: BoundaryTrace | None = None,
    s2: BoundaryTrace | None = None,
    op: GridOperator | None = None,
) -> Field:
    """Linearized forward solve with zero source/initial data and fluxes (s1, s2).

    Pass ``op`` to reuse an operator (and its factorizations) built from the
    same frozen coefficient.
    """
    f1 = s1.values if s1 is not None else np.zeros((grid.ny, grid.nt + 1))
    f2 = s2.values if s2 is not None else np.zeros((grid.nx, grid.nt + 1))
    if op is None:
        op = GridOperator(grid, beta, frozen_kappa)
    source = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    vals = op.march(source, f1, f2, np.zeros((grid.nx, grid.ny)))
    return Field(grid, vals)

