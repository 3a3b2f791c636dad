"""Implicit finite-difference solvers for the fractional diffusion problems.

``GridOperator.march`` is the one linear solve.  ``solve_nonlinear`` builds
an operator at the frozen coefficient of every Picard sweep and marches it
once, forward from the initial data at t = 0; ``solve_sensitivity`` marches
an existing operator.  Space is discretized by a conservative finite-volume
scheme (harmonic-mean face coefficients) on the unknowns i < nx-1,
j < ny-1; the Dirichlet edges x=1 and y=1 are eliminated, the flux edges
x=0 and y=0 enter the right-hand side through the boundary face integrals.
Time uses the L1 scheme, so every level solves
``(scale*V + L_n) u^n = rhs(history)``.

``GridOperator`` owns one sparse matrix and the LU factors of its levels
(levels with identical coefficient slices share one factorization) and also
implements the transpose recursion that yields the exact gradient of the
discrete boundary misfit with respect to the two fluxes.  The matrix is built
once per operator, with the five-point stencil written in CSC order; each
level overwrites its values, and SuperLU copies them into its own factors, so
a refill never reaches a factor already built.  Levels are factored in the
natural order: the lexicographic numbering of the unknowns is already a band
ordering, of bandwidth ny-1.

A march does not factor a level whose coefficient lies within a relative
drift ``_DRIFT`` (3e-3) of the held factor's coefficient at every node: it
solves that level by conjugate gradients preconditioned with the held factor,
to a relative residual of 1e-13 in at most ``_CG_MAXITER`` (4) iterations;
the derivation sits at the constants below.  The adjoint recursion always
factors, so it stays the exact transpose of the direct scheme, and the
sensitivity marches after it solve directly on its factors.
"""

from __future__ import annotations

import math
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

# A march solves level n by CG on the factor it holds from level a when
# kappa_n / kappa_a lies in [1 - d, 1 + d] at every node, d = _DRIFT.  It
# checks this through a bound taken in one pass over the coefficient: the sum,
# over the levels a < i <= n, of the largest |log(kappa_i / kappa_(i-1))| at
# any node may not exceed log(1 + d).  The harmonic mean is monotone and
# 1-homogeneous, so every face coefficient keeps the same ratio bounds, the
# mass term does not move, and the spectrum of A_a^-1 A_n lies in
# [1 - d, 1 + d].  With c = (1 + d)/(1 - d) and
# rho = (sqrt(c) - 1)/(sqrt(c) + 1) (about d/2), CG started from
# x0 = A_a^-1 b has a residual r_k, in the norm sqrt(r . A_a^-1 r), of at
# most 2 d sqrt(c) rho^k times that of b: the start leaves at most d of it,
# CG contracts the A_n-norm error by 2 rho^k, and that norm is within
# sqrt(1 +- d) of the residual norm.  At d = 3e-3 the tolerance 1e-13 takes
# four iterations; a level that has not converged by then is factored.
_DRIFT = 3e-3
_CG_RTOL = 1e-13
_C = (1.0 + _DRIFT) / (1.0 - _DRIFT)
_RHO = (math.sqrt(_C) - 1.0) / (math.sqrt(_C) + 1.0)
_LOG_DRIFT = math.log1p(_DRIFT)
_CG_MAXITER = math.ceil(math.log(_CG_RTOL / (2.0 * _DRIFT * math.sqrt(_C))) / math.log(_RHO))


class SolverError(RuntimeError):
    """Assembly or linear-solve failure; a failed Picard iteration attaches its residuals."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass(frozen=True)
class NonlinearProblem:
    """The quasilinear problem: coefficient k(|grad u|^2) from a material model."""

    grid: Grid
    beta: float
    model: PlasticityModel
    source: np.ndarray
    flux: BoundaryFlux
    g: np.ndarray

    def __post_init__(self):
        expect = (self.grid.nx, self.grid.ny, self.grid.nt + 1)
        if np.shape(self.source) != expect:
            raise ValueError(f"source shape {np.shape(self.source)} != {expect}")
        if self.flux.grid != self.grid:
            raise ValueError("flux and problem on different grids")


@dataclass(frozen=True)
class PicardConfig:
    """Outer-iteration control: tolerance theta_bar and/or a fixed sweep count."""

    theta_bar: float | None = None
    max_outer: int = 100
    fixed_iters: int | None = None

    def __post_init__(self):
        if self.theta_bar is None and self.fixed_iters is None:
            raise ValueError("need theta_bar or fixed_iters")
        if self.theta_bar is not None and not 0.0 < self.theta_bar < np.inf:  # also false for nan
            raise ValueError("theta_bar must be positive and finite")
        if self.fixed_iters is not None and self.fixed_iters < 1:
            raise ValueError("fixed_iters must be at least 1")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one nonlinear solve, including the final frozen coefficient.

    ``converged`` is True only when the H1 increment reached ``theta_bar``; a
    solve that stopped at ``fixed_iters`` sweeps reports False.
    ``factorizations`` and ``cg_levels`` sum ``GridOperator``'s counts over
    the sweeps.
    """

    eta_star: int
    residual_history: list
    kappa: np.ndarray
    converged: bool
    factorizations: int = 0
    cg_levels: int = 0


def _pcg(A, lu, b: np.ndarray) -> np.ndarray | None:
    """Solve A x = b by CG preconditioned with the factor ``lu``, from x0 = lu.solve(b).

    Stops when sqrt(r . z) <= _CG_RTOL sqrt(b . x0), z = lu.solve(r); returns
    None if that takes more than _CG_MAXITER iterations.
    """
    x = lu.solve(b)
    stop = _CG_RTOL**2 * (b @ x)
    r = b - A @ x
    z = lu.solve(r)
    rz = r @ z
    p = z
    for _ in range(_CG_MAXITER):
        if rz <= stop:
            return x
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = lu.solve(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x if rz <= stop else None


def _check_g(grid: Grid, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.nx, grid.ny):
        raise SolverError(f"initial slice shape {g.shape} != {(grid.nx, grid.ny)}")
    if not np.all(np.isfinite(g)):
        raise SolverError("initial data must be finite")
    if np.max(np.abs(g[-1, :])) > 0.0 or np.max(np.abs(g[:, -1])) > 0.0:
        raise SolverError("initial data must vanish on the Dirichlet edges")
    return g


def _check_shape(name: str, a, expect: tuple) -> None:
    if np.shape(a) != expect:
        raise SolverError(f"{name} shape {np.shape(a)} != {expect}")


class GridOperator:
    """Per-level systems (scale*V + L_n) for a fixed coefficient history.

    Levels whose coefficient slices are identical (detected by comparing
    adjacent levels, which covers the constant-coefficient case) share a
    single LU factorization; factors are built lazily.  The operator holds one
    CSC matrix, whose values each level overwrites before it is factored
    without a fill-reducing reordering (the unknowns are already numbered in
    band order); a factor keeps its own copy of the values.  ``adjoint_gradient``
    keeps every factor it builds, for the sensitivity marches that reuse its
    operator.  A ``march`` keeps its factor only when one coefficient serves
    every level; otherwise it holds one factor at a time, so a one-shot march
    frees each factor when it leaves its group.

    A ``march`` factors a level only when it has no cached factor and its
    coefficient drifted by more than ``_DRIFT`` (relative, at some node) from
    the coefficient of the factor it holds; the other levels are solved by
    ``_pcg`` on the held factor.  ``adjoint_gradient`` factors every level, so
    the adjoint is the exact transpose of the direct recursion and the
    sensitivity marches after it solve directly too.  ``factorizations`` and
    ``cg_levels`` count the factors built and the levels solved by CG.
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
        # the cell widths along the flux edges are the trace quadrature's
        # weights, which makes -lam/wt the L2 gradient in adjoint_gradient
        self.dxc = edge_weights(grid, Edge.GAMMA2)[:mx]
        self.dyc = edge_weights(grid, Edge.GAMMA1)[:my]
        self.vol = np.outer(self.dxc, self.dyc).ravel()
        self.svol = self.w.scale * self.vol
        self.P = np.arange(mx * my).reshape(mx, my)
        # column p = i*my + j holds the rows p-my, p-1, p, p+1 and p+my, in
        # that order, of those that are unknowns
        self._stencil = np.zeros((mx, my, 5))
        self._mask = np.ones((mx, my, 5), dtype=bool)
        self._mask[0, :, 0] = self._mask[:, 0, 1] = self._mask[:, -1, 3] = self._mask[-1, :, 4] = False
        rows = self.P[:, :, None] + np.array([-my, -1, 0, 1, my])
        indptr = np.concatenate([[0], np.cumsum(self._mask.sum(axis=2).ravel())])
        self._A = sp.csc_matrix((self._stencil[self._mask], rows[self._mask], indptr), shape=(mx * my, mx * my))
        changed = np.any(kappa[:, :, 1:] != kappa[:, :, :-1], axis=(0, 1))
        self._group = np.concatenate([[0], np.cumsum(changed)])
        self._lus: dict[int, object] = {}
        self.factorizations = 0
        self.cg_levels = 0

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
        diag = self.svol.reshape(mx, my) + ax + ay
        diag[1:, :] += ax[:-1, :]
        diag[:, 1:] += ay[:, :-1]
        S = self._stencil
        S[:, :, 2] = diag
        S[1:, :, 0] = S[:-1, :, 4] = -ax[:-1, :]
        S[:, 1:, 1] = S[:, :-1, 3] = -ay[:, :-1]
        # a factor keeps its own copy of the values, so refilling them leaves it intact
        self._A.data[:] = S[self._mask]
        return self._A

    def _factor(self, n: int):
        self.factorizations += 1
        try:
            # the lexicographic numbering is a band ordering of bandwidth my
            return splu(self._assemble(n), permc_spec="NATURAL")
        except RuntimeError as exc:  # pragma: no cover - singular system
            raise SolverError(f"factorization failed at level {n}: {exc}")

    def march(self, source: np.ndarray, f1: np.ndarray, f2: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Advance all time levels; returns the (nx, ny, nt+1) value array.

        ``f1``/``f2`` are flux samples shaped (ny, nt+1) / (nx, nt+1); the
        Dirichlet endpoint of each is ignored.  Uses the factors a previous
        ``adjoint_gradient`` cached; caches its own factor only when the
        coefficient is the same on every level.  A level without a cached
        factor whose coefficient is within ``_DRIFT`` of the held factor's is
        solved by ``_pcg``, and factored only if CG does not converge.
        """
        grid, w = self.grid, self.w
        mx, my, nt = self.mx, self.my, grid.nt
        _check_shape("source", source, (grid.nx, grid.ny, nt + 1))
        _check_shape("f1", f1, (grid.ny, nt + 1))
        _check_shape("f2", f2, (grid.nx, nt + 1))
        g = _check_g(grid, g)
        m = mx * my
        row1, row2 = self.P[0, :], self.P[:, 0]
        # every level-independent term of the right-hand side, row n-1 for level n
        base = self.vol * np.moveaxis(source[:mx, :my, 1:], 2, 0).reshape(nt, m)
        base[:, row1] -= (f1[:my, 1:] * self.dyc[:, None]).T
        base[:, row2] -= (f2[:mx, 1:] * self.dxc[:, None]).T
        U = np.empty((nt + 1, m))  # U[n] = the unknowns of level n
        U[0] = g[:mx, :my].ravel()
        diffs = np.zeros((nt, m))  # diffs[q-1] = U[q] - U[q-1]
        held, lu = -1, None
        keep = self._group[1] == self._group[nt]  # one factor for every level: the next march reuses it
        if keep:
            drift = np.zeros(nt + 1)
        else:
            # drift[n] - drift[a] >= |log(kappa_n / kappa_a)| at every node
            steps = np.abs(np.diff(np.log(self.kappa), axis=2)).max(axis=(0, 1))
            drift = np.concatenate([[0.0], np.cumsum(steps)])
        # a non-finite level poisons the later ones; the check after the loop names the first
        with np.errstate(invalid="ignore", over="ignore"):
            for n in range(1, nt + 1):
                if self._group[n] != held:
                    held, A = self._group[n], None
                    if lu is not None and held not in self._lus and drift[n] <= limit:
                        A = self._assemble(n)  # the group's levels are solved by CG on lu
                    else:
                        lu = self._lus.get(held)
                        if lu is None:
                            lu = self._factor(n)
                            if keep:
                                self._lus[held] = lu
                        limit = drift[n] + _LOG_DRIFT
                rhs = base[n - 1] + self.svol * (U[n - 1] - w.history(diffs, n))
                x = None if A is None else _pcg(A, lu, rhs)
                if x is not None:
                    self.cg_levels += 1
                else:
                    if A is not None:  # CG did not converge: factor this level and the rest of its group
                        A, lu, limit = None, self._factor(n), drift[n] + _LOG_DRIFT
                    x = lu.solve(rhs)
                U[n] = x
                np.subtract(U[n], U[n - 1], out=diffs[n - 1])
        finite = np.isfinite(U).all(axis=1)
        if not finite.all():
            raise SolverError(f"non-finite solution at level {int(np.argmin(finite))}")
        out = np.zeros((grid.nx, grid.ny, nt + 1))
        out[:mx, :my, :] = U.reshape(nt + 1, mx, my).transpose(1, 2, 0)
        out[:, :, 0] = g
        return out

    def adjoint_gradient(self, r1: np.ndarray, r2: np.ndarray):
        """Exact gradient of the discrete misfit with respect to both fluxes.

        ``r1``/``r2`` are boundary residuals u|_Gamma - h shaped like flux
        traces.  Solves the transpose of the marching recursion backward in
        time and returns the gradient in the L2(Gamma x (0,T)) sense, shaped
        (ny, nt+1) and (nx, nt+1).  The entries at n=0 and at the Dirichlet
        endpoints are exactly zero: the discrete solution does not depend on
        those flux samples.  The factors it builds stay cached on the
        operator for the sensitivity marches that follow.
        """
        grid, w = self.grid, self.w
        mx, my, nt = self.mx, self.my, grid.nt
        _check_shape("r1", r1, (grid.ny, nt + 1))
        _check_shape("r2", r2, (grid.nx, nt + 1))
        m = mx * my
        wt = time_weights(grid)
        row1, row2 = self.P[0, :], self.P[:, 0]
        # the residual terms of every level, row n-1 for level n
        base = np.zeros((nt, m))
        base[:, row1] += wt[1:, None] * self.dyc * r1[:my, 1:].T
        base[:, row2] += wt[1:, None] * self.dxc * r2[:mx, 1:].T
        lam = np.zeros((nt + 1, m))
        for n in range(nt, 0, -1):
            gid = self._group[n]
            lu = self._lus.get(gid)
            if lu is None:
                lu = self._lus[gid] = self._factor(n)
            lam[n] = lu.solve(base[n - 1] + self.svol * w.history_transpose(lam, n))
        g1 = np.zeros((grid.ny, nt + 1))
        g2 = np.zeros((grid.nx, nt + 1))
        g1[:my, 1:] = -(lam[1:, row1] / wt[1:, None]).T
        g2[:mx, 1:] = -(lam[1:, row2] / wt[1:, None]).T
        return g1, g2


def solve_nonlinear(problem: NonlinearProblem, cfg: PicardConfig) -> tuple[Field, SolveReport]:
    """Successive linearization: freeze k at the previous iterate and resolve.

    Starts from the zero iterate; stops when the L2(0,T;H1) increment drops
    to ``theta_bar`` or after ``fixed_iters`` sweeps.  The iteration aborts
    after three consecutive sweeps whose increment exceeds 1.5 times the
    previous sweep's.  The problem is an initial-value problem: ``g`` is the
    data at t = 0.
    """
    grid = problem.grid
    source, f1, f2 = problem.source, problem.flux.f1.values, problem.flux.f2.values
    u_old = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    history: list[float] = []
    limit = cfg.fixed_iters if cfg.fixed_iters is not None else cfg.max_outer
    rises = 0
    converged = False
    factorizations = cg_levels = 0
    for _ in range(limit):
        kappa = kappa_from_iterate(problem.model, grid, u_old)
        op = GridOperator(grid, problem.beta, kappa)
        u_new = op.march(source, f1, f2, problem.g)
        factorizations += op.factorizations
        cg_levels += op.cg_levels
        # release the operator before the next sweep builds its own: held
        # over, it raised the peak RSS of the Inv2 table sweep by 13 MiB
        del op
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
            f"no convergence to theta_bar={cfg.theta_bar} in {cfg.max_outer} sweeps; "
            f"last increment {res:.1e}",
            residual_history=history,
        )
    eta_star = max(len(history) - 1, 1) if converged else len(history)
    report = SolveReport(
        eta_star=eta_star,
        residual_history=history,
        kappa=kappa_from_iterate(problem.model, grid, u_new),
        converged=converged,
        factorizations=factorizations,
        cg_levels=cg_levels,
    )
    return Field(grid, u_new), report


def solve_sensitivity(op: GridOperator, s1: BoundaryTrace | None = None, s2: BoundaryTrace | None = None) -> Field:
    """Linearized response to the fluxes (s1, s2) with zero source and initial data.

    ``op`` carries the grid, the order and the frozen coefficient; the march
    reuses the factors its ``adjoint_gradient`` cached.  A missing flux is
    zero; ``s1`` must be a Gamma1 trace and ``s2`` a Gamma2 trace on the
    operator's grid.
    """
    grid = op.grid
    for name, s, edge in (("s1", s1, Edge.GAMMA1), ("s2", s2, Edge.GAMMA2)):
        if s is not None and (s.edge is not edge or s.grid != grid):
            raise ValueError(f"{name} must be a {edge.value} trace on the operator's grid")
    f1 = s1.values if s1 is not None else np.zeros((grid.ny, grid.nt + 1))
    f2 = s2.values if s2 is not None else np.zeros((grid.nx, grid.nt + 1))
    source = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    vals = op.march(source, f1, f2, np.zeros((grid.nx, grid.ny)))
    return Field(grid, vals)
