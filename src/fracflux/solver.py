"""Implicit finite-difference solvers for the fractional diffusion problems.

``GridOperator.march`` is the one linear solve.  ``solve_nonlinear`` builds
an operator at the frozen coefficient of every Picard sweep and marches it
once, forward from the initial data at t = 0; ``solve_sensitivity`` gives
the edge traces of an existing operator's response to two fluxes.  Space is
discretized by a conservative finite-volume
scheme (harmonic-mean face coefficients) on the unknowns i < nx-1,
j < ny-1; the Dirichlet edges x=1 and y=1 are eliminated, the flux edges
x=0 and y=0 enter the right-hand side through the boundary face integrals.
Time uses the L1 scheme, so every level solves
``(scale*V + L_n) u^n = rhs(history)``.  The memory sums are taken in the
blocks of levels of ``L1Weights.blocks``: once per block, a march subtracts
from the right-hand sides of all the block's levels the memory of the
increments before it, in one matrix product, and each level adds only the
memory of its own block's increments; the adjoint recursion does the same
with the transposed sums, block by block backward in time.  The level loop
of a march (``GridOperator._levels``) also solves many right-hand sides at
once, one triangular solve per level for all of them.

``GridOperator`` owns one sparse matrix and the LU factors of its levels
(levels with identical coefficient slices share one factorization) and also
implements the transpose recursion that yields the exact gradient of the
discrete boundary misfit with respect to the two fluxes.  The matrix is built
once per operator, with the five-point stencil written in CSC order; each
level overwrites its values, and SuperLU copies them into its own factors, so
a refill never reaches a factor already built.  Levels are factored in the
natural order: the lexicographic numbering of the unknowns is already a band
ordering, of bandwidth ny-1.

When levels 1..nt share one coefficient (a constant k; level 0 may differ,
and the coefficient may vary in space), every level has the same matrix and
the L1 weights depend only on the lag, so the edge traces respond to the
fluxes by a causal convolution h[n] = sum_{m <= n} K[n-m] f[m], with
(ny-1 + nx-1)-square blocks K[l].  Such an operator builds K on its first
adjoint or sensitivity call, on its one factor, in passes over the levels
with the edge impulses as columns of the right-hand side, as many columns
in a pass as ``_KERNEL_BYTES`` of increments hold; after that
``adjoint_gradient`` (the weighted transpose correlation with K) and
``solve_sensitivity`` (the convolution) are FFT products of length 2 nt.
An operator whose coefficient changes between levels keeps the recursions.

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
import numbers
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
# A kernel pass holds every level's increments of each of its columns, 8 nt m
# bytes a column for m unknowns; the build takes the edge impulses in groups
# of columns whose increments fit in _KERNEL_BYTES (one pass at 11x11 nodes
# and nt = 1000, which needs 16 MiB; four at 21x21 and nt = 2000, 256 MiB).
_KERNEL_BYTES = 64 << 20


class SolverError(RuntimeError):
    """Assembly or linear-solve failure, or a diverging Picard iteration."""


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
    """Outer-iteration control: an optional tolerance theta_bar within a budget of fixed_iters sweeps."""

    theta_bar: float | None = None
    fixed_iters: int = 100

    def __post_init__(self):
        if not isinstance(self.fixed_iters, numbers.Integral) or self.fixed_iters < 1:
            raise ValueError("fixed_iters must be an integer of at least 1")
        if self.theta_bar is not None and not 0.0 < self.theta_bar < np.inf:  # also false for nan
            raise ValueError("theta_bar must be positive and finite")


@dataclass
class SolveReport:
    """Outcome of one nonlinear solve, including the final frozen coefficient.

    ``converged`` is True only when the H1 increment reached ``theta_bar``; a
    solve that spent its ``fixed_iters`` budget reports False, for its caller to judge.
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


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise SolverError(f"{name} must be finite")


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

    When levels 1..nt share one coefficient, the first ``adjoint_gradient``
    or ``solve_sensitivity`` call builds the edge-trace kernel
    (``_trace_kernel``) on the one factor, which it takes from the cache when
    a march left it there, and keeps it; every such call after that is FFT
    products alone, with no factorization and no triangular solve.
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
        # levels 1..nt share one coefficient (level 0 is never solved for)
        self._invariant = bool(self._group[1] == self._group[grid.nt])
        self._edge_rows = np.concatenate([self.P[0, :], self.P[:, 0]])
        self._kernel = None
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
        grid = self.grid
        mx, my, nt = self.mx, self.my, grid.nt
        _check_shape("source", source, (grid.nx, grid.ny, nt + 1))
        _check_shape("f1", f1, (grid.ny, nt + 1))
        _check_shape("f2", f2, (grid.nx, nt + 1))
        g = _check_g(grid, g)
        row1, row2 = self.P[0, :], self.P[:, 0]
        # every level-independent term of the right-hand side, row n-1 for level n
        base = self.vol * np.moveaxis(source[:mx, :my, 1:], 2, 0).reshape(nt, mx * my)
        base[:, row1] -= (f1[:my, 1:] * self.dyc[:, None]).T
        base[:, row2] -= (f2[:mx, 1:] * self.dxc[:, None]).T
        # the last level's factor lives until this returns: freed before ``out``
        # was allocated, it raised the peak RSS of the bench's Fwd1 solve by 5 MiB
        U, last_factor = self._levels(base, g[:mx, :my].ravel(), slice(None))
        out = np.zeros((grid.nx, grid.ny, nt + 1))
        out[:mx, :my, :] = U.reshape(nt + 1, mx, my).transpose(1, 2, 0)
        out[:, :, 0] = g
        return out

    def _levels(self, base: np.ndarray, u0: np.ndarray, rows):
        """The L1 recursion over levels 1..nt.

        Returns rows ``rows`` of the unknowns of levels 0..nt, and the factor
        that solved the last level, which ``march`` holds until it has
        allocated its output.

        ``u0`` holds the unknowns of level 0 and ``base`` the terms of the
        right-hand side that do not depend on the solution, row n-1 for level
        n; the levels past its last row have none.  A trailing axis of ``u0``
        and ``base`` holds right-hand sides solved together: one triangular
        solve per level serves them all, and the memory sums run over all of
        them in one product.  That is the kernel build's use, on a coefficient
        shared by every level, where the CG gate never opens; ``_pcg`` takes
        a single right-hand side.
        """
        w, nt = self.w, self.grid.nt
        shape = u0.shape
        svol = self.svol.reshape((-1,) + (1,) * (len(shape) - 1))
        kept = np.empty((nt + 1,) + u0[rows].shape)
        kept[0] = u0[rows]
        diffs = np.zeros((nt,) + shape)  # diffs[q-1] = level q minus level q-1
        flat = diffs.reshape(nt, -1)  # a view: the memory sums treat every column alike
        prev = u0
        held, lu = -1, None
        keep = self._invariant  # one factor for every level: the next march reuses it
        if keep:
            drift = np.zeros(nt + 1)
        else:
            # drift[n] - drift[a] >= |log(kappa_n / kappa_a)| at every node
            steps = np.abs(np.diff(np.log(self.kappa), axis=2)).max(axis=(0, 1))
            drift = np.concatenate([[0.0], np.cumsum(steps)])
        # a non-finite level poisons the later ones; the check after the loop names the first
        with np.errstate(invalid="ignore", over="ignore"):
            for n0, n1 in w.blocks():
                # the memory of the increments before the block, for all its levels at once
                block = -(svol * w.far_history(flat, n0, n1).reshape((n1 - n0,) + shape))
                block[: max(len(base) - n0, 0)] += base[n0:n1]
                for n in range(n0 + 1, n1 + 1):
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
                    rhs = block[n - n0 - 1] + svol * (prev - w.near_history(flat, n0, n).reshape(shape))
                    x = None if A is None else _pcg(A, lu, rhs)
                    if x is not None:
                        self.cg_levels += 1
                    else:
                        if A is not None:  # CG did not converge: factor this level and the rest of its group
                            A, lu, limit = None, self._factor(n), drift[n] + _LOG_DRIFT
                        x = lu.solve(rhs)
                    kept[n] = x[rows]
                    np.subtract(x, prev, out=diffs[n - 1])
                    prev = x
        finite = np.isfinite(kept.reshape(nt + 1, -1)).all(axis=1)
        if not finite.all():
            raise SolverError(f"non-finite solution at level {int(np.argmin(finite))}")
        return kept, lu

    def _trace_kernel(self) -> np.ndarray:
        """The edge-trace kernel of a coefficient shared by levels 1..nt, as its real FFT of length 2 nt.

        Edge values are ordered Gamma1 nodes j < my, then Gamma2 nodes i < mx
        (the corner node sits in both).  K[l][:, j] is the response of the
        edge values at level 1 + l to a unit flux at level 1 on edge node j;
        every level has the same matrix and the L1 weights depend only on the
        lag, so a flux at level m has the response K[l] at level m + l.  The
        kernel is built on the first call, on the operator's one factor, and
        kept for the later calls: in passes of ``_levels`` with the my + mx
        impulses as columns, as many in one pass as ``_KERNEL_BYTES`` allows.
        """
        if self._kernel is None:
            m, nt = self.mx * self.my, self.grid.nt
            edge = self._edge_rows
            weights = -np.concatenate([self.dyc, self.dxc])
            width = max(1, _KERNEL_BYTES // (8 * nt * m))
            K = np.empty((nt, len(edge), len(edge)))
            for j0 in range(0, len(edge), width):
                cols = slice(j0, j0 + width)
                c = len(edge[cols])
                impulse = np.zeros((1, m, c))
                impulse[0, edge[cols], np.arange(c)] = weights[cols]
                K[:, :, cols] = self._levels(impulse, np.zeros((m, c)), edge)[0][1:]
            self._kernel = np.fft.rfft(K, 2 * nt, axis=0)
        return self._kernel

    def _edges(self, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
        """Levels 1..nt of a Gamma1 and a Gamma2 trace as the (nt, my+mx) edge values of the kernel."""
        return np.concatenate([a1[: self.my, 1:], a2[: self.mx, 1:]]).T

    def _traces(self, e: np.ndarray):
        """The Gamma1 and Gamma2 trace arrays of (nt, my+mx) edge values; zero at n=0 and the Dirichlet ends."""
        grid, my = self.grid, self.my
        a1 = np.zeros((grid.ny, grid.nt + 1))
        a2 = np.zeros((grid.nx, grid.nt + 1))
        a1[:my, 1:] = e[:, :my].T
        a2[: self.mx, 1:] = e[:, my:].T
        return a1, a2

    def adjoint_gradient(self, r1: np.ndarray, r2: np.ndarray):
        """Exact gradient of the discrete misfit with respect to both fluxes.

        ``r1``/``r2`` are boundary residuals u|_Gamma - h shaped like flux
        traces, and must be finite.  Returns the gradient in the
        L2(Gamma x (0,T)) sense, shaped (ny, nt+1) and (nx, nt+1).  The
        entries at n=0 and at the Dirichlet endpoints are exactly zero: the
        discrete solution does not depend on those flux samples.  When levels
        1..nt share one coefficient, the gradient is the weighted transpose
        correlation with the operator's trace kernel (``_trace_kernel``),
        which the first call builds; otherwise it solves the transpose of the
        marching recursion backward in time, and the factors it builds stay
        cached on the operator for the sensitivity marches that follow.
        """
        grid, w = self.grid, self.w
        mx, my, nt = self.mx, self.my, grid.nt
        for name, r, nodes in (("r1", r1, grid.ny), ("r2", r2, grid.nx)):
            _check_shape(name, r, (nodes, nt + 1))
            _check_finite(name, r)
        wt = time_weights(grid)
        if self._invariant:
            weight = wt[1:, None] * np.concatenate([self.dyc, self.dxc])
            # g[m] = W^-1 sum_{n >= m} K[n-m]^T W r[n], the weighted transpose of the convolution
            spectrum = np.fft.rfft(weight * self._edges(r1, r2), 2 * nt, axis=0)
            correlation = (spectrum.conj()[:, None, :] @ self._trace_kernel())[:, 0, :].conj()
            return self._traces(np.fft.irfft(correlation, 2 * nt, axis=0)[:nt] / weight)
        m = mx * my
        row1, row2 = self.P[0, :], self.P[:, 0]
        # the residual terms of every level, row n-1 for level n
        base = np.zeros((nt, m))
        base[:, row1] += wt[1:, None] * self.dyc * r1[:my, 1:].T
        base[:, row2] += wt[1:, None] * self.dxc * r2[:mx, 1:].T
        lam = np.zeros((nt + 1, m))
        for n0, n1 in reversed(w.blocks()):
            # the memory of the levels after the block, for all its levels at once
            base[n0:n1] += self.svol * w.far_history_transpose(lam, n0, n1)
            for n in range(n1, n0, -1):
                gid = self._group[n]
                lu = self._lus.get(gid)
                if lu is None:
                    lu = self._lus[gid] = self._factor(n)
                lam[n] = lu.solve(base[n - 1] + self.svol * w.near_history_transpose(lam, n, n1))
        return self._traces(-lam[1:, self._edge_rows] / wt[1:, None])


def solve_nonlinear(problem: NonlinearProblem, cfg: PicardConfig) -> tuple[Field, SolveReport]:
    """Successive linearization: freeze k at the previous iterate and resolve.

    Starts from the zero iterate; stops when the L2(0,T;H1) increment drops
    to ``theta_bar`` or after ``fixed_iters`` sweeps, and reports which without
    raising.  It raises ``SolverError`` after three consecutive sweeps whose
    increment exceeds 1.5 times the previous sweep's.  The problem is an
    initial-value problem: ``g`` is the data at t = 0.
    """
    grid = problem.grid
    source, f1, f2 = problem.source, problem.flux.f1.values, problem.flux.f2.values
    u_old = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    history: list[float] = []
    rises = 0
    converged = False
    factorizations = cg_levels = 0
    for _ in range(cfg.fixed_iters):
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
            raise SolverError(f"Picard iteration diverging after {len(history)} sweeps; last increment {res:.1e}")
        u_old = u_new
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


def solve_sensitivity(
    op: GridOperator, s1: BoundaryTrace | None = None, s2: BoundaryTrace | None = None
) -> tuple[BoundaryTrace, BoundaryTrace]:
    """Gamma1 and Gamma2 traces of the linearized response to the fluxes (s1, s2).

    The response has zero source and initial data; ``op`` carries the grid,
    the order and the frozen coefficient.  When levels 1..nt share one
    coefficient, the traces are the causal convolution of the fluxes with
    the operator's trace kernel, which the first adjoint or sensitivity call
    builds; otherwise they are the edges of a march, which reuses the
    factors its ``adjoint_gradient`` cached.  A missing flux is zero; ``s1``
    must be a finite Gamma1 trace and ``s2`` a finite Gamma2 trace on the
    operator's grid.
    """
    grid = op.grid
    for name, s, edge in (("s1", s1, Edge.GAMMA1), ("s2", s2, Edge.GAMMA2)):
        if s is None:
            continue
        if s.edge is not edge or s.grid != grid:
            raise ValueError(f"{name} must be a {edge.value} trace on the operator's grid")
        _check_finite(name, s.values)
    nt = grid.nt
    f1 = s1.values if s1 is not None else np.zeros((grid.ny, nt + 1))
    f2 = s2.values if s2 is not None else np.zeros((grid.nx, nt + 1))
    if op._invariant:
        # the causal convolution h[n] = sum_{m <= n} K[n-m] f[m]
        spectrum = op._trace_kernel() @ np.fft.rfft(op._edges(f1, f2), 2 * nt, axis=0)[:, :, None]
        a1, a2 = op._traces(np.fft.irfft(spectrum[:, :, 0], 2 * nt, axis=0)[:nt])
    else:
        u = op.march(np.zeros((grid.nx, grid.ny, nt + 1)), f1, f2, np.zeros((grid.nx, grid.ny)))
        a1, a2 = u[0, :, :].copy(), u[:, 0, :].copy()  # copies: views would keep all of u alive
    return BoundaryTrace(grid, Edge.GAMMA1, a1), BoundaryTrace(grid, Edge.GAMMA2, a2)
