"""Uniform space-time grids on the unit square, field storage, boundary traces
and the discrete norms used by the solvers and the optimizer.

Geometry conventions: the domain is (0,1)^2, node (i, j, n) sits at
(i*hx, j*hy, n*tau).  Gamma1 is the edge x=0, Gamma2 is y=0, Gamma3 is x=1
and Gamma4 is y=1; homogeneous Dirichlet conditions live on Gamma3/Gamma4.
All integrals are composite trapezoid rules in space and time.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np


class Edge(enum.Enum):
    GAMMA1 = "gamma1"  # x = 0, indexed by (j, n)
    GAMMA2 = "gamma2"  # y = 0, indexed by (i, n)


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of (0,1)^2 x (0, t_final).

    ``nx``/``ny`` count nodes including both boundaries; ``nt`` counts time
    steps, so there are nt+1 time levels.
    """

    nx: int
    ny: int
    nt: int
    t_final: float = 1.0

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny, self.nt)):
            raise ValueError("grid needs integer nx, ny and nt")
        if self.nx < 3 or self.ny < 3 or self.nt < 1 or not 0.0 < self.t_final < np.inf:
            raise ValueError("grid needs nx, ny >= 3, nt >= 1, 0 < t_final < inf")

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def tau(self) -> float:
        return self.t_final / self.nt

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nt + 1)

    @classmethod
    def from_spacing(cls, h: float, tau: float, t_final: float = 1.0) -> "Grid":
        """Grid with mesh size ~h in both directions and time step ~tau."""
        if not (h > 0.0 and tau > 0.0 and 0.0 < t_final < np.inf):
            raise ValueError("grid needs h > 0, tau > 0 and 0 < t_final < inf")
        n = round(1.0 / h) + 1
        nt = round(t_final / tau)
        return cls(nx=n, ny=n, nt=nt, t_final=t_final)

    def refined(self) -> "Grid":
        """Grid with mesh and step sizes halved."""
        return Grid(
            nx=(self.nx - 1) * 2 + 1,
            ny=(self.ny - 1) * 2 + 1,
            nt=self.nt * 2,
            t_final=self.t_final,
        )


def edge_size(grid: Grid, edge: Edge) -> int:
    return grid.ny if edge is Edge.GAMMA1 else grid.nx


def edge_spacing(grid: Grid, edge: Edge) -> float:
    return grid.hy if edge is Edge.GAMMA1 else grid.hx


@dataclass(frozen=True)
class Field:
    """Space-time scalar field on a Grid, values shaped (nx, ny, nt+1)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.nx, self.grid.ny, self.grid.nt + 1)
        if self.values.shape != expect:
            raise ValueError(f"field shape {self.values.shape} != {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass(frozen=True)
class BoundaryTrace:
    """Values of a space-time function on one edge, shaped (edge nodes, nt+1)."""

    grid: Grid
    edge: Edge
    values: np.ndarray

    def __post_init__(self):
        expect = (edge_size(self.grid, self.edge), self.grid.nt + 1)
        if self.values.shape != expect:
            raise ValueError(f"trace shape {self.values.shape} != {expect}")


@dataclass(frozen=True)
class BoundaryFlux:
    """The pair of unknown fluxes (f1 on Gamma1, f2 on Gamma2)."""

    f1: BoundaryTrace
    f2: BoundaryTrace

    def __post_init__(self):
        if self.f1.edge is not Edge.GAMMA1 or self.f2.edge is not Edge.GAMMA2:
            raise ValueError("f1 must live on Gamma1 and f2 on Gamma2")
        if self.f1.grid != self.f2.grid:
            raise ValueError("flux components on different grids")

    @property
    def grid(self) -> Grid:
        return self.f1.grid


def zero_flux(grid: Grid) -> BoundaryFlux:
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, np.zeros((grid.ny, grid.nt + 1))),
        f2=BoundaryTrace(grid, Edge.GAMMA2, np.zeros((grid.nx, grid.nt + 1))),
    )


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def time_weights(grid: Grid) -> np.ndarray:
    return _trapezoid_weights(grid.nt + 1, grid.tau)


def edge_weights(grid: Grid, edge: Edge) -> np.ndarray:
    return _trapezoid_weights(edge_size(grid, edge), edge_spacing(grid, edge))


def _check_compatible(a: BoundaryTrace, b: BoundaryTrace):
    if a.grid != b.grid or a.edge is not b.edge:
        raise ValueError("traces on mismatched grids or edges")


def trace_inner(a: BoundaryTrace, b: BoundaryTrace) -> float:
    """L2(Gamma_i x (0,T)) inner product, trapezoid rule in space and time."""
    _check_compatible(a, b)
    ws = edge_weights(a.grid, a.edge)
    wt = time_weights(a.grid)
    return float(ws @ (a.values * b.values) @ wt)


def trace_norm(a: BoundaryTrace) -> float:
    """L2 norm of a boundary trace over edge x (0, T)."""
    return float(np.sqrt(max(trace_inner(a, a), 0.0)))


def restrict_to_edge(fl: Field, edge: Edge) -> BoundaryTrace:
    """Boundary values of a field on one edge, all time levels."""
    vals = fl.values[0, :, :] if edge is Edge.GAMMA1 else fl.values[:, 0, :]
    return BoundaryTrace(fl.grid, edge, vals.copy())


def gradient_squared(values: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """|grad u|^2 by central differences (one-sided on the boundary rows).

    Works on (nx, ny) slices or whole (nx, ny, nt+1) stacks.
    """
    gx = np.gradient(values, hx, axis=0)
    gy = np.gradient(values, hy, axis=1)
    return gx * gx + gy * gy


def spacetime_h1_diff(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """The L2(0,T; H^1) norm of a - b: sqrt of the time integral of |grad|^2 + value^2."""
    d = a - b
    dens = gradient_squared(d, grid.hx, grid.hy) + d**2
    wx = _trapezoid_weights(grid.nx, grid.hx)
    wy = _trapezoid_weights(grid.ny, grid.hy)
    per_level = np.einsum("i,j,ijn->n", wx, wy, dens)
    return float(np.sqrt(max(per_level @ time_weights(grid), 0.0)))
