"""Manufactured problem builders and noise injection.

The validation cases use separable closed-form solutions whose source terms
follow from the product rule (the terminal-value case is posed in reversed
time, where it is an initial-value problem); the flux-identification cases
either sample closed-form fluxes and boundary data, or synthesize the
observations by solving the direct problem on a once-refined grid and
restricting (so the inversion never sees data produced by its own
discretization).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cgm import INNER_PICARD, Observations, cost
from .fracops import mittag_leffler
from .materials import Constant, PlasticityModel, RambergOsgood, Rational
from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    trace_norm,
    zero_flux,
)
from .solver import NonlinearProblem, solve_nonlinear


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian noise level and the generator seed."""

    gamma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.gamma < np.inf:  # also false for nan
            raise ValueError("noise level must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("noise seed must be nonnegative")


@dataclass(frozen=True)
class ForwardExample:
    """An initial-value problem together with its exact solution.

    The arrays of both share one time axis: t for ``Fwd1``, the reversed time
    s = T - t for ``Adj2``.
    """

    problem: NonlinearProblem
    exact: Field


@dataclass(frozen=True)
class InverseExample:
    """A flux-identification problem: inputs, exact fluxes, clean observations.

    The problem's flux is the initial guess f^0 = 0 of the identification.
    """

    problem: NonlinearProblem
    exact_flux: BoundaryFlux
    observations: Observations


EPSILON_BAR_CLEAN = 1.25e-7


def _meshed(grid: Grid):
    return np.meshgrid(grid.xs, grid.ys, indexing="ij")


def _flux(grid: Grid, f1: np.ndarray, f2: np.ndarray) -> BoundaryFlux:
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, f1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, f2),
    )


def _separable_example(
    grid: Grid, beta: float, V: np.ndarray, DV: np.ndarray, g: np.ndarray
) -> ForwardExample:
    """Problem with exact solution V(t) (1-x)(1-y) and k(s) = 1/(1 + s).

    ``DV`` is the fractional derivative of the time factor ``V``.  With
    s = V^2 ((1-y)^2 + (1-x)^2) the product rule gives the source
    F = psi (DV - 4 V^3 k'(s)), and the exact fluxes -k du/dn on the two flux
    edges follow by substitution.
    """
    model = Rational()
    X, Y = _meshed(grid)
    psi = (1.0 - X) * (1.0 - Y)
    s = (V**2)[None, None, :] * (((1.0 - Y) ** 2 + (1.0 - X) ** 2)[:, :, None])
    F = psi[:, :, None] * (DV[None, None, :] - 4.0 * V[None, None, :] ** 3 * model.k_prime(s))
    f1 = -model.k(np.outer((1.0 - grid.ys) ** 2 + 1.0, V**2)) * np.outer(1.0 - grid.ys, V)
    f2 = -model.k(np.outer(1.0 + (1.0 - grid.xs) ** 2, V**2)) * np.outer(1.0 - grid.xs, V)
    problem = NonlinearProblem(
        grid=grid,
        beta=beta,
        model=model,
        source=F,
        flux=_flux(grid, f1, f2),
        g=g,
    )
    exact = Field(grid, psi[:, :, None] * V[None, None, :])
    return ForwardExample(problem=problem, exact=exact)


def make_forward_example1(grid: Grid, beta: float) -> ForwardExample:
    """Direct problem with exact solution E_beta(-t^beta) (1-x)(1-y).

    The time factor solves the fractional relaxation equation, so its
    fractional derivative is exactly its negative.
    """
    E = np.asarray(mittag_leffler(beta, -grid.ts**beta))
    X, Y = _meshed(grid)
    return _separable_example(grid, beta, E, -E, (1.0 - X) * (1.0 - Y))


def _reversed(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``a`` with its last (time) axis reversed."""
    return np.ascontiguousarray(a[..., ::-1])


def make_adjoint_example2(grid: Grid, beta: float) -> ForwardExample:
    """Terminal-value problem with exact solution (T-t)^(2 beta) (1-x)(1-y).

    The right-sided fractional derivative of the time factor is
    Gamma(2 beta + 1)/Gamma(beta + 1) (T-t)^beta.  In the reversed time
    s = T - t it is the Caputo derivative in s, so the problem is an
    initial-value problem with zero data at s = 0.  Every array of the
    example is indexed by s: level n holds t = T - n tau.  The arrays are
    built in t and then reversed, which keeps every value bitwise equal to
    its t-indexed counterpart; evaluating the formulas directly in s moves
    the source by an ulp.
    """
    T = grid.t_final
    V = (T - grid.ts) ** (2.0 * beta)
    c = math.gamma(2.0 * beta + 1.0) / math.gamma(beta + 1.0)
    DV = c * (T - grid.ts) ** beta
    ex = _separable_example(grid, beta, V, DV, np.zeros((grid.nx, grid.ny)))
    p = ex.problem
    flux = _flux(grid, _reversed(p.flux.f1.values), _reversed(p.flux.f2.values))
    problem = replace(p, source=_reversed(p.source), flux=flux)
    return ForwardExample(problem=problem, exact=Field(grid, _reversed(ex.exact.values)))


def make_inverse_example1(grid: Grid, beta: float) -> InverseExample:
    """Identification case with exact solution t^beta log(2-x) (1-y).

    The coefficient is k(s) = 1/(1 + s); the exact fluxes and boundary data
    are the closed forms obtained by substitution, so no synthetic solve is
    involved and the observations carry no discretization bias.
    """
    model = Rational()
    X, Y = _meshed(grid)
    ts = grid.ts
    tb = ts**beta
    L = np.log(2.0 - X)
    oy = 1.0 - Y
    # source from D^beta u - div(k grad u) with u = t^beta L(x) (1-y)
    s = (tb**2)[None, None, :] * ((oy**2 / (2.0 - X) ** 2 + L**2)[:, :, None])
    k, kp = model.k(s), model.k_prime(s)
    lap = -(tb[None, None, :]) * (oy / (2.0 - X) ** 2)[:, :, None]
    ux = -(tb[None, None, :]) * (oy / (2.0 - X))[:, :, None]
    uy = -(tb[None, None, :]) * L[:, :, None]
    sx = (tb**2)[None, None, :] * (
        (2.0 * oy**2 / (2.0 - X) ** 3)[:, :, None] - (2.0 * L / (2.0 - X))[:, :, None]
    )
    sy = -(tb**2)[None, None, :] * (2.0 * oy / (2.0 - X) ** 2)[:, :, None]
    F = (math.gamma(1.0 + beta) * L * oy)[:, :, None] - (k * lap + kp * (sx * ux + sy * uy))
    # exact fluxes -k du/dn on the two flux edges
    oyv = 1.0 - grid.ys
    f1 = -np.outer(oyv / 2.0, tb) * model.k(np.outer(oyv**2 / 4.0 + math.log(2.0) ** 2, tb**2))
    Lx = np.log(2.0 - grid.xs)
    f2 = -np.outer(Lx, tb) * model.k(np.outer(1.0 / (2.0 - grid.xs) ** 2 + Lx**2, tb**2))
    exact_flux = _flux(grid, f1, f2)
    # analytic observations on the two measured edges
    h1 = BoundaryTrace(grid, Edge.GAMMA1, np.outer(math.log(2.0) * oyv, tb))
    h2 = BoundaryTrace(grid, Edge.GAMMA2, np.outer(Lx, tb))
    problem = NonlinearProblem(
        grid=grid,
        beta=beta,
        model=model,
        source=F,
        flux=zero_flux(grid),
        g=np.zeros((grid.nx, grid.ny)),
    )
    obs = Observations(h1=h1, h2=h2, epsilon_bar=EPSILON_BAR_CLEAN)
    return InverseExample(problem=problem, exact_flux=exact_flux, observations=obs)


def _example2_data(grid: Grid):
    X, Y = _meshed(grid)
    ts = grid.ts
    tfac = np.exp(-ts) * (ts - ts**2)
    F = np.repeat(np.sin(2.0 * np.pi * X * Y)[:, :, None], grid.nt + 1, axis=2)
    f1 = np.outer(np.sin(3.0 * np.pi * grid.ys), tfac)
    f2 = np.outer(np.sin(2.0 * np.pi * grid.xs), tfac)
    return F, _flux(grid, f1, f2)


def _guarded_inverse_example(
    grid: Grid, beta: float, model: PlasticityModel
) -> InverseExample:
    F, exact_flux = _example2_data(grid)
    problem = NonlinearProblem(grid, beta, model, F, zero_flux(grid), np.zeros((grid.nx, grid.ny)))
    # observations: solve on the once-refined grid and restrict the boundary traces
    fine = grid.refined()
    F_fine, flux_fine = _example2_data(fine)
    u, _ = solve_nonlinear(
        NonlinearProblem(fine, beta, model, F_fine, flux_fine, np.zeros((fine.nx, fine.ny))), INNER_PICARD
    )
    h1 = BoundaryTrace(grid, Edge.GAMMA1, u.values[0, ::2, ::2].copy())
    h2 = BoundaryTrace(grid, Edge.GAMMA2, u.values[::2, 0, ::2].copy())
    # attainable misfit floor: the inversion-grid solution at the exact flux
    floor = cost(replace(problem, flux=exact_flux), Observations(h1=h1, h2=h2, epsilon_bar=EPSILON_BAR_CLEAN))
    obs = Observations(h1=h1, h2=h2, epsilon_bar=max(EPSILON_BAR_CLEAN, floor))
    return InverseExample(problem=problem, exact_flux=exact_flux, observations=obs)


def make_inverse_example2(grid: Grid, beta: float) -> InverseExample:
    """Identification case without a closed-form solution.

    F = sin(2 pi x y), f1 = e^-t (t - t^2) sin(3 pi y), f2 = e^-t (t - t^2)
    sin(2 pi x); observations are synthesized on the refined grid.  The stop
    threshold is the larger of the clean-data default and the misfit floor
    attainable on the inversion grid (the refined-grid data are not exactly
    reproducible at the inversion resolution).
    """
    return _guarded_inverse_example(grid, beta, Constant(1.0))


def make_inverse_example3(case: str, grid: Grid, beta: float) -> InverseExample:
    """Ramberg-Osgood materials driven by the same fluxes as the implicit case.

    Soft: E = 110 GPa, T0^2 = 0.02; stiff: E = 210 GPa, T0^2 = 0.027; both
    with nu = 0.3 and hardening exponent 0.5.  The coefficient is in units of
    the shear compliance 1/G, so the elastic plateau is k = 1 and the PDE
    stays O(1).  E and nu cancel in those units: both cases have
    k(s) = max(s/T0^2, 1)^-0.25 and differ only in T0^2.
    """
    if case not in ("soft", "stiff"):
        raise ValueError("case must be 'soft' or 'stiff'")
    t0_sq = 0.02 if case == "soft" else 0.027
    return _guarded_inverse_example(grid, beta, RambergOsgood(t0_sq=t0_sq, hardening=0.5))


def add_noise(tr: BoundaryTrace, spec: NoiseSpec) -> tuple[BoundaryTrace, float]:
    """Perturb a trace by gamma * N(0,1) * ||trace||; returns the realized level."""
    if spec.gamma == 0.0:
        return tr, 0.0
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    z = rng.standard_normal(tr.values.shape)
    noisy = BoundaryTrace(tr.grid, tr.edge, tr.values + spec.gamma * z * trace_norm(tr))
    eps = trace_norm(BoundaryTrace(tr.grid, tr.edge, noisy.values - tr.values))
    return noisy, eps


def noisy_observations(obs: Observations, spec: NoiseSpec) -> Observations:
    """Replace the traces by noisy ones and raise the stop threshold to the realized level."""
    if spec.gamma == 0.0:
        return obs
    h1, eps1 = add_noise(obs.h1, spec)
    h2, eps2 = add_noise(obs.h2, NoiseSpec(gamma=spec.gamma, seed=spec.seed + 1))
    return Observations(h1=h1, h2=h2, epsilon_bar=max(obs.epsilon_bar, 0.5 * (eps1**2 + eps2**2)))


PRESETS = {
    "Fwd1": make_forward_example1,
    "Adj2": make_adjoint_example2,
    "Inv1": make_inverse_example1,
    "Inv2": make_inverse_example2,
    "Inv3Soft": functools.partial(make_inverse_example3, "soft"),
    "Inv3Stiff": functools.partial(make_inverse_example3, "stiff"),
}
