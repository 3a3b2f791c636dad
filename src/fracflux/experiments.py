"""Manufactured problem builders and noise injection.

The closed-form cases Fwd1, Adj2 and Inv1 come from one builder: a separable
exact solution u = V(t) X(x) Y(y) under k(s) = 1/(1 + s), whose source and
exact fluxes follow from the product rule.  The terminal-value case is built
directly in the reversed time s = T - t, where it is an initial-value
problem; Inv1's observations are its exact field's traces on the two flux
edges.  The other flux-identification cases synthesize the observations by
solving the direct problem to convergence on a once-refined grid and
restricting (so the inversion never sees data produced by its own
discretization).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .cgm import Observations, cost
from .fracops import mittag_leffler
from .materials import Constant, PlasticityModel, RambergOsgood, Rational
from .mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    restrict_to_edge,
    trace_norm,
    zero_flux,
)
from .solver import NonlinearProblem, PicardConfig, SolverError, solve_nonlinear


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian noise level and the generator seed."""

    gamma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.gamma < np.inf:  # also false for nan
            raise ValueError("noise level must be nonnegative and finite")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"noise seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ForwardExample:
    """An initial-value problem together with its exact solution.

    The arrays of both share one time axis: t for ``Fwd1``, and for ``Adj2``
    the reversed time s = T - t in which it is built and solved.
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
# the refined-grid solve behind synthesized observations; it must reach its
# tolerance within the default budget, or the build fails
_SYNTH_PICARD = PicardConfig(theta_bar=1e-12)


def _flux(grid: Grid, f1: np.ndarray, f2: np.ndarray) -> BoundaryFlux:
    return BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, f1),
        f2=BoundaryTrace(grid, Edge.GAMMA2, f2),
    )


def _separable_example(grid: Grid, beta: float, V: np.ndarray, DV: np.ndarray, X, Y) -> ForwardExample:
    """Problem with exact solution u = V(t) X(x) Y(y) and k(s) = 1/(1 + s).

    ``DV`` is the Caputo derivative of the time factor ``V``; ``X`` and ``Y``
    each hold a spatial factor and its first two derivatives at the grid
    nodes.  With psi = X Y and s = |grad u|^2 = V^2 |grad psi|^2 the product
    rule gives the source
    F = psi DV - V (k lap psi + V^2 k'(s) grad|grad psi|^2 . grad psi),
    and the exact fluxes -k du/dn are k u_x on x = 0 and k u_y on y = 0.
    The initial data are the exact field at t = 0.
    """
    model = Rational()
    (X0, X1, X2), (Y0, Y1, Y2) = ((a[:, None] for a in X), (a[None, :] for a in Y))
    psi = X0 * Y0
    px, py = X1 * Y0, X0 * Y1  # grad psi
    lap = X2 * Y0 + X0 * Y2
    # grad|grad psi|^2 . grad psi = 2 grad psi . Hessian(psi) grad psi
    G = 2.0 * (px * px * (X2 * Y0) + 2.0 * px * py * (X1 * Y1) + py * py * (X0 * Y2))
    s = V**2 * (px**2 + py**2)[:, :, None]
    k = model.k(s)
    flux = _flux(grid, k[0] * np.outer(px[0], V), k[:, 0] * np.outer(py[:, 0], V))
    # F is built in place, in the buffers of k' and k and then s: a fresh
    # grid-sized array per term slowed the Fwd1 build at 21 x 21 x 1001 nodes
    F = model.k_prime(s)
    F *= V**2
    F *= G[:, :, None]
    k *= lap[:, :, None]
    F += k
    F *= V
    np.subtract(np.multiply(psi[:, :, None], DV, out=s), F, out=F)
    exact = Field(grid, psi[:, :, None] * V[None, None, :])
    problem = NonlinearProblem(grid, beta, model, F, flux, exact.values[:, :, 0].copy())
    return ForwardExample(problem=problem, exact=exact)


def _one_minus(z: np.ndarray):
    """The factor 1 - z with its first two derivatives."""
    return 1.0 - z, np.full_like(z, -1.0), np.zeros_like(z)


def make_forward_example1(grid: Grid, beta: float) -> ForwardExample:
    """Direct problem with exact solution E_beta(-t^beta) (1-x)(1-y).

    The time factor solves the fractional relaxation equation, so its
    fractional derivative is exactly its negative.
    """
    E = np.asarray(mittag_leffler(beta, -grid.ts**beta))
    return _separable_example(grid, beta, E, -E, _one_minus(grid.xs), _one_minus(grid.ys))


def make_adjoint_example2(grid: Grid, beta: float) -> ForwardExample:
    """Terminal-value problem with exact solution (T-t)^(2 beta) (1-x)(1-y).

    Posed in the reversed time s = T - t, where the right-sided fractional
    derivative is the Caputo derivative in s, this is an initial-value
    problem with zero data: the time factor s^(2 beta) has the derivative
    Gamma(2 beta + 1)/Gamma(beta + 1) s^beta.  Every array of the example is
    indexed by s: level n holds t = T - n tau.
    """
    s = grid.ts
    c = math.gamma(2.0 * beta + 1.0) / math.gamma(beta + 1.0)
    return _separable_example(grid, beta, s ** (2.0 * beta), c * s**beta, _one_minus(grid.xs), _one_minus(grid.ys))


def make_inverse_example1(grid: Grid, beta: float) -> InverseExample:
    """Identification case with exact solution t^beta log(2-x) (1-y).

    The coefficient is k(s) = 1/(1 + s).  The exact fluxes are the closed
    forms of the separable builder, and the observations are the exact
    field's traces on the two flux edges, so no synthetic solve is involved
    and the observations carry no discretization bias.
    """
    d = 2.0 - grid.xs
    V = grid.ts**beta
    DV = np.full(grid.nt + 1, math.gamma(1.0 + beta))
    ex = _separable_example(grid, beta, V, DV, (np.log(d), -1.0 / d, -1.0 / d**2), _one_minus(grid.ys))
    obs = Observations(
        h1=restrict_to_edge(ex.exact, Edge.GAMMA1),
        h2=restrict_to_edge(ex.exact, Edge.GAMMA2),
        epsilon_bar=EPSILON_BAR_CLEAN,
    )
    problem = replace(ex.problem, flux=zero_flux(grid))
    return InverseExample(problem=problem, exact_flux=ex.problem.flux, observations=obs)


def _example2_data(grid: Grid):
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
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
    u, rep = solve_nonlinear(
        NonlinearProblem(fine, beta, model, F_fine, flux_fine, np.zeros((fine.nx, fine.ny))), _SYNTH_PICARD
    )
    if not rep.converged:
        raise SolverError(
            f"synthesizing the observations: no convergence to theta_bar={_SYNTH_PICARD.theta_bar} "
            f"in {_SYNTH_PICARD.fixed_iters} sweeps; last increment {rep.residual_history[-1]:.1e}"
        )
    h1 = BoundaryTrace(grid, Edge.GAMMA1, u.values[0, ::2, ::2].copy())
    h2 = BoundaryTrace(grid, Edge.GAMMA2, u.values[::2, 0, ::2].copy())
    # attainable misfit floor: the inversion-grid solution at the exact flux,
    # through cost's INNER_PICARD solve, the map that the identification inverts
    floor = cost(replace(problem, flux=exact_flux), Observations(h1=h1, h2=h2, epsilon_bar=EPSILON_BAR_CLEAN))
    obs = Observations(h1=h1, h2=h2, epsilon_bar=max(EPSILON_BAR_CLEAN, floor))
    return InverseExample(problem=problem, exact_flux=exact_flux, observations=obs)


def make_inverse_example2(grid: Grid, beta: float) -> InverseExample:
    """Identification case without a closed-form solution.

    F = sin(2 pi x y), f1 = e^-t (t - t^2) sin(3 pi y), f2 = e^-t (t - t^2)
    sin(2 pi x); observations come from a converged solve on the refined
    grid.  The stop threshold is the larger of the clean-data default and the
    misfit floor attainable on the inversion grid (the refined-grid data are
    not exactly reproducible at the inversion resolution).
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
