"""Plasticity coefficient models k(T^2) and their evaluation on an iterate.

Three laws: a constant coefficient, the Ramberg-Osgood engineering material
law in units of the shear compliance (elastic plateau 1 followed by a
power-law decay beyond the yield threshold T0^2), and the rational law
1/(1 + T^2) in closed form.  ``kappa_from_iterate`` evaluates a law at
|grad u|^2 of every time level of an iterate, a block of levels at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _level_blocks, gradient_squared


class PlasticityModel:
    """Interface: the vectorized coefficient ``k(t_sq)``, elementwise in ``t_sq``."""

    def k(self, t_sq):
        raise NotImplementedError

    def _check(self, t_sq) -> np.ndarray:
        arr = np.asarray(t_sq, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("squared stress intensity must be nonnegative")
        return arr


@dataclass(frozen=True)
class Constant(PlasticityModel):
    value: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.value < np.inf:  # also false for nan
            raise ValueError("coefficient must be positive and finite")

    def k(self, t_sq):
        return np.full_like(self._check(t_sq), self.value)


@dataclass(frozen=True)
class RambergOsgood(PlasticityModel):
    """k = 1 for T^2 <= T0^2, then (T^2/T0^2)^(0.5(kappa-1)).

    The Ramberg-Osgood law in units of the shear compliance 1/G, so the
    elastic plateau is 1; Young's modulus and Poisson's ratio only set G and
    cancel in these units.  ``t0_sq`` is the yield threshold T0^2 and
    ``hardening`` the strain hardening exponent kappa.
    """

    t0_sq: float
    hardening: float

    def __post_init__(self):
        if not 0.0 < self.t0_sq < np.inf:
            raise ValueError("T0^2 must be positive and finite")
        if not 0.0 < self.hardening < 1.0:
            raise ValueError("strain hardening exponent must be in (0, 1)")

    def k(self, t_sq):
        s = self._check(t_sq)
        return np.maximum(s / self.t0_sq, 1.0) ** (0.5 * (self.hardening - 1.0))


@dataclass(frozen=True)
class Rational(PlasticityModel):
    """k = 1/(1 + T^2), with its derivative k' = -1/(1 + T^2)^2; no plateau."""

    def k(self, t_sq):
        return 1.0 / (1.0 + self._check(t_sq))

    def k_prime(self, t_sq):
        return -1.0 / (1.0 + self._check(t_sq)) ** 2


def kappa_from_iterate(model: PlasticityModel, grid, values: np.ndarray) -> np.ndarray:
    """Coefficient arrays k(|grad u|^2) for every time level of an (nx, ny, nt+1) iterate.

    Evaluated a block of time levels at a time, into the one array returned.
    ``np.gradient`` acts on the two space axes only and k is elementwise, so
    every level's value is bit for bit the whole-stack evaluation's, and the
    temporaries take a few blocks of levels instead of four copies of the stack.
    """
    kappa = np.empty(values.shape)
    for levels in _level_blocks(kappa.shape[2]):
        kappa[:, :, levels] = model.k(gradient_squared(values[:, :, levels], grid.hx, grid.hy))
    return kappa
