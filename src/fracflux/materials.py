"""Plasticity coefficient models k(T^2) and admissibility checking.

Three model kinds: a constant coefficient, the Ramberg-Osgood engineering
material law in units of the shear compliance (elastic plateau 1 followed by
a power-law decay beyond the yield threshold T0^2), and a tabulated law with
monotone piecewise-linear interpolation.  The admissible class requires positive two-sided bounds, a
nonincreasing coefficient and an elastic plateau at the left end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import gradient_squared

TABLE_POINTS = 4001  # samples of a tabulated law built from a function


class PlasticityModel:
    """Interface: the vectorized coefficient ``k(t_sq)``."""

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
        if self.value <= 0.0:
            raise ValueError("coefficient must be positive")

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
class Tabulated(PlasticityModel):
    """Piecewise-linear coefficient through (T^2, k) samples; clamps outside."""

    t_sq_samples: np.ndarray
    k_samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_sq_samples, dtype=float)
        k = np.asarray(self.k_samples, dtype=float)
        if t.ndim != 1 or t.shape != k.shape or len(t) < 2:
            raise ValueError("need matching 1-D sample arrays with >= 2 points")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("T^2 samples must be strictly increasing")
        if np.any(k <= 0.0):
            raise ValueError("coefficient samples must be positive")
        object.__setattr__(self, "t_sq_samples", t)
        object.__setattr__(self, "k_samples", k)

    @classmethod
    def from_function(cls, fn, t_sq_max: float) -> "Tabulated":
        t = np.linspace(0.0, t_sq_max, TABLE_POINTS)
        return cls(t_sq_samples=t, k_samples=np.asarray(fn(t), dtype=float))

    def k(self, t_sq):
        return np.interp(self._check(t_sq), self.t_sq_samples, self.k_samples)


def kappa_from_iterate(model: PlasticityModel, grid, values: np.ndarray) -> np.ndarray:
    """Coefficient arrays k(|grad u|^2) for every time level at once."""
    return model.k(gradient_squared(values, grid.hx, grid.hy))


@dataclass(frozen=True)
class ClassKReport:
    c0: float
    c1: float
    monotone_ok: bool
    plateau_ok: bool

    @property
    def ok(self) -> bool:
        return self.c0 > 0.0 and self.monotone_ok and self.plateau_ok


def validate_class_K(model: PlasticityModel, t_sq_range: tuple[float, float]) -> ClassKReport:
    """Sample the coefficient at 401 points and report the admissible-class diagnostics.

    Reports the empirical bounds, whether finite-difference k' stays below
    1e-10 max(|k(lo)|, 1), and whether an elastic plateau exists at the left
    end of the range (at least two leading samples equal).
    """
    lo, hi = t_sq_range
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    s = np.linspace(lo, hi, 401)
    k = np.asarray(model.k(s), dtype=float)
    dk = np.diff(k) / np.diff(s)
    plateau = bool(abs(k[1] - k[0]) <= 1e-9 * max(abs(k[0]), 1e-300))
    return ClassKReport(
        c0=float(k.min()),
        c1=float(k.max()),
        monotone_ok=bool(np.all(dk <= 1e-10 * max(abs(k[0]), 1.0))),
        plateau_ok=plateau,
    )
