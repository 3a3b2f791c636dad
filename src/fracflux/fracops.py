"""Discrete fractional time derivatives (L1 scheme) and a Mittag-Leffler evaluator.

The left Caputo derivative of order ``beta`` in (0, 1) is discretized on a
uniform time grid by the standard L1 scheme.  ``L1Weights`` owns its memory
term in both directions: ``history`` is the sum over past increments that the
forward march subtracts at each level, and ``history_transpose`` is its exact
transpose, the sum over later levels that the backward adjoint recursion adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class L1Weights:
    """Weight table for the L1 discretization of a Caputo derivative.

    ``b[j] = (j+1)^(1-beta) - j^(1-beta)``, ``db[q-1] = b[q-1] - b[q] > 0`` and
    ``scale = tau^-beta / Gamma(2-beta)``.  With increments
    ``d[m] = u^{m+1} - u^m`` the derivative at level n is
    ``scale * (d[n-1] + history(d, n))``.  ``b_rev`` is a contiguous copy of
    ``b`` reversed, so that ``history`` reads ``d`` forward: a negative stride
    on either operand keeps numpy from handing the product to BLAS.
    """

    b: np.ndarray
    db: np.ndarray
    scale: float
    b_rev: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "b_rev", np.ascontiguousarray(self.b[::-1]))

    def history(self, d: np.ndarray, n: int):
        """Memory sum ``sum_{j=1}^{n-1} b_j d[n-1-j]`` over axis 0 of ``d``."""
        nt = len(self.b)
        return self.b_rev[nt - n : nt - 1] @ d[: n - 1]

    def history_transpose(self, lam: np.ndarray, n: int):
        """Transposed memory sum ``sum_{q=1}^{nt-n} (b_{q-1} - b_q) lam[n+q]``."""
        nt = len(self.b)
        return self.db[: nt - n] @ lam[n + 1 : nt + 1]


def l1_weights(beta: float, tau: float, nt: int) -> L1Weights:
    """Build L1 weights for ``nt`` time steps of size ``tau``."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"fractional order must be in (0, 1), got {beta}")
    if not 0.0 < tau < np.inf or nt < 1:  # also false for nan
        raise ValueError("need 0 < tau < inf and nt >= 1")
    j = np.arange(nt, dtype=float)
    b = (j + 1.0) ** (1.0 - beta) - j ** (1.0 - beta)
    scale = tau ** (-beta) / math.gamma(2.0 - beta)
    return L1Weights(b=b, db=b[:-1] - b[1:], scale=scale)


# the series needs about 360 terms for beta = 0.05 at z = -1
ML_MAX_TERMS = 1000


def mittag_leffler(beta: float, z) -> np.ndarray | float:
    """One-parameter Mittag-Leffler function E_{beta,1}(z) for real z <= 0.

    Plain power series, truncated when the term magnitude drops below 1e-16.
    Raises ``ValueError`` where the series cannot deliver the value: when it
    has not converged within ``ML_MAX_TERMS`` terms, or when the rounding
    error of the alternating sum, estimated as 1e-15 * sum |term|, exceeds
    1e-12 |E|.  That admits about z >= -3.4 for beta = 1, z >= -2.1 for
    beta = 0.5 and z >= -1.05 for beta = 0.05; the manufactured solutions
    need z in [-1, 0].
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr > 0.0) or np.any(zarr < -50.0):
        raise ValueError("argument must lie in [-50, 0]")
    scalar = zarr.ndim == 0
    zarr = np.atleast_1d(zarr)
    total = np.ones_like(zarr)
    magnitude = np.ones_like(zarr)  # sum of |term|
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logz = np.where(zarr == 0.0, -np.inf, np.log(np.abs(zarr)))
        for m in range(1, ML_MAX_TERMS + 1):
            size = np.where(zarr == 0.0, 0.0, np.exp(m * logz - math.lgamma(beta * m + 1.0)))
            total += (-1.0) ** m * size
            magnitude += size
            if np.max(size) < 1e-16:
                break
        else:
            raise ValueError(f"Mittag-Leffler series for beta={beta} not converged in {ML_MAX_TERMS} terms")
        if not np.all(1e-15 * magnitude <= 1e-12 * np.abs(total)):
            raise ValueError(f"Mittag-Leffler series for beta={beta} loses accuracy to cancellation")
    return float(total[0]) if scalar else total
