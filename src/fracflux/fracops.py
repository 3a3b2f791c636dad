"""Discrete fractional time derivatives (L1 scheme) and a Mittag-Leffler evaluator.

The left-sided derivative of order ``beta`` in (0, 1) is discretized on a
uniform time grid by the standard L1 scheme.  The right-sided derivative is
obtained by reversing the sequence in time, which makes the pair an exact
discrete transpose (up to boundary terms that vanish for zero initial/final
values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class L1Weights:
    """Weight table for the L1 discretization of a Caputo derivative.

    ``b[j] = (j+1)^(1-beta) - j^(1-beta)`` and ``scale = tau^-beta / Gamma(2-beta)``.
    """

    beta: float
    tau: float
    b: np.ndarray
    scale: float

    @property
    def nt(self) -> int:
        return len(self.b)


def l1_weights(beta: float, tau: float, nt: int) -> L1Weights:
    """Build L1 weights for ``nt`` time steps of size ``tau``."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"fractional order must be in (0, 1), got {beta}")
    if tau <= 0.0 or nt < 1:
        raise ValueError("need tau > 0 and nt >= 1")
    j = np.arange(nt, dtype=float)
    b = (j + 1.0) ** (1.0 - beta) - j ** (1.0 - beta)
    scale = tau ** (-beta) / math.gamma(2.0 - beta)
    return L1Weights(beta=beta, tau=tau, b=b, scale=scale)


def caputo_left_apply(history: np.ndarray, w: L1Weights) -> np.ndarray:
    """L1 approximation of the left Caputo derivative at the last time level.

    ``history`` holds u^0 .. u^n along axis 0 (n >= 1); trailing axes are
    carried through, so whole spatial fields can be differentiated at once.
    """
    u = np.asarray(history, dtype=float)
    n = u.shape[0] - 1
    if n < 1:
        raise ValueError("history must contain at least two time levels")
    if n > w.nt:
        raise ValueError("history longer than the weight table")
    d = np.diff(u, axis=0)  # d[m] = u^{m+1} - u^m
    # sum_{j=0}^{n-1} b_j (u^{n-j} - u^{n-j-1}) = sum_j b_j d[n-1-j]
    return w.scale * np.tensordot(w.b[:n], d[::-1], axes=(0, 0))


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
