"""Discrete fractional time derivatives (L1 scheme) and a Mittag-Leffler evaluator.

The left Caputo derivative of order ``beta`` in (0, 1) is discretized on a
uniform time grid by the standard L1 scheme.  ``L1Weights`` owns its memory
term in both directions, split at the boundaries of blocks of ``_BLOCK``
levels.  The forward march subtracts, at level n, the sum over all earlier
increments: ``far_history`` gives the part over the increments from before
n's block, for every level of the block in one matrix product, and
``near_history`` the part over the block's own increments.  The backward
adjoint recursion adds the exact transpose, the sum over later levels, split
the same way by ``far_history_transpose`` and ``near_history_transpose``.
The split only regroups the exact L1 sums, so that BLAS runs most of their
O(nt^2 m) work as matrix-matrix products; it moves them by round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# levels per block of the memory sums: at 11x11 and 21x21 nodes and
# nt = 1000 or 2000, 16 to 128 levels time within the noise of one another
# and 8 is slower (one BLAS thread)
_BLOCK = 32


@dataclass(frozen=True)
class L1Weights:
    """Weight table for the L1 discretization of a Caputo derivative.

    ``b[j] = (j+1)^(1-beta) - j^(1-beta)``, ``db[q-1] = b[q-1] - b[q] > 0`` and
    ``scale = tau^-beta / Gamma(2-beta)``.  With increments
    ``d[k] = u^{k+1} - u^k`` the derivative at level n is
    ``scale * (d[n-1] + sum_{j=1}^{n-1} b_j d[n-1-j])``; the memory sum is
    ``far_history`` plus ``near_history`` over n's block from ``blocks``.
    ``b_rev`` is a contiguous copy of ``b`` reversed, so that the sums read
    ``d`` forward, and every weight block handed to a product is a contiguous
    copy: a negative stride, or a window whose rows overlap, keeps numpy from
    handing the product to BLAS.
    """

    b: np.ndarray
    db: np.ndarray
    scale: float
    b_rev: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "b_rev", np.ascontiguousarray(self.b[::-1]))

    def blocks(self) -> list[tuple[int, int]]:
        """The pairs (n0, n1) whose levels n0 < n <= n1 form one block, in time order."""
        nt = len(self.b)
        return [(n0, min(n0 + _BLOCK, nt)) for n0 in range(0, nt, _BLOCK)]

    def far_history(self, d: np.ndarray, n0: int, n1: int) -> np.ndarray:
        """Row n-n0-1 is ``sum_{k<n0} b_{n-1-k} d[k]`` for n0 < n <= n1, over axis 0 of ``d``."""
        nt = len(self.b)
        # row i of the window is b_rev[nt-n1+i : nt-n1+i+n0], the weights of level n1-i
        toeplitz = np.ascontiguousarray(sliding_window_view(self.b_rev, n0)[nt - n1 : nt - n0][::-1])
        return toeplitz @ d[:n0]

    def near_history(self, d: np.ndarray, n0: int, n: int):
        """``sum_{k=n0}^{n-2} b_{n-1-k} d[k]`` over axis 0 of ``d``: at most ``_BLOCK`` - 1 terms."""
        nt = len(self.b)
        return self.b_rev[nt - n + n0 : nt - 1] @ d[n0 : n - 1]

    def far_history_transpose(self, lam: np.ndarray, n0: int, n1: int) -> np.ndarray:
        """Row n-n0-1 is ``sum_{p>n1} db[p-n-1] lam[p]`` for n0 < n <= n1, over axis 0 of ``lam``."""
        nt = len(self.b)
        # row i of the window is db[i : i+nt-n1], the weights of level n1-i
        toeplitz = np.ascontiguousarray(sliding_window_view(self.db, nt - n1)[: n1 - n0][::-1])
        return toeplitz @ lam[n1 + 1 : nt + 1]

    def near_history_transpose(self, lam: np.ndarray, n: int, n1: int):
        """``sum_{p=n+1}^{n1} db[p-n-1] lam[p]`` over axis 0 of ``lam``: at most ``_BLOCK`` - 1 terms."""
        return self.db[: n1 - n] @ lam[n + 1 : n1 + 1]


def l1_weights(beta: float, tau: float, nt: int) -> L1Weights:
    """Build L1 weights for ``nt`` time steps of size ``tau``."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"fractional order must be in (0, 1), got {beta}")
    if not 0.0 < tau < np.inf or not isinstance(nt, numbers.Integral) or nt < 1:  # also false for nan
        raise ValueError(f"need 0 < tau < inf and an integer nt >= 1, got tau={tau!r}, nt={nt!r}")
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
    if not np.all((zarr <= 0.0) & (zarr >= -50.0)):  # also false for nan
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
