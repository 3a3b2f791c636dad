"""Reference answers computed apart from fracflux, and the checks applied to
every operation the benchmark times.

Nothing here imports fracflux: the exact solution and fluxes are evaluated
from their closed forms (the Mittag-Leffler factor with mpmath), and the
discrete norms are written out again with numpy.  Each check returns the list
of its failed conditions, empty when the output is accepted.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Fwd1 at beta = 0.3, h = 0.05, tau = 1e-3: the paper's space-time H1 error
# and Picard sweep count, and the accepted band around them
H1_REFERENCE = 1.23e-2
H1_BAND = (H1_REFERENCE / 3.0, 3.0 * H1_REFERENCE)
ETA_REFERENCE, ETA_SLACK = 4, 3
# largest accepted L2 error of either flux on clean data
FLUX_ERR_MAX = 1.5e-2


def trapezoid(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def mittag_leffler(beta: float, zs) -> np.ndarray:
    """E_beta(z) for -1 <= z <= 0 by its power series in 30-digit arithmetic."""
    zs = np.asarray(zs, dtype=float)
    if np.any(zs > 0.0) or np.any(zs < -1.0):
        raise ValueError("the reference series is only used on [-1, 0]")
    with mpmath.workdps(30):
        coeffs = []
        k = 0
        while True:
            c = 1 / mpmath.gamma(mpmath.mpf(beta) * k + 1)
            coeffs.append(c)
            if c < mpmath.mpf(10) ** -32:
                break
            k += 1
        coeffs.reverse()
        return np.array([float(mpmath.polyval(coeffs, mpmath.mpf(z))) for z in zs])


def fwd1_exact(beta: float, xs, ys, ts) -> np.ndarray:
    """E_beta(-t^beta) (1-x)(1-y) on the grid, shaped (nx, ny, nt+1)."""
    e = mittag_leffler(beta, -np.asarray(ts) ** beta)
    psi = np.outer(1.0 - np.asarray(xs), 1.0 - np.asarray(ys))
    return psi[:, :, None] * e[None, None, :]


def h1_error(diff: np.ndarray, hx: float, hy: float, tau: float) -> float:
    """L2(0,T; H1) norm of a (nx, ny, nt+1) array: central differences, trapezoid rules."""
    gx = np.gradient(diff, hx, axis=0)
    gy = np.gradient(diff, hy, axis=1)
    dens = gx * gx + gy * gy + diff * diff
    nx, ny, nl = diff.shape
    total = np.einsum("i,j,n,ijn->", trapezoid(nx, hx), trapezoid(ny, hy), trapezoid(nl, tau), dens)
    return math.sqrt(total)


def inv1_fluxes(beta: float, xs, ys, ts) -> tuple[np.ndarray, np.ndarray]:
    """-k du/dn on x = 0 and y = 0 for u = t^beta log(2-x)(1-y), k(s) = 1/(1+s)."""
    xs, ys, ts = (np.asarray(a, dtype=float) for a in (xs, ys, ts))
    tb = ts**beta
    oy = 1.0 - ys
    s1 = np.outer(oy**2 / 4.0 + math.log(2.0) ** 2, tb**2)
    f1 = -np.outer(oy / 2.0, tb) / (1.0 + s1)
    lx = np.log(2.0 - xs)
    s2 = np.outer(1.0 / (2.0 - xs) ** 2 + lx**2, tb**2)
    f2 = -np.outer(lx, tb) / (1.0 + s2)
    return f1, f2


def inv2_fluxes(xs, ys, ts) -> tuple[np.ndarray, np.ndarray]:
    """The fluxes that drive the Inv2 observations: e^-t (t - t^2) sin(3 pi y), sin(2 pi x)."""
    ts = np.asarray(ts, dtype=float)
    tfac = np.exp(-ts) * (ts - ts**2)
    return np.outer(np.sin(3.0 * np.pi * np.asarray(ys)), tfac), np.outer(np.sin(2.0 * np.pi * np.asarray(xs)), tfac)


def flux_errors(f1, f2, exact1, exact2, h: float, tau: float) -> tuple[float, float]:
    """L2(Gamma_i x (0,T)) errors of both fluxes on a square grid, trapezoid rules."""
    out = []
    for rec, ex in ((f1, exact1), (f2, exact2)):
        d = np.asarray(rec) - ex
        out.append(math.sqrt(trapezoid(d.shape[0], h) @ (d * d) @ trapezoid(d.shape[1], tau)))
    return out[0], out[1]


def forward_problems(err: float, eta: int) -> list[str]:
    problems = []
    if not H1_BAND[0] <= err <= H1_BAND[1]:
        problems.append(f"H1 error {err:.4e} outside [{H1_BAND[0]:.3e}, {H1_BAND[1]:.3e}]")
    if abs(eta - ETA_REFERENCE) > ETA_SLACK:
        problems.append(f"eta* = {eta} not within {ETA_SLACK} of {ETA_REFERENCE}")
    return problems


def inversion_problems(stop: str, J_history, epsilon_bar: float, errors, clean: bool) -> list[str]:
    problems = []
    if stop != "Discrepancy":
        problems.append(f"stopped by {stop}, not by the discrepancy principle")
    if not J_history[-1] <= epsilon_bar:
        problems.append(f"final J {J_history[-1]:.4e} above epsilon_bar {epsilon_bar:.4e}")
    if any(b >= a for a, b in zip(J_history, J_history[1:])):
        problems.append("J does not decrease strictly")
    if clean and max(errors) > FLUX_ERR_MAX:
        problems.append(f"flux errors {errors[0]:.4e}, {errors[1]:.4e} above {FLUX_ERR_MAX:g} on clean data")
    return problems


def sweep_problems(errors_by_gamma: list[tuple[float, float]]) -> list[tuple[int, str]]:
    """Flux errors, listed by increasing noise level, may not decrease.

    Returns (index of the noise level whose error fell, message) pairs.
    """
    problems = []
    for i in range(1, len(errors_by_gamma)):
        for edge in (0, 1):
            before, now = errors_by_gamma[i - 1][edge], errors_by_gamma[i][edge]
            if now < before:
                problems.append((i, f"error of f{edge + 1} fell from {before:.4e} to {now:.4e} as the noise grew"))
    return problems
