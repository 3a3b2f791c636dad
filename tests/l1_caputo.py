"""Test-side L1 Caputo derivative, with the memory sum written out term by term."""

import math

import numpy as np


def caputo(u, w):
    """L1 approximation of the left Caputo derivative of u^0 .. u^n at level n."""
    d = np.diff(np.asarray(u, dtype=float))
    n = len(d)
    return w.scale * (d[n - 1] + math.fsum(w.b[j] * d[n - 1 - j] for j in range(1, n)))
