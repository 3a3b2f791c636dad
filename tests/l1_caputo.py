"""Test-side L1 Caputo derivative, built on the memory sum the solver runs."""

import numpy as np


def caputo(u, w):
    """L1 approximation of the left Caputo derivative of u^0 .. u^n at level n."""
    d = np.diff(np.asarray(u, dtype=float))
    n = len(d)
    return w.scale * (d[n - 1] + w.history(d, n))
