"""Peak memory of the full-field steps of a Picard sweep, in units of one (nx, ny, nt+1) field.

numpy reports its buffers to tracemalloc, so a traced peak is the largest sum
of live arrays during a call.  Each step may hold the arrays it returns plus
a block of time levels; a temporary the size of the whole stack fails.
"""

import tracemalloc

import numpy as np
import pytest

from fracflux.materials import Rational, kappa_from_iterate
from fracflux.mesh import Grid, spacetime_h1_diff
from fracflux.solver import GridOperator

# the refined grid of the Inv2 synthesis solve at h = 0.1, tau = 1e-3
GRID = Grid(nx=21, ny=21, nt=2000)
FIELD = (GRID.nx, GRID.ny, GRID.nt + 1)


def _peak_fields(call) -> float:
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * np.prod(FIELD))


@pytest.fixture(scope="module")
def iterate():
    return 0.05 * np.cumsum(np.random.default_rng(1).normal(size=FIELD), axis=2)


def test_h1_diff_holds_a_block_of_levels(iterate):
    other = np.roll(iterate, 1, axis=0)
    assert _peak_fields(lambda: spacetime_h1_diff(GRID, iterate, other)) <= 0.5


def test_kappa_from_iterate_holds_its_output_and_a_block_of_levels(iterate):
    assert _peak_fields(lambda: kappa_from_iterate(Rational(), GRID, iterate)) <= 1.5


@pytest.mark.parametrize("one_coefficient", [True, False])
def test_march_holds_its_output_its_increments_and_a_block_of_levels(iterate, one_coefficient):
    # the increments of every level, which the memory sums read, take 0.91 of a field
    kappa = np.ones(FIELD) if one_coefficient else kappa_from_iterate(Rational(), GRID, iterate)
    op = GridOperator(GRID, 0.3, kappa)
    source = np.ones(FIELD)
    f1, f2 = np.zeros((GRID.ny, GRID.nt + 1)), np.zeros((GRID.nx, GRID.nt + 1))
    assert _peak_fields(lambda: op.march(source, f1, f2, np.zeros((GRID.nx, GRID.ny)))) <= 2.25
