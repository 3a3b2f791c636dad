"""Tests for grids, traces, and the discrete norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflux.mesh import (
    _LEVELS,
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Field,
    Grid,
    edge_weights,
    gradient_squared,
    restrict_to_edge,
    spacetime_h1_diff,
    time_weights,
    trace_inner,
    trace_norm,
    zero_flux,
)


@pytest.fixture
def grid():
    return Grid(nx=11, ny=9, nt=10)


def test_grid_spacings(grid):
    assert grid.hx == pytest.approx(0.1)
    assert grid.hy == pytest.approx(0.125)
    assert grid.tau == pytest.approx(0.1)
    assert grid.xs[0] == 0.0 and grid.xs[-1] == 1.0
    assert len(grid.ts) == grid.nt + 1


def test_grid_from_spacing_round_trip():
    g = Grid.from_spacing(0.05, 0.001)
    assert (g.nx, g.ny, g.nt) == (21, 21, 1000)
    assert g.hx == pytest.approx(0.05)
    assert g.tau == pytest.approx(0.001)


def test_grid_refined_halves_spacings(grid):
    f = grid.refined()
    assert (f.nx, f.ny, f.nt) == (21, 17, 20)
    assert f.hx == pytest.approx(grid.hx / 2)
    assert f.tau == pytest.approx(grid.tau / 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nx=2, ny=5, nt=3)
    with pytest.raises(ValueError):
        Grid(nx=5, ny=5, nt=0)
    for t_final in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Grid(nx=5, ny=5, nt=3, t_final=t_final)
        with pytest.raises(ValueError):
            Grid.from_spacing(0.1, 0.1, t_final)
    for h, tau in ((0.0, 0.1), (0.1, 0.0), (-0.1, 0.1), (0.1, float("nan"))):
        with pytest.raises(ValueError):
            Grid.from_spacing(h, tau)


@pytest.mark.parametrize(
    "sizes", [(5.5, 5, 4), (5, 5.0, 4), (5, 5, 4.0), (5, 5, "4")], ids=["nx-float", "ny-float", "nt-float", "nt-str"]
)
def test_grid_rejects_non_integer_sizes(sizes):
    nx, ny, nt = sizes
    with pytest.raises(ValueError, match="integer"):
        Grid(nx=nx, ny=ny, nt=nt)


def test_grid_accepts_numpy_integers():
    g = Grid(nx=np.int64(5), ny=np.int32(4), nt=np.int64(3))
    assert len(g.xs) == 5 and len(g.ys) == 4 and len(g.ts) == 4


def test_field_shape_and_finiteness_checks(grid):
    ok = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    assert Field(grid, ok).values is ok  # a float64 array is stored as given
    assert np.array_equal(Field(grid, ok.tolist()).values, ok)
    for values in (np.zeros((3, 3, 3)), 0.0, [[0.0] * 5] * 5, [[0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            Field(grid, values)
    bad = np.zeros((grid.nx, grid.ny, grid.nt + 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(grid, bad)


def test_trace_shape_checks(grid):
    ok = np.zeros((grid.ny, grid.nt + 1))
    assert BoundaryTrace(grid, Edge.GAMMA1, ok).values is ok
    assert np.array_equal(BoundaryTrace(grid, Edge.GAMMA1, ok.tolist()).values, ok)
    for values in (np.zeros((grid.nx, grid.nt + 1)), 0.0, [[0.0] * 5] * 5, [[0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            BoundaryTrace(grid, Edge.GAMMA1, values)


def test_trace_norm_of_zero_and_unit(grid):
    z = BoundaryTrace(grid, Edge.GAMMA1, np.zeros((grid.ny, grid.nt + 1)))
    assert trace_norm(z) == 0.0
    one = BoundaryTrace(grid, Edge.GAMMA1, np.ones((grid.ny, grid.nt + 1)))
    assert trace_norm(one) == pytest.approx(1.0, rel=1e-13)


def test_trace_norm_linear_profile_converges():
    # integral of y^2 over the unit edge and unit time interval is 1/3
    errs = []
    for n in (11, 21, 41, 81):
        g = Grid(nx=n, ny=n, nt=n - 1)
        tr = BoundaryTrace(g, Edge.GAMMA1, np.tile(g.ys[:, None], (1, g.nt + 1)))
        errs.append(abs(trace_norm(tr) - np.sqrt(1.0 / 3.0)))
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-4


@given(c=st.floats(-100, 100), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_trace_norm_homogeneous(c, seed):
    g = Grid(nx=6, ny=6, nt=4)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(g.ny, g.nt + 1))
    tr = BoundaryTrace(g, Edge.GAMMA1, v)
    trc = BoundaryTrace(g, Edge.GAMMA1, c * v)
    assert trace_norm(trc) == pytest.approx(abs(c) * trace_norm(tr), rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_trace_triangle_inequality(seed):
    g = Grid(nx=6, ny=6, nt=4)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(g.ny, g.nt + 1))
    b = rng.normal(size=(g.ny, g.nt + 1))
    na = trace_norm(BoundaryTrace(g, Edge.GAMMA1, a))
    nb = trace_norm(BoundaryTrace(g, Edge.GAMMA1, b))
    nab = trace_norm(BoundaryTrace(g, Edge.GAMMA1, a + b))
    assert nab <= na + nb + 1e-12


def test_trace_inner_rejects_mismatch(grid):
    a = BoundaryTrace(grid, Edge.GAMMA1, np.zeros((grid.ny, grid.nt + 1)))
    b = BoundaryTrace(grid, Edge.GAMMA2, np.zeros((grid.nx, grid.nt + 1)))
    with pytest.raises(ValueError):
        trace_inner(a, b)


def test_restrict_to_edge_constant_and_profile(grid):
    c = Field(grid, np.full((grid.nx, grid.ny, grid.nt + 1), 2.5))
    assert np.all(restrict_to_edge(c, Edge.GAMMA2).values == 2.5)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    fl = Field(grid, np.repeat(((1 - X) * (1 - Y))[:, :, None], grid.nt + 1, axis=2))
    tr = restrict_to_edge(fl, Edge.GAMMA1)
    assert tr.values[:, 0] == pytest.approx(1 - grid.ys)


def test_boundary_flux_edge_and_bounds_validation(grid):
    f1 = BoundaryTrace(grid, Edge.GAMMA1, np.zeros((grid.ny, grid.nt + 1)))
    f2 = BoundaryTrace(grid, Edge.GAMMA2, np.zeros((grid.nx, grid.nt + 1)))
    with pytest.raises(ValueError):
        BoundaryFlux(f1=f2, f2=f1)


def test_zero_flux_shapes(grid):
    fl = zero_flux(grid)
    assert fl.f1.values.shape == (grid.ny, grid.nt + 1)
    assert fl.f2.values.shape == (grid.nx, grid.nt + 1)
    assert fl.grid == grid


def test_weights_sum_to_measure(grid):
    assert time_weights(grid).sum() == pytest.approx(grid.t_final, rel=1e-14)
    assert edge_weights(grid, Edge.GAMMA1).sum() == pytest.approx(1.0, rel=1e-14)


def test_gradient_squared_of_linear_field(grid):
    X, _ = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    assert gradient_squared(3.0 * X, grid.hx, grid.hy) == pytest.approx(9.0)


def test_h1_norm_of_linear_field_converges():
    # u = x has |grad u|^2 + u^2 integrating to 1 + 1/3 over the square
    want = np.sqrt(4.0 / 3.0)
    errs = []
    for n in (6, 11, 21):
        g = Grid(nx=n, ny=n, nt=4)
        X, _ = np.meshgrid(g.xs, g.ys, indexing="ij")
        u = np.repeat(X[:, :, None], g.nt + 1, axis=2)
        # the norm of a difference: a common offset drops out
        errs.append(abs(spacetime_h1_diff(g, u + 5.0, np.full(u.shape, 5.0)) - want))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-3


def test_h1_norm_zero_field(grid):
    u = np.random.default_rng(3).normal(size=(grid.nx, grid.ny, grid.nt + 1))
    assert spacetime_h1_diff(grid, u, u) == 0.0


@pytest.mark.parametrize("nt", [1, _LEVELS - 1, 2 * _LEVELS + 5])
def test_h1_diff_is_the_whole_stack_sum_bit_for_bit(nt):
    # integrated a block of levels at a time; the density of the whole stack is the reference
    g = Grid(nx=7, ny=6, nt=nt)
    rng = np.random.default_rng(nt)
    a, b = rng.normal(size=(2, g.nx, g.ny, g.nt + 1))
    d = a - b
    dens = gradient_squared(d, g.hx, g.hy) + d**2
    wx, wy = edge_weights(g, Edge.GAMMA2), edge_weights(g, Edge.GAMMA1)
    whole = float(np.sqrt(max(np.einsum("i,j,ijn->n", wx, wy, dens) @ time_weights(g), 0.0)))
    assert spacetime_h1_diff(g, a, b) == whole
