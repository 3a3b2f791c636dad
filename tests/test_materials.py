"""Tests for the plasticity coefficient models and admissibility checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflux.materials import (
    Constant,
    RambergOsgood,
    Tabulated,
    kappa_from_iterate,
    validate_class_K,
)
from fracflux.mesh import Grid


SOFT = RambergOsgood(t0_sq=0.02, hardening=0.5)


def test_constant_model():
    m = Constant(1.0)
    assert m.k(0.0) == 1.0
    assert m.k(123.4) == 1.0
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        m.k(-0.5)


def test_ramberg_osgood_plateau_value():
    # in units of the shear compliance 1/G the elastic plateau is exactly 1
    assert SOFT.k(0.0) == 1.0
    assert SOFT.k(0.01) == 1.0


def test_ramberg_osgood_power_branch():
    # at T^2 = 4 T0^2 the coefficient is 4^(-1/4)
    assert SOFT.k(4 * 0.02) == pytest.approx(4.0**-0.25, rel=1e-13)


def test_ramberg_osgood_continuity_at_threshold():
    # the two branches agree exactly at the threshold; approaching from the
    # right the jump shrinks linearly with the offset
    plateau = SOFT.k(0.0)
    assert SOFT.k(0.02) == pytest.approx(plateau, rel=1e-15)
    for eps in (1e-6, 1e-8, 1e-10):
        assert abs(SOFT.k(0.02 + eps) - plateau) < 20.0 * eps


@given(
    t1=st.floats(0.021, 10.0),
    factor=st.floats(1.001, 10.0),
    kap=st.floats(0.05, 0.95),
)
@settings(max_examples=50, deadline=None)
def test_ramberg_osgood_monotone_past_threshold(t1, factor, kap):
    m = RambergOsgood(t0_sq=0.02, hardening=kap)
    assert m.k(t1 * factor) <= m.k(t1)


def test_tabulated_interpolation_and_clamping():
    m = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.5]))
    assert m.k(0.5) == pytest.approx(1.5)
    assert m.k(5.0) == pytest.approx(0.5)  # clamped right


def test_tabulated_from_function_matches_formula():
    m = Tabulated.from_function(lambda s: 1.0 / (1.0 + s), 2.0)
    s = np.linspace(0.0, 2.0, 57)
    assert m.k(s) == pytest.approx(1.0 / (1.0 + s), abs=1e-6)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Tabulated(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


def test_k_field_constant_iterate_hits_plateau():
    g = Grid(nx=6, ny=6, nt=3)
    vals = kappa_from_iterate(SOFT, g, np.zeros((g.nx, g.ny, g.nt + 1)))
    assert vals == pytest.approx(1.0)


def test_k_field_linear_iterate_power_branch():
    g = Grid(nx=6, ny=6, nt=3)
    a = 1.0  # slope with a^2 = 1 > T0^2
    X, _ = np.meshgrid(g.xs, g.ys, indexing="ij")
    u = np.repeat((a * X)[:, :, None], g.nt + 1, axis=2)
    want = (a**2 / 0.02) ** (0.5 * (0.5 - 1.0))
    assert kappa_from_iterate(SOFT, g, u) == pytest.approx(want, rel=1e-12)


def test_validate_class_K_constant():
    rep = validate_class_K(Constant(2.0), (0.0, 1.0))
    assert rep.c0 == rep.c1 == 2.0
    assert rep.monotone_ok and rep.plateau_ok and rep.ok


def test_validate_class_K_soft_preset():
    rep = validate_class_K(SOFT, (0.0, 0.1))
    assert rep.monotone_ok
    assert rep.plateau_ok
    assert 0.0 < rep.c0 <= rep.c1


def test_validate_class_K_flags_increasing_table():
    m = Tabulated(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    rep = validate_class_K(m, (0.0, 1.0))
    assert not rep.monotone_ok
    assert not rep.ok
