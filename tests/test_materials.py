"""Tests for the plasticity coefficient models and their evaluation on an iterate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflux.experiments import PRESETS
from fracflux.materials import (
    Constant,
    RambergOsgood,
    Rational,
    kappa_from_iterate,
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_constant_model_rejects_non_finite_value(value):
    # nan <= 0 is false, so a nan coefficient used to pass construction and
    # fail only later, inside the solver
    with pytest.raises(ValueError, match="positive and finite"):
        Constant(value)


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


def test_rational_model_values():
    assert Rational().k(0.0) == 1.0
    assert Rational().k(3.0) == 0.25
    assert Rational().k_prime(1.0) == -0.25
    with pytest.raises(ValueError):
        Rational().k(-0.5)
    with pytest.raises(ValueError):
        Rational().k_prime(-0.5)


def test_rational_k_prime_matches_central_differences():
    m = Rational()
    s = np.linspace(0.0, 10.0, 201)[1:]  # central differences need s - h >= 0
    h = 1e-5
    fd = (m.k(s + h) - m.k(s - h)) / (2.0 * h)
    assert m.k_prime(s) == pytest.approx(fd, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("preset", ["Fwd1", "Adj2", "Inv1"])
def test_rational_presets_use_the_closed_form_past_any_table_end(preset):
    # CGM iterates on Inv1 reach s = 5.68, beyond any s of the exact solutions
    model = PRESETS[preset](Grid(nx=4, ny=4, nt=2), 0.3).problem.model
    s = np.array([2.5, 5.68, 10.0])
    assert np.array_equal(model.k(s), 1.0 / (1.0 + s))


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
