"""Tests for the example builders, noise model, and error metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracflux.cgm import cost, flux_error
from fracflux.experiments import (
    PRESETS,
    NoiseSpec,
    add_noise,
    make_adjoint_example2,
    make_forward_example1,
    make_inverse_example1,
    make_inverse_example2,
    make_inverse_example3,
    noisy_observations,
)
from fracflux.fracops import l1_weights, mittag_leffler
from fracflux.materials import RambergOsgood
from fracflux.mesh import BoundaryFlux, BoundaryTrace, Edge, Grid, trace_norm, zero_flux
from l1_caputo import caputo


@pytest.fixture(scope="module")
def grid():
    return Grid(nx=11, ny=11, nt=50)


def test_forward_example1_initial_state(grid):
    ex = make_forward_example1(grid, 0.3)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    assert ex.exact.values[:, :, 0] == pytest.approx((1 - X) * (1 - Y), abs=1e-14)
    assert ex.problem.g == pytest.approx(ex.exact.values[:, :, 0])


def test_forward_example1_corner_history_is_mittag_leffler(grid):
    ex = make_forward_example1(grid, 0.5)
    want = np.asarray(mittag_leffler(0.5, -grid.ts**0.5))
    assert ex.exact.values[0, 0, :] == pytest.approx(want, rel=1e-12)


def test_relaxation_identity_used_by_the_source():
    # the fractional derivative of E_beta(-t^beta) is its own negative;
    # verify with the L1 scheme at t=1 on a fine grid
    beta, nt = 0.6, 4000
    tau = 1.0 / nt
    ts = np.arange(nt + 1) * tau
    w = l1_weights(beta, tau, nt)
    E = np.asarray(mittag_leffler(beta, -(ts**beta)))
    got = caputo(E, w)
    assert got == pytest.approx(-E[-1], rel=2e-2)


def test_adjoint_example2_final_state_is_zero(grid):
    # the example is indexed by s = T - t: the final state t = T is level 0,
    # and the corner history is s^(2 beta)
    ex = make_adjoint_example2(grid, 0.3)
    assert np.max(np.abs(ex.exact.values[:, :, 0])) == 0.0
    assert np.max(np.abs(ex.problem.g)) == 0.0
    assert ex.exact.values[0, 0, :] == pytest.approx(grid.ts**0.6, rel=1e-12, abs=1e-14)


def test_adjoint_example2_reflection_identity():
    # D^beta of (T-t)^(2 beta) from the right equals
    # Gamma(2b+1)/Gamma(b+1) (T-t)^beta; check the source uses it at t=0,
    # which is the last level s = T of the reversed-time arrays
    beta = 0.5
    g = Grid(nx=5, ny=5, nt=10)
    ex = make_adjoint_example2(g, beta)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    psi = (1 - X) * (1 - Y)
    c = math.gamma(2 * beta + 1) / math.gamma(beta + 1)
    # at the final time t = T (s = 0) the nonlinear correction vanishes with V = 0
    assert ex.problem.source[:, :, 0] == pytest.approx(np.zeros_like(psi), abs=1e-14)
    # at t=0 the fractional part contributes c * psi
    interior = ex.problem.source[1:-1, 1:-1, -1]
    v0 = 1.0
    s = v0**2 * ((1 - Y) ** 2 + (1 - X) ** 2)
    expected = psi * (c + 4.0 * v0**3 / (1.0 + s) ** 2)
    assert interior == pytest.approx(expected[1:-1, 1:-1], rel=1e-12)


def test_inverse_example1_flux_endpoints(grid):
    ex = make_inverse_example1(grid, 0.3)
    assert np.max(np.abs(ex.exact_flux.f1.values[-1, :])) == 0.0  # y = 1
    assert np.max(np.abs(ex.exact_flux.f2.values[-1, :])) == 0.0  # x = 1
    assert np.max(np.abs(ex.exact_flux.f1.values[:, 0])) == 0.0  # t = 0


def test_inverse_example1_measurements(grid):
    ex = make_inverse_example1(grid, 0.4)
    want_h1 = np.outer(math.log(2.0) * (1 - grid.ys), grid.ts**0.4)
    assert ex.observations.h1.values == pytest.approx(want_h1, abs=1e-14)
    want_h2 = np.outer(np.log(2.0 - grid.xs), grid.ts**0.4)
    assert ex.observations.h2.values == pytest.approx(want_h2, abs=1e-14)


def test_inverse_example1_self_consistency(grid):
    # feeding the exact flux into the cost leaves only discretization error
    ex = make_inverse_example1(grid, 0.3)
    J = cost(replace(ex.problem, flux=ex.exact_flux), ex.observations)
    assert J < 1e-4
    J0 = cost(ex.problem, ex.observations)
    assert J < 0.01 * J0


def test_inverse_example2_flux_time_profile(grid):
    ex = make_inverse_example2(grid, beta=0.3)
    assert np.max(np.abs(ex.exact_flux.f1.values[:, 0])) == 0.0
    assert np.max(np.abs(ex.exact_flux.f1.values[:, -1])) == pytest.approx(0.0, abs=1e-15)
    # peak of e^-t (t - t^2) sits at t = (3 - sqrt(5))/2
    t = np.linspace(0, 1, 100001)
    prof = np.exp(-t) * (t - t**2)
    t_star = (3.0 - math.sqrt(5.0)) / 2.0
    assert t[np.argmax(prof)] == pytest.approx(t_star, abs=1e-4)
    assert prof.max() == pytest.approx(math.exp(-t_star) * (t_star - t_star**2), abs=1e-8)


def test_inverse_example2_threshold_reflects_data_mismatch(grid):
    # refined-grid observations cannot be reproduced exactly on the inversion
    # grid, so the stop threshold sits above the clean-data default
    ex = make_inverse_example2(grid, beta=0.3)
    assert ex.observations.epsilon_bar >= 1.25e-7
    J = cost(replace(ex.problem, flux=ex.exact_flux), ex.observations)
    assert J <= ex.observations.epsilon_bar * (1.0 + 1e-12)


def test_inverse_example3_models(grid):
    soft = make_inverse_example3("soft", grid, 0.5)
    stiff = make_inverse_example3("stiff", grid, 0.5)
    m_soft, m_stiff = soft.problem.model, stiff.problem.model
    assert isinstance(m_soft, RambergOsgood)
    # the coefficient is expressed in units of 1/G, so both plateaus are 1
    assert m_soft.k(0.0) == pytest.approx(1.0)
    assert m_stiff.k(0.0) == pytest.approx(1.0)
    assert m_soft.t0_sq == 0.02 and m_stiff.t0_sq == 0.027
    with pytest.raises(ValueError):
        make_inverse_example3("rubber", grid, 0.5)


def test_inverse_example3_normalized_models_depend_only_on_t0_sq():
    # in units of the shear compliance E and nu drop out, and the two
    # materials differ only in their yield threshold T0^2
    s = np.linspace(0.0, 0.5, 2001)
    for case, t0_sq in (("soft", 0.02), ("stiff", 0.027)):
        model = make_inverse_example3(case, Grid(nx=3, ny=3, nt=2), 0.5).problem.model
        assert np.array_equal(model.k(s), np.maximum(s / t0_sq, 1.0) ** -0.25)


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_noise_spec_rejects_non_finite_level(gamma):
    # nan would give nan observations under a finite stop threshold
    with pytest.raises(ValueError):
        NoiseSpec(gamma=gamma, seed=1)


def test_add_noise_zero_level_is_identity(grid):
    tr = BoundaryTrace(grid, Edge.GAMMA1, np.ones((grid.ny, grid.nt + 1)))
    noisy, eps = add_noise(tr, NoiseSpec(gamma=0.0, seed=7))
    assert noisy is tr
    assert eps == 0.0


def test_add_noise_deterministic_and_linear_in_gamma(grid):
    rng = np.random.default_rng(0)
    tr = BoundaryTrace(grid, Edge.GAMMA1, rng.normal(size=(grid.ny, grid.nt + 1)))
    n1, e1 = add_noise(tr, NoiseSpec(gamma=0.01, seed=42))
    n1b, e1b = add_noise(tr, NoiseSpec(gamma=0.01, seed=42))
    assert np.array_equal(n1.values, n1b.values)
    assert e1 == e1b
    n2, e2 = add_noise(tr, NoiseSpec(gamma=0.02, seed=42))
    assert e2 == pytest.approx(2.0 * e1, rel=1e-14)
    assert n2.values - tr.values == pytest.approx(2.0 * (n1.values - tr.values), rel=1e-12)


def test_add_noise_realized_level_statistics(grid):
    # the quadrature weights integrate to the unit edge-time measure, so the
    # expected realized level is ~ gamma * ||h||
    tr = BoundaryTrace(grid, Edge.GAMMA1, np.ones((grid.ny, grid.nt + 1)))
    gamma = 0.05
    levels = [add_noise(tr, NoiseSpec(gamma=gamma, seed=s))[1] for s in range(100)]
    assert np.mean(levels) == pytest.approx(gamma * trace_norm(tr), rel=0.1)


def test_noisy_observations_threshold(grid):
    ex = make_inverse_example1(grid, 0.3)
    clean = ex.observations
    obs = noisy_observations(clean, NoiseSpec(gamma=0.01, seed=5))
    d1 = trace_norm(BoundaryTrace(grid, Edge.GAMMA1, obs.h1.values - clean.h1.values))
    d2 = trace_norm(BoundaryTrace(grid, Edge.GAMMA2, obs.h2.values - clean.h2.values))
    assert d1 > 0.0 and d2 > 0.0
    assert obs.epsilon_bar == pytest.approx(0.5 * (d1**2 + d2**2), rel=1e-12)


def test_flux_error_metric(grid):
    ex = make_inverse_example1(grid, 0.3)
    assert flux_error(ex.exact_flux, ex.exact_flux) == (0.0, 0.0)
    shifted = BoundaryFlux(
        f1=BoundaryTrace(grid, Edge.GAMMA1, ex.exact_flux.f1.values + 0.5),
        f2=ex.exact_flux.f2,
    )
    e1, e2 = flux_error(shifted, ex.exact_flux)
    assert e1 == pytest.approx(0.5, rel=1e-12)  # constant over the unit measure
    assert e2 == 0.0
    other = Grid(nx=6, ny=6, nt=4)
    with pytest.raises(ValueError):
        flux_error(zero_flux(other), ex.exact_flux)


def test_preset_registry_complete():
    assert set(PRESETS) == {"Fwd1", "Adj2", "Inv1", "Inv2", "Inv3Soft", "Inv3Stiff"}
