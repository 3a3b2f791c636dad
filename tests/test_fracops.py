"""Tests for the L1 fractional-derivative weights and the Mittag-Leffler series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from fracflux.fracops import _BLOCK, l1_weights, mittag_leffler
from l1_caputo import caputo


def test_weights_basic_shape_and_monotonicity():
    w = l1_weights(beta=0.5, tau=0.01, nt=100)
    assert w.b[0] == 1.0
    assert np.all(w.b > 0.0)
    assert np.all(np.diff(w.b) < 0.0)
    assert w.scale == pytest.approx(0.01**-0.5 / math.gamma(1.5), rel=1e-14)


def test_weights_backward_difference_limit():
    # as beta -> 1 the scheme collapses to a one-step backward difference
    w = l1_weights(beta=0.9999, tau=0.1, nt=50)
    assert w.scale * w.b[0] == pytest.approx(10.0, rel=1e-3)
    assert np.all(w.b[1:] < 1e-3)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 2.0])
def test_weights_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        l1_weights(beta=bad, tau=0.1, nt=10)


@pytest.mark.parametrize("nt", [2.5, 10.0, 0])
def test_weights_rejects_bad_step_count(nt):
    # a float nt of 2.5 would give three weights
    with pytest.raises(ValueError):
        l1_weights(beta=0.5, tau=0.1, nt=nt)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
def test_weights_rejects_bad_step(tau):
    # nan and inf would give a nan and a zero scale
    with pytest.raises(ValueError):
        l1_weights(beta=0.5, tau=tau, nt=10)


def test_left_derivative_of_constant_is_zero():
    w = l1_weights(0.4, 0.05, 20)
    hist = np.full(21, 3.7)
    assert caputo(hist, w) == pytest.approx(0.0, abs=1e-14)


def test_left_derivative_exact_on_affine():
    # for u = a + b t the scheme reproduces b t^(1-beta)/Gamma(2-beta) exactly
    beta, tau, nt = 0.5, 0.01, 100
    w = l1_weights(beta, tau, nt)
    ts = np.arange(nt + 1) * tau
    u = 2.0 - 3.0 * ts
    for n in (1, 7, nt):
        got = caputo(u[: n + 1], w)
        want = -3.0 * ts[n] ** (1 - beta) / math.gamma(2 - beta)
        assert got == pytest.approx(want, rel=1e-13)


def test_left_derivative_linear_at_t_one():
    w = l1_weights(0.5, 1e-3, 1000)
    ts = np.arange(1001) * 1e-3
    got = caputo(ts, w)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_left_derivative_near_classical_limit():
    beta, tau, nt = 0.999, 1e-3, 1000
    w = l1_weights(beta, tau, nt)
    ts = np.arange(nt + 1) * tau
    got = caputo(ts**2, w)
    assert got == pytest.approx(2.0, abs=1e-2)


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_left_apply_linearity(a, b, seed):
    w = l1_weights(0.6, 0.05, 20)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=21), rng.normal(size=21)
    lhs = caputo(a * u + b * v, w)
    rhs = a * caputo(u, w) + b * caputo(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


# nt inside one block, at and next to its end, and past three block boundaries
BLOCK_NT = [1, 2, 37, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


@pytest.mark.parametrize("nt", BLOCK_NT)
@pytest.mark.parametrize("cols", [(), (7,)])
def test_history_is_the_written_out_memory_sum(nt, cols):
    # far block + near part is sum_{j=1}^{n-1} b_j d[n-1-j] term by term; a
    # reordered sum may differ by round-off relative to the sum of the
    # magnitudes of its terms
    w = l1_weights(0.35, 0.02, nt)
    d = np.random.default_rng(nt).normal(size=(nt, *cols))
    levels = []
    for n0, n1 in w.blocks():
        far = w.far_history(d, n0, n1)
        assert far.shape == (n1 - n0, *cols)
        for n in range(n0 + 1, n1 + 1):
            levels.append(n)
            want = np.zeros(cols)
            size = np.zeros(cols)
            for j in range(1, n):
                want = want + w.b[j] * d[n - 1 - j]
                size = size + np.abs(w.b[j] * d[n - 1 - j])
            got = far[n - n0 - 1] + w.near_history(d, n0, n)
            assert np.shape(got) == cols
            assert np.all(np.abs(got - want) <= 1e-13 * size), n
    assert levels == list(range(1, nt + 1))


@pytest.mark.parametrize("nt", BLOCK_NT)
@pytest.mark.parametrize("cols", [(), (7,)])
def test_history_transpose_is_the_written_out_sum(nt, cols):
    # far block + near part is sum_{q=1}^{nt-n} (b_{q-1} - b_q) lam[n+q] term by term
    w = l1_weights(0.35, 0.02, nt)
    lam = np.random.default_rng(nt + 1).normal(size=(nt + 1, *cols))
    levels = []
    for n0, n1 in reversed(w.blocks()):
        far = w.far_history_transpose(lam, n0, n1)
        assert far.shape == (n1 - n0, *cols)
        for n in range(n1, n0, -1):
            levels.append(n)
            want = np.zeros(cols)
            size = np.zeros(cols)
            for q in range(1, nt - n + 1):
                want = want + (w.b[q - 1] - w.b[q]) * lam[n + q]
                size = size + np.abs((w.b[q - 1] - w.b[q]) * lam[n + q])
            got = far[n - n0 - 1] + w.near_history_transpose(lam, n, n1)
            assert np.shape(got) == cols
            assert np.all(np.abs(got - want) <= 1e-13 * size), n
    assert levels == list(range(nt, 0, -1))


def test_right_derivative_of_constant_is_zero():
    w = l1_weights(0.5, 0.1, 10)
    assert caputo(np.full(11, 2.0)[::-1], w) == pytest.approx(0.0, abs=1e-14)


def test_right_derivative_of_decaying_ramp():
    # for u = T - t the right-sided derivative at t=0 matches the left-sided
    # derivative of s at s=T applied to the reflected variable: +2/sqrt(pi)
    tau, nt = 1e-3, 1000
    w = l1_weights(0.5, tau, nt)
    ts = np.arange(nt + 1) * tau
    got = caputo((1.0 - ts)[::-1], w)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_right_derivative_power_identity():
    # (T-t)^(2 beta) at t=0 maps to Gamma(2b+1)/Gamma(b+1) * T^b
    beta, tau, nt = 0.4, 5e-4, 2000
    w = l1_weights(beta, tau, nt)
    ts = np.arange(nt + 1) * tau
    got = caputo(((1.0 - ts) ** (2 * beta))[::-1], w)
    want = math.gamma(2 * beta + 1) / math.gamma(beta + 1)
    assert got == pytest.approx(want, rel=5e-3)


def test_mittag_leffler_at_zero_is_one():
    for beta in (0.1, 0.5, 0.99, 1.0):
        assert mittag_leffler(beta, 0.0) == pytest.approx(1.0, abs=1e-15)


def _accurate_where_accepted(beta, exact):
    # every argument on [-5, 0] either raises or is within the promised 1e-12
    for z in np.linspace(-5.0, 0.0, 501):
        try:
            got = mittag_leffler(beta, z)
        except ValueError:
            continue
        assert got == pytest.approx(exact(z), rel=1e-12, abs=0.0), z


def test_mittag_leffler_exponential_case():
    z = np.array([-1.0, -2.0, -3.0])
    assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)
    assert mittag_leffler(1.0, z) == pytest.approx(np.exp(z), rel=1e-12, abs=0.0)
    _accurate_where_accepted(1.0, np.exp)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, -10.0)  # e^10 of cancellation in the series


def test_mittag_leffler_half_order_closed_form():
    # E_{1/2}(z) = exp(z^2) erfc(-z); at z=-1 that is e * erfc(1)
    want = math.e * math.erfc(1.0)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(want, rel=1e-10)


def test_mittag_leffler_half_order_matches_erfcx_or_raises():
    # E_{1/2}(-x) = erfcx(x); the series returns 5e41 at x = 10 unless it
    # refuses an argument where cancellation ruins it
    x = np.linspace(0.0, 2.0, 21)
    assert mittag_leffler(0.5, -x) == pytest.approx(erfcx(x), rel=1e-12, abs=0.0)
    _accurate_where_accepted(0.5, lambda z: erfcx(-z))
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -10.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, np.array([-1.0, -10.0]))


def test_mittag_leffler_small_order_converges_or_raises():
    # beta = 0.05 needs about 360 terms at z = -1; further out the series
    # does not converge within its term budget
    assert mittag_leffler(0.05, -1.0) == pytest.approx(0.49278415120025198, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.05, -2.0)


def test_mittag_leffler_monotone_and_bounded_on_unit_interval():
    z = np.linspace(-1.0, 0.0, 101)
    vals = mittag_leffler(0.3, z)
    assert np.all(np.diff(vals) > 0.0)  # increasing toward z=0
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


def test_mittag_leffler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mittag_leffler(1.5, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.5)
    # nan fails every comparison, so it is caught as not in [-50, 0]; otherwise
    # the series runs all its terms and then blames convergence
    for z in (math.nan, np.array([-1.0, math.nan])):
        with pytest.raises(ValueError, match=r"argument must lie in \[-50, 0\]"):
            mittag_leffler(0.5, z)
