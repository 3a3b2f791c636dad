"""Acceptance suite: end-to-end quantitative checks against reference results.

Each test prints a single "criterion N: PASS ..." line (visible with -s or in
captured output) and asserts the corresponding quantitative thresholds.
Reference numbers come from the validation study this package reproduces;
tolerances allow for discretization-scheme differences and the inverse-crime
guard used by the synthetic observation generators.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fracflux.cgm import StopReason, cost, flux_error, gradient, run_cgm
from fracflux.cli import run as cli_run
from fracflux.experiments import (
    NoiseSpec,
    make_adjoint_example2,
    make_forward_example1,
    make_inverse_example1,
    make_inverse_example2,
    make_inverse_example3,
    noisy_observations,
)
from fracflux.fracops import l1_weights, mittag_leffler
from fracflux.mesh import (
    BoundaryFlux,
    BoundaryTrace,
    Edge,
    Grid,
    spacetime_h1_diff,
    trace_inner,
)
from fracflux.solver import PicardConfig, solve_nonlinear
from l1_caputo import caputo

FULL_GRID = Grid.from_spacing(0.05, 0.001)  # h = 0.05, tau = 0.001
REDUCED_GRID = Grid.from_spacing(0.1, 0.02)  # h = 0.1, tau = 0.02


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


def test_criterion_01_forward_manufactured_convergence():
    # beta = 0.3 on the full grid; eta* within +-3 of {4, 7, 9, 19} and the
    # space-time H1 error within a factor of 3 of the reference values
    ref_eta = [4, 7, 9, 19]
    ref_err = [1.23e-2, 4.91e-3, 3.73e-3, 2.84e-3]
    example = make_forward_example1(FULL_GRID, 0.3)
    lines = []
    for theta, re_eta, re_err in zip([5e-3, 1e-3, 5e-4, 1e-4], ref_eta, ref_err):
        start = time.perf_counter()
        u, rep = solve_nonlinear(example.problem, PicardConfig(theta_bar=theta))
        wall = time.perf_counter() - start
        err = spacetime_h1_diff(FULL_GRID, u.values, example.exact.values)
        lines.append(f"theta={theta:g}: eta*={rep.eta_star} err={err:.3e} ({wall:.0f}s)")
        assert abs(rep.eta_star - re_eta) <= 3, lines[-1]
        assert re_err / 3.0 <= err <= 3.0 * re_err, lines[-1]
        assert wall <= 120.0, lines[-1]
    _report(1, "; ".join(lines))


def test_criterion_02_adjoint_manufactured_convergence():
    example = make_adjoint_example2(FULL_GRID, 0.7)
    start = time.perf_counter()
    u, rep = solve_nonlinear(example.problem, PicardConfig(theta_bar=1e-4))
    wall = time.perf_counter() - start
    err = spacetime_h1_diff(FULL_GRID, u.values, example.exact.values)
    ref = 9.83e-3
    _report(2, f"beta=0.7 theta=1e-4: eta*={rep.eta_star} err={err:.3e} ({wall:.0f}s)")
    assert ref / 3.0 <= err <= 3.0 * ref
    assert wall <= 120.0


def test_criterion_03_adjoint_gradient_vs_finite_differences():
    # constant coefficient on an 11x11 grid with 50 steps, 5 random directions
    g = REDUCED_GRID
    example = make_inverse_example2(g, beta=0.3)
    problem, obs = example.problem, example.observations
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    f = BoundaryFlux(
        f1=BoundaryTrace(g, Edge.GAMMA1, rng.normal(size=(g.ny, g.nt + 1))),
        f2=BoundaryTrace(g, Edge.GAMMA2, rng.normal(size=(g.nx, g.nt + 1))),
    )
    g1, g2 = gradient(replace(problem, flux=f), obs)
    eps = 1e-6
    worst = 0.0
    for _ in range(5):
        d1 = rng.normal(size=f.f1.values.shape)
        d2 = rng.normal(size=f.f2.values.shape)
        fp = BoundaryFlux(
            f1=BoundaryTrace(g, Edge.GAMMA1, f.f1.values + eps * d1),
            f2=BoundaryTrace(g, Edge.GAMMA2, f.f2.values + eps * d2),
        )
        fm = BoundaryFlux(
            f1=BoundaryTrace(g, Edge.GAMMA1, f.f1.values - eps * d1),
            f2=BoundaryTrace(g, Edge.GAMMA2, f.f2.values - eps * d2),
        )
        fd = (cost(replace(problem, flux=fp), obs) - cost(replace(problem, flux=fm), obs)) / (2.0 * eps)
        pred = trace_inner(g1, BoundaryTrace(g, Edge.GAMMA1, d1)) + trace_inner(
            g2, BoundaryTrace(g, Edge.GAMMA2, d2)
        )
        worst = max(worst, abs(fd - pred) / abs(fd))
    wall = time.perf_counter() - start
    _report(3, f"5 directions, worst relative error {worst:.2e} ({wall:.0f}s)")
    assert worst <= 1e-3
    assert wall <= 60.0


def test_criterion_04_cgm_monotone_cost_and_vanishing_gradient():
    example = make_inverse_example2(REDUCED_GRID, beta=0.3)
    rep = run_cgm(example.problem, example.observations, max_iter=200)
    Js = rep.J_history
    monotone = all(Js[i + 1] < Js[i] for i in range(len(Js) - 1))
    # the final discrepancy-stop record carries no gradient evaluation
    norms = [
        math.hypot(r.grad_norm1, r.grad_norm2)
        for r in rep.records
        if r.grad_norm1 > 0.0 or r.grad_norm2 > 0.0
    ]
    drop = norms[0] / min(norms)
    _report(4, f"J decreasing over {len(Js)} values; gradient norm drop {drop:.0f}x")
    assert monotone
    assert drop >= 10.0
    assert rep.k_star <= 200


@pytest.fixture(scope="module")
def inv1_clean():
    example = make_inverse_example1(REDUCED_GRID, 0.3)
    start = time.perf_counter()
    rep = run_cgm(example.problem, example.observations, max_iter=1000,
                  exact_flux=example.exact_flux)
    wall = time.perf_counter() - start
    return example, rep, wall


def test_criterion_05_inverse_example1_quantitative(inv1_clean):
    example, rep, wall = inv1_clean
    e1, e2 = flux_error(rep.reconstructed, example.exact_flux)
    # the exact discrete gradient converges far faster than the reference
    # implementation's 683 iterations; only the upper bound is enforced
    _report(
        5,
        f"k*={rep.k_star} stop={rep.stop_reason.value} "
        f"E=({e1:.3e},{e2:.3e}) ({wall:.0f}s; reduced grid)",
    )
    assert rep.stop_reason is StopReason.DISCREPANCY
    assert e1 <= 1.5e-2 and e2 <= 1.5e-2
    assert rep.k_star <= 2 * 683
    assert wall <= 600.0


def test_criterion_06_noise_robustness_trend(inv1_clean):
    example, clean_rep, _ = inv1_clean
    e1c, e2c = flux_error(clean_rep.reconstructed, example.exact_flux)
    ks = [clean_rep.k_star]
    e1s, e2s = [e1c], [e2c]
    for gamma in (0.005, 0.01, 0.05):
        obs = noisy_observations(example.observations, NoiseSpec(gamma=gamma, seed=1234))
        rep = run_cgm(example.problem, obs, max_iter=1000)
        e1, e2 = flux_error(rep.reconstructed, example.exact_flux)
        ks.append(rep.k_star)
        e1s.append(e1)
        e2s.append(e2)
    _report(
        6,
        f"gamma=(0,0.5%,1%,5%): k*={ks} "
        f"E_f1={[f'{e:.2e}' for e in e1s]} E_f2={[f'{e:.2e}' for e in e2s]}",
    )
    assert all(ks[i + 1] <= ks[i] for i in range(3))
    assert all(e1s[i + 1] >= e1s[i] for i in range(3))
    assert all(e2s[i + 1] >= e2s[i] for i in range(3))
    # 3x slack on the gamma = 5% reference errors (1.73e-2, 2.14e-2)
    assert e1s[-1] <= 3.0 * 1.73e-2
    assert e2s[-1] <= 3.0 * 2.14e-2


def test_criterion_07_discrete_duality():
    # the left fractional operator applied level by level is the exact
    # transpose of the right one on zero-initial/zero-final sequences
    beta, tau, nt = 0.37, 0.05, 24
    w = l1_weights(beta, tau, nt)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        u = rng.normal(size=nt + 1)
        v = rng.normal(size=nt + 1)
        u[0] = 0.0
        v[nt] = 0.0
        lhs = sum(caputo(u[: n + 1], w) * v[n] for n in range(1, nt + 1))
        rhs = 0.0
        for m in range(1, nt + 1):
            acc = w.b[0] * v[m]
            for q in range(1, nt - m + 1):
                acc += (w.b[q] - w.b[q - 1]) * v[m + q]
            rhs += u[m] * w.scale * acc
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(7, f"summation-by-parts relative defect {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_08_l1_scheme_oracles():
    # affine exactness
    beta, tau, nt = 0.6, 0.01, 100
    w = l1_weights(beta, tau, nt)
    ts = np.arange(nt + 1) * tau
    u = 3.0 - 2.0 * ts
    got = caputo(u, w)
    want = -2.0 * ts[-1] ** (1.0 - beta) / math.gamma(2.0 - beta)
    affine_err = abs(got - want)
    assert affine_err <= 1e-13
    # D^0.5 t at t = 1 equals 2/sqrt(pi)
    w5 = l1_weights(0.5, 0.01, 100)
    half = caputo(np.arange(101) * 0.01, w5)
    half_err = abs(half - 2.0 / math.sqrt(math.pi))
    assert half_err <= 1e-12
    # Mittag-Leffler closed forms
    ml1 = abs(mittag_leffler(1.0, -1.0) - math.exp(-1.0))
    ml5 = abs(mittag_leffler(0.5, -1.0) - math.e * math.erfc(1.0))
    assert ml1 <= 1e-10 and ml5 <= 1e-10
    _report(
        8,
        f"affine {affine_err:.1e}; D^0.5 t {half_err:.1e}; "
        f"E_1(-1) {ml1:.1e}; E_0.5(-1) {ml5:.1e}",
    )


def test_criterion_09_material_models_example3():
    lines = []
    for case in ("soft", "stiff"):
        example = make_inverse_example3(case, REDUCED_GRID, 0.5)
        # class K on s = |grad u|^2 in [0, 0.5]: 0 < k <= 1, k nonincreasing and
        # the monotone flux k + 2 s k' > 0, k' by central differences
        s = np.linspace(0.0, 0.5, 401)
        k = example.problem.model.k(s)
        monotone_flux = k[1:-1] + 2.0 * s[1:-1] * (k[2:] - k[:-2]) / (s[2:] - s[:-2])
        assert np.all((k > 0.0) & (k <= 1.0)), case
        assert np.all(np.diff(k) <= 0.0), case
        assert np.all(monotone_flux > 0.0), case
        rep = run_cgm(example.problem, example.observations, max_iter=1000)
        e1, e2 = flux_error(rep.reconstructed, example.exact_flux)
        lines.append(f"{case}: min k+2sk'={monotone_flux.min():.2f}, k*={rep.k_star} E=({e1:.2e},{e2:.2e})")
        assert rep.stop_reason is StopReason.DISCREPANCY, case
        assert e1 <= 5e-2 and e2 <= 5e-2, case
    _report(9, "; ".join(lines))


def test_criterion_10_reproducible_csv_outputs(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        """
[run]
mode = invert
preset = Inv1

[grid]
nx = 7
ny = 7
nt = 10

[cgm]
max_iter = 4

[noise]
gamma = 0.01
seed = 1234
"""
    )
    names = ("convergence.csv", "flux_gamma1.csv", "flux_gamma2.csv", "summary.csv")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_run(str(cfg), out=str(out_a), quiet=True) == 0
    assert cli_run(str(cfg), out=str(out_b), quiet=True) == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report(10, f"{len(names)} CSVs byte-identical across reruns")
