"""Command-line front end: INI-configured runs with CSV outputs.

One configuration file fully determines a run.  Outputs are plain CSV at 17
significant digits, written atomically (temp file + rename), so identical
configurations reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import tempfile
import time

import numpy as np

from .cgm import flux_error, run_cgm
from .experiments import PRESETS, NoiseSpec, noisy_observations
from .mesh import Grid, spacetime_h1_diff
from .solver import PicardConfig, SolverError, solve_nonlinear

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4

# Picard tolerance of a forward/adjoint run whose [picard] sets neither
# theta_bar nor fixed_iters
DEFAULT_THETA_BAR = 1e-4
DEFAULT_GAMMAS = (0.0, 0.005, 0.01, 0.05)

MODE_PRESETS = {
    "forward": {"Fwd1"},
    "adjoint": {"Adj2"},
    "invert": {"Inv1", "Inv2", "Inv3Soft", "Inv3Stiff"},
    "table": {"Inv1", "Inv2", "Inv3Soft", "Inv3Stiff"},
}


class ConfigError(ValueError):
    pass


class _Config(configparser.ConfigParser):
    """A parsed INI file that remembers every key the run asked for."""

    def __init__(self):
        super().__init__()
        # a flag may stand in for these keys, so they count as read either way
        self.asked = {("run", "mode"), ("run", "out"), ("noise", "seed")}

    def unused(self) -> list[str]:
        """The sections the run never read, then the keys it never read in the others."""
        read = {section for section, _ in self.asked}
        sections = [f"[{s}]" for s in self.sections() if s not in read]
        keys = [
            f"[{s}] {k}"
            for s in self.sections()
            if s in read
            for k in self.options(s)
            if (s, k) not in self.asked
        ]
        return sections + keys


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows atomically; every float at 17 significant digits."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-csv-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _get(cfg: _Config, section: str, key: str, cast, default=None, ok=None):
    """One INI value, cast and checked; a missing key takes ``default``."""
    cfg.asked.add((section, key))
    if not cfg.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing [{section}] {key}")
    raw = cfg.get(section, key)
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if ok is not None and not ok(value):
        raise ConfigError(f"value out of range for [{section}] {key}: {raw!r}")
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _finite_list(raw: str) -> list[float]:
    return [_finite(s) for s in raw.split(",") if s.strip()]


def _grid_from_config(cfg: _Config) -> Grid:
    t_final = _get(cfg, "grid", "t_final", _finite, 1.0)
    if cfg.has_option("grid", "h"):
        h = _get(cfg, "grid", "h", _finite)
        tau = _get(cfg, "grid", "tau", _finite)
        return Grid.from_spacing(h, tau, t_final)
    nx = _get(cfg, "grid", "nx", int)
    ny = _get(cfg, "grid", "ny", int, nx)
    nt = _get(cfg, "grid", "nt", int)
    return Grid(nx=nx, ny=ny, nt=nt, t_final=t_final)


def _picard_from_config(cfg: _Config) -> PicardConfig:
    """Picard control for forward/adjoint runs; 0 or absent leaves a key unset."""
    theta = _get(cfg, "picard", "theta_bar", _finite, 0.0, lambda v: v >= 0.0)
    fixed = _get(cfg, "picard", "fixed_iters", int, 0, lambda v: v >= 0)
    max_outer = _get(cfg, "picard", "max_outer", int, 100, lambda v: v >= 1)
    if theta == 0.0 and fixed == 0:
        theta = DEFAULT_THETA_BAR
    return PicardConfig(theta_bar=theta or None, max_outer=max_outer, fixed_iters=fixed or None)


def _solution_rows(grid: Grid, values: np.ndarray, times: list[float]):
    for t in times:
        n = int(round(t / grid.tau))
        n = min(max(n, 0), grid.nt)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                yield (x, y, grid.ts[n], values[i, j, n])


def _run_direct(example, preset_id, grid, picard, times, out, quiet, reversed_time) -> int:
    start = time.perf_counter()
    u, report = solve_nonlinear(example.problem, picard)
    wall = time.perf_counter() - start
    values, exact = u.values, example.exact.values
    if reversed_time:  # the example is indexed by s = T - t; report it in t
        values, exact = (np.ascontiguousarray(a[:, :, ::-1]) for a in (values, exact))
    err = spacetime_h1_diff(grid, values, exact)
    write_csv(os.path.join(out, "solution.csv"), ["x", "y", "t", "u"], _solution_rows(grid, values, times))
    write_csv(
        os.path.join(out, "convergence.csv"),
        ["iteration", "residual"],
        [(i + 1, r) for i, r in enumerate(report.residual_history)],
    )
    # wall time goes to stdout only, so reruns produce byte-identical CSVs
    write_csv(
        os.path.join(out, "summary.csv"),
        ["eta_star", "error"],
        [(report.eta_star, err)],
    )
    if not quiet:
        print(f"{preset_id}: eta_star={report.eta_star} error={err:.6e} wall={wall:.2f}s")
    return 0


def _invert_once(example, noise: NoiseSpec, max_iter: int):
    obs = noisy_observations(example.observations, noise)
    report = run_cgm(example.problem, obs, max_iter=max_iter, exact_flux=example.exact_flux)
    e1, e2 = flux_error(report.reconstructed, example.exact_flux)
    return report, obs, e1, e2


def _run_invert(example, preset_id, grid, noise, max_iter, out, quiet) -> int:
    start = time.perf_counter()
    report, obs, e1, e2 = _invert_once(example, noise, max_iter)
    wall = time.perf_counter() - start
    write_csv(
        os.path.join(out, "convergence.csv"),
        ["k", "J", "grad_norm1", "grad_norm2", "zeta1", "zeta2", "vartheta1", "vartheta2", "E_f1", "E_f2"],
        [dataclasses.astuple(r) for r in report.records],
    )
    rec = report.reconstructed
    write_csv(
        os.path.join(out, "flux_gamma1.csv"),
        ["y", "t", "exact", "reconstructed"],
        (
            (grid.ys[j], grid.ts[n], example.exact_flux.f1.values[j, n], rec.f1.values[j, n])
            for j in range(grid.ny)
            for n in range(grid.nt + 1)
        ),
    )
    write_csv(
        os.path.join(out, "flux_gamma2.csv"),
        ["x", "t", "exact", "reconstructed"],
        (
            (grid.xs[i], grid.ts[n], example.exact_flux.f2.values[i, n], rec.f2.values[i, n])
            for i in range(grid.nx)
            for n in range(grid.nt + 1)
        ),
    )
    write_csv(
        os.path.join(out, "summary.csv"),
        ["k_star", "stop_reason", "epsilon_bar", "J_final", "E_f1", "E_f2"],
        [(report.k_star, report.stop_reason.value, obs.epsilon_bar, report.J_history[-1], e1, e2)],
    )
    if not quiet:
        print(
            f"{preset_id}: k*={report.k_star} stop={report.stop_reason.value} "
            f"E(f1)={e1:.6e} E(f2)={e2:.6e} wall={wall:.1f}s"
        )
    return 0


def _run_table(example, preset_id, beta, sweep, max_iter, out, quiet) -> int:
    rows = []
    for noise in sweep:
        report, obs, e1, e2 = _invert_once(example, noise, max_iter)
        rows.append((beta, noise.gamma, obs.epsilon_bar, report.k_star, e1, e2))
        if not quiet:
            print(f"{preset_id} gamma={noise.gamma:g}: k*={report.k_star} E=({e1:.3e},{e2:.3e})")
    write_csv(
        os.path.join(out, "table.csv"),
        ["beta", "gamma", "epsilon_bar", "k_star", "E_f1", "E_f2"],
        rows,
    )
    return 0


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def run(config_path: str, mode=None, out=None, seed=None, quiet=False) -> int:
    """Execute one configured run; returns the process exit code.

    Every INI value is read and checked here, before any work starts, and a
    section or key that the run does not read is an error; the flags given
    to this function override the file.
    """
    cfg = _Config()
    try:
        if not cfg.read(config_path):
            raise ConfigError(f"cannot read config file {config_path!r}")
        run_mode = mode or _get(cfg, "run", "mode", str)
        if run_mode not in MODE_PRESETS:
            raise ConfigError(f"unknown mode {run_mode!r}")
        preset_id = _get(cfg, "run", "preset", str)
        if preset_id not in PRESETS:
            raise ConfigError(f"unknown preset {preset_id!r}")
        out_dir = out or _get(cfg, "run", "out", str, "out")
        grid = _grid_from_config(cfg)
        beta = _get(cfg, "problem", "beta", _finite, 0.3, lambda v: 0.0 < v < 1.0)
        picard = _picard_from_config(cfg)
        times = _get(cfg, "output", "times", _finite_list, []) or [grid.t_final]
        max_iter = _get(cfg, "cgm", "max_iter", int, 1000, lambda v: v >= 0)
        the_seed = seed if seed is not None else _get(cfg, "noise", "seed", int, 1234)
        noise = NoiseSpec(gamma=_get(cfg, "noise", "gamma", _finite, 0.0), seed=the_seed)
        gammas = _get(cfg, "noise", "gammas", _finite_list, DEFAULT_GAMMAS)
        sweep = [NoiseSpec(gamma=gamma, seed=the_seed) for gamma in gammas]
        unused = cfg.unused()
        if unused:
            raise ConfigError("not used by this run: " + ", ".join(unused))
    except (ValueError, configparser.Error) as exc:  # Grid and NoiseSpec raise ValueError
        return _fail(EXIT_CONFIG, f"config: {exc}")
    if preset_id not in MODE_PRESETS[run_mode]:
        return _fail(EXIT_MISMATCH, f"mismatch: preset {preset_id!r} not valid for mode {run_mode!r}")
    try:
        try:
            example = PRESETS[preset_id](grid, beta)
        except ValueError as exc:  # e.g. a Mittag-Leffler argument outside the series' domain
            return _fail(EXIT_CONFIG, f"config: {exc}")
        if run_mode in ("forward", "adjoint"):
            reversed_time = run_mode == "adjoint"
            return _run_direct(example, preset_id, grid, picard, times, out_dir, quiet, reversed_time)
        if run_mode == "invert":
            return _run_invert(example, preset_id, grid, noise, max_iter, out_dir, quiet)
        return _run_table(example, preset_id, beta, sweep, max_iter, out_dir, quiet)
    except SolverError as exc:
        return _fail(EXIT_SOLVER, f"solver: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracflux",
        description="Fractional diffusion solvers and boundary-flux identification",
    )
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--mode", choices=sorted(MODE_PRESETS), help="override the configured mode")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="noise seed (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return run(args.config, mode=args.mode, out=args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
