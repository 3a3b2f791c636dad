"""Tests for the INI-driven command line front end."""

import csv
import math
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracflux.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_SOLVER,
    MODE_PRESETS,
    main,
    run,
    write_csv,
)
from fracflux.experiments import PRESETS


def _write_config(path, text):
    path.write_text(text)
    return str(path)


FORWARD_CFG = """
[run]
mode = forward
preset = Fwd1

[grid]
nx = 6
ny = 6
nt = 10

[problem]
beta = 0.3

[picard]
theta_bar = 1e-3
"""

INVERT_CFG = """
[run]
mode = invert
preset = Inv1

[grid]
nx = 7
ny = 7
nt = 10

[problem]
beta = 0.3

[cgm]
max_iter = 3

[noise]
gamma = 0.01
seed = 99
"""


def _read_bytes(out, names):
    return {n: (out / n).read_bytes() for n in names}


def test_write_csv_formats_and_is_atomic(tmp_path):
    path = tmp_path / "sub" / "vals.csv"
    write_csv(str(path), ["i", "x"], [(1, 1.0 / 3.0), (2, 1e-17)])
    lines = path.read_text().splitlines()
    assert lines[0] == "i,x"
    i, x = lines[1].split(",")
    assert i == "1"
    assert float(x) == 1.0 / 3.0  # 17 significant digits round-trip doubles
    assert not [p for p in os.listdir(tmp_path / "sub") if p.startswith(".tmp")]


def test_forward_mode_writes_outputs(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", FORWARD_CFG)
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    for name in ("solution.csv", "convergence.csv", "summary.csv"):
        assert (out / name).exists()
    with open(out / "summary.csv") as fh:
        rec = next(csv.DictReader(fh))
    assert int(rec["eta_star"]) >= 1
    assert float(rec["error"]) < 0.2
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36  # one 6x6 slice at the final time
    assert all(float(r["t"]) == 1.0 for r in rows)


def test_forward_mode_without_picard_section_uses_default_tolerance(tmp_path):
    text = FORWARD_CFG[: FORWARD_CFG.index("[picard]")]
    cfg = _write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    with open(out / "summary.csv") as fh:
        rec = next(csv.DictReader(fh))
    assert int(rec["eta_star"]) >= 1
    with open(out / "convergence.csv") as fh:
        residuals = [float(r["residual"]) for r in csv.DictReader(fh)]
    assert residuals[-1] <= 1e-4 < residuals[-2]


def test_adjoint_mode_reports_the_solution_in_forward_time(tmp_path):
    # Adj2 is solved in s = T - t; the CSVs hold t, with the zero terminal
    # state at t = 1 and the state near (1-x)(1-y) at t = 0
    cfg = _write_config(
        tmp_path / "run.ini",
        """
[run]
mode = adjoint
preset = Adj2

[grid]
nx = 6
ny = 6
nt = 10

[picard]
fixed_iters = 6

[output]
times = 0, 1
""",
    )
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 36
    final = [float(r["u"]) for r in rows if float(r["t"]) == 1.0]
    assert len(final) == 36 and all(u == 0.0 for u in final)
    initial = [r for r in rows if float(r["t"]) == 0.0]
    assert len(initial) == 36
    for r in initial:
        x, y = float(r["x"]), float(r["y"])
        assert abs(float(r["u"]) - (1.0 - x) * (1.0 - y)) <= 0.2
    with open(out / "summary.csv") as fh:
        rec = next(csv.DictReader(fh))
    assert int(rec["eta_star"]) == 6


def test_invert_mode_writes_outputs(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", INVERT_CFG)
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    with open(out / "summary.csv") as fh:
        rec = next(csv.DictReader(fh))
    assert rec["stop_reason"] in {"Discrepancy", "MaxIter", "StagnatedJ", "VanishedGradient"}
    assert int(rec["k_star"]) <= 3
    assert math.isfinite(float(rec["J_final"]))
    with open(out / "convergence.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "k", "J", "grad_norm1", "grad_norm2", "zeta1", "zeta2",
            "vartheta1", "vartheta2", "E_f1", "E_f2",
        ]
    with open(out / "flux_gamma1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 11
    assert {"y", "t", "exact", "reconstructed"} == set(rows[0])


def test_invert_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", INVERT_CFG)
    names = ("convergence.csv", "flux_gamma1.csv", "flux_gamma2.csv", "summary.csv")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(cfg, out=str(out_a), quiet=True) == 0
    assert run(cfg, out=str(out_b), quiet=True) == 0
    a, b = _read_bytes(out_a, names), _read_bytes(out_b, names)
    for name in names:
        assert a[name] == b[name], name


def test_invert_seed_changes_noisy_outcome(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", INVERT_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(cfg, out=str(out_a), seed=99, quiet=True) == 0
    assert run(cfg, out=str(out_b), seed=100, quiet=True) == 0
    assert (out_a / "convergence.csv").read_bytes() != (out_b / "convergence.csv").read_bytes()


def test_table_mode(tmp_path):
    cfg = _write_config(
        tmp_path / "run.ini",
        """
[run]
mode = table
preset = Inv1

[grid]
nx = 7
ny = 7
nt = 10

[cgm]
max_iter = 2

[noise]
gammas = 0, 0.01
seed = 5
""",
    )
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "beta,gamma,epsilon_bar,k_star,E_f1,E_f2"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 2
    assert [float(r["gamma"]) for r in rows] == [0.0, 0.01]
    assert rows[0]["beta"] == "%.17g" % 0.3  # 17 significant digits
    assert all(r["k_star"].isdigit() and int(r["k_star"]) <= 2 for r in rows)
    assert all(math.isfinite(float(r["E_f1"])) for r in rows)
    assert float(rows[1]["epsilon_bar"]) > float(rows[0]["epsilon_bar"])
    assert not [p for p in os.listdir(out) if p.startswith(".tmp")]


def test_table_rows_equal_separate_invert_runs(tmp_path):
    # the sweep's noise levels share the f0 state of one problem; an invert run
    # at each level solves its own and must write the same strings
    gammas = ("0", "0.005", "0.01")
    text = """
[run]
mode = {mode}
preset = Inv2

[grid]
nx = 7
ny = 7
nt = 20

[cgm]
max_iter = 20

[noise]
{noise}
seed = 5
"""
    table = _write_config(tmp_path / "table.ini", text.format(mode="table", noise="gammas = " + ", ".join(gammas)))
    assert run(table, out=str(tmp_path / "table"), quiet=True) == 0
    with open(tmp_path / "table" / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [float(gamma) for gamma in gammas]
    keys = ("k_star", "epsilon_bar", "E_f1", "E_f2")
    for gamma, row in zip(gammas, rows):
        cfg = _write_config(tmp_path / f"{gamma}.ini", text.format(mode="invert", noise="gamma = " + gamma))
        assert run(cfg, out=str(tmp_path / gamma), quiet=True) == 0
        with open(tmp_path / gamma / "summary.csv") as fh:
            summary = next(csv.DictReader(fh))
        assert [summary[k] for k in keys] == [row[k] for k in keys], gamma
        assert int(row["k_star"]) > 0


def test_missing_config_file_is_config_error(tmp_path):
    assert run(str(tmp_path / "nope.ini"), quiet=True) == EXIT_CONFIG


def test_unknown_preset_is_config_error(tmp_path):
    cfg = _write_config(
        tmp_path / "run.ini",
        "[run]\nmode = forward\npreset = Fwd9\n[grid]\nnx = 5\nnt = 4\n",
    )
    assert run(cfg, quiet=True) == EXIT_CONFIG


def test_unknown_mode_is_config_error(tmp_path):
    cfg = _write_config(
        tmp_path / "run.ini",
        "[run]\nmode = sideways\npreset = Fwd1\n[grid]\nnx = 5\nnt = 4\n",
    )
    assert run(cfg, quiet=True) == EXIT_CONFIG


def test_missing_grid_is_config_error(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", "[run]\nmode = forward\npreset = Fwd1\n")
    assert run(cfg, quiet=True) == EXIT_CONFIG


def test_mode_preset_mismatch(tmp_path):
    cfg = _write_config(
        tmp_path / "run.ini",
        "[run]\nmode = forward\npreset = Inv1\n[grid]\nnx = 5\nnt = 4\n",
    )
    assert run(cfg, quiet=True) == EXIT_MISMATCH


def test_unconverged_picard_is_solver_error(tmp_path, capsys):
    # a theta_bar that the sweep budget does not reach fails the run before
    # any CSV is written
    text = FORWARD_CFG.replace("theta_bar = 1e-3", "theta_bar = 1e-16\nfixed_iters = 2")
    cfg = _write_config(tmp_path / "run.ini", text)
    assert run(cfg, out=str(tmp_path / "out"), quiet=True) == EXIT_SOLVER
    # the message carries the last H1 increment, so a slow but steady
    # iteration can be told from a stalled one
    err = capsys.readouterr().err.rstrip()
    assert err.endswith("no convergence to theta_bar=1e-16 in 2 sweeps; last increment 5.5e-02")
    assert not (tmp_path / "out").exists()
    # without a tolerance the same budget is the run's stopping rule
    cfg = _write_config(tmp_path / "run.ini", FORWARD_CFG.replace("theta_bar = 1e-3", "fixed_iters = 2"))
    assert run(cfg, out=str(tmp_path / "out"), quiet=True) == 0
    with open(tmp_path / "out" / "summary.csv") as fh:
        assert int(next(csv.DictReader(fh))["eta_star"]) == 2


def test_diverging_picard_is_solver_error(tmp_path, capsys):
    # Fwd1 at h = 0.1, tau = 0.02, beta = 0.5 with the default theta_bar: the
    # increments turn round and grow until the divergence stop fires
    text = FORWARD_CFG[: FORWARD_CFG.index("[picard]")]
    text = text.replace("nx = 6\nny = 6\nnt = 10", "h = 0.1\ntau = 0.02").replace("beta = 0.3", "beta = 0.5")
    cfg = _write_config(tmp_path / "run.ini", text)
    assert run(cfg, out=str(tmp_path / "out"), quiet=True) == EXIT_SOLVER
    err = capsys.readouterr().err.rstrip()
    assert re.search(r"solver: Picard iteration diverging after \d+ sweeps; last increment \d\.\de[+-]\d\d$", err), err
    assert not (tmp_path / "out").exists()


def test_grid_from_spacing_config(tmp_path):
    cfg = _write_config(
        tmp_path / "run.ini",
        """
[run]
mode = forward
preset = Fwd1

[grid]
h = 0.2
tau = 0.1

[picard]
theta_bar = 1e-3
""",
    )
    out = tmp_path / "out"
    assert run(cfg, out=str(out), quiet=True) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36  # h = 0.2 gives a 6x6 grid


def test_main_parses_flags(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", FORWARD_CFG)
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    with pytest.raises(SystemExit):
        main(["--mode", "forward"])  # --config is required


@pytest.mark.parametrize("where", ["file", "below_file"])
def test_out_that_is_not_a_directory_is_config_error(tmp_path, capsys, monkeypatch, where):
    # found before the solve starts, not as a traceback once it has finished
    monkeypatch.setattr("fracflux.cli.solve_nonlinear", lambda *a: pytest.fail("the run started"))
    cfg = _write_config(tmp_path / "run.ini", FORWARD_CFG)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken if where == "file" else taken / "sub"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "text",
    [
        FORWARD_CFG.replace("nx = 6", "nx = 2"),
        FORWARD_CFG.replace("nx = 6\nny = 6\nnt = 10", "h = 0\ntau = 0.1"),
        FORWARD_CFG.replace("nx = 6\nny = 6\nnt = 10", "h = 0.2\ntau = -0.1"),
        FORWARD_CFG.replace("beta = 0.3", "beta = 1.5"),
        FORWARD_CFG.replace("theta_bar = 1e-3", "theta_bar = -1"),
        # 0 is not "unset": it would run at another tolerance or budget than asked
        FORWARD_CFG.replace("theta_bar = 1e-3", "theta_bar = 0"),
        FORWARD_CFG.replace("theta_bar = 1e-3", "fixed_iters = 0"),
        FORWARD_CFG + "\n[output]\ntimes = 0.5, nan\n",
        # a time outside [0, t_final] has no solution slice to write
        FORWARD_CFG + "\n[output]\ntimes = 0.5, 5\n",
        FORWARD_CFG + "\n[output]\ntimes = -1, 0.5\n",
        FORWARD_CFG + "\n[output]\ntimes = ,\n",
        # a stray comma would otherwise drop an entry unannounced
        FORWARD_CFG + "\n[output]\ntimes = 0.5,,1\n",
        INVERT_CFG.replace("gamma = 0.01", "gamma = abc"),
        INVERT_CFG.replace("gamma = 0.01", "gamma = -1"),
        # an empty sweep would write a table with a header and no rows
        INVERT_CFG.replace("mode = invert", "mode = table").replace("gamma = 0.01", "gammas = ,"),
        INVERT_CFG.replace("mode = invert", "mode = table").replace("gamma = 0.01", "gammas = , 0.01"),
        INVERT_CFG.replace("seed = 99", "seed = -1"),
        INVERT_CFG.replace("max_iter = 3", "max_iter = -1"),
        # Fwd1's time factor E_0.9(-t^0.9) out to t = 20 is beyond the
        # Mittag-Leffler series
        FORWARD_CFG.replace("nt = 10", "nt = 20\nt_final = 20").replace("beta = 0.3", "beta = 0.9"),
    ],
    ids=["nx", "h", "tau", "beta", "theta_bar", "theta_bar_zero", "fixed_iters_zero", "times",
         "times_after_t_final", "times_negative", "times_empty", "times_empty_entry", "gamma_text",
         "gamma_negative", "gammas_empty", "gammas_empty_entry", "seed", "max_iter", "mittag_leffler"],
)
def test_invalid_value_is_config_error(tmp_path, text):
    cfg = _write_config(tmp_path / "run.ini", text)
    assert run(cfg, out=str(tmp_path / "out"), quiet=True) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, unused",
    [
        (FORWARD_CFG.replace("theta_bar = 1e-3", "theta_barr = 1e-9"), "[picard] theta_barr"),
        (FORWARD_CFG + "\n[problme]\nbeta = 0.9\n", "[problme]"),
        (
            FORWARD_CFG.replace("nx = 6\nny = 6", "h = 0.2\ntau = 0.1\nnx = 6\nny = 6"),
            "[grid] nx, [grid] ny, [grid] nt",
        ),
        # each mode reads only its own sections and keys
        (FORWARD_CFG + "\n[cgm]\nmax_iter = 3\n\n[noise]\nseed = 5\n", "[cgm], [noise]"),
        # the sweep cap that fixed_iters replaced is no longer a key
        (FORWARD_CFG.replace("theta_bar = 1e-3", "theta_bar = 1e-16\nmax_outer = 2"), "[picard] max_outer"),
        (
            INVERT_CFG.replace("seed = 99", "seed = 99\ngammas = 0, 0.01")
            + "\n[picard]\ntheta_bar = 1e-8\n\n[output]\ntimes = 0.5\n",
            "[picard], [output], [noise] gammas",
        ),
        (INVERT_CFG.replace("mode = invert", "mode = table"), "[noise] gamma"),
    ],
    ids=["misspelt_key", "unknown_section", "nx_next_to_h",
         "forward_reads_no_cgm_or_noise", "retired_sweep_cap",
         "invert_reads_no_picard_output_or_gammas", "table_reads_no_gamma"],
)
def test_unused_key_is_config_error(tmp_path, capsys, text, unused):
    # a key the run never reads would otherwise leave its default in force unannounced
    cfg = _write_config(tmp_path / "run.ini", text)
    assert run(cfg, out=str(tmp_path / "out"), quiet=True) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith(f"not used by this run: {unused}")
    assert not (tmp_path / "out").exists()


def test_flag_overridden_keys_count_as_used(tmp_path):
    cfg = _write_config(tmp_path / "run.ini", INVERT_CFG.replace("[grid]", "out = elsewhere\n\n[grid]"))
    assert run(cfg, mode="invert", out=str(tmp_path / "out"), seed=7, quiet=True) == 0


@pytest.mark.parametrize(
    "text",
    [FORWARD_CFG, FORWARD_CFG.replace("mode = forward\npreset = Fwd1", "mode = adjoint\npreset = Adj2")],
    ids=["forward", "adjoint"],
)
def test_seed_flag_on_direct_run_is_config_error(tmp_path, capsys, text):
    # only invert and table runs draw noise, so a seed would be silently ignored
    cfg = _write_config(tmp_path / "run.ini", text)
    assert run(cfg, out=str(tmp_path / "out"), seed=7, quiet=True) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith("not used by this run: --seed")
    assert not (tmp_path / "out").exists()


_GARBAGE = st.sampled_from(["", "abc", "nan", "inf", "-1", "0", "1e999", "%(x)s", "%", "1,2"])
_PAIRS = [(mode, preset) for mode, presets in sorted(MODE_PRESETS.items()) for preset in sorted(presets)]


@st.composite
def _ini_files(draw):
    """INI text that is mostly valid: each key is now and then garbage or absent."""

    def value(*good):
        # Hypothesis favours the ends of a range, so the rare kinds sit inside it
        kind = draw(st.integers(0, 19))
        if kind == 9:
            return draw(_GARBAGE)
        return None if kind == 10 else draw(st.sampled_from(good))

    mode, preset = draw(st.sampled_from(_PAIRS))
    if draw(st.integers(0, 4)) == 2:
        preset = draw(st.sampled_from(sorted(PRESETS)))
    direct = mode in ("forward", "adjoint")
    own = {"run", "grid", "problem"} | ({"picard", "output"} if direct else {"cgm", "noise"})
    grid = draw(st.sampled_from(["h", "nx"]))
    sections = {
        "run": {"mode": value(mode), "preset": value(preset)},
        "grid": (
            {"h": value(0.5, 0.25, 0.0), "tau": value(0.5, 0.2), "t_final": value(0.5, 1.0, 2.0)}
            if grid == "h"
            else {"nx": value(2, 3, 4), "ny": value(3, 4), "nt": value(0, 1, 3), "t_final": value(0.5, 2.0)}
        ),
        "problem": {"beta": value(0.05, 0.3, 0.5, 0.9, 1.5)},
        "picard": {"theta_bar": value(1e-3, 1e-16, 0.0), "fixed_iters": value(0, 2)},
        # never absent and at most 2, so that every inversion stays short
        "cgm": {"max_iter": draw(st.one_of(st.sampled_from([0, 1, 2]), _GARBAGE))},
        "noise": {
            "gamma": value(0.0, 0.01) if mode != "table" else None,
            "gammas": value("0", "0, 0.01") if mode != "invert" else None,
            "seed": value(0, 5),
        },
        "output": {"times": value("0.5", "0, 1", "3", "-1")},
    }
    lines = ["not an ini line"] if draw(st.integers(0, 19)) == 9 else []
    for name, keys in sections.items():
        if name not in own and draw(st.integers(0, 9)) != 4:
            continue  # a section of another mode, present now and then
        if name != "cgm" and draw(st.integers(0, 9)) == 4:
            continue  # a missing section
        lines.append(f"[{name}]")
        lines += [f"{key} = {v}" for key, v in keys.items() if v is not None]
    return "\n".join(lines) + "\n"


@given(text=_ini_files())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_ini_files_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert run(path, out=os.path.join(tmp, "out"), quiet=True) in {0, EXIT_CONFIG, EXIT_SOLVER, EXIT_MISMATCH}
