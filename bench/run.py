#!/usr/bin/env python3
"""fracflux benchmark: a forward solve, a nonlinear CGM inversion and a CLI table sweep.

Run from the repository root:

    python3 bench/run.py --workload fwd1-full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, one child process each

Each run imports fracflux from ``src/`` next to this directory, builds the
workload's inputs, then repeats whole rounds of its operation for as long
as they fit in ``--seconds`` (at least one round), and checks every output
against reference answers computed in ``checks.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the layer boundaries are wrapped (``spans.py``), the spans are
written to ``bench/results/trace-<workload>.json`` and the metrics are the
per-layer ones.  See README.md for the workloads and the metric map.
"""

import os

# one BLAS thread: set before numpy is first imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import spans  # noqa: E402

# ``checks`` brings numpy and mpmath with it, so it is imported where it is
# used, after set-up has been timed from an interpreter without them

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
RESULTS = os.path.join(BENCH, "results")
# set-up is timed this many times per run (the run's own and the rest in
# fresh interpreters) and reported as the median
SETUP_REPEATS = 3
BETA = 0.3


def import_fracflux():
    if not os.path.isfile(os.path.join(SRC, "fracflux", "__init__.py")):
        raise SystemExit(f"error: no fracflux sources at {SRC}")
    sys.path.insert(0, SRC)
    import fracflux
    import fracflux.cli
    import fracflux.experiments

    return fracflux


@dataclass
class Outcome:
    """One operation's checked result; ``error`` is None when it raised."""

    error: float | None
    problems: list[str] = field(default_factory=list)


class Fwd1Full:
    """solve_nonlinear on Fwd1: h = 0.05, tau = 1e-3, theta_bar = 5e-3."""

    name = "fwd1-full"
    ops_per_round = 1

    def setup(self, ff, workdir):
        grid = ff.Grid.from_spacing(0.05, 0.001)
        return ff.experiments.PRESETS["Fwd1"](grid, BETA)

    def reference(self, example):
        import checks

        g = example.problem.grid
        return checks.fwd1_exact(BETA, g.xs, g.ys, g.ts)

    def run(self, ff, example):
        return ff.solve_nonlinear(example.problem, ff.PicardConfig(theta_bar=5e-3))

    def check(self, out, example, exact):
        import checks

        u, report = out
        g = example.problem.grid
        err = checks.h1_error(u.values - exact, g.hx, g.hy, g.tau)
        return [Outcome(err, checks.forward_problems(err, report.eta_star))]


class Inv1Cgm:
    """run_cgm on Inv1 from zero fluxes, clean data: h = 0.1, tau = 0.04."""

    name = "inv1-cgm"
    ops_per_round = 1

    def setup(self, ff, workdir):
        grid = ff.Grid.from_spacing(0.1, 0.04)
        return ff.experiments.PRESETS["Inv1"](grid, BETA)

    def reference(self, example):
        import checks

        g = example.problem.grid
        return checks.inv1_fluxes(BETA, g.xs, g.ys, g.ts)

    def run(self, ff, example):
        return ff.run_cgm(example.problem, example.observations, max_iter=1000)

    def check(self, report, example, exact):
        import checks

        g = example.problem.grid
        rec = report.reconstructed
        errors = checks.flux_errors(rec.f1.values, rec.f2.values, *exact, g.hx, g.tau)
        problems = checks.inversion_problems(
            report.stop_reason.value, report.J_history, example.observations.epsilon_bar, errors, clean=True
        )
        return [Outcome(math.hypot(*errors), problems)]


class Inv2Table:
    """fracflux.cli.run in table mode on Inv2: h = 0.1, tau = 1e-3, four noise levels."""

    name = "inv2-table"
    gammas = (0.0, 0.005, 0.01, 0.05)
    ops_per_round = len(gammas)
    h, tau = 0.1, 0.001

    def setup(self, ff, workdir):
        ini = os.path.join(workdir, "table.ini")
        with open(ini, "w") as fh:
            fh.write(
                "[run]\nmode = table\npreset = Inv2\n"
                f"[grid]\nh = {self.h}\ntau = {self.tau}\n"
                f"[problem]\nbeta = {BETA}\n"
                "[cgm]\nmax_iter = 1000\n"
                f"[noise]\ngammas = {','.join(map(str, self.gammas))}\nseed = 1234\n"
            )
        # the sweep builds the preset itself; this build times the refined-grid
        # synthesis of the observations as part of set-up
        grid = ff.Grid.from_spacing(self.h, self.tau)
        ff.experiments.PRESETS["Inv2"](grid, BETA)
        return ini, os.path.join(workdir, "out"), grid

    def reference(self, inputs):
        import checks

        g = inputs[2]
        return checks.inv2_fluxes(g.xs, g.ys, g.ts)

    def run(self, ff, inputs):
        ini, out, _ = inputs
        # keep what the sweep's inversions return, to check them one by one
        inversions = []
        run_cgm = ff.cli.run_cgm

        def kept(problem, obs, **kwargs):
            report = run_cgm(problem, obs, **kwargs)
            inversions.append((obs.epsilon_bar, report))
            return report

        ff.cli.run_cgm = kept
        try:
            code = ff.cli.run(ini, out=out, quiet=True)
        finally:
            ff.cli.run_cgm = run_cgm
        return code, inversions, os.path.join(out, "table.csv")

    def check(self, out, inputs, exact):
        import checks

        code, inversions, table = out
        g = inputs[2]
        if code != 0 or len(inversions) != len(self.gammas):
            return [Outcome(None, [f"exit code {code}, {len(inversions)} inversions"])] * self.ops_per_round
        with open(table) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        outcomes, errors_by_gamma = [], []
        for gamma, (eps_bar, report), row in zip(self.gammas, inversions, rows):
            rec = report.reconstructed
            errors = checks.flux_errors(rec.f1.values, rec.f2.values, *exact, g.hx, g.tau)
            problems = checks.inversion_problems(
                report.stop_reason.value, report.J_history, eps_bar, errors, clean=gamma == 0.0
            )
            written = (float(row[1]), float(row[2]), int(row[3]), float(row[4]), float(row[5]))
            if written[:3] != (gamma, eps_bar, report.k_star) or not all(
                math.isclose(w, e, rel_tol=1e-9) for w, e in zip(written[3:], errors)
            ):
                problems.append(f"table.csv row {row} disagrees with the inversion")
            outcomes.append(Outcome(math.hypot(*errors), problems))
            errors_by_gamma.append(errors)
        if len(rows) != len(self.gammas):
            outcomes[-1].problems.append(f"table.csv has {len(rows)} rows")
        for i, message in checks.sweep_problems(errors_by_gamma):
            outcomes[i].problems.append(message)
        return outcomes


WORKLOADS = {w.name: w for w in (Fwd1Full(), Inv1Cgm(), Inv2Table())}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "solution_err": "1"}


def setup_in_child(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=150,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(wl, args, workdir) -> dict:
    start = time.perf_counter()
    ff = import_fracflux()
    if args.setup_only:
        wl.setup(ff, workdir)
        return {"setup_s": time.perf_counter() - start}
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with span("setup"):
        inputs = wl.setup(ff, workdir)
    setup_times = [time.perf_counter() - start]
    if not args.trace:
        setup_times += [setup_in_child(wl.name) for _ in range(SETUP_REPEATS - 1)]
    exact = wl.reference(inputs)

    round_times: list[float] = []
    outcomes: list[Outcome] = []
    begin = time.perf_counter()
    # whole rounds only, and only those that should end within the window
    while not round_times or time.perf_counter() - begin + round_times[-1] <= args.seconds:
        with span("round"):
            t0 = time.perf_counter()
            try:
                out = wl.run(ff, inputs)
            except Exception:
                traceback.print_exc()
                out = None
            round_times.append(time.perf_counter() - t0)
        if len(round_times) == 1:
            # later rounds reuse (and fragment) the first one's memory, so the
            # peak is taken over set-up and one round whatever the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if out is None:
            outcomes += [Outcome(None, ["raised"]) for _ in range(wl.ops_per_round)]
        else:
            outcomes += wl.check(out, inputs, exact)
    if restore:
        restore()

    print(f"{wl.name}: rounds of {', '.join(f'{t:.3f}' for t in round_times)} s", file=sys.stderr)
    for o in outcomes:
        for problem in o.problems:
            print(f"{wl.name}: check failed: {problem}", file=sys.stderr)
    done = [o.error for o in outcomes if o.error is not None]
    if not done:
        raise SystemExit(f"error: no {wl.name} operation completed")
    if tracer:
        values = spans.layer_metrics(tracer.spans, len(round_times))
        units = dict(spans.LAYER_METRICS)
        _write_trace(wl.name, args, tracer, round_times)
    else:
        values = {
            "wall_s": statistics.median(round_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "solution_err": max(done),
        }
        units = END_TO_END
    return {
        "correct": not any(o.problems for o in outcomes if o.error is not None),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error is None or o.problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _write_trace(name, args, tracer, round_times) -> None:
    path = os.path.join(RESULTS, f"trace-{name}.json")
    doc = {
        "workload": name,
        "seed": args.seed,
        "rounds": len(round_times),
        "traced_wall_s": statistics.median(round_times),
        "spans": tracer.spans,
    }
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh)
    os.replace(path + ".tmp", path)


def run_all(args) -> int:
    """Every workload in turn, each in a child process so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1, help="recorded only: the workloads' inputs are fixed presets")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1], help="1: per-layer metrics from spans")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(RESULTS, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
