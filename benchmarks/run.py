"""Benchmark of ``sweepvi run``: time to a verified solution, end to end and by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's INI from a shipped config (the seed goes
to ``[solver] seed``), then in this one process calls
``sweepvi.cli.main(["run", ...])`` repeatedly, one sample at a time, for
``--seconds`` seconds.  Every sample passes through the correctness gate in
``gate.py``.  Set-up time is measured separately in fresh processes
(``setup_probe.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced (``tracer.py``), and the last line reports the per-layer metrics.

Timings are medians over samples.  The speed of a small shared host drifts
by tens of percent over seconds to minutes, so each sample's wall time is
multiplied by a host speed factor: a fixed calibration computation that does
not use sweepvi runs before and after every sample, and the factor is its
reference time over its measured time.  Reported times are therefore
seconds at the reference host speed; the raw wall-clock medians are printed
next to them.  BLAS runs single-threaded so samples do not compete with
themselves.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":            # before numpy loads, in this process and the probes
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
from tracer import COUNTERS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
CAL_REF_S = 0.1      # wall time of calibrate() at the reference host speed
INCLUSIVE = ("evi.solve_evi", "evi.vi_residual", "core.membership_residual")

# name -> unit, in the order printed; BENCHMARK.json declares the same names
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dof_steps_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for t in TARGETS:
        if not t.once:
            units[f"{t.layer}_calls"] = "count"
        units[f"{t.layer}_s"] = "s"
        if t.layer in INCLUSIVE:
            units[f"{t.layer}_total_s"] = "s"
    units.update({c: "count" for c in COUNTERS})
    units.update({
        "evi.iterations_per_solve": "iter/solve",
        "core.metric_dense_bytes": "bytes",
        "cli.import_s": "s",
        "cli.output_bytes": "bytes",
        "cli.diag_total_iterations": "count",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if above the median."""
    n = len(values)
    rank = n - 10                      # samples at or below; ten lie beyond
    if rank <= n / 2:
        return f"no percentile above the median has ten samples beyond it (n={n})"
    return f"p{100.0 * rank / n:.0f} {sorted(values)[rank - 1]:.6g} (n={n})"


_CAL_RNG = np.random.default_rng(0)
_CAL_M, _CAL_V = _CAL_RNG.standard_normal((8, 8)), _CAL_RNG.standard_normal(8)
_CAL_X, _CAL_G = _CAL_RNG.standard_normal((256, 48)), _CAL_RNG.standard_normal((48, 48))


def calibrate() -> float:
    """Wall time of a fixed computation that does not use sweepvi.

    Two halves of about equal length: small dense algebra driven from a
    Python loop, like the solver's inner loops, and a bulk ``einsum``, like
    the verification helpers.  Workloads weigh the two kinds of work
    differently and a slow phase of a shared host slows them unequally, so
    the blend tracks every workload about equally well.
    """
    v, s = _CAL_V.copy(), 0.0
    t0 = time.perf_counter()
    for _ in range(10000):
        a = _CAL_M @ v
        v = np.maximum(a, 0.0) / (1.0 + float(np.abs(a).max()))
        s += float(v @ v)
    for _ in range(70):
        np.einsum("ij,jk,ik->i", _CAL_X, _CAL_G, _CAL_X)
    return time.perf_counter() - t0


def bracketed(step, more) -> list[tuple[object, float]]:
    """Call ``step(calls so far)`` while ``more(calls so far)``; pair results with speed factors.

    ``calibrate()`` runs before every call and after the last one.  The
    factor is ``CAL_REF_S`` over the mean of the two calibrations around a
    call; multiplying a wall time by it gives seconds at the reference host
    speed.
    """
    cals, results = [calibrate()], []
    while more(len(results)):
        results.append(step(len(results)))
        cals.append(calibrate())
    return [(r, 2.0 * CAL_REF_S / (a + b)) for r, a, b in zip(results, cals, cals[1:])]


def _probe(ini: Path, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(ini), str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd=HERE)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs samples of ``sweepvi run`` on one generated config and gates them."""

    def __init__(self, cli, ini: Path, out_dir: Path, reference):
        self.cli, self.ini, self.out_dir, self.reference = cli, ini, out_dir, reference
        self.outcomes = []

    def sample(self, tracer=None) -> float:
        argv = ["run", "--config", str(self.ini), "--out", str(self.out_dir)]
        shutil.rmtree(self.out_dir, ignore_errors=True)   # the gate must see this run's files
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), (tracer or contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:   # a crash is a failed sample, not a benchmark error
                traceback.print_exc()
                code = f"{type(exc).__name__} raised"
            elapsed = time.perf_counter() - t0
        outcome = gate.check(code, self.out_dir, self.reference)
        for reason in outcome.reasons:
            print(f"gate: sample {len(self.outcomes)} failed: {reason}", file=sys.stderr)
        self.outcomes.append(outcome)
        return elapsed

    def samples_for(self, seconds: float, tracer_factory=None) -> list:
        """``(wall s, tracer, speed factor)`` per sample until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds

        def step(_):
            tracer = tracer_factory() if tracer_factory else None
            return self.sample(tracer), tracer

        return [(wall, tracer, speed) for (wall, tracer), speed in
                bracketed(step, lambda n: n == 0 or time.perf_counter() < deadline)]


def measure(workload, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
            reference_dir: Path = gate.REFERENCE_DIR, bench_out: Path = ROOT / ".bench_out",
            log=print) -> dict:
    """Run the benchmark for one workload; return the result object it prints last.

    Every time it reports is a wall time multiplied by the host speed factor
    measured around it (see :func:`bracketed`), i.e. seconds at the
    reference host speed; the log also gives the raw wall-clock medians.
    """
    recorded = gate.manifest(reference_dir)["workloads"].get(workload.name)
    if recorded is None or recorded["overrides"] != [list(o) for o in workload.overrides]:
        raise BenchmarkError(f"the stored reference for {workload.name} was made for other "
                             "overrides; regenerate it with make_reference.py")
    reference = gate.load_reference(workload.name, reference_dir)

    work = bench_out / f"{workload.name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ini = write_config(ROOT, workload, seed, work / "workload.ini")
        probed = bracketed(lambda i: _probe(ini, work / f"probe{i}"), lambda n: n < probes)
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import sweepvi.cli as cli

        runner = Runner(cli, ini, work / "out", reference)
        plain = runner.samples_for(seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if trace:
            traced = runner.samples_for(seconds / 2, Tracer)
            traced[-1][1].write_spans(bench_out / f"spans-{workload.name}-seed{seed}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = runner.outcomes
    failed = sum(not o.passed for o in outcomes)
    dofs, nodes = sum(1 for n in reference[0] if n.startswith("u")), len(reference[1])
    run = [wall * speed for wall, _, speed in plain]
    setup = [p["setup_s"] * speed for p, speed in probed]
    e2e = {
        "run_s": statistics.median(run),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "dof_steps_per_s": dofs * nodes / statistics.median(run),
    }
    log(f"workload {workload.name}: {workload.config} with "
        + ", ".join(f"[{s}] {k} = {v}" for s, k, v in workload.overrides)
        + f", [solver] seed = {seed}")
    log(f"  why: {workload.why}")
    log(f"  {dofs} dofs x {nodes} time nodes; BLAS threads "
        f"{os.environ.get(BLAS_ENV[0], 'library default')}; "
        f"{os.cpu_count()} cpus; samples run one at a time in one process")
    log(f"  host speed factor (calibration {CAL_REF_S} s / measured): median "
        f"{statistics.median(speed for _, _, speed in plain):.4g}; times below are "
        "wall times times this factor")
    log(f"  run_s: median {e2e['run_s']:.6g} s over {len(run)} untraced samples "
        f"(wall median {statistics.median(w for w, _, _ in plain):.6g} s); tail {_tail(run)}")
    log(f"  setup_s: median {e2e['setup_s']:.6g} s over {len(setup)} fresh processes "
        f"(wall median {statistics.median(p['setup_s'] for p, _ in probed):.6g} s)")
    log(f"  peak_rss_mb: {peak_rss_mb:.6g} MB")
    log(f"  dof_steps_per_s: {e2e['dof_steps_per_s']:.6g} 1/s")
    log(f"  failed_share: {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} runs "
        "failed the correctness gate)")

    if not trace:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        import_s = statistics.median(p["import_s"] * speed for p, speed in probed)
        metrics = _per_layer(traced, e2e["run_s"], import_s, outcomes[-1], dofs, log)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def _per_layer(traced, run_s, import_s, last, dofs, log) -> dict:
    """Medians over the traced samples of every per-layer metric."""
    rows = []
    for wall, tracer, speed in traced:
        totals = tracer.layer_totals()
        row = {"trace.unattributed_s": wall - sum(s for _, s, _ in totals.values()),
               "traced_s": wall}
        for t in TARGETS:
            calls, self_s, total_s = totals[t.layer]
            if not t.once:
                row[f"{t.layer}_calls"] = calls
            row[f"{t.layer}_s"] = self_s
            if t.layer in INCLUSIVE:
                row[f"{t.layer}_total_s"] = total_s
        row = {k: v * speed if k.endswith("_s") else v for k, v in row.items()}
        row.update(tracer.counters)
        solves = row["evi.solve_evi_calls"]
        row["evi.iterations_per_solve"] = row["evi.iterations"] / solves if solves else 0.0
        rows.append(row)
    # counts repeat exactly from sample to sample; times are medians
    values = {k: statistics.median(r[k] for r in rows) if k.endswith("_s") else rows[0][k]
              for k in rows[0]}
    varying = [k for k in rows[0] if not k.endswith("_s") and any(r[k] != rows[0][k] for r in rows)]
    if varying:
        log(f"  warning: counts differ between traced samples: {', '.join(varying)}")
    values.update({
        "core.metric_dense_bytes": 2 * dofs * dofs * 8,
        "cli.import_s": import_s,
        "cli.output_bytes": last.output_bytes,
        "cli.diag_total_iterations": last.diag_total_iterations,
        "trace.overhead_s": values["traced_s"] - run_s,
    })
    units = per_layer_units()
    top = sorted((f"{t.layer}_s" for t in TARGETS), key=values.get, reverse=True)[:3]
    log(f"  traced samples: {len(traced)}; spans in the last: {traced[-1][1].span_count}; "
        "largest self times: "
        + ", ".join(f"{k} {100 * values[k] / values['traced_s']:.0f}%" for k in top))
    for name, unit in units.items():
        log(f"  {name}: {values[name]:.6g} {unit}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark sweepvi run on one workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sweepvi" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"benchmark: no sweepvi sources under {ROOT}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
