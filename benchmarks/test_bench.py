"""Self-tests of the benchmark at tiny sizes.

Run with ``python3 -m pytest benchmarks``.  They check that every declared
metric is printed with its unit, that the correctness gate accepts a good
run and rejects a perturbed reference, that the tracer's self times add up
and that it restores what it wrapped, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import configparser
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, write_config  # noqa: E402

TINY = Workload("tiny-rod", "rod_compliance.ini", (("time", "steps", "4"),), "test only")
TINY_TOL = 1e-10                      # [solver] tol of rod_compliance.ini


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("reference")
    record = {"workloads": {TINY.name: make_reference.write_reference(ROOT, TINY, d)}}
    (d / "manifest.json").write_text(json.dumps(record))
    return d


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    return make_reference.solve_once(ROOT, TINY, tmp_path_factory.mktemp("run"))


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(reference_dir, tmp_path, trace, kind):
    lines: list[str] = []
    result = run.measure(TINY, seed=3, seconds=0.2, trace=trace, probes=1,
                         reference_dir=reference_dir, bench_out=tmp_path, log=lines.append)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared(kind)
    printed = {ln.split(":")[0].strip(): ln for ln in lines}
    for name, unit in units.items():
        assert f" {unit}" in printed[name]
    assert "failed_share: 0 " in printed["failed_share"] + " "
    assert json.loads(json.dumps(result)) == result


def test_benchmark_json_lists_the_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_generated_config_changes_only_the_named_keys(tmp_path):
    def parsed(path):
        p = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        p.read(path)
        return {(s, k): v for s in p.sections() for k, v in p[s].items()}

    for w in WORKLOADS.values():
        base = parsed(ROOT / "configs" / w.config)
        made = parsed(write_config(ROOT, w, 7, tmp_path / "w.ini"))
        changed = {key: made[key] for key in made if made[key] != base.get(key)}
        expected = {(s, k): v for s, k, v in w.overrides + (("solver", "seed", "7"),)}
        assert made.keys() == base.keys()
        assert changed == {k: v for k, v in expected.items() if base[k] != v}


def test_gate_accepts_within_tolerance_and_rejects_a_perturbed_reference(reference_dir, tiny_run):
    names, values = gate.load_reference(TINY.name, reference_dir)
    assert gate.check(0, tiny_run, (names, values)).passed
    limit = gate.TOL_MULTIPLE * TINY_TOL
    for factor, passes in ((0.5, True), (2.0, False)):
        bumped = values.copy()
        bumped[len(bumped) // 2, 0] += factor * limit
        outcome = gate.check(0, tiny_run, (names, bumped))
        assert outcome.passed is passes
        if not passes:
            assert "sup-distance to reference" in outcome.reasons[0]


def test_gate_rejects_bad_exit_code_nonconvergence_and_contact_excess(
        reference_dir, tiny_run, tmp_path):
    reference = gate.load_reference(TINY.name, reference_dir)
    assert not gate.check(3, tiny_run, reference).passed
    text = (tiny_run / "diagnostics.txt").read_text()
    for old, new in (("converged: true", "converged: false"),
                     ("bound_excess: ", "bound_excess: 1e-6\n  was: ")):
        shutil.copytree(tiny_run, tmp_path / "copy", dirs_exist_ok=True)
        (tmp_path / "copy" / "diagnostics.txt").write_text(text.replace(old, new, 1))
        assert not gate.check(0, tmp_path / "copy", reference).passed


def test_self_time_subtracts_child_spans_and_wrappers_are_restored():
    fake = types.ModuleType("sweepvi._tracer_selftest")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.03)
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    targets = (tracer.Target("t.outer", fake.__name__, "outer"),
               tracer.Target("t.inner", fake.__name__, "inner"))
    try:
        with tracer.Tracer(targets) as tr:
            assert fake.outer is not outer and fake.inner is not inner
            fake.outer()
        assert fake.outer is outer and fake.inner is inner
    finally:
        del sys.modules[fake.__name__]
    outer_calls, outer_self, outer_total = tr.layer_totals()["t.outer"]
    inner_calls, inner_self, inner_total = tr.layer_totals()["t.inner"]
    assert (outer_calls, inner_calls) == (1, 2)
    assert outer_self >= 0.03 and inner_self >= 0.04 and inner_total == inner_self
    assert outer_total - outer_self == pytest.approx(inner_self, abs=1e-9)


def test_tracer_restores_the_real_lookup_sites():
    import sweepvi.cli  # noqa: F401  (loads every module the targets name)

    sites = [site for t in tracer.TARGETS for site in tracer.lookup_sites(t.module, t.path)]
    assert len(sites) > len(tracer.TARGETS)          # functions are bound in several modules
    with tracer.Tracer():
        assert all(owner.__dict__[name] is not original for owner, name, original in sites)
    assert all(owner.__dict__[name] is original for owner, name, original in sites)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "rod-contrast",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
