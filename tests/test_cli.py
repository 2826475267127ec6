import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sweepvi.cli import load_config, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"

ZERO_LOAD = """\
[problem]
kind = rigid_obstacle

[mesh]
length = 1.0
elements = 4

[material]
a = 1.0

[contact]
law = rigid

[loads]
body = 0.0

[time]
horizon = 1.0
steps = 8

[solver]
tol = 1e-10
mode = time_marching
seed = 0
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestLoadConfig:
    def test_reads_a_full_contact_config(self):
        cfg = load_config(CONFIGS / "rod_rigid.ini")
        assert cfg.kind == "rigid_obstacle"
        assert cfg.tol == 1e-10
        assert cfg.grid.steps == 8

    def test_missing_file_exits_with_config_error(self, tmp_path):
        assert run_cli("check", "--config", tmp_path / "nope.ini") == 4

    def test_missing_section_exits_with_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nkind = rigid_obstacle\n")
        assert run_cli("check", "--config", bad) == 4

    def test_unknown_kind_exits_with_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(ZERO_LOAD.replace("rigid_obstacle", "thermal"))
        assert run_cli("check", "--config", bad) == 4

    def test_nonpositive_horizon_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(ZERO_LOAD.replace("horizon = 1.0", "horizon = -1.0"))
        assert run_cli("check", "--config", bad) == 4

    @pytest.mark.parametrize("old, new, names", [
        ("a = 1.0", "a = -1", ("[material]", "a:")),
        ("a = 1.0", "a = 1 2 3", ("[material]", "a:", "4")),
        ("steps = 8", "steps = two", ("[time]", "steps:")),
        ("elements = 4", "elements = 0", ("[mesh]", "elements")),
        ("body = 0.0", "body = nan", ("[loads]", "body:", "finite")),
        ("body = 0.0", "body = 1 2", ("[loads]", "body:", "5")),
        ("law = rigid", "law = linear\nslope = 1", ("[problem]", "rigid law")),
        ("seed = 0", "seed = -1", ("[solver]", "seed:")),
        ("seed = 0", "seed = 0\nmax_iter = 0", ("[solver]", "max_iter:")),
        ("mode = time_marching", "mode = global_picard\nmax_iter = 0",
         ("[solver]", "max_iter:")),
        ("seed = 0", "seed = 0\nmax_iter = 1", ("[solver]", "max_iter:")),
        ("seed = 0", "seed = 0\nforce = maybe", ("[solver]", "force:")),
    ])
    def test_malformed_value_exits_4_naming_section_and_key(self, tmp_path, capsys,
                                                            old, new, names):
        bad = tmp_path / "bad.ini"
        assert old in ZERO_LOAD
        bad.write_text(ZERO_LOAD.replace(old, new))
        for command in ("check", "run"):
            assert run_cli(command, "--config", bad, "--out", tmp_path / "out") == 4
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            for name in names:
                assert name in err

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                             ("--tol", "inf"), ("--seed", "-3")])
    def test_bad_flag_override_exits_4_naming_the_key(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(ZERO_LOAD)
        for command in ("check", "run"):
            assert run_cli(command, "--config", cfg, "--out", tmp_path / "out",
                           f"{flag}={value}") == 4
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert f"[solver] {flag[2:]}:" in err

    def test_mode_flag_override_rechecks_max_iter(self, tmp_path, capsys):
        # a coupling window needs two passes whatever the mode
        cfg = tmp_path / "picard.ini"
        cfg.write_text(ZERO_LOAD.replace("mode = time_marching",
                                         "mode = global_picard\nmax_iter = 1"))
        for command in ("check", "run"):
            for mode in ("time_marching", "global_picard"):
                assert run_cli(command, "--config", cfg, "--out", tmp_path / "out",
                               f"--mode={mode}") == 4
                err = capsys.readouterr().err
                assert err.startswith("config error: ")
                assert "[solver] max_iter:" in err

    def test_force_reads_the_boolean_spellings(self, tmp_path):
        cfg = tmp_path / "zero.ini"
        for value, want in (("yes", True), ("On", True), ("1", True), ("off", False),
                            ("0", False), ("false", False)):
            cfg.write_text(ZERO_LOAD + f"force = {value}\n")
            assert load_config(cfg).force is want

    def test_importing_the_cli_loads_no_optimize_or_integrate(self):
        code = ("import sys, sweepvi.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'])))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "[]"


class TestCheck:
    def test_admissible_config_passes(self, capsys):
        assert run_cli("check", "--config", CONFIGS / "rod_rigid.ini") == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "all gates pass" in out

    def test_gate_failure_is_exit_2(self, capsys):
        assert run_cli("check", "--config", CONFIGS / "gate_fail.ini") == 2
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    @pytest.mark.parametrize("name", ["rod_compliance.ini", "shear_friction.ini",
                                      "abstract_volterra.ini"])
    def test_all_shipped_configs_are_admissible(self, name):
        assert run_cli("check", "--config", CONFIGS / name) == 0


class TestRun:
    def test_writes_solution_and_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out) == 0
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "t,u0,u1,u2,u3,sigma_nu,residual,iterations"
        diag = (out / "diagnostics.txt").read_text()
        assert "converged: true" in diag
        assert "verdict: pass" in diag

    def test_shear_run_reports_both_fields(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "shear_friction.ini",
                       "--out", out) == 0
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert "v0" in header and "sigma_tau" in header and "sigma_nu" in header

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--config", CONFIGS / "rod_compliance.ini",
                           "--out", out) == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "diagnostics.txt").read_bytes() == (b / "diagnostics.txt").read_bytes()

    def test_global_picard_reports_a_solution_of_its_theta(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_compliance.ini", "--out", out,
                       "--mode=global_picard") == 0
        line = next(line for line in (out / "diagnostics.txt").read_text().splitlines()
                    if line.startswith("max_residual:"))
        assert float(line.split(":")[1]) <= 1e-13

    def test_predicted_windows_take_three_passes_per_node(self, tmp_path):
        import sweepvi.cli as cli

        cfg = tmp_path / "long.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text()
                       .replace("steps = 32", "steps = 512"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert "coupling_passes: 1539" in (out / "diagnostics.txt").read_text().splitlines()
        run = load_config(cfg)
        spec = cli._build(run)[1]
        marching = cli._solve(run, spec)
        # node 0 starts from its own solve, node 1 from u_0, node k >= 2
        # from the linear predictor 2 u_{k-1} - u_{k-2}
        passes = marching.diagnostics["inner_iterations"]
        assert passes[:2].tolist() == [2, 4]
        assert (passes[2:] == 3).all()
        assert marching.diagnostics["coupling_passes"] == 1539
        picard = cli._solve(replace(run, mode="global_picard"), spec)
        assert picard.diagnostics["coupling_passes"] == picard.diagnostics["sweeps"]
        assert marching.u.sup_distance(picard.u) <= 1e-10

    def test_residuals_are_never_negative_zero(self):
        import sweepvi.cli as cli

        cfg = load_config(CONFIGS / "abstract_volterra.ini")
        sol = cli._solve(cfg, cli._build(cfg)[1])
        assert (sol.per_step_residuals == 0.0).any()
        assert not np.signbit(sol.per_step_residuals).any()

    def test_zero_load_produces_the_zero_solution(self, tmp_path):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(ZERO_LOAD)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        for row in rows:
            u_cols = row.split(",")[1:5]
            assert all(float(c) == 0.0 for c in u_cols)

    def test_gate_failure_without_force_is_exit_2(self, tmp_path):
        assert run_cli("run", "--config", CONFIGS / "gate_fail.ini",
                       "--out", tmp_path / "out") == 2

    def test_forced_run_records_instead_of_asserting(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--config", CONFIGS / "gate_fail.ini",
                       "--out", out, "--force")
        assert code in (0, 3)  # outcome recorded either way
        diag = (out / "diagnostics.txt").read_text()
        assert "forced: true" in diag
        assert "verdict: fail" in diag
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("config", ["rod_rigid.ini", "rod_compliance.ini",
                                        "shear_friction.ini", "abstract_volterra.ini"])
    def test_uniform_runs_report_the_space_metric(self, tmp_path, config):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / config, "--out", out) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert "evi_metric: space" in lines
        assert "evi_rate: 0" in lines

    def test_contrast_run_reports_the_energy_metric(self, tmp_path):
        cfg = tmp_path / "contrast.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text()
                       .replace("a = 1.0", "a = 1 3 6 10\nmu = 0.5"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert "evi_metric: energy" in lines
        rate = float(next(x for x in lines if x.startswith("evi_rate:")).split(":")[1])
        assert rate == pytest.approx(np.sqrt(1.0 - 1.0 / 1.5 ** 2), rel=1e-12)

    def test_non_finite_iterates_exit_3_and_say_so(self, tmp_path, capsys, monkeypatch):
        import sweepvi.cli as cli
        from sweepvi.evi import NonFiniteError

        def blow_up(*args, **kwargs):
            raise NonFiniteError("EVI stalled at node 3: non-finite iterate at iteration 2")

        monkeypatch.setattr(cli, "solve_spec", blow_up)
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out) == 3
        assert capsys.readouterr().out.startswith("non-finite: ")
        assert "non-finite iterate" in (out / "diagnostics.txt").read_text()

    def test_tol_flag_overrides_the_config(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out,
                       "--tol", "1e-6") == 0
        tol_line = next(line for line in (out / "diagnostics.txt").read_text().splitlines()
                        if line.startswith("tol:"))
        assert float(tol_line.split(":")[1]) == 1e-6

    @pytest.mark.parametrize("config", ["rod_rigid", "rod_compliance", "shear_friction"])
    def test_a_run_recovers_the_stress_once(self, tmp_path, monkeypatch, config):
        import sweepvi.cli as cli

        calls = []
        recover = cli.recover_stress

        def counting(*args, **kwargs):
            calls.append(args)
            return recover(*args, **kwargs)

        monkeypatch.setattr(cli, "recover_stress", counting)
        assert run_cli("run", "--config", CONFIGS / f"{config}.ini", "--out", tmp_path) == 0
        assert len(calls) == 1

    def test_a_shear_run_lifts_once_and_decides_the_metric_once(self, tmp_path, monkeypatch):
        import sweepvi.inclusion as inclusion
        import sweepvi.sweeping as sweeping

        counts = {"lift_to_velocity": 0, "iteration_metric": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(sweeping, "lift_to_velocity")
        counting(inclusion, "iteration_metric")
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "shear_friction.ini", "--out", out) == 0
        assert counts == {"lift_to_velocity": 1, "iteration_metric": 1}


class TestConvergence:
    def test_needs_at_least_two_refinements(self, tmp_path):
        assert run_cli("convergence", "--config", CONFIGS / "rod_rigid.ini",
                       "--out", tmp_path / "out", "--refinements", "1") == 4

    def test_reports_temporal_orders_near_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("convergence", "--config", CONFIGS / "abstract_volterra.ini",
                       "--out", out, "--refinements", "3") == 0
        text = (out / "convergence.txt").read_text()
        assert "order" in text
        orders = [float(tokens[-1]) for line in text.splitlines()
                  if (tokens := line.split()) and tokens[0].isdigit()
                  and tokens[-1] != "--"]
        assert orders, text
        assert min(orders) > 1.5

    def test_round_off_differences_get_no_order(self, tmp_path):
        # rod_rigid is exact in time and nearly so in space: its sup-differences
        # are at most a few 1e-15, far below 10 tol, so no order is printed
        out = tmp_path / "out"
        assert run_cli("convergence", "--config", CONFIGS / "rod_rigid.ini",
                       "--out", out, "--refinements", "2") == 0
        text = (out / "convergence.txt").read_text()
        rows = [tokens for line in text.splitlines()
                if (tokens := line.split()) and tokens[0].isdigit()]
        assert len(rows) == 4, text                 # two levels in each of the two tables
        assert all(float(tokens[1]) <= 1e-9 for tokens in rows), text
        assert [tokens[-1] for tokens in rows] == ["--"] * 4, text


class TestVerify:
    def test_contact_run_verifies_clean(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out) == 0
        assert run_cli("verify", "--config", CONFIGS / "rod_rigid.ini",
                       "--out", out) == 0

    def test_shear_run_verifies_clean(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "shear_friction.ini",
                       "--out", out) == 0
        assert run_cli("verify", "--config", CONFIGS / "shear_friction.ini",
                       "--out", out) == 0

    def test_abstract_run_verifies_against_the_oracle(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "abstract_volterra.ini",
                       "--out", out) == 0
        assert run_cli("verify", "--config", CONFIGS / "abstract_volterra.ini",
                       "--out", out) == 0

    def test_corrupted_solution_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out)
        csv = out / "solution.csv"
        lines = csv.read_text().splitlines()
        cells = lines[4].split(",")
        cells[1] = repr(float(cells[1]) + 0.05)
        lines[4] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--config", CONFIGS / "rod_rigid.ini",
                       "--out", out) == 2

    @pytest.mark.parametrize("config", ["rod_rigid", "shear_friction"])
    def test_velocity_columns_must_match_the_problem(self, tmp_path, capsys, config):
        # the rod file gains velocity columns, the shear file loses them
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / f"{config}.ini", "--out", out) == 0
        header, *rows = [line.split(",") for line in
                         (out / "solution.csv").read_text().splitlines()]
        u_cols = [i for i, h in enumerate(header) if h.startswith("u")]
        v_cols = [i for i, h in enumerate(header) if h.startswith("v")]
        if v_cols:
            keep = [i for i in range(len(header)) if i not in v_cols]
            lines = [[r[i] for i in keep] for r in [header, *rows]]
        else:
            at = u_cols[-1] + 1
            lines = [header[:at] + [f"v{i}" for i in range(len(u_cols))] + header[at:]]
            lines += [r[:at] + ["0"] * len(u_cols) + r[at:] for r in rows]
        (out / "solution.csv").write_text("\n".join(",".join(r) for r in lines) + "\n")
        assert run_cli("verify", "--config", CONFIGS / f"{config}.ini", "--out", out) == 4
        assert "does not match the configured problem" in capsys.readouterr().err

    def test_missing_output_is_exit_4(self, tmp_path):
        assert run_cli("verify", "--config", CONFIGS / "rod_rigid.ini",
                       "--out", tmp_path / "empty") == 4

    def test_oracle_caps_refuse_large_abstract_runs(self, tmp_path, capsys):
        big = tmp_path / "big.ini"
        big.write_text((CONFIGS / "abstract_volterra.ini").read_text()
                       .replace("steps = 12", "steps = 32"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", big, "--out", out) == 0
        assert run_cli("verify", "--config", big, "--out", out) == 4
        err = capsys.readouterr().err
        assert "16" in err  # names the cap and how to get under it

    def test_grid_mismatch_is_a_config_error(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out)
        other = tmp_path / "other.ini"
        other.write_text((CONFIGS / "rod_rigid.ini").read_text()
                         .replace("steps = 8", "steps = 16"))
        assert run_cli("verify", "--config", other, "--out", out) == 4
