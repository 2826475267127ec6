import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from marching import assert_windows_follow_the_rule
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


def edited_config(tmp_path, name, **values):
    """The shipped config ``name`` with the line of each key set to its value."""
    text = (CONFIGS / name).read_text()
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        assert count == 1, key
    path = tmp_path / name
    path.write_text(text)
    return path


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
        for command in (("check",), ("run", "--out", tmp_path / "out")):
            assert run_cli(*command, "--config", bad) == 4
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            for name in names:
                assert name in err

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                             ("--tol", "inf"), ("--seed", "-3")])
    def test_bad_flag_override_exits_4_naming_the_key(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(ZERO_LOAD)
        for command in ("run", "convergence"):
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
        for command in ("run", "convergence"):
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
        assert _scipy_modules_after("import sweepvi.cli") == "[]"

    @pytest.mark.parametrize("name", ["rod_compliance", "shear_friction"])
    def test_a_run_loads_no_scipy(self, name, tmp_path):
        # a fresh process, so a deferred import on the run path shows too
        run = (f"import sweepvi.cli; assert sweepvi.cli.main(['run', '--config', "
               f"{str(CONFIGS / f'{name}.ini')!r}, '--out', {str(tmp_path)!r}]) == 0")
        assert _scipy_modules_after(run) == "[]"


class TestConfigKeys:
    @pytest.mark.parametrize("config, old, new, message", [
        ("rod_compliance", "beta_rate = 2.0", "beta_rte = 2.0", "[material] unknown key 'beta_rte'"),
        ("rod_rigid", "seed = 0", "sede = 0", "[solver] unknown key 'sede'"),
        ("abstract_volterra", "load_kernel = 0.5", "load_kernal = 0.5",
         "[abstract] unknown key 'load_kernal'"),
        ("rod_rigid", "law = rigid", "law = rigid\nslope = 1", "[contact] unknown key 'slope'"),
        # only the shear layer reads an initial displacement
        ("rod_rigid", "kind = rigid_obstacle", "kind = rigid_obstacle\nu0 = 9 9 9 9",
         "[problem] unknown key 'u0'"),
        ("rod_compliance", "kind = normal_compliance", "kind = normal_compliance\nu0 = 0 0 0 0",
         "[problem] unknown key 'u0'"),
        # only the shear layer reads an elastic coefficient
        ("rod_rigid", "[material]", "[material]\nb = 5", "[material] unknown key 'b'"),
        ("rod_compliance", "[material]", "[material]\nb = 0.3", "[material] unknown key 'b'"),
        ("abstract_volterra", "[time]", "[mesh]\nlength = 1\n\n[time]", "[mesh] unknown section"),
        ("rod_rigid", "[time]", "[abstract]\nvariant = memory_pair\n\n[time]",
         "[abstract] unknown section"),
        # keys an earlier format read, which a config must no longer carry
        ("rod_compliance", "law = linear", "law = linear\nlaw_kind = compliance",
         "[contact] unknown key 'law_kind'"),
        ("abstract_volterra", "dimension = 1", "dimension = 1\ny_dimension = 1",
         "[abstract] unknown key 'y_dimension'"),
        ("abstract_volterra", "dimension = 1", "dimension = 1\neta_free = true",
         "[abstract] unknown key 'eta_free'"),
        # a parameter kernel is read only under memory_pair, for a functional
        # that reads its parameter
        ("gate_fail", "indices = 0", "indices = 0\nparameter_kernel = 5.0",
         "[abstract] unknown key 'parameter_kernel'"),
        ("gate_fail", "indices = 0", "indices = 0\nparameter_rate = 1.0",
         "[abstract] unknown key 'parameter_rate'"),
        ("gate_fail", "variant = state_parameter", "variant = parameter_free\nparameter_kernel = 0.5",
         "[abstract] unknown key 'parameter_kernel'"),
        ("abstract_volterra", "load_kernel = 0.5", "load_kernel = 0.5\nparameter_kernel = 0.5",
         "[abstract] unknown key 'parameter_kernel'"),
        # weights belong to a functional other than zero, indices to
        # positive_part, blocks to block_norm
        ("abstract_volterra", "load_kernel = 0.5", "load_kernel = 0.5\nweights = 1",
         "[abstract] unknown key 'weights'"),
        ("gate_fail", "indices = 0", "indices = 0\nblocks = 0", "[abstract] unknown key 'blocks'"),
        ("gate_fail", "functional = positive_part", "functional = block_norm",
         "[abstract] unknown key 'indices'"),
    ])
    def test_a_key_or_section_nothing_reads_exits_4_naming_it(self, tmp_path, capsys,
                                                              config, old, new, message):
        text = (CONFIGS / f"{config}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new, 1))
        for command in (("check",), ("run", "--out", tmp_path / "out")):
            assert run_cli(*command, "--config", bad) == 4
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_a_coupling_the_builder_refuses_exits_4(self, tmp_path, capsys):
        # state feedback into a functional that reads no parameter; the gate
        # itself (1 < 3) would pass
        text = (CONFIGS / "gate_fail.ini").read_text()
        old = "operator = 2.0\nfunctional = positive_part\nweights = 1.2\nindices = 0"
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, "operator = 3.0\nfunctional = zero"))
        for command in (("check",), ("run", "--out", tmp_path / "out")):
            assert run_cli(*command, "--config", bad) == 4
            assert capsys.readouterr().err == ("config error: [abstract] state_parameter "
                                               "needs a parameter-dependent functional\n")
        assert not (tmp_path / "out").exists()

    def test_the_2d_abstract_config_verifies_against_the_oracle(self, tmp_path, capsys):
        # the oracle's refined spacing, 1.17e-3, is above the 1e-3 bound on
        # the oracle gap; its last box brings the gap to 2e-4
        cfg = tmp_path / "abstract_2d.ini"
        cfg.write_text(ABSTRACT_2D)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("verify", "--config", cfg, "--out", out) == 0
        gap = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("grid-search oracle gap: ")]
        assert len(gap) == 1 and float(gap[0].split(": ")[1]) <= 2.5e-4

    @pytest.mark.filterwarnings("ignore:negative parameter entries")
    @pytest.mark.parametrize("command", ["run", "convergence"])
    def test_a_parameter_that_turns_negative_exits_4_naming_abstract(self, tmp_path, capsys,
                                                                     command):
        # u_1 is free and pushed below 0, so the parameter kernel drives eta_1
        # below 0, where the prox of the positive part is undefined
        bad = tmp_path / "bad.ini"
        bad.write_text(ABSTRACT_2D.replace("cone_indices = 0 1", "cone_indices = 0")
                       .replace("f = 1 0.5", "f = 1 -0.5"))
        assert run_cli(command, "--config", bad, "--out", tmp_path / "out") == 4
        assert capsys.readouterr().err == ("config error: [abstract] negative effective "
                                           "weight; prox undefined\n")

    @pytest.mark.parametrize("command", ["run", "convergence"])
    def test_a_config_error_at_solve_time_leaves_no_out_and_one_warning_line(
            self, tmp_path, capsys, command):
        bad = tmp_path / "bad.ini"
        bad.write_text(ABSTRACT_2D.replace("cone_indices = 0 1", "cone_indices = 0")
                       .replace("f = 1 0.5", "f = 1 -0.5"))
        out = tmp_path / "out"
        assert run_cli(command, "--config", bad, "--out", out) == 4
        assert capsys.readouterr().err == ("warning: negative parameter entries break "
                                           "convexity of j\n"
                                           "config error: [abstract] negative effective "
                                           "weight; prox undefined\n")
        assert not out.exists()
        # a directory the run did not make stays, empty or not
        out.mkdir()
        assert run_cli(command, "--config", bad, "--out", out) == 4
        assert out.is_dir()

    @pytest.mark.parametrize("old, new", [
        ("law = linear\nslope = 0.5", "law = saturating\nfmax = 0.3\nrate = 2.0"),
        ("law = linear\nslope = 0.5", "law = table\nslips = 0 1\nthresholds = 0 0.5"),
        ("law = linear\nslope = 0.5", "law = zero"),
    ])
    def test_compliance_takes_any_threshold_law(self, tmp_path, old, new):
        text = (CONFIGS / "rod_compliance.ini").read_text()
        assert old in text
        cfg = tmp_path / "law.ini"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0

    def test_friction_takes_a_linear_law(self, tmp_path):
        text = (CONFIGS / "shear_friction.ini").read_text()
        cfg = tmp_path / "law.ini"
        cfg.write_text(text.replace("law = saturating\nfmax = 0.3\nrate = 60.0",
                                    "law = linear\nslope = 0.5"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0

    def test_the_parameter_space_has_one_dimension_per_block(self, tmp_path):
        # one norm block on two coordinates, read from a memory of its own
        cfg = tmp_path / "block.ini"
        cfg.write_text(BLOCK_NORM)
        assert load_config(cfg).abstract["blocks"] == [[0, 1]]
        spec = _build_spec(cfg)
        assert (spec.x_space.dim, spec.y_space.dim) == (2, 1)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0

    def test_the_parameter_space_is_x_when_j_reads_no_parameter(self, tmp_path):
        cfg = tmp_path / "block.ini"
        cfg.write_text(BLOCK_NORM.replace("variant = memory_pair", "variant = parameter_free"))
        assert _build_spec(cfg).y_space.dim == 2

    def test_a_parameter_kernel_maps_into_x(self, tmp_path, capsys):
        # the kernel's Y = X has two dimensions, and j one unit to read them
        cfg = tmp_path / "block.ini"
        cfg.write_text(BLOCK_NORM.replace("f = 1.0", "f = 1.0\nparameter_kernel = 0.5"))
        assert run_cli("check", "--config", cfg) == 4
        assert "[abstract] parameter space dimension" in capsys.readouterr().err
        cfg.write_text(BLOCK_NORM.replace("f = 1.0", "f = 1.0\nparameter_kernel = 0.5")
                       .replace("blocks = 0 1", "blocks = 0; 1").replace("weights = 1", "weights = 1 1"))
        assert _build_spec(cfg).y_space.dim == 2

    def test_a_spaced_semicolon_separates_blocks(self, tmp_path):
        # only "#" starts an inline comment, so " ; 1" is a second block
        cfg = tmp_path / "block.ini"
        cfg.write_text(BLOCK_NORM.replace("blocks = 0 1", "blocks = 0 ; 1")
                       .replace("weights = 1", "weights = 1 1"))
        assert load_config(cfg).abstract["blocks"] == [[0], [1]]
        assert _build_spec(cfg).y_space.dim == 2
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0

    @pytest.mark.parametrize("blocks", ["0;", "0;1;", ";0 1"])
    def test_an_empty_block_exits_4(self, tmp_path, capsys, blocks):
        cfg = tmp_path / "block.ini"
        cfg.write_text(BLOCK_NORM.replace("blocks = 0 1", f"blocks = {blocks}")
                       .replace("weights = 1", "weights = 1 1"))
        assert run_cli("check", "--config", cfg) == 4
        assert capsys.readouterr().err == "config error: [abstract] blocks must not be empty\n"


BLOCK_NORM = """\
[problem]
kind = abstract

[abstract]
variant = memory_pair
dimension = 2
operator = 2 0 0 2
functional = block_norm
weights = 1
blocks = 0 1
f = 1.0

[time]
horizon = 1.0
steps = 4
"""

# H = [[2, 1], [0.5, 3]] is self-adjoint in the metric diag(1, 2) but not
# symmetric, so H u and u H^T differ
ABSTRACT_2D = """\
[problem]
kind = abstract

[abstract]
variant = memory_pair
dimension = 2
metric = 1 2
operator = 2 1 0.5 3
cone = nonnegative
cone_indices = 0 1
functional = positive_part
weights = 0.4 0.2
indices = 0 1
parameter_kernel = 0.3
parameter_rate = 1.0
load_kernel = 0.5
f = 1 0.5
f_ramp = 0.5 1

[time]
horizon = 1.0
steps = 8

[solver]
tol = 1e-10
"""


def _build_spec(path):
    import sweepvi.cli as cli

    return cli._build(load_config(path))[1]


class TestUsage:
    @pytest.mark.parametrize("argv, names", [
        (("run",), "--config"),
        (("run", "--config", CONFIGS / "rod_rigid.ini", "--mode", "bogus"), "bogus"),
        (("solve", "--config", CONFIGS / "rod_rigid.ini"), "solve"),
        (("check", "--config", CONFIGS / "rod_rigid.ini", "--seed", "5"), "--seed 5"),
        (("check", "--config", CONFIGS / "rod_rigid.ini", "--out", "x"), "--out x"),
        (("verify", "--config", CONFIGS / "rod_rigid.ini", "--mode", "global_picard"),
         "--mode global_picard"),
        (("verify", "--config", CONFIGS / "rod_rigid.ini", "--tol", "1e-6"), "--tol"),
        (("verify", "--config", CONFIGS / "rod_rigid.ini", "--force"), "--force"),
        ((), "command"),
    ])
    def test_a_usage_error_exits_4_naming_the_argument(self, capsys, argv, names):
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: sweepvi")
        assert names in err

    @pytest.mark.parametrize("argv", [("--help",), ("check", "--help"), ("run", "-h")])
    def test_help_exits_0(self, capsys, argv):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: sweepvi")

    def test_each_subcommand_takes_only_the_flags_it_reads(self, capsys):
        for command, flags in (("check", []), ("verify", ["--out", "--seed"]),
                               ("run", ["--out", "--tol", "--mode", "--seed", "--force"]),
                               ("convergence", ["--out", "--tol", "--mode", "--seed",
                                                "--force", "--refinements"])):
            assert run_cli(command, "--help") == 0
            text = capsys.readouterr().out
            taken = sorted(set(re.findall(r"--[a-z]+", text)) - {"--help", "--config"})
            assert taken == sorted(flags), command


def _scipy_modules_after(statement: str) -> str:
    """The scipy modules a fresh interpreter has loaded after ``statement``, as printed."""
    code = (f"import sys\n{statement}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip().splitlines()[-1]


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

    def test_check_prints_the_audit_of_a_sweeping_coupling(self, tmp_path, capsys):
        text = (CONFIGS / "shear_friction.ini").read_text()
        assert "[material]\n" in text
        coupled = tmp_path / "coupled.ini"
        coupled.write_text(text.replace("[material]\n", "[material]\nb = 0.3\n"))
        assert run_cli("check", "--config", coupled) == 0
        lines = capsys.readouterr().out.splitlines()
        coupling = [ln for ln in lines if ln.startswith("coupling [elastic]: ")]
        assert len(coupling) == 1, lines
        assert re.fullmatch(r"coupling \[elastic\]: declared L=0\.29999999999999999; "
                            r"sampled L=\S+ over 256 pairs \[pass\]", coupling[0])

    @pytest.mark.parametrize("b, audits", [("0", 1), ("0.3", 2)])
    def test_a_shear_run_audits_the_coupling_only_where_there_is_one(self, tmp_path, b, audits,
                                                                      monkeypatch):
        # the operator's audit, plus the audit of B when b is nonzero somewhere
        import sweepvi.evi as evi

        calls = []
        audit = evi.audit_operator

        def counting(*args, **kwargs):
            calls.append(args[0].tag)
            return audit(*args, **kwargs)

        monkeypatch.setattr(evi, "audit_operator", counting)
        cfg = tmp_path / "shear.ini"
        cfg.write_text((CONFIGS / "shear_friction.ini").read_text().replace(
            "[material]\n", f"[material]\nb = {b}\n"))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 0
        assert sorted(calls) == ["elastic", "viscosity"][2 - audits:]

    def test_check_prints_no_coupling_line_for_a_layer_without_one(self, capsys):
        # b = 0 on every element: no B, so nothing to audit or print
        assert run_cli("check", "--config", CONFIGS / "shear_friction.ini") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "problem: shear_friction"
        assert not [ln for ln in lines if ln.startswith("coupling [")], lines

    @pytest.mark.parametrize("cone", ["whole", "nonnegative"])
    def test_an_out_of_range_cone_index_is_a_config_error(self, tmp_path, capsys, cone):
        bad = tmp_path / "bad.ini"
        text = (CONFIGS / "abstract_volterra.ini").read_text()
        bad.write_text(text.replace("f = 1.0", f"f = 1.0\ncone = {cone}\ncone_indices = 7"))
        assert run_cli("check", "--config", bad) == 4
        assert capsys.readouterr().err.startswith("config error: [abstract] ")

    def test_check_prints_the_audit_of_the_iteration_plan(self, capsys, monkeypatch):
        import sweepvi.evi as evi

        calls = []
        audit = evi.audit_operator

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return audit(*args, **kwargs)

        monkeypatch.setattr(evi, "audit_operator", counting)
        assert run_cli("check", "--config", CONFIGS / "rod_compliance.ini") == 0
        assert calls == [{"trials": 256, "seed": 0}]
        assert "over 256 pairs [pass]" in capsys.readouterr().out

    @pytest.mark.parametrize("name, values, pencils", [
        ("rod_compliance.ini", {}, 0),
        ("shear_friction.ini", {}, 0),
        ("shear_friction.ini", {"elements": 48}, 0),                   # shear-fine
        ("rod_compliance.ini", {"a": "1 3 6 10", "steps": 2}, 1)])     # rod-contrast
    def test_building_and_planning_solve_a_pencil_only_for_the_energy_scale(
            self, tmp_path, monkeypatch, name, values, pencils):
        # alpha and the trace constant read the inverse metric; the one pencil
        # left is the energy plan's scale lambda_max(M, P)
        import sweepvi.cli as cli
        from sweepvi.core import HilbertSpace

        calls = []
        eigvalsh = HilbertSpace.eigvalsh

        def counting(self, A):
            calls.append(A.shape)
            return eigvalsh(self, A)

        monkeypatch.setattr(HilbertSpace, "eigvalsh", counting)
        _, spec = cli._build(load_config(edited_config(tmp_path, name, **values)))
        assert spec.inclusion.iteration_metric.name == ("energy" if pencils else "space")
        assert len(calls) == pencils

    @pytest.mark.parametrize("name", ["rod_compliance.ini", "shear_friction.ini"])
    def test_a_huge_viscosity_passes_its_audit_and_runs(self, tmp_path, capsys, name):
        # a = 1e160: the squared differences of the audit's pairs would overflow
        cfg = edited_config(tmp_path, name, a="1e160")
        assert run_cli("check", "--config", cfg) == 0
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 0
        printed = capsys.readouterr()
        assert "failed the sampled audit" not in printed.out + printed.err
        assert "declared m=1e+160 L=1e+160; sampled m=" in printed.out


    def test_check_prints_what_the_contact_law_audit_checks(self, tmp_path, capsys):
        # a decreasing table passes the audit, so check must not claim monotonicity
        cfg = tmp_path / "table.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text().replace(
            "law = linear\nslope = 0.5", "law = table\nslips = 0 1 2\nthresholds = 0 0.5 0.2"))
        assert run_cli("check", "--config", cfg) == 0
        line = next(x for x in capsys.readouterr().out.splitlines()
                    if x.startswith("contact law"))
        assert line == ("contact law: F(0)=0, F>=0, sampled slope <= L_F=0.5 "
                        "at 400 points on [0, 50] [pass]")


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

    def test_predicted_windows_tile_the_grid_at_512_steps(self, tmp_path):
        import sweepvi.cli as cli

        cfg = tmp_path / "long.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text()
                       .replace("steps = 32", "steps = 512"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        run = load_config(cfg)
        spec = cli._build(run)[1]
        marching = cli._solve(run, spec)
        windows = marching.diagnostics["windows"]
        assert f"coupling_windows: {len(windows)}" in lines
        at = lines.index(f"coupling_passes: {marching.diagnostics['coupling_passes']}")
        assert lines[at + 1] == f"mixed_passes: {marching.diagnostics['mixed_passes']}"
        at = lines.index(f"coupling_windows: {len(windows)}")
        assert lines[at + 1] == f"clipped_windows: {marching.diagnostics['clipped_windows']}"
        # node 0 alone, then windows sized by the rule that tile the grid
        assert_windows_follow_the_rule(marching.diagnostics, 512)
        picard = cli._solve(replace(run, mode="global_picard"), spec)
        assert picard.diagnostics["coupling_passes"] == picard.diagnostics["sweeps"]
        assert picard.diagnostics["windows"] == [(0, 512)]
        assert marching.u.sup_distance(picard.u) <= 1e-10

    @pytest.mark.parametrize("config", ["rod_compliance", "shear_friction",
                                        "abstract_volterra", "rod_rigid"])
    def test_marching_matches_global_picard_at_512_steps(self, config):
        import sweepvi.cli as cli
        from sweepvi.core import TimeGrid

        run = load_config(CONFIGS / f"{config}.ini")
        run = replace(run, grid=TimeGrid(run.grid.horizon, 512))
        spec = cli._build(run)[1]
        marching = cli._solve(run, spec)
        picard = cli._solve(replace(run, mode="global_picard"), spec)
        # windows grow: fewer than half as many passes as the 513 nodes
        assert marching.diagnostics["coupling_passes"] < 513 // 2
        assert len(marching.diagnostics["windows"]) < 513 // 4
        assert_windows_follow_the_rule(marching.diagnostics, 512)
        gap = marching.u.sup_distance(picard.u)
        if marching.v is not None:
            gap = max(gap, marching.v.sup_distance(picard.v))
        assert gap <= 10 * run.tol

    def test_windows_grow_under_a_strong_memory(self, tmp_path):
        # beta = 10 makes every window take several passes; the marching
        # windows must still grow past a handful of nodes
        import sweepvi.cli as cli

        text = (CONFIGS / "rod_compliance.ini").read_text()
        assert "beta = 0.3\n" in text
        cfg = tmp_path / "strong.ini"
        cfg.write_text(text.replace("steps = 32", "steps = 512").replace("beta = 0.3", "beta = 10"))
        run = load_config(cfg)
        spec = cli._build(run)[1]
        marching = cli._solve(run, spec)
        picard = cli._solve(replace(run, mode="global_picard"), spec)
        assert marching.converged and picard.converged
        assert_windows_follow_the_rule(marching.diagnostics, 512)
        assert max(last - first + 1 for first, last in marching.diagnostics["windows"]) >= 32
        assert marching.u.sup_distance(picard.u) <= 10 * run.tol
        for mode in ("time_marching", "global_picard"):
            out = tmp_path / mode
            assert run_cli("run", "--config", cfg, "--out", out, "--mode", mode) == 0
            assert run_cli("verify", "--config", cfg, "--out", out) == 0

    def test_a_failed_coupling_run_records_its_passes_and_last_change(self, tmp_path):
        # beta = 30 at 512 steps: global Picard does not settle in 20 sweeps
        import sweepvi.cli as cli
        from sweepvi import NonConvergenceError

        text = (CONFIGS / "rod_compliance.ini").read_text()
        cfg = tmp_path / "stronger.ini"
        cfg.write_text(text.replace("steps = 32", "steps = 512").replace("beta = 0.3", "beta = 30")
                       .replace("seed = 0", "seed = 0\nmax_iter = 20"))
        run = replace(load_config(cfg), mode="global_picard")
        assert run.max_iter == 20
        with pytest.raises(NonConvergenceError) as info:
            cli._solve(run, cli._build(run)[1])
        assert info.value.coupling_passes == 20
        assert f"last change {info.value.displacement:.3e}" in str(info.value)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--mode", "global_picard") == 3
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert "converged: false" in lines
        assert "coupling_passes: 20" in lines
        assert f"last_change: {cli._g(info.value.displacement)}" in lines

    def test_global_picard_settles_the_stronger_memory_rod(self, tmp_path):
        # beta = 30 at 512 steps: plain sweeps did not settle in 500; the
        # mixed sweeps do, on the solution time marching finds
        import sweepvi.cli as cli

        text = (CONFIGS / "rod_compliance.ini").read_text()
        cfg = tmp_path / "stronger.ini"
        cfg.write_text(text.replace("steps = 32", "steps = 512").replace("beta = 0.3", "beta = 30"))
        run = load_config(cfg)
        spec = cli._build(run)[1]
        marching = cli._solve(run, spec)
        picard = cli._solve(replace(run, mode="global_picard"), spec)
        assert picard.converged and picard.diagnostics["sweeps"] < 500
        assert marching.u.sup_distance(picard.u) <= 10 * run.tol
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--mode", "global_picard") == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0

    def test_a_failed_coupling_run_records_the_change_of_every_pass(self, tmp_path):
        # global Picard on the shipped rod needs more than 4 sweeps
        import sweepvi.cli as cli
        from sweepvi import NonConvergenceError

        text = (CONFIGS / "rod_compliance.ini").read_text()
        cfg = tmp_path / "short.ini"
        cfg.write_text(text.replace("seed = 0", "seed = 0\nmax_iter = 4"))
        run = replace(load_config(cfg), mode="global_picard")
        assert run.max_iter == 4
        with pytest.raises(NonConvergenceError) as info:
            cli._solve(run, cli._build(run)[1])
        changes = info.value.changes
        assert len(changes) == 4 and changes[-1] == info.value.displacement
        # pass 1 compares with the zero initial theta; the sweeps after it contract
        assert changes[1] > changes[2] > changes[3] > 0.0
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--mode", "global_picard") == 3
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert lines[-3:] == ["coupling_passes: 4",
                              f"last_change: {cli._g(changes[-1])}",
                              "sweep_changes: " + " ".join(cli._g(c) for c in changes)]
        assert [float(c) for c in lines[-1].split()[1:]] == changes
        # a converged run writes no such line
        assert run_cli("run", "--config", CONFIGS / "rod_compliance.ini",
                       "--out", tmp_path / "ok", "--mode", "global_picard") == 0
        text = (tmp_path / "ok" / "diagnostics.txt").read_text()
        assert "converged: true" in text and "sweep_changes" not in text

    @pytest.mark.parametrize("beta, budget", [("0.3", 30), ("10", 82), ("30", 110)])
    def test_marching_rods_at_512_steps_stay_within_their_pass_budgets(self, tmp_path,
                                                                       beta, budget):
        # the quadratic predictor and the pass-driven window growth took the
        # shipped rod from 57 to 33 passes, beta = 10 from 202 to 150 and
        # beta = 30 from 346 to 249; Anderson mixing takes them to 28, 77
        # and 103
        text = (CONFIGS / "rod_compliance.ini").read_text()
        cfg = tmp_path / "rod.ini"
        cfg.write_text(text.replace("steps = 32", "steps = 512")
                       .replace("beta = 0.3", f"beta = {beta}"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        passes = int(next(ln for ln in lines if ln.startswith("coupling_passes:")).split()[1])
        assert passes <= budget

    def test_the_48_element_shear_layer_stays_within_its_pass_budget(self, tmp_path):
        # the lone windows at nodes 1-3 took 29 of 43 plain passes; mixing
        # takes the run to 21
        text = (CONFIGS / "shear_friction.ini").read_text()
        assert "elements = 4\n" in text
        cfg = tmp_path / "shear.ini"
        cfg.write_text(text.replace("elements = 4", "elements = 48"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert run_cli("verify", "--config", cfg, "--out", out) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        passes = int(next(ln for ln in lines if ln.startswith("coupling_passes:")).split()[1])
        mixed = int(next(ln for ln in lines if ln.startswith("mixed_passes:")).split()[1])
        assert passes <= 24 and 0 < mixed < passes

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("a, reason", [
        ("1.0", "displacement norm overflowed at iteration 1 (the iterate is finite)"),
        ("1 3 6 10", "non-finite step at iteration 1")], ids=["1.0", "1 3 6 10"])
    def test_an_overflowing_load_exits_3_in_either_metric(self, tmp_path, capsys, a, reason):
        # body = 1.7e308 is finite, so the config takes it; in the energy metric
        # (the contrast rod) its covector overflows in the step, in the space
        # metric its Riesz representative, the first iterate, is finite and the
        # square of its norm overflows
        cfg = tmp_path / "huge.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text()
                       .replace("a = 1.0", f"a = {a}").replace("body = 2.0", "body = 1.7e308"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 3
        printed = capsys.readouterr().out
        assert printed == f"non-finite: EVI stalled at node 0: {reason}\n", printed
        metric = "energy" if a != "1.0" else "space"
        lines = (out / "diagnostics.txt").read_text().splitlines()
        assert f"evi_metric: {metric}" in lines
        assert f"error: EVI stalled at node 0: {reason}" in lines

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name, a, failure", [
        ("rod_compliance.ini", "1e-200", "non-finite: "),
        ("shear_friction.ini", "1e-200", "non-finite: "),
        ("rod_compliance.ini", "1e-17 1 1 1", "non-convergence: ")])
    def test_a_degenerate_viscosity_passes_check_and_its_run_exits_3(self, tmp_path, capsys,
                                                                      name, a, failure):
        # a = 1e-200 makes L^2 underflow in the step m / L^2; a = 1e-17 1 1 1
        # gives an energy metric too ill-conditioned to factor
        cfg = tmp_path / "degenerate.ini"
        cfg.write_text(re.sub(r"^a = .*$", f"a = {a}", (CONFIGS / name).read_text(),
                              count=1, flags=re.M))
        assert f"\na = {a}\n" in cfg.read_text()
        assert run_cli("check", "--config", cfg) == 0
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 3
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].startswith(failure), printed
        assert "evi_metric: space" in (tmp_path / "out" / "diagnostics.txt").read_text()

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

    def test_the_csv_writer_prints_every_value_as_17_significant_digits(self, tmp_path):
        self._assert_special_values_print_as_python(tmp_path, repeats=1)   # value by value

    def test_the_csv_writer_prints_the_same_values_on_the_array_path(self, tmp_path):
        self._assert_special_values_print_as_python(tmp_path, repeats=40)

    @staticmethod
    def _assert_special_values_print_as_python(tmp_path, repeats):
        # 4 rows of 8 fields are below the kernel's crossover, 160 rows above it
        from types import SimpleNamespace

        import sweepvi.cli as cli
        from sweepvi import HilbertSpace, TimeGrid, Trajectory
        from sweepvi.contact import StressRecord
        from sweepvi.csvtext import _CROSSOVER

        rows = 4 * repeats
        assert (rows * 8 >= _CROSSOVER) == (repeats > 1)
        grid = TimeGrid(1.0, rows - 1)
        u = np.tile([[-0.0, 1.0], [np.inf, -np.inf], [np.nan, 5e-324], [1 / 3, -2.5e-310]],
                    (repeats, 1))
        v = np.tile([[0.1], [-0.0], [1e300], [np.nan]], (repeats, 1))
        sol = SimpleNamespace(u=Trajectory(HilbertSpace(2), grid, u),
                              v=Trajectory(HilbertSpace(1), grid, v),
                              per_step_residuals=[0.0, -0.0, np.nan, 4.9e-324] * repeats,
                              per_step_iterations=[0, 1, 2**62, 2**63 - 1] * repeats)
        stress = StressRecord(np.zeros((rows, 1, 1)),
                              sigma_nu=np.tile([-0.0, np.inf, 1.5, 7.0], repeats),
                              sigma_tau=np.tile([1e-320, 2.0, 2.2250738585072014e-308, 0.1 + 0.2],
                                                repeats))
        header, body = cli._csv_rows(SimpleNamespace(grid=grid), sol, stress)
        cli._write_csv(tmp_path / "solution.csv", header, body)
        cols = [grid.nodes, u[:, 0], u[:, 1], v[:, 0], stress.sigma_nu, stress.sigma_tau,
                sol.per_step_residuals]
        want = ["t,u0,u1,v0,sigma_nu,sigma_tau,residual,iterations"]
        want += [",".join(["%.17g" % float(c[k]) for c in cols] + [str(sol.per_step_iterations[k])])
                 for k in range(rows)]
        assert (tmp_path / "solution.csv").read_bytes() == ("\n".join(want) + "\n").encode()
        assert body.count(b"\n") == rows

    def test_a_failed_run_removes_the_solution_an_earlier_run_left(self, tmp_path, capsys):
        # the diagnostics of the failed run must not sit beside a solution that
        # verify would then check and pass
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_compliance.ini", "--out", out) == 0
        assert (out / "solution.csv").exists()
        short = tmp_path / "short.ini"
        short.write_text((CONFIGS / "rod_compliance.ini").read_text()
                         .replace("seed = 0", "seed = 0\nmax_iter = 2"))
        assert run_cli("run", "--config", short, "--out", out) == 3
        assert "converged: false" in (out / "diagnostics.txt").read_text()
        assert not (out / "solution.csv").exists()
        capsys.readouterr()
        assert run_cli("verify", "--config", CONFIGS / "rod_compliance.ini", "--out", out) == 4
        assert "cannot read solution file" in capsys.readouterr().err

    def test_run_reports_the_number_of_rows_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "rod_rigid.ini", "--out", out) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        assert len(lines) == 1 + 9
        assert f"({len(lines) - 1} rows)" in capsys.readouterr().out

    @pytest.mark.parametrize("config, body_ramp, traction_ramp", [
        ("rod_compliance", 1.5, 0.5),
        ("shear_friction", [0.5, 0.8], 0.2),
    ])
    def test_ramped_loads_run_verify_and_are_affine_in_time(self, tmp_path, config, body_ramp,
                                                             traction_ramp):
        import sweepvi.cli as cli
        from sweepvi import Loads, TimeGrid
        from sweepvi.contact import assemble_loads

        ramps = "".join(f"\n{key} = {', '.join(map(str, np.atleast_1d(value)))}"
                        for key, value in (("body_ramp", body_ramp),
                                           ("traction_ramp", traction_ramp)))
        text = (CONFIGS / f"{config}.ini").read_text()
        path = tmp_path / f"{config}_ramped.ini"
        path.write_text(re.sub(r"^body = .*$", lambda m: m.group(0) + ramps, text, count=1,
                               flags=re.M))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out", out) == 0
        assert run_cli("verify", "--config", path, "--out", out) == 0

        cfg = load_config(path)
        problem = cli._build(cfg)[0]
        base = cli._build(load_config(CONFIGS / f"{config}.ini"))[0].load_covectors[0]
        _, rate = assemble_loads(problem.mesh, Loads(body=body_ramp, traction=traction_ramp),
                                 TimeGrid(1.0, 1), problem.space, problem.components)
        assert np.all(rate[0] != 0.0)
        want = base + cfg.grid.nodes[:, None] * rate[0]
        cov = problem.load_covectors
        assert np.abs(cov - want).max() <= 1e-14 * np.abs(cov).max()


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

    def test_a_per_element_coefficient_is_refined_with_its_elements(self, tmp_path, capsys):
        # the CI contrast rod, on 8 steps: each element's a is repeated over
        # its children, so the nested meshes carry the same material
        cfg = tmp_path / "contrast.ini"
        cfg.write_text((CONFIGS / "rod_compliance.ini").read_text()
                       .replace("a = 1.0", "a = 1 3 6 10\nmu = 4")
                       .replace("steps = 32", "steps = 8"))
        out = tmp_path / "out"
        assert run_cli("convergence", "--config", cfg, "--out", out, "--refinements", "2") == 0
        text = (out / "convergence.txt").read_text()
        assert text == capsys.readouterr().out
        spatial = text.split("spatial refinement (h halving):\n", 1)[1].splitlines()
        levels = [int(line.split()[0]) for line in spatial[1:]]
        assert levels == [8, 16], text
        # the material varies in space, so the h-differences converge
        assert all(float(line.split()[1]) > 1e-9 for line in spatial[1:]), text

    def test_refinement_repeats_a_per_element_coefficient_over_the_children(self):
        from sweepvi.cli import _refined

        cfg = load_config(CONFIGS / "shear_friction.ini")
        cfg = replace(cfg, material=replace(cfg.material, a=np.array([1.0, 3.0, 6.0, 10.0]),
                                            b=np.array([0.0, 0.5, 0.0, 2.0])))
        fine = _refined(cfg, elements=16)
        assert fine.mesh.n_elements == 16
        np.testing.assert_array_equal(fine.material.a, np.repeat([1.0, 3.0, 6.0, 10.0], 4))
        np.testing.assert_array_equal(fine.material.b, np.repeat([0.0, 0.5, 0.0, 2.0], 4))
        # a uniform coefficient stays one value
        plain = load_config(CONFIGS / "rod_compliance.ini")
        assert _refined(plain, elements=8).material.a == plain.material.a


class TestOutputDirectory:
    @pytest.mark.parametrize("command", [("run",), ("convergence", "--refinements", "2")])
    def test_an_out_that_names_a_file_exits_4_before_any_solve(self, tmp_path, capsys,
                                                               monkeypatch, command):
        import sweepvi.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(cli, "solve_spec", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run_cli(command[0], "--config", CONFIGS / "rod_rigid.ini", "--out", taken,
                       *command[1:]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: --out ") and "taken" in err, err
        assert taken.read_text() == "not a directory\n"


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
