"""Configuration-driven command line.

Subcommands, each reading --config:
  check        parse the config, audit assumptions, print the smallness gate
  run          solve and write solution.csv + diagnostics.txt into --out;
               --tol, --mode and --force override the config
  convergence  refinement study in dt (and h for contact kinds), with the
               flags of run and --refinements
  verify       recompute residuals and oracle gaps from the files in --out,
               and cross-check them on directions sampled from --seed

Exit codes: 0 ok (also for --help), 2 gate or verification failure,
3 non-convergence, 4 config or usage error.

The config is a sectioned key-value file (configparser dialect); see the
repository's configs/ directory for commented examples.  A section or key
that nothing reads is a config error.  Float output uses 17 significant
digits so reruns are byte-identical and round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .contact import (
    _AUDIT_RADIUS,
    _AUDIT_SAMPLES,
    ContactLaw,
    Loads,
    Material,
    Mesh1D,
    build_problem,
    contact_diagnostics,
    recover_stress,
)
from .core import (
    ConstraintCone,
    HilbertSpace,
    HomogeneousFunctional,
    TimeGrid,
    Trajectory,
    UnsupportedConfigurationError,
    membership_residuals,
    sample_unit_directions,
)
from .evi import (
    AuditError,
    MonotoneOperator,
    NonConvergenceError,
    NonFiniteError,
    OperatorAudit,
    vi_residuals,
)
from .histop import (
    ExponentialProfile,
    VolterraKernel,
    volterra_operator,
    zero_operator,
)
from .inclusion import (
    InclusionSolution,
    InclusionSpec,
    SmallnessError,
    _node_checks,
    _node_gradients,
    build_inclusion_variant,
    check_smallness,
)
from .oracle import _INCLUSION_MAX_DIM, _INCLUSION_MAX_STEPS, GridSearchConfig, brute_inclusion
from .sweeping import SweepingSpec, integrate_velocity, solve_spec

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

_CONTACT_KINDS = ("normal_compliance", "rigid_obstacle", "shear_friction")
_CONTACT_SECTIONS = ("problem", "time", "solver", "mesh", "material", "contact", "loads")
_ABSTRACT_SECTIONS = ("problem", "time", "solver", "abstract")
# the keys each contact law reads besides ``law``
_LAW_KEYS = {"rigid": (), "zero": (), "linear": ("slope",), "saturating": ("fmax", "rate"),
             "table": ("slips", "thresholds")}
_CROSS_CHECK_DRAWS = 2048   # directions verify samples to cross-check the exact residuals
_CROSS_CHECK_RTOL = 1e-12   # rounding a sampled residual may exceed an exact one by


class ConfigError(Exception):
    """Unusable configuration; the message names the section and key."""


def _g(x: float) -> str:
    return "%.17g" % float(x)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run description: problem family plus solver settings."""

    kind: str
    grid: TimeGrid
    tol: float
    max_iter: int
    mode: str
    seed: int
    force: bool
    mesh: Mesh1D | None = None
    material: Material | None = None
    law: ContactLaw | None = None
    loads: Loads | None = None
    u0: np.ndarray | None = None
    abstract: dict | None = None

    def __post_init__(self):
        # dataclasses.replace runs this again, so command-line overrides are
        # checked like the file's values
        if self.mode not in ("time_marching", "global_picard"):
            raise ConfigError(f"[solver] mode: unknown mode {self.mode!r}")
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ConfigError(f"[solver] tol: must be a positive finite number, got {self.tol!r}")
        # a coupling window trusts its theta change from the second pass on
        if self.max_iter < 2:
            raise ConfigError(f"[solver] max_iter: must be at least 2, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigError(f"[solver] seed: must be nonnegative, got {self.seed}")


def _require(parser: configparser.ConfigParser, section: str) -> configparser.SectionProxy:
    if not parser.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    return parser[section]


def _known(sec, keys) -> None:
    """Reject a key of ``sec`` outside ``keys``, the keys its reader reads."""
    for key in sec:
        if key not in keys:
            raise ConfigError(f"[{sec.name}] unknown key {key!r}")


def _get(sec, key: str, default: str | None = None) -> str:
    val = sec.get(key, default)
    if val is None:
        raise ConfigError(f"[{sec.name}] is missing key {key!r}")
    return val


def _numbers(sec, key: str, text: str, kind=float) -> list:
    """Finite numbers of type ``kind`` in ``text``, separated by spaces or commas."""
    try:
        vals = [kind(p) for p in text.replace(",", " ").split()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"[{sec.name}] {key}: expected {noun}, got {text!r}") from None
    if kind is float and not np.isfinite(vals).all():
        raise ConfigError(f"[{sec.name}] {key}: numbers must be finite, got {text!r}")
    return vals


def _floats(sec, key: str, default: str | None = None) -> np.ndarray:
    return np.array(_numbers(sec, key, _get(sec, key, default)), dtype=float)


def _ints(sec, key: str, default: str | None = None) -> list[int]:
    return _numbers(sec, key, _get(sec, key, default), int)


def _one(sec, key: str, default: str | None = None, kind=float):
    vals = _numbers(sec, key, _get(sec, key, default), kind)
    if len(vals) != 1:
        raise ConfigError(f"[{sec.name}] {key}: expected one value, got {len(vals)}")
    return vals[0]


@contextmanager
def _section(name: str):
    """Turn a model constructor's ``ValueError`` into a config error for ``[name]``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _law_from(sec) -> ContactLaw:
    name = _get(sec, "law")
    if name not in _LAW_KEYS:
        raise ConfigError(f"[contact] unknown law {name!r}")
    _known(sec, ("law",) + _LAW_KEYS[name])
    with _section(sec.name):
        if name == "rigid":
            return ContactLaw.rigid()
        if name == "zero":
            return ContactLaw.zero()
        if name == "linear":
            return ContactLaw.linear(_one(sec, "slope"))
        if name == "saturating":
            return ContactLaw.saturating(_one(sec, "fmax"), _one(sec, "rate"))
        return ContactLaw.from_table(_floats(sec, "slips"), _floats(sec, "thresholds"))


def _schedule(base: np.ndarray, ramp: np.ndarray):
    """Constant value, or an affine-in-time callable when a ramp is present."""
    base_v = float(base[0]) if base.size == 1 else base
    if not np.any(ramp):
        return base_v
    ramp_v = float(ramp[0]) if ramp.size == 1 else ramp
    return lambda t: base_v + t * ramp_v


def _loads_from(sec, components: int, n_nodes: int) -> Loads:
    sizes = {"body": (1, n_nodes) if components == 1 else (1, 2),
             "traction": (1, components)}
    keys = ("body", "body_ramp", "traction", "traction_ramp")
    _known(sec, keys)
    vals = {}
    for key in keys:
        vals[key] = _floats(sec, key, "0")
        allowed = sizes[key.split("_")[0]]
        if vals[key].size not in allowed:
            raise ConfigError(f"[{sec.name}] {key}: needs "
                              f"{' or '.join(map(str, allowed))} values, got {vals[key].size}")
    return Loads(body=_schedule(vals["body"], vals["body_ramp"]),
                 traction=_schedule(vals["traction"], vals["traction_ramp"]))


def _material_from(sec, elements: int, kind: str) -> Material:
    _known(sec, ("a", "mu", "beta", "beta_rate") + (("b",) if kind == "shear_friction" else ()))
    a = _floats(sec, "a")
    if a.size not in (1, elements):
        raise ConfigError(f"[{sec.name}] a: needs 1 value or one per element "
                          f"({elements}), got {a.size}")
    if (a <= 0).any():
        raise ConfigError(f"[{sec.name}] a: values must be positive, got {_get(sec, 'a')!r}")
    b = _one(sec, "b", "0")
    if b < 0:
        raise ConfigError(f"[{sec.name}] b: must be nonnegative, got {b!r}")
    amp, rate = _one(sec, "beta", "0"), _one(sec, "beta_rate", "0")
    with _section(sec.name):
        return Material(a=float(a[0]) if a.size == 1 else a, mu=_one(sec, "mu", "0"), b=b,
                        beta=ExponentialProfile(amp, rate) if amp != 0.0 else None)


def _abstract_from(sec) -> dict:
    """The ``[abstract]`` values; a key the variant and functional do not read is an error."""
    variant, fk = _get(sec, "variant"), sec.get("functional", "zero")
    if variant not in ("memory_pair", "state_parameter", "parameter_free"):
        raise ConfigError(f"[abstract] unknown variant {variant!r}")
    if fk not in ("zero", "positive_part", "block_norm"):
        raise ConfigError(f"[abstract] unknown functional {fk!r}")
    keys = ["variant", "dimension", "metric", "operator", "cone", "cone_indices", "functional",
            "load_kernel", "load_rate", "f", "f_ramp"]
    if fk != "zero":
        keys += ["weights", "indices" if fk == "positive_part" else "blocks"]
        if variant == "memory_pair":
            keys += ["parameter_kernel", "parameter_rate"]
    _known(sec, keys)
    out = {
        "variant": variant,
        "dimension": _one(sec, "dimension", kind=int),
        "metric": _floats(sec, "metric", "1"),
        "operator": _floats(sec, "operator"),
        "cone": sec.get("cone", "whole"),
        "cone_indices": _ints(sec, "cone_indices") if "cone_indices" in sec else None,
        "functional": fk,
        "weights": _floats(sec, "weights", "1"),
        "indices": _ints(sec, "indices", "0"),
        "blocks": [_numbers(sec, "blocks", b, int) for b in sec.get("blocks", "0").split(";")],
        "parameter_kernel": _one(sec, "parameter_kernel", "0"),
        "parameter_rate": _one(sec, "parameter_rate", "0"),
        "load_kernel": _one(sec, "load_kernel", "0"),
        "load_rate": _one(sec, "load_rate", "0"),
        "f": _floats(sec, "f", "0"),
        "f_ramp": _floats(sec, "f_ramp", "0"),
    }
    if out["dimension"] < 1:
        raise ConfigError("[abstract] dimension must be >= 1")
    return out


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    # ";" after whitespace starts a comment, so in a list of blocks it would
    # drop the blocks after it without a word
    for line in text.splitlines() if parser.has_option("abstract", "blocks") else ():
        key, _, value = line.replace(":", "=", 1).partition("=")
        value = value.strip()
        if key.strip() == "blocks" and (" ;" in value or "\t;" in value):
            raise ConfigError("[abstract] blocks: ' ;' starts an inline comment and would drop "
                              "the blocks after it; separate blocks as in '0; 1', and comment "
                              "with '#'")

    prob = _require(parser, "problem")
    kind = _get(prob, "kind")
    if kind == "shear_friction":
        sections, problem_keys = _CONTACT_SECTIONS, ("kind", "u0")
    elif kind in _CONTACT_KINDS:
        sections, problem_keys = _CONTACT_SECTIONS, ("kind",)
    elif kind == "abstract":
        sections, problem_keys = _ABSTRACT_SECTIONS, ("kind",)
    else:
        raise ConfigError(f"[problem] unknown kind {kind!r}")
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"[{name}] unknown section")
    _known(prob, problem_keys)
    tsec = _require(parser, "time")
    _known(tsec, ("horizon", "steps"))
    horizon = _one(tsec, "horizon")
    steps = _one(tsec, "steps", kind=int)
    if steps < 1 or horizon <= 0:
        raise ConfigError("[time] needs horizon > 0 and steps >= 1")
    grid = TimeGrid(horizon, steps)

    if not parser.has_section("solver"):
        parser.add_section("solver")
    sol = parser["solver"]
    _known(sol, ("tol", "max_iter", "mode", "seed", "force"))
    tol = _one(sol, "tol", "1e-10")
    max_iter = _one(sol, "max_iter", "500", kind=int)
    mode = sol.get("mode", "time_marching")
    seed = _one(sol, "seed", "0", kind=int)
    try:
        force = sol.getboolean("force", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"[solver] force: {exc}") from None

    if kind in _CONTACT_KINDS:
        msec = _require(parser, "mesh")
        _known(msec, ("length", "elements"))
        length, elements = _one(msec, "length"), _one(msec, "elements", kind=int)
        if length <= 0:
            raise ConfigError(f"[mesh] length: must be positive, got {length!r}")
        if elements < 1:
            raise ConfigError(f"[mesh] elements: must be at least 1, got {elements}")
        with _section("mesh"):
            mesh = Mesh1D.uniform(length, elements)
        components = 2 if kind == "shear_friction" else 1
        material = _material_from(_require(parser, "material"), elements, kind)
        law = _law_from(_require(parser, "contact"))
        loads = _loads_from(_require(parser, "loads"), components, elements + 1)
        u0 = _floats(prob, "u0") if "u0" in prob else None
        if u0 is not None and u0.size != components * elements:
            raise ConfigError(f"[problem] u0: needs {components * elements} values, "
                              f"got {u0.size}")
        return RunConfig(kind=kind, grid=grid, tol=tol, max_iter=max_iter, mode=mode,
                         seed=seed, force=force, mesh=mesh, material=material,
                         law=law, loads=loads, u0=u0)
    return RunConfig(kind=kind, grid=grid, tol=tol, max_iter=max_iter, mode=mode,
                     seed=seed, force=force, abstract=_abstract_from(_require(parser, "abstract")))


def _build_abstract(cfg: RunConfig) -> InclusionSpec:
    """``[abstract]`` as spaces, operator, cone, functional, kernels and load, coupled by
    :func:`~sweepvi.inclusion.build_inclusion_variant`; a coupling it refuses is a config error."""
    ab = cfg.abstract
    dim = ab["dimension"]
    metric = ab["metric"]
    metric = np.diag(np.full(dim, metric[0]) if metric.size == 1 else metric)
    if metric.shape != (dim, dim):
        raise ConfigError("[abstract] metric must list one value per dimension")
    x_space = HilbertSpace(dim, metric=metric)
    fk = ab["functional"]
    eta_free = ab["variant"] == "parameter_free"
    # Y carries one parameter per unit of j when j reads it from a parameter
    # memory of its own; the state feedback and a parameter kernel map into X
    units = {"positive_part": len(ab["indices"]), "block_norm": len(ab["blocks"])}.get(fk)
    own_memory = ab["variant"] == "memory_pair" and ab["parameter_kernel"] == 0.0
    y_space = HilbertSpace(units if units and own_memory else dim)

    op_entries = ab["operator"]
    if op_entries.size != dim * dim:
        raise ConfigError("[abstract] operator needs dimension^2 entries (row-major)")
    try:
        operator = MonotoneOperator.from_matrix(x_space, op_entries.reshape(dim, dim))
    except ValueError as exc:
        raise ConfigError(f"[abstract] operator rejected: {exc}") from exc

    # the constructor rejects an unknown kind, and indices on the whole space
    idx = ab["cone_indices"]
    if idx is None:
        idx = () if ab["cone"] == "whole" else range(dim)
    cone = ConstraintCone(x_space, ab["cone"], idx)

    if fk == "zero":
        functional = HomogeneousFunctional.zero(x_space, y_space)
    elif fk == "positive_part":
        functional = HomogeneousFunctional.positive_part(
            x_space, y_space, weights=ab["weights"], indices=ab["indices"], eta_free=eta_free)
    else:
        functional = HomogeneousFunctional.block_norm(
            x_space, y_space, weights=ab["weights"], blocks=ab["blocks"], eta_free=eta_free)

    def _volterra(amp, rate, out_space):
        kernel = VolterraKernel.exponential(amp, rate, np.eye(dim))
        return volterra_operator(kernel, cfg.grid, x_space, out_space=out_space)

    parameter = None
    if ab["variant"] == "memory_pair":
        parameter = (_volterra(ab["parameter_kernel"], ab["parameter_rate"], y_space)
                     if ab["parameter_kernel"] != 0.0 else zero_operator(y_space))
    load = (_volterra(ab["load_kernel"], ab["load_rate"], x_space)
            if ab["load_kernel"] != 0.0 else zero_operator(x_space))

    base, ramp = ab["f"], ab["f_ramp"]
    base = np.full(dim, base[0]) if base.size == 1 else base
    ramp = np.full(dim, ramp[0]) if ramp.size == 1 else ramp
    if base.shape != (dim,) or ramp.shape != (dim,):
        raise ConfigError("[abstract] f and f_ramp need one value per dimension")
    f = Trajectory.from_function(x_space, cfg.grid, lambda t: base + t * ramp)

    return build_inclusion_variant(ab["variant"], cone=cone, operator=operator,
                                   functional=functional, f=f, grid=cfg.grid,
                                   parameter_memory=parameter, load_memory=load)


def _build(cfg: RunConfig):
    """Returns (ContactProblem | None, InclusionSpec | SweepingSpec)."""
    if cfg.kind in _CONTACT_KINDS:
        try:
            problem = build_problem(cfg.kind, cfg.mesh, cfg.material, cfg.law,
                                    cfg.loads, cfg.grid, u0=cfg.u0)
        except UnsupportedConfigurationError as exc:
            raise ConfigError(f"[problem] kind {cfg.kind!r}: {exc}") from exc
        return problem, problem.spec
    with _section("abstract"):
        return None, _build_abstract(cfg)


# ---------------------------------------------------------------- check

def _audit_line(label: str, tag: str, audit: OperatorAudit) -> str:
    """A passed audit of declared constants; ``m`` only where the operator declares it."""
    declared, sampled = f"L={_g(audit.L_declared)}", f"L={_g(audit.L_observed)}"
    if audit.m_declared is not None:
        declared = f"m={_g(audit.m_declared)} {declared}"
        sampled = f"m={_g(audit.m_observed)} {sampled}"
    return (f"{label} [{tag}]: declared {declared}; sampled {sampled} "
            f"over {audit.trials} pairs [pass]")


def cmd_check(cfg: RunConfig, out) -> int:
    problem, spec = _build(cfg)
    core = spec.inclusion
    audit = core.iteration_metric.audit     # a failed audit raises AuditError: exit 2
    print(f"problem: {cfg.kind}", file=out)
    print(_audit_line("operator", core.operator.tag, audit), file=out)
    if isinstance(spec, SweepingSpec) and spec.b_op is not None:   # audited when built
        print(_audit_line("coupling", spec.b_op.tag, spec.b_audit), file=out)
    if problem is not None and problem.law.F is not None:
        print(f"contact law: F(0)=0, F>=0, sampled slope <= L_F={_g(problem.law.L_F)} "
              f"at {_AUDIT_SAMPLES} points on [0, {_g(_AUDIT_RADIUS)}] [pass]", file=out)
    report = check_smallness(core)
    print(f"memories: l_parameter={_g(report.l_parameter)} l_load={_g(report.l_load)} "
          f"alpha={_g(report.alpha)}", file=out)
    print("smallness gate: " + report.describe(), file=out)
    print("check: " + ("all gates pass" if report.passed else "gate failure"), file=out)
    return 0 if report.passed else 2


# ---------------------------------------------------------------- run

def _solve(cfg: RunConfig, spec, force=None) -> InclusionSolution:
    """Solve ``spec`` as configured; a prox undefined at a parameter the run reaches (a
    negative one, say) is a config error of the problem's section."""
    try:
        return solve_spec(spec, tol=cfg.tol, mode=cfg.mode,
                          force=cfg.force if force is None else force, max_passes=cfg.max_iter)
    except UnsupportedConfigurationError as exc:
        section = "abstract" if cfg.kind == "abstract" else "problem"
        raise ConfigError(f"[{section}] {exc}") from exc


def _csv_rows(cfg: RunConfig, sol: InclusionSolution, stress):
    u, v = sol.u, sol.v
    header = ["t"] + [f"u{i}" for i in range(u.space.dim)]
    cols = [cfg.grid.nodes] + [u.samples[:, i] for i in range(u.space.dim)]
    if v is not None:
        header += [f"v{i}" for i in range(v.space.dim)]
        cols += [v.samples[:, i] for i in range(v.space.dim)]
    if stress is not None:
        header.append("sigma_nu")
        cols.append(stress.sigma_nu)
        if stress.sigma_tau is not None:
            header.append("sigma_tau")
            cols.append(stress.sigma_tau)
    header += ["residual", "iterations"]
    cols.append(np.asarray(sol.per_step_residuals, dtype=float))
    # each float as _g prints it, the count as an int; imported here because check,
    # verify and a failed run write no solution and need not load the kernel
    from .csvtext import format_block

    return header, format_block(np.column_stack(cols), sol.per_step_iterations)


def _failure(exc: NonConvergenceError) -> str:
    return "non-finite" if isinstance(exc, NonFiniteError) else "non-convergence"


def _write_csv(path: Path, header, body: bytes):
    """Write the header line, then the formatted rows."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(body)


def _diagnostics_text(cfg: RunConfig, problem, spec, sol, stress=None,
                      error: NonConvergenceError | None = None) -> str:
    core = spec.inclusion
    lines = [f"problem: {cfg.kind}"]
    if cfg.abstract:
        lines.append(f"variant: {cfg.abstract['variant']}")
    lines += [f"mode: {cfg.mode}", f"tol: {_g(cfg.tol)}", f"forced: {str(cfg.force).lower()}"]
    rep = check_smallness(core)
    lines += ["smallness:",
              f"  alpha: {_g(rep.alpha)}",
              f"  l_parameter: {_g(rep.l_parameter)}",
              f"  l_load: {_g(rep.l_load)}",
              f"  m: {_g(rep.m)}",
              f"  lhs: {_g(rep.lhs)}",
              f"  verdict: {'pass' if rep.passed else 'fail'}"]
    lines += ["operator:", f"  tag: {core.operator.tag}",
              f"  m: {_g(core.operator.m)}", f"  L: {_g(core.operator.L)}"]
    metric = core.iteration_metric
    lines += [f"evi_metric: {metric.name}", f"evi_rate: {_g(metric.q)}"]
    if error is not None:
        lines += ["converged: false", f"error: {error}"]
        if error.coupling_passes is not None:
            lines += [f"coupling_passes: {error.coupling_passes}",
                      f"last_change: {_g(error.displacement)}",
                      "sweep_changes: " + " ".join(map(_g, error.changes))]
        return "\n".join(lines) + "\n"
    lines.append(f"converged: {str(sol.converged).lower()}")
    lines.append(f"nodes: {cfg.grid.steps + 1}")
    res = np.asarray(sol.per_step_residuals, dtype=float)
    lines.append(f"max_residual: {_g(res.max())}")
    lines.append(f"total_iterations: {int(np.asarray(sol.per_step_iterations).sum())}")
    lines.append(f"coupling_passes: {sol.diagnostics['coupling_passes']}")
    lines.append(f"mixed_passes: {sol.diagnostics['mixed_passes']}")
    lines.append(f"coupling_windows: {len(sol.diagnostics['windows'])}")
    lines.append(f"clipped_windows: {sol.diagnostics['clipped_windows']}")
    membership = sol.diagnostics["membership"]
    lines.append(f"membership_worst: {_g(membership.max())}")
    lines.append("certificate: exact")
    lines.append(f"certificate_coordinates: {sol.diagnostics['certificate_coordinates']}")
    lines.append(f"membership_nodes: {membership.size}")
    if problem is not None:
        report = contact_diagnostics(problem, sol.u, sol.v, stress)
        lines.append("contact:")
        for key in sorted(report.worst):
            lines.append(f"  {key}: {_g(report.worst[key])}")
    return "\n".join(lines) + "\n"


@contextmanager
def _output_dir(out_dir: Path):
    """Create ``--out`` before any solve; one that cannot be created is a usage error.

    A config error raised in the block removes the directory if this call
    made it and nothing was written to it yet.
    """
    made = not out_dir.is_dir()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(out_dir)!r}: cannot create the output directory "
                          f"({exc.strerror or exc})") from exc
    try:
        yield
    except ConfigError:
        if made:
            with suppress(OSError):         # not empty: the run wrote a file
                os.rmdir(out_dir)
        raise


def cmd_run(cfg: RunConfig, out_dir: Path, out) -> int:
    problem, spec = _build(cfg)
    try:
        with _output_dir(out_dir):
            sol = _solve(cfg, spec)
    except NonConvergenceError as exc:
        text = _diagnostics_text(cfg, problem, spec, None, error=exc)
        (out_dir / "diagnostics.txt").write_text(text, encoding="utf-8")
        # a solution an earlier run left here does not belong to these diagnostics
        (out_dir / "solution.csv").unlink(missing_ok=True)
        print(f"{_failure(exc)}: {exc}", file=out)
        return 3
    stress = recover_stress(problem, sol.u, sol.v) if problem is not None else None
    header, body = _csv_rows(cfg, sol, stress)
    _write_csv(out_dir / "solution.csv", header, body)
    (out_dir / "diagnostics.txt").write_text(
        _diagnostics_text(cfg, problem, spec, sol, stress), encoding="utf-8")
    print(f"wrote {out_dir / 'solution.csv'} ({cfg.grid.steps + 1} rows) "
          f"and {out_dir / 'diagnostics.txt'}", file=out)
    if not sol.converged:
        print("run finished without meeting the stopping rule (recorded)", file=out)
        return 3
    return 0


# ---------------------------------------------------------------- convergence

def _refined(cfg: RunConfig, steps=None, elements=None) -> RunConfig:
    """``cfg`` on ``steps`` time steps, or on ``elements`` elements.

    ``elements`` is a multiple of the config's count: each element splits
    into equal children, and a per-element coefficient (``a``, ``b``) is
    repeated over an element's children, the same piecewise-constant
    material on the nested mesh.
    """
    out = cfg
    if steps is not None:
        out = replace(out, grid=TimeGrid(cfg.grid.horizon, steps))
    if elements is not None:
        children = elements // cfg.mesh.n_elements

        def split(value):
            return value if np.ndim(value) == 0 else np.repeat(value, children)

        material = cfg.material
        out = replace(out, mesh=Mesh1D.uniform(cfg.mesh.length, elements),
                      material=replace(material, a=split(material.a), b=split(material.b)))
    return out


def _solution_u(cfg: RunConfig):
    _, spec = _build(cfg)
    sol = _solve(cfg, spec)
    return sol.u if sol.v is None else sol.v       # compare the primary unknown field


def _order_table(label, sizes, diffs, floor, out, lines):
    """Print the sup-differences and their orders; ``--`` where either is at most ``floor``.

    A difference at the solver's resolution is round-off, and an order taken
    from it says nothing about the discretization.
    """
    block = [label, f"  {'level':>8}  {'sup-diff':>24}  {'order':>6}"]
    for i, (n, d) in enumerate(zip(sizes[1:], diffs)):
        order = "--" if i == 0 or min(diffs[i - 1], d) <= floor else \
            f"{np.log2(diffs[i - 1] / d):.2f}"
        block.append(f"  {n:>8}  {_g(d):>24}  {order:>6}")
    lines.extend(block)
    for ln in block:
        print(ln, file=out)


def cmd_convergence(cfg: RunConfig, refinements: int, out_dir: Path | None, out) -> int:
    if refinements < 2:
        raise ConfigError("convergence study needs --refinements >= 2")
    with _output_dir(out_dir) if out_dir is not None else nullcontext():
        lines = _refinement_tables(cfg, refinements, out)
    if out_dir is not None:
        (out_dir / "convergence.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _refinement_tables(cfg: RunConfig, refinements: int, out) -> list[str]:
    """Solve on each refinement, print the order tables and return their lines."""
    lines: list[str] = []

    sols = [_solution_u(_refined(cfg, steps=cfg.grid.steps * 2 ** k))
            for k in range(refinements + 1)]
    diffs = []
    for coarse, fine in zip(sols, sols[1:]):
        gap = coarse.space.norms_many(coarse.samples - fine.samples[::2]).max()
        diffs.append(float(gap))
    floor = 10.0 * cfg.tol          # the bound the CI mode-gap step uses
    _order_table("temporal refinement (dt halving):",
                 [s.grid.steps for s in sols], diffs, floor, out, lines)

    if cfg.kind in _CONTACT_KINDS:
        base_el = cfg.mesh.n_elements
        sols_h = [_solution_u(_refined(cfg, elements=base_el * 2 ** k))
                  for k in range(refinements + 1)]
        diffs_h = []
        comps = 2 if cfg.kind == "shear_friction" else 1
        for lev, (coarse, fine) in enumerate(zip(sols_h, sols_h[1:])):
            n = base_el * 2 ** lev
            shared = 2 * np.arange(1, n + 1) - 1          # coarse nodes on the fine mesh
            cs = coarse.samples.reshape(-1, comps, n)
            fs = fine.samples.reshape(-1, comps, 2 * n)[:, :, shared]
            diffs_h.append(float(np.abs(cs - fs).max()))
        _order_table("spatial refinement (h halving):",
                     [base_el * 2 ** k for k in range(refinements + 1)],
                     diffs_h, floor, out, lines)
    return lines


# ---------------------------------------------------------------- verify

def _read_solution(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        data = np.array([[float(x) for x in row] for row in rows])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read solution file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ConfigError(f"malformed solution file {path}")
    return header, data


def _columns(header, data, prefix):
    idx = [i for i, h in enumerate(header) if h.startswith(prefix) and h[len(prefix):].isdigit()]
    return data[:, idx] if idx else None


def _verify_fields(cfg, core, u_samples, v_samples, out):
    """Recompute residuals from file data; return the list of failures.

    The residuals are the exact ones of a run (:func:`~sweepvi.inclusion._node_checks`).
    The same checks on a sample of 2048 directions from ``[solver] seed``
    are a lower bound of them, so a sampled value above the exact one by
    more than rounding fails.
    """
    failures = []
    unknown = v_samples if v_samples is not None else u_samples
    traj = Trajectory(core.x_space, cfg.grid, unknown)
    eta, xi = core.parameter_memory(traj).samples, core.load_memory(traj).samples
    residuals, membership = _node_checks(core, unknown, eta, xi)
    worst_vi = float(residuals.max())
    print(f"worst recomputed VI residual: {_g(worst_vi)}", file=out)
    if worst_vi > 1e-6:
        failures.append(f"VI residual {worst_vi:.3e} > 1e-06")

    worst_mem = float(membership.max())
    print(f"worst inclusion membership residual: {_g(worst_mem)}", file=out)
    if worst_mem > 1e-5:
        failures.append(f"membership residual {worst_mem:.3e} > 1e-05")

    dirs = sample_unit_directions(core.cone, _CROSS_CHECK_DRAWS, cfg.seed)
    grads = _node_gradients(core, unknown, xi)
    sampled = (vi_residuals(core.x_space, core.cone, core.functional, unknown, grads, eta, dirs),
               membership_residuals(core.functional, core.cone, eta, -grads, unknown, dirs))
    # rounding of the pairings, at the far radius of the VI candidates
    scale = 2.0 * (core.x_space.norms_many(unknown) + 1.0) * (core.x_space.norms_many(grads) + 1.0)
    excess = max(float(np.max((got - exact) / scale))
                 for got, exact in zip(sampled, (residuals, membership)))
    print(f"sampled cross-check: {len(dirs)} directions, largest excess over the exact "
          f"residuals {_g(excess)} (relative)", file=out)
    if excess > _CROSS_CHECK_RTOL:
        failures.append(f"a sampled residual exceeds the exact one by {excess:.3e} "
                        f"(relative) > {_CROSS_CHECK_RTOL:g}")

    # written as "not within" so that a NaN row counts as a violation
    outside = np.flatnonzero(~(core.cone.violations(unknown) <= 1e-9))
    if outside.size:
        failures.append(f"constraint violated at node {outside[0]}")
    return failures, traj


def cmd_verify(cfg: RunConfig, out_dir: Path, out) -> int:
    problem, spec = _build(cfg)
    header, data = _read_solution(out_dir / "solution.csv")
    if data.shape[0] != cfg.grid.steps + 1:
        raise ConfigError("solution file does not match the configured time grid")
    u_samples = _columns(header, data, "u")
    v_samples = _columns(header, data, "v")
    core = spec.inclusion
    # only a sweeping spec, solved through its velocity lift, writes v0..
    v_dim = core.x_space.dim if core is not spec else 0
    if (u_samples is None or u_samples.shape[1] != core.x_space.dim
            or (0 if v_samples is None else v_samples.shape[1]) != v_dim):
        raise ConfigError("solution file does not match the configured problem size")

    failures, traj = _verify_fields(cfg, core, u_samples, v_samples, out)

    if v_samples is not None:
        u_rec = integrate_velocity(traj, spec.u0)
        drift = float(np.abs(u_rec.samples - u_samples).max())
        print(f"displacement vs integrated velocity: {_g(drift)}", file=out)
        if drift > 1e-9:
            failures.append(f"displacement drift {drift:.3e} > 1e-09")

    if problem is not None:
        u_traj = Trajectory(problem.space, cfg.grid, u_samples)
        v_traj = (Trajectory(problem.space, cfg.grid, v_samples)
                  if v_samples is not None else None)
        stress = recover_stress(problem, u_traj, v_traj)
        for col, series in (("sigma_nu", stress.sigma_nu), ("sigma_tau", stress.sigma_tau)):
            if col in header and series is not None:
                gap = float(np.abs(data[:, header.index(col)] - series).max())
                print(f"{col} recomputed vs stored: {_g(gap)}", file=out)
                if gap > 1e-9:
                    failures.append(f"{col} mismatch {gap:.3e} > 1e-09")
        report = contact_diagnostics(problem, u_traj, v_traj, stress)
        worst = max(report.worst.values())
        print(f"contact law checks, worst residual: {_g(worst)}", file=out)
        if not report.ok(tol=1e-8):
            failures.append(f"contact diagnostics {worst:.3e} > 1e-08")
    else:
        if core.x_space.dim > _INCLUSION_MAX_DIM or cfg.grid.steps > _INCLUSION_MAX_STEPS:
            raise ConfigError(
                f"oracle comparison needs dimension <= {_INCLUSION_MAX_DIM} and "
                f"steps <= {_INCLUSION_MAX_STEPS}; shrink the instance to verify it")
        radius = 1.5 * max(1.0, float(np.abs(u_samples).max()))
        res = 241 if core.x_space.dim == 1 else 81
        ref = brute_inclusion(core, GridSearchConfig(radius=radius, resolution=res))
        gap = traj.sup_distance(ref)
        print(f"grid-search oracle gap: {_g(gap)}", file=out)
        if gap > 1e-3:
            failures.append(f"oracle gap {gap:.3e} > 1e-03")

    if failures:
        for f in failures:
            print("verify FAIL: " + f, file=out)
        return 2
    print("verify: all checks pass", file=out)
    return 0


# ---------------------------------------------------------------- entry

# the flags of the subcommands besides --config, as argparse reads them
_FLAGS = {
    "out": dict(default="out", help="output directory (default: out)"),
    "tol": dict(type=float, help="override solver tolerance"),
    "mode": dict(choices=("time_marching", "global_picard"), help="override solver mode"),
    "force": dict(action="store_true", help="run even when the smallness gate fails"),
    "seed": dict(type=int, help="override the seed of the sampled cross-check"),
}
_SOLVE_FLAGS = ("out", "tol", "mode", "force")      # run and convergence


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sweepvi",
                                description="variational-inequality and sweeping-process solver")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc, flags in (("check", "audit assumptions and the smallness gate", ()),
                             ("run", "solve and write solution.csv + diagnostics.txt",
                              _SOLVE_FLAGS),
                             ("convergence", "empirical dt/h refinement study", _SOLVE_FLAGS),
                             ("verify", "recompute residuals and oracle gaps from written files",
                              ("out", "seed"))):
        q = sub.add_parser(name, help=doc)
        q.add_argument("--config", required=True, help="path to the INI-style config")
        for flag in flags:
            q.add_argument(f"--{flag}", **_FLAGS[flag])
        if name == "convergence":
            q.add_argument("--refinements", type=int, default=3,
                           help="number of halvings (>= 2)")
    return p


_PARSER = _parser()


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning: <message>`` line on stderr, without its source."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _main(argv)


def _main(argv) -> int:
    try:
        args = vars(_PARSER.parse_args(argv))
    except SystemExit as exc:       # argparse exits 2 on a usage error, 0 after --help
        return 4 if exc.code == 2 else exc.code
    out = sys.stdout
    try:
        # a flag the subcommand does not take is absent from args
        overrides = {key: args[key] for key in ("tol", "mode", "seed")
                     if args.get(key) is not None}
        if args.get("force"):
            overrides["force"] = True
        cfg = replace(load_config(args["config"]), **overrides)
        out_dir = Path(args.get("out", "out"))
        if args["command"] == "check":
            return cmd_check(cfg, out)
        if args["command"] == "run":
            return cmd_run(cfg, out_dir, out)
        if args["command"] == "convergence":
            return cmd_convergence(cfg, args["refinements"], out_dir, out)
        return cmd_verify(cfg, out_dir, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except (SmallnessError, AuditError) as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"{_failure(exc)}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
