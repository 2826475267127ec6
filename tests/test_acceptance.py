"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

One test per guarantee, so the ``pytest -v`` line is the pass/fail record.
The random EVI family is generated once and shared by the first three tests;
everything downstream is deterministic (fixed seeds, fixed grids).
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from sweepvi import (
    ConstraintCone,
    ContactLaw,
    EviProblem,
    GridSearchConfig,
    HilbertSpace,
    HomogeneousFunctional,
    LipschitzOperator,
    Loads,
    Material,
    Mesh1D,
    MonotoneOperator,
    MovingSet,
    TimeGrid,
    Trajectory,
    VolterraKernel,
    brute_inclusion,
    build_inclusion_variant,
    build_problem,
    build_sweeping_variant,
    contact_diagnostics,
    fd_derivative_check,
    iteration_metric,
    recover_stress,
    solve_contact,
    solve_evi,
    solve_inclusion,
    solve_sweeping,
    stability_gap_violation,
    trace_constant,
    vi_residual,
    volterra_operator,
)
from sweepvi.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

X1 = HilbertSpace(1)
Y1 = HilbertSpace(1)
FREE1 = ConstraintCone.whole_space(X1)


# --------------------------------------------------------------- EVI family

def _random_evi_instance(i):
    """Instance i of the seeded family: random metric, SPD core, optional
    tanh perturbation with honest constants, one of four functionals crossed
    with one of four cone kinds, and a feasible second start."""
    rng = default_rng(1000 + i)
    dim = int(rng.integers(1, 9))
    fk = i % 4
    if fk == 2:
        # norm blocks need a scalar metric on the block
        diag = np.full(dim, rng.uniform(0.5, 2.0))
    else:
        diag = rng.uniform(0.5, 2.0, dim)
    space = HilbertSpace(dim, np.diag(diag))
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    K = Q @ np.diag(rng.uniform(1.0, 4.0, dim)) @ Q.T
    K = 0.5 * (K + K.T)
    H = K / diag[:, None]
    linear = MonotoneOperator.from_matrix(space, H)
    if i % 2 == 1:
        c = rng.uniform(0.1, 0.3)
        scale = c / diag
        op = MonotoneOperator(
            apply=lambda u, H=H, s=scale: u @ H.T + s * np.tanh(u),
            m=linear.m, L=linear.L + c * float((1.0 / diag).max()),
            tag="perturbed")
    else:
        op = linear

    perm = rng.permutation(dim)
    free = np.arange(dim)
    if fk == 0:
        func = HomogeneousFunctional.zero(space)
        eta = None
    elif fk == 1:
        k = max(1, dim // 2)
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        w = rng.uniform(0.1, 1.0, k)
        y = HilbertSpace(k, np.diag(rng.uniform(0.5, 2.0, k)))
        func = HomogeneousFunctional.positive_part(space, y, weights=w, indices=idx)
        eta = rng.uniform(0.0, 1.5, k)
    elif fk == 2:
        width = min(2, dim)
        blocks = [perm[:width]]
        used = width
        if dim >= 4:
            blocks.append(perm[width:width + 2])
            used = width + 2
        free = np.sort(perm[used:])      # keep blocks clear of the cone
        w = rng.uniform(0.1, 1.0, len(blocks))
        y = HilbertSpace(len(blocks), np.diag(rng.uniform(0.5, 2.0, len(blocks))))
        func = HomogeneousFunctional.block_norm(space, y, weights=w, blocks=blocks)
        eta = rng.uniform(0.0, 1.5, len(blocks))
    else:
        k = max(1, dim // 2)
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        w = rng.uniform(0.1, 1.0, k)
        base = HomogeneousFunctional.positive_part(
            space, HilbertSpace(1), weights=w, indices=idx, eta_free=True)
        dy = rng.uniform(0.5, 2.0, 2)
        y = HilbertSpace(2, np.diag(dy))
        func = HomogeneousFunctional.separable(
            y, p=lambda e: float(np.abs(np.asarray(e)).sum()),
            p_lipschitz=float(np.sqrt((1.0 / dy).sum())), base=base)
        eta = rng.uniform(0.0, 1.5, 2)

    ck = (i // 4) % 4
    pool = free if fk == 2 else np.arange(dim)
    if ck == 3 and dim == 1:
        ck = 2                           # keep the feasible set nontrivial
    if ck == 0 or pool.size == 0:
        cone = ConstraintCone.whole_space(space)
    else:
        kc = max(1, pool.size // 2)
        cidx = np.sort(rng.choice(pool, size=kc, replace=False))
        if ck == 1:
            cone = ConstraintCone.nonnegative(space, cidx)
        elif ck == 2:
            cone = ConstraintCone.nonpositive(space, cidx)
        else:
            cone = ConstraintCone.zero(space, cidx[:1])
    f = rng.uniform(-2.0, 2.0, dim)
    start2 = cone.project(3.0 * rng.standard_normal(dim))
    problem = EviProblem(space=space, cone=cone, operator=op, functional=func,
                         eta=eta, f=f)
    return problem, start2


_BATCH = {}


def _evi_batch():
    """200 instances solved from two starts, with residuals at budget 10^4.

    Each instance's plan is made once, with its operator audit, and both
    starts solve with it.
    """
    if "records" not in _BATCH:
        t0 = time.perf_counter()
        records = []
        for i in range(200):
            problem, start2 = _random_evi_instance(i)
            problem = replace(problem, metric=iteration_metric(
                problem.space, problem.cone, problem.operator, problem.functional))
            sol1 = solve_evi(problem, tol=1e-11, max_iter=200000)
            sol2 = solve_evi(problem, tol=1e-11, max_iter=200000, start=start2)
            res = vi_residual(sol1.u, problem, sampler_budget=10000, seed=i)
            records.append((i, problem, sol1, sol2, res))
        _BATCH["elapsed"] = time.perf_counter() - t0
        _BATCH["records"] = records
    return _BATCH["records"], _BATCH["elapsed"]


def test_criterion_01_evi_correctness():
    records, elapsed = _evi_batch()
    assert len(records) == 200
    combos = set()
    worst_res = 0.0
    worst_agree = 0.0
    for i, problem, sol1, sol2, res in records:
        combos.add((problem.functional.kind, problem.cone.kind))
        worst_res = max(worst_res, abs(res))
        worst_agree = max(worst_agree, problem.space.distance(sol1.u, sol2.u))
        assert -1e-8 <= res <= 1e-8, f"instance {i}: residual {res:.3e}"
    assert worst_agree <= 2e-6, f"two-start disagreement {worst_agree:.3e}"
    assert len(combos) == 16, f"only {len(combos)} cone/functional combos hit"
    assert elapsed <= 30.0, f"family took {elapsed:.1f} s"


def test_criterion_02_contraction_rate():
    records, _ = _evi_batch()
    worst_excess = -np.inf
    for i, problem, sol1, _, _ in records:
        if i % 2 == 1:
            continue                     # exact constants only on the linear half
        op = problem.operator
        q = np.sqrt(1.0 - op.m ** 2 / op.L ** 2)
        worst_excess = max(worst_excess, sol1.contraction_estimate - q)
    assert worst_excess <= 0.05, f"contraction exceeds the rate by {worst_excess:.3e}"


def test_criterion_03_inclusion_equivalence():
    # the normal-cone membership test must accept exactly where the
    # variational residual does: both small at solutions, both large at
    # feasible points pushed 0.1 away
    records, _ = _evi_batch()
    for i, problem, sol1, _, _ in records:
        space, cone, op = problem.space, problem.cone, problem.operator
        mset = MovingSet(problem.functional, cone, problem.eta, problem.f)
        member = mset.membership_residual(op(sol1.u), -sol1.u, 4096, seed=i)
        assert member <= 1e-7, f"instance {i}: membership {member:.3e}"

        rng = default_rng(5000 + i)
        bad = None
        for _ in range(64):
            d = rng.standard_normal(space.dim)
            dn = space.norm(d)
            if dn < 1e-12:
                continue
            cand = cone.project(sol1.u + 0.1 * d / dn)
            if space.distance(cand, sol1.u) >= 0.08:
                bad = cand
                break
        assert bad is not None, f"instance {i}: no feasible perturbation found"
        rej_vi = vi_residual(bad, problem, sampler_budget=10000, seed=i,
                             extra_points=sol1.u[None, :])
        rej_ms = mset.membership_residual(op(bad), -bad, 4096, seed=i,
                                          extra_dirs=sol1.u[None, :])
        assert rej_vi > 1e-3, f"instance {i}: VI residual kept {rej_vi:.3e}"
        assert rej_ms > 1e-3, f"instance {i}: membership kept {rej_ms:.3e}"


# ------------------------------------------------------- abstract inclusions

def _decay_spec(steps):
    """2 u(t) + 0.5 int_0^t u = 1, hence u(t) = e^{-t/4} / 2."""
    grid = TimeGrid(1.0, steps)
    kern = VolterraKernel(scalar_profile=lambda t: 0.5, matrix=np.eye(1))
    return build_inclusion_variant(
        "parameter_free", cone=FREE1,
        operator=MonotoneOperator.from_matrix(X1, [[2.0]]),
        functional=HomogeneousFunctional.zero(X1),
        f=Trajectory.constant(X1, grid, [1.0]), grid=grid,
        load_memory=volterra_operator(kern, grid, X1))


def _feedback_spec(functional, steps=8, stiffness=4.0):
    grid = TimeGrid(1.0, steps)
    return build_inclusion_variant(
        "state_parameter", cone=FREE1,
        operator=MonotoneOperator.from_matrix(X1, [[stiffness]]),
        functional=functional,
        f=Trajectory.constant(X1, grid, [1.0]), grid=grid)


def _positive_part_feedback(steps=8):
    j = HomogeneousFunctional.positive_part(X1, Y1, weights=[0.8], indices=[0])
    return _feedback_spec(j, steps)


def _block_norm_feedback(steps=8):
    j = HomogeneousFunctional.block_norm(X1, Y1, weights=[0.8], blocks=[[0]])
    return _feedback_spec(j, steps)


def _memory_pair_spec(steps=12):
    grid = TimeGrid(1.0, steps)
    pkern = VolterraKernel(scalar_profile=lambda t: 0.3, matrix=np.eye(1))
    lkern = VolterraKernel(scalar_profile=lambda t: 0.5, matrix=np.eye(1))
    return build_inclusion_variant(
        "memory_pair", cone=FREE1,
        operator=MonotoneOperator.from_matrix(X1, [[2.0]]),
        functional=HomogeneousFunctional.positive_part(X1, Y1, weights=[0.4],
                                                       indices=[0]),
        f=Trajectory.constant(X1, grid, [1.0]), grid=grid,
        parameter_memory=volterra_operator(pkern, grid, X1, tag="penalty_weight"),
        load_memory=volterra_operator(lkern, grid, X1))


def test_criterion_04_parameter_stability():
    tol = 1e-10
    limit = 1e-9 + 2.0 * tol
    worst = -np.inf
    rng = default_rng(11)
    for spec in (_positive_part_feedback(), _block_norm_feedback()):
        n = spec.grid.steps + 1
        for _ in range(50):
            pair = []
            for _ in range(2):
                eta = np.abs(rng.standard_normal((n, 1)))
                xi = rng.standard_normal((n, 1))
                pair.append((Trajectory(spec.y_space, spec.grid, eta),
                             Trajectory(spec.x_space, spec.grid, xi)))
            worst = max(worst, stability_gap_violation(spec, pair[0], pair[1],
                                                       tol=tol))
    assert worst <= limit, f"stability bound violated by {worst:.3e}"


def test_criterion_05_volterra_closed_form_and_oracle():
    errs = []
    for steps in (32, 64):
        spec = _decay_spec(steps)
        sol = solve_inclusion(spec, tol=1e-10)
        exact = 0.5 * np.exp(-spec.grid.nodes / 4.0)
        errs.append(np.abs(sol.u.samples[:, 0] - exact).max())
    ratio = errs[0] / errs[1]
    assert errs[0] <= 2e-6, f"coarse error {errs[0]:.3e}"
    assert 3.4 <= ratio <= 4.6, f"halving ratio {ratio:.3f}"

    spec = _decay_spec(12)
    fast = solve_inclusion(spec, tol=1e-10)
    slow = brute_inclusion(spec, GridSearchConfig(radius=1.5, resolution=301))
    gap = slow.sup_distance(fast.u)
    assert gap <= 1e-3, f"grid-search gap {gap:.3e}"


def test_criterion_06_mode_agreement():
    tol = 1e-10
    specs = (_decay_spec(16), _decay_spec(32), _positive_part_feedback(16),
             _block_norm_feedback(16), _memory_pair_spec())
    worst = 0.0
    for spec in specs:
        marching = solve_inclusion(spec, tol=tol, mode="time_marching")
        picard = solve_inclusion(spec, tol=tol, mode="global_picard")
        worst = max(worst, marching.u.sup_distance(picard.u))
    assert worst <= 5.0 * tol, f"mode disagreement {worst:.3e}"


# ------------------------------------------------------------------ sweeping

def _ode_spec(steps, cone=None, f_values=None, u0=0.0):
    """a v + b u = g with a=2, b=1, g=1: u = 1 - e^{-t/2} from rest."""
    grid = TimeGrid(1.0, steps)
    if f_values is None:
        f = Trajectory.constant(X1, grid, [1.0])
    else:
        f = Trajectory(X1, grid, np.asarray(f_values, dtype=float)[:, None])
    core = build_inclusion_variant(
        "parameter_free", cone=cone or FREE1,
        operator=MonotoneOperator.from_matrix(X1, [[2.0]]),
        functional=HomogeneousFunctional.zero(X1), f=f, grid=grid)
    b_op = LipschitzOperator(apply=lambda u: u, L=1.0, tag="spring")
    return build_sweeping_variant("memory_pair", core=core, b_op=b_op, u0=[u0])


def test_criterion_07_sweeping_reduction():
    errs = []
    fds = []
    for steps in (16, 32, 64):
        sol = solve_sweeping(_ode_spec(steps), tol=1e-10)
        nodes = sol.u.grid.nodes
        errs.append(np.abs(sol.u.samples[:, 0] - (1.0 - np.exp(-nodes / 2.0))).max())
        fds.append(fd_derivative_check(sol.u, sol.v))
    assert 3.4 <= errs[1] / errs[2] <= 4.6, f"solution ratio {errs[1] / errs[2]:.3f}"
    assert 3.4 <= fds[0] / fds[1] <= 4.6, f"derivative ratio {fds[0] / fds[1]:.3f}"
    assert 3.4 <= fds[1] / fds[2] <= 4.6, f"derivative ratio {fds[1] / fds[2]:.3f}"

    sol = solve_sweeping(_ode_spec(16, u0=0.2), tol=1e-10)
    assert sol.u.samples[0, 0] == 0.2    # initial value passes through untouched

    # load turns negative halfway; the constrained velocity must stay in the cone
    grid = TimeGrid(1.0, 32)
    spec = _ode_spec(32, cone=ConstraintCone.nonnegative(X1, [0]),
                     f_values=1.0 - 2.0 * grid.nodes)
    sol = solve_sweeping(spec, tol=1e-10)
    for k in range(grid.steps + 1):
        assert spec.core.cone.contains(sol.v.node(k)), f"velocity leaves K at node {k}"


# ------------------------------------------------------------------- contact

def test_criterion_08_rigid_rod():
    mesh = Mesh1D.uniform(1.0, 4)
    grid = TimeGrid(1.0, 8)

    push = build_problem("rigid_obstacle", mesh, Material(a=1.0),
                         ContactLaw.rigid(), Loads(body=2.0), grid)
    sol = solve_contact(push, tol=1e-11)
    x = mesh.nodes[1:]
    exact = x * (1.0 - x)
    err = np.abs(sol.u.samples - exact[None, :]).max()
    assert err <= 1e-10, f"nodal error {err:.3e}"
    stress = recover_stress(push, sol.u)
    assert np.abs(stress.sigma_nu + 1.0).max() <= 1e-6
    u_nu = sol.u.samples[:, push.contact_dofs["nu"]]
    assert np.abs(stress.sigma_nu * u_nu).max() <= 1e-8

    pull = build_problem("rigid_obstacle", mesh, Material(a=1.0),
                         ContactLaw.rigid(), Loads(body=-2.0), grid)
    sol = solve_contact(pull, tol=1e-11)
    stress = recover_stress(pull, sol.u)
    tip = sol.u.samples[:, pull.contact_dofs["nu"]]
    assert np.abs(tip + 1.0).max() <= 1e-10, "free end should settle at -1"
    assert np.abs(stress.sigma_nu).max() <= 1e-8, "reaction should vanish off contact"


def test_criterion_09_compliance_memory():
    mesh = Mesh1D.uniform(1.0, 8)
    grid = TimeGrid(1.0, 16)
    mat = Material(a=1.0, beta=lambda t: 0.3 * np.exp(-2.0 * t))

    prob = build_problem("normal_compliance", mesh, mat, ContactLaw.linear(0.5),
                         Loads(traction=1.0), grid)
    c0 = prob.spec.functional.alpha
    assert abs(c0 - trace_constant(prob.space, prob.contact_dofs["nu"])) <= 1e-12
    sol = solve_contact(prob, tol=1e-11)
    report = contact_diagnostics(prob, sol.u, sol.v, recover_stress(prob, sol.u))
    assert report.worst["pressure_sign"] <= 1e-8, "reaction must push, not pull"
    assert report.worst["bound_excess"] <= 1e-8, "reaction exceeds the threshold"

    # zero threshold: the contact term drops out entirely
    free_rod = build_problem("normal_compliance", mesh, mat,
                             ContactLaw.zero(), Loads(traction=1.0),
                             grid)
    constrained = solve_contact(free_rod, tol=1e-11)
    unconstrained = solve_inclusion(build_inclusion_variant(
        "parameter_free", cone=ConstraintCone.whole_space(free_rod.space),
        operator=free_rod.spec.operator,
        functional=HomogeneousFunctional.zero(free_rod.space),
        f=free_rod.spec.f, grid=grid,
        load_memory=free_rod.spec.load_memory), tol=1e-11)
    gap = constrained.u.sup_distance(unconstrained.u)
    assert gap <= 1e-10, f"zero-threshold run differs by {gap:.3e}"


def test_criterion_10_friction_shear():
    mesh = Mesh1D.uniform(1.0, 8)
    grid = TimeGrid(1.0, 16)
    mat = Material(a=0.5)
    law = ContactLaw.saturating(0.3, 60.0)

    for sign in (+1.0, -1.0):
        prob = build_problem("shear_friction", mesh, mat, law,
                             Loads(body=[0.0, sign * 1.2]), grid)
        sol = solve_contact(prob, tol=1e-11)
        stress = recover_stress(prob, sol.u, sol.v)
        report = contact_diagnostics(prob, sol.u, sol.v, stress)
        assert report.worst["bound_excess"] <= 1e-8
        assert report.worst["dissipation_negativity"] <= 1e-10
        # the load saturates the threshold, so late time slides steadily
        assert abs(abs(stress.sigma_tau[-1]) - 0.3) <= 1e-6

    frictionless = build_problem("shear_friction", mesh, mat,
                                 ContactLaw.zero(),
                                 Loads(body=[0.0, 1.2]), grid)
    sol = solve_contact(frictionless, tol=1e-11)
    stress = recover_stress(frictionless, sol.u, sol.v)
    assert np.abs(stress.sigma_tau).max() <= 1e-10


# ----------------------------------------------------------------------- CLI

def test_criterion_11_run_determinism(tmp_path):
    for name in ("rod_compliance.ini", "shear_friction.ini"):
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        for out in (a, b):
            code = cli_main(["run", "--config", str(CONFIGS / name),
                             "--out", str(out)])
            assert code == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "diagnostics.txt").read_bytes() == (b / "diagnostics.txt").read_bytes()


def test_criterion_12_smallness_gate(tmp_path):
    cfg = str(CONFIGS / "gate_fail.ini")
    assert cli_main(["check", "--config", cfg]) == 2
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "plain")]) == 2

    out = tmp_path / "forced"
    code = cli_main(["run", "--config", cfg, "--out", str(out), "--force"])
    assert code in (0, 3)                # outcome recorded, never promised
    diag = (out / "diagnostics.txt").read_text()
    assert "forced: true" in diag
    assert "verdict: fail" in diag
    assert "converged: true" in diag or "converged: false" in diag
