"""The inner EVI iterated in the viscosity operator's energy metric."""

from dataclasses import replace

import numpy as np
import pytest

import sweepvi.evi as evi
from sweepvi import (
    AuditError,
    ConstraintCone,
    ContactLaw,
    EnergyMetric,
    EviProblem,
    HilbertSpace,
    HomogeneousFunctional,
    Loads,
    Material,
    Mesh1D,
    MonotoneOperator,
    TimeGrid,
    UnsupportedConfigurationError,
    build_problem,
    iteration_metric,
    solve_contact,
    solve_evi,
)
from sweepvi.core import _stiffness
from sweepvi.inclusion import _node_problem

KINDS = ("normal_compliance", "rigid_obstacle", "shear_friction")
LAWS = {"normal_compliance": ContactLaw.linear(0.5), "rigid_obstacle": ContactLaw.rigid(),
        "shear_friction": ContactLaw.saturating(0.3, 60.0)}
LOADS = {"normal_compliance": Loads(body=2.0), "rigid_obstacle": Loads(body=2.0),
         "shear_friction": Loads(body=[0.0, 1.2])}
CONTRAST_10 = [1.0, 3.0, 6.0, 10.0]


def contact_problem(kind, a, mu, steps=4):
    return build_problem(kind, Mesh1D.uniform(1.0, 4), Material(a=np.asarray(a, float), mu=mu),
                         LAWS[kind], LOADS[kind], TimeGrid(1.0, steps))


def inclusion_spec(problem):
    return problem.spec.core if problem.kind == "shear_friction" else problem.spec


def node_problem(kind, a, mu):
    """The EVI at the middle node with an active contact threshold."""
    spec = inclusion_spec(contact_problem(kind, a, mu))
    eta = np.full(spec.y_space.dim, 0.05)
    return spec, _node_problem(spec, eta, np.zeros(spec.x_space.dim), spec.f.node(2))


@pytest.mark.parametrize("kind", KINDS)
def test_energy_metric_agrees_with_the_space_metric(kind):
    spec, problem = node_problem(kind, CONTRAST_10, 0.5)
    assert spec.iteration_metric.name == "energy"
    tol = 1e-10
    energy = solve_evi(problem, tol=tol)
    bare = replace(problem, operator=replace(spec.operator, energy=None), metric=None)
    space = solve_evi(bare, tol=tol)
    assert spec.x_space.distance(energy.u, space.u) <= tol
    assert energy.iterations < space.iterations / 10


@pytest.mark.parametrize("kind", KINDS)
def test_an_energy_metric_too_ill_conditioned_to_factor_falls_back_to_the_space_metric(kind):
    # m_P / L_P = 1 beats m / L = 1e-17, but Cholesky refuses the stiffness P
    spec = inclusion_spec(contact_problem(kind, [1e-17, 1.0, 1.0, 1.0], 0.0))
    with pytest.raises(ValueError, match="positive definite"):
        spec.operator.energy.space
    plan = spec.iteration_metric
    assert plan.name == "space" and plan.space is spec.x_space and plan.scale == 1.0


@pytest.mark.parametrize("a, scale", [(CONTRAST_10, 1.0),
                                      ([0.7, 2.3, 5.9, 11.3], 1.1952286093343927)])
def test_the_closed_form_energy_space_keeps_the_bits_of_the_scale(a, scale):
    # the plan's scale sqrt(lambda_max(M, P)) as the Cholesky-inverted P gave it;
    # the closed-form P forms its factor for this one pencil
    spec = inclusion_spec(contact_problem("normal_compliance", a, 4.0))
    plan = spec.iteration_metric
    assert plan.name == "energy" and plan.scale == scale
    P = spec.operator.energy.space
    assert plan.space is P
    np.testing.assert_array_equal(P.metric, _stiffness(np.full(4, 0.25), np.asarray(a)))
    green = np.cumsum(0.25 / np.asarray(a))
    np.testing.assert_array_equal(P.inverse_columns(np.arange(4)), np.minimum.outer(green, green))


@pytest.mark.parametrize("kind", KINDS)
def test_linear_material_takes_one_step_per_solve(kind):
    problem = contact_problem(kind, CONTRAST_10, 0.0)
    assert inclusion_spec(problem).iteration_metric.q == 0.0
    sol = solve_contact(problem, tol=1e-10)
    passes = sol.diagnostics["inner_iterations"]
    assert np.all(sol.per_step_iterations <= 2 * passes)


def test_iterations_do_not_grow_with_contrast():
    totals = [solve_contact(contact_problem("normal_compliance", a, 0.5, steps=8),
                            tol=1e-10).per_step_iterations.sum()
              for a in ([1.0, 4.0, 7.0, 10.0], [1.0, 34.0, 67.0, 100.0])]
    assert totals[1] <= totals[0]


def test_residual_bounds_the_true_distance():
    # min(a) < 1 makes c = sqrt(lambda_max(M, P)) = sqrt(10) > 1, so the
    # bound only holds once the P-norm displacement is scaled back to X
    spec, problem = node_problem("normal_compliance", [0.1, 0.3, 0.6, 1.0], 0.5)
    assert spec.iteration_metric.scale == pytest.approx(np.sqrt(10.0))
    reference = solve_evi(problem, tol=1e-14).u
    for tol in (1e-4, 1e-6, 1e-8):
        sol = solve_evi(problem, tol=tol)
        assert 0.0 < sol.residual <= tol
        assert spec.x_space.distance(sol.u, reference) <= sol.residual + 1e-14


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_uniform_material_keeps_the_space_metric(kind, mu):
    problem = contact_problem(kind, 2.0, mu)
    spec = inclusion_spec(problem)
    assert spec.iteration_metric.name == "space"
    # the same run with no energy metric declared at all gives the same bits
    op = spec.operator
    bare = replace(op, energy=None)
    bare_spec = replace(spec, operator=bare)
    if kind == "shear_friction":
        bare_spec = replace(problem.spec, core=bare_spec)
    stripped = replace(problem, spec=bare_spec)
    a, b = solve_contact(problem, tol=1e-10), solve_contact(stripped, tol=1e-10)
    np.testing.assert_array_equal(a.u.samples, b.u.samples)
    np.testing.assert_array_equal(a.per_step_iterations, b.per_step_iterations)


def test_viscosity_operator_declares_its_energy_constants():
    mesh = Mesh1D.uniform(1.0, 4)
    problem = contact_problem("normal_compliance", CONTRAST_10, 0.5)
    energy = problem.spec.operator.energy
    assert energy.m == 1.0
    assert energy.L == pytest.approx(1.5)
    # Ka-monotone with constant 1 and Ka-Lipschitz with 1.5 on sampled pairs
    P = energy.space
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = 3.0 * rng.standard_normal((2, mesh.n_free))
        d = u - v
        step = P.solve_metric(energy.force(u) - energy.force(v))
        assert P.inner(step, d) >= P.inner(d, d) * (1.0 - 1e-12)
        assert P.norm(step) <= 1.5 * P.norm(d) * (1.0 + 1e-12)


def test_from_matrix_declares_no_energy_metric():
    op = MonotoneOperator.from_matrix(HilbertSpace(2), np.diag([1.0, 100.0]))
    assert op.energy is None


def coupled_problem():
    """Contrast in X, but an energy metric that couples the prox's coordinates."""
    X = HilbertSpace(2)
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    energy = EnergyMetric(lambda: HilbertSpace(2, P), lambda u: u @ P, m=1.0, L=1.0)
    op = MonotoneOperator(lambda u: u @ P, m=float(np.linalg.eigvalsh(P).min()),
                          L=float(np.linalg.eigvalsh(P).max()), energy=energy)
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0],
                                                     indices=[1])
    cone = ConstraintCone.nonnegative(X, [0])
    return X, cone, op, functional


def test_a_prox_that_refuses_the_energy_metric_keeps_the_space_metric():
    X, cone, op, functional = coupled_problem()
    plan = iteration_metric(X, cone, op, functional)
    assert plan.name == "space"
    assert plan.space is X and plan.cone is cone
    sol = solve_evi(EviProblem(X, cone, op, functional, np.array([1.0]),
                               np.array([1.0, 2.0])), tol=1e-12)
    assert np.all(np.isfinite(sol.u))


def test_a_space_metric_without_closed_form_prox_still_gets_a_plan():
    # residual checks and oracles build node problems for such specs; only
    # applying the prox may fail, as it did before plans existed
    X = HilbertSpace(2, metric=np.array([[2.0, 0.3], [0.3, 1.0]]))
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0],
                                                     indices=[1])
    cone = ConstraintCone.nonnegative(X, [0])
    op = MonotoneOperator(lambda u: u, 1.0, 1.0)
    plan = iteration_metric(X, cone, op, functional)
    assert plan.name == "space" and plan.layout is None
    problem = EviProblem(X, cone, op, functional, np.array([1.0]), np.array([1.0, 1.0]),
                         metric=plan)
    with pytest.raises(UnsupportedConfigurationError):
        solve_evi(problem)



@pytest.mark.parametrize("a, metric", [(CONTRAST_10, "energy"), (1.0, "space")])
def test_the_plan_builds_the_prox_layout_of_its_own_metric_only(monkeypatch, a, metric):
    spaces = []
    layout = HomogeneousFunctional.prox_layout

    def recording(self, cone):
        spaces.append(cone.space)
        return layout(self, cone)

    monkeypatch.setattr(HomogeneousFunctional, "prox_layout", recording)
    spec = contact_problem("normal_compliance", a, 0.5).spec
    plan = iteration_metric(spec.x_space, spec.cone, spec.operator, spec.functional)
    assert plan.name == metric
    assert spaces == [plan.space]


@pytest.mark.parametrize("a, metric", [(CONTRAST_10, "energy"), (1.0, "space")])
def test_the_plan_audits_the_constants_of_the_metric_it_iterates_in(monkeypatch, a, metric):
    # the energy plan's step and stopping bound rest on (m_P, L_P), so it
    # audits them too, on the space audit's pairs; the space plan does not
    audits = []
    audit = evi.audit_operator

    def recording(op, space, **kwargs):
        audits.append((space, kwargs))
        return audit(op, space, **kwargs)

    monkeypatch.setattr(evi, "audit_operator", recording)
    spec = contact_problem("normal_compliance", a, 0.5).spec
    plan = iteration_metric(spec.x_space, spec.cone, spec.operator, spec.functional)
    assert plan.name == metric
    pairs = {"trials": 256, "seed": 0}
    assert audits == [(spec.x_space, pairs)] + [(plan.space, pairs)] * (metric == "energy")


def test_an_overstated_energy_metric_fails_the_audit():
    # three times the rod's force, declared m_P = L_P = 1: unaudited, the plan
    # would take q = 0 and stop every row after one step; the force no longer
    # matches the space its metric builds, and only the audit tells
    spec = contact_problem("normal_compliance", CONTRAST_10, 0.0).spec
    energy = spec.operator.energy
    liar = replace(spec.operator, energy=EnergyMetric(
        energy.space_of, lambda us: 3.0 * energy.force(us), m=1.0, L=1.0))
    with pytest.raises(AuditError, match="of viscosity in its energy metric failed"):
        iteration_metric(spec.x_space, spec.cone, liar, spec.functional)
