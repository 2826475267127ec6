import numpy as np
import pytest

from sweepvi import (
    ContactLaw,
    DimensionMismatchError,
    ExponentialProfile,
    HilbertSpace,
    HomogeneousFunctional,
    Loads,
    Material,
    Mesh1D,
    TimeGrid,
    Trajectory,
    UnsupportedConfigurationError,
    assemble_space,
    build_problem,
    contact_diagnostics,
    recover_stress,
    solve_contact,
    trace_constant,
)
from sweepvi.contact import (_mass, _tanh_term, assemble_A, assemble_elastic,
                             assemble_loads, penetration_memory, slip_memory)
from sweepvi.core import _stiffness
from sweepvi.evi import LipschitzOperator, MonotoneOperator, audit_operator
from sweepvi.histop import running_trapezoid
from sweepvi.inclusion import _node_gradients


class TestMeshAndAssembly:
    def test_uniform_mesh_counts(self):
        mesh = Mesh1D.uniform(1.0, 8)
        assert mesh.n_elements == 8
        assert mesh.n_free == 8
        assert mesh.length == 1.0
        np.testing.assert_allclose(mesh.h, 0.125)

    def test_energy_matrix_on_two_elements(self):
        space = assemble_space(Mesh1D.uniform(1.0, 2))
        np.testing.assert_array_equal(space.metric, [[4.0, -2.0], [-2.0, 2.0]])

    def test_stiffness_is_the_strain_product_bit_for_bit_on_uniform_meshes(self):
        # the tridiagonal written directly against the product (G^T * c h) @ G it
        # replaced, for the space (c = 1) and the shipped viscosities on the
        # element counts the configs and the benchmark use; other coefficients
        # can round a diagonal entry one ulp apart from the BLAS product (c = 7
        # on 48 elements does)
        for elements in (1, 2, 4, 48, 256, 512):
            mesh = Mesh1D.uniform(1.0, elements)
            inv_h = 1.0 / mesh.h
            for coeff in (np.ones(elements), np.full(elements, 0.5), np.full(elements, 0.3)):
                for components in (1, 2):
                    G = np.kron(np.eye(components), np.diag(inv_h) - np.diag(inv_h[1:], -1))
                    w = np.tile(coeff, components) * np.tile(mesh.h, components)
                    K = _stiffness(mesh.h, coeff, components)
                    np.testing.assert_array_equal(K, (G.T * w) @ G)
                    if coeff[0] == 1.0:
                        np.testing.assert_array_equal(assemble_space(mesh, components).metric, K)

    def test_the_tanh_term_is_the_dense_strain_product(self):
        # the closed form t_i - t_{i+1} against G^T diag(h) tanh(G u) with the
        # dense strain matrix G, for a vector and a block, on both components
        mesh = Mesh1D(np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.02, 0.2, 19)]))
        G = np.kron(np.eye(2), _strain_matrix(mesh))
        h = np.tile(mesh.h, 2)
        us = 3.0 * np.random.default_rng(5).standard_normal((7, G.shape[1]))
        for u in (us[0], us):
            want = (h * np.tanh(u @ G.T)) @ G
            got = _tanh_term(u, mesh.h, 2)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_mass_is_the_element_loop_bit_for_bit(self):
        widths = np.random.default_rng(8).uniform(0.02, 0.2, 17)
        for mesh in (Mesh1D.uniform(1.0, 6), Mesh1D(np.cumsum(np.r_[0.0, widths]))):
            want = np.zeros((mesh.nodes.size, mesh.nodes.size))
            for e, h in enumerate(mesh.h):
                want[e:e + 2, e:e + 2] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
            np.testing.assert_array_equal(_mass(mesh), want)

    def test_pencil_eigenvalues_on_a_coupled_stiffness_metric(self):
        from scipy.linalg import eigh
        mesh = Mesh1D(np.cumsum(np.r_[0.0, np.random.default_rng(2).uniform(0.02, 0.2, 16)]))
        material = Material(a=np.linspace(1.0, 10.0, 16), mu=0.5, b=np.linspace(0.0, 3.0, 16))
        space = assemble_space(mesh, components=2)
        Ka = assemble_A(mesh, material, space, components=2).energy.space.metric
        for A in (Ka, space.metric):
            want = eigh(A, space.metric, eigvals_only=True)
            got = space.eigvalsh(A)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # G is invertible, so the pencil (Kb, K) has the eigenvalues b: L = max b
        assert assemble_elastic(mesh, material, space, components=2).L == pytest.approx(3.0, rel=1e-12)

    def test_a_non_finite_load_is_rejected_at_assembly(self):
        mesh, grid = Mesh1D.uniform(1.0, 4), TimeGrid(1.0, 4)
        for loads, node in ((Loads(body=lambda t: float("nan")), 0),
                            (Loads(traction=lambda t: np.inf if t > 0.5 else 0.0), 3)):
            with pytest.raises(ValueError, match=f"load .*not finite at node {node} "):
                build_problem("rigid_obstacle", mesh, Material(a=1.0), ContactLaw.rigid(),
                              loads, grid)

    def test_trace_constant_of_unit_rod_endpoint(self):
        # sup |v(1)| / ||v'|| = sqrt(length) for a rod clamped at 0
        mesh = Mesh1D.uniform(1.0, 8)
        space = assemble_space(mesh)
        assert trace_constant(space, mesh.n_free - 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("components", [1, 2])
    def test_trace_constant_is_alpha_of_a_unit_positive_part_bit_for_bit(self, components):
        # one formula reads both: the one-coordinate, unit-weight case, which is
        # the square root of the dof's entry of the inverse metric
        widths = np.random.default_rng(5).uniform(0.02, 0.2, 12)
        for mesh in (Mesh1D.uniform(1.0, 8), Mesh1D(np.cumsum(np.r_[0.0, widths]))):
            space = assemble_space(mesh, components)
            for dof in range(space.dim):
                j = HomogeneousFunctional.positive_part(space, HilbertSpace(1), weights=[1.0],
                                                        indices=[dof])
                c0 = trace_constant(space, dof)
                assert c0 == j.alpha == np.sqrt(space.inverse_columns([dof])[dof, 0])

    @pytest.mark.parametrize("dof", [-1, 4])
    def test_trace_constant_rejects_a_dof_outside_the_space(self, dof):
        # -1 would otherwise read the last dof's constant
        space = assemble_space(Mesh1D.uniform(1.0, 4))
        with pytest.raises(DimensionMismatchError):
            trace_constant(space, dof)

    def test_body_load_covector_is_mass_weighted(self):
        mesh = Mesh1D.uniform(1.0, 2)
        space = assemble_space(mesh)
        grid = TimeGrid(1.0, 4)
        _, cov = assemble_loads(mesh, Loads(body=1.0), grid, space)
        np.testing.assert_allclose(cov[0], [0.5, 0.25])

    def test_traction_covector_hits_the_contact_node(self):
        mesh = Mesh1D.uniform(1.0, 2)
        space = assemble_space(mesh)
        grid = TimeGrid(1.0, 4)
        _, cov = assemble_loads(mesh, Loads(traction=1.0), grid, space)
        np.testing.assert_allclose(cov[0], [0.0, 1.0])

    def test_two_component_body_load_layout(self):
        mesh = Mesh1D.uniform(1.0, 2)
        space = assemble_space(mesh, 2)
        grid = TimeGrid(1.0, 4)
        _, cov = assemble_loads(mesh, Loads(body=[0.0, 1.2]), grid, space, 2)
        np.testing.assert_allclose(cov[0], [0.0, 0.0, 0.6, 0.3])

    def test_viscosity_operator_constants(self):
        mesh = Mesh1D.uniform(1.0, 4)
        A = assemble_A(mesh, Material(a=[1.0, 2.0, 1.5, 1.0], mu=0.25))
        assert A.m == 1.0
        assert A.L == 2.25

    def test_elastic_coupling_norm_matches_energy_form(self):
        # b identical to the energy coefficient makes the coupling the identity
        mesh = Mesh1D.uniform(1.0, 4)
        B = assemble_elastic(mesh, Material(a=1.0, b=1.0))
        assert B.L == pytest.approx(1.0)
        u = np.array([0.1, -0.2, 0.4, 0.3])
        np.testing.assert_allclose(B(u), u, atol=1e-13)

    def test_material_validation(self):
        mesh = Mesh1D.uniform(1.0, 4)
        with pytest.raises(ValueError):
            Material(a=1.0, mu=-0.5)
        with pytest.raises(ValueError):
            Material(a=0.0).a_field(mesh)
        with pytest.raises(ValueError):
            Material(a=1.0, b=-1.0).b_field(mesh)
        with pytest.raises(DimensionMismatchError):
            Material(a=[1.0, 2.0]).a_field(mesh)


@pytest.mark.parametrize("field, value", [
    ("a", np.nan), ("a", np.inf), ("a", [1.0, np.nan, 1.0, 1.0]),
    ("mu", np.nan), ("mu", np.inf),
    ("b", np.nan), ("b", [0.0, np.inf, 0.0, 0.0]),
])
def test_a_non_finite_material_value_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build_problem("shear_friction", Mesh1D.uniform(1.0, 4),
                      Material(**{"a": 1.0, field: value}), ContactLaw.linear(0.5),
                      Loads(body=[0.0, 1.2]), TimeGrid(1.0, 2))


def _per_node_covectors(mesh, grid, loads, components):
    """The load covectors node by node: ``density @ M``, each component's row
    with the clamped node dropped, plus the traction at its contact dof."""
    M, n, m = _mass(mesh), mesh.n_free, mesh.nodes.size
    rows = []
    for t in grid.nodes:
        body = np.asarray(loads.body(t) if callable(loads.body) else loads.body, dtype=float)
        traction = loads.traction(t) if callable(loads.traction) else loads.traction
        traction = np.broadcast_to(np.asarray(traction, dtype=float), (components,))
        if body.ndim == 0:
            density = np.full((components, m), float(body))
        elif body.shape == (2,):
            density = np.repeat(body[:, None], m, axis=1)
        else:
            density = body.reshape(components, m)
        forces = density @ M
        row = np.empty(components * n)
        for c in range(components):
            row[c * n:(c + 1) * n] = forces[c, 1:]
            row[(c + 1) * n - 1] += traction[c]
        rows.append(row)
    return np.array(rows)


_MESHES = {"uniform": Mesh1D.uniform(1.0, 4),
           "non-uniform": Mesh1D(np.cumsum(np.r_[0.0, np.random.default_rng(5).uniform(0.05, 0.3, 7)]))}


def _load_cases():
    """(components, body, traction) for constant, per-node and ramped loads."""
    rng = np.random.default_rng(11)
    per_node = {name: rng.normal(size=mesh.nodes.size) for name, mesh in _MESHES.items()}
    cases = []
    for name in _MESHES:
        m = _MESHES[name].nodes.size
        pair = rng.normal(size=(2, m))
        cases += [
            (name, 1, 1.5, 0.0),
            (name, 1, per_node[name], 0.7),
            (name, 1, lambda t: 2.0 + 3.0 * t, lambda t: 0.25 - 0.5 * t),
            (name, 1, lambda t, b=per_node[name]: b + t * b[::-1], 0.0),
            (name, 2, 1.5, 0.7),
            (name, 2, [0.3, -1.2], [0.2, -0.4]),
            (name, 2, pair, 0.0),
            (name, 2, lambda t: np.array([0.3, 1.2]) + t * np.array([0.5, -0.7]),
             lambda t: np.array([0.1, 0.2]) + t * np.array([-0.3, 0.9])),
            (name, 2, lambda t, p=pair: p * (1.0 + t), lambda t: 0.6 * t),
        ]
    return cases


class TestLoadAssembly:
    @pytest.mark.parametrize("mesh_name, components, body, traction", _load_cases())
    def test_every_row_is_the_per_node_product(self, mesh_name, components, body, traction):
        mesh, grid = _MESHES[mesh_name], TimeGrid(1.0, 6)
        space = assemble_space(mesh, components)
        loads = Loads(body=body, traction=traction)
        f, cov = assemble_loads(mesh, loads, grid, space, components)
        want = _per_node_covectors(mesh, grid, loads, components)
        np.testing.assert_array_equal(cov, want)
        np.testing.assert_array_equal(f.samples, space.solve_metric(want))
        assert cov.flags.c_contiguous

    def test_a_callable_load_is_called_once_per_node(self):
        mesh, grid = Mesh1D.uniform(1.0, 4), TimeGrid(1.0, 8)
        calls = {"body": [], "traction": []}

        def body(t):
            calls["body"].append(t)
            return 1.0 + t

        def traction(t):
            calls["traction"].append(t)
            return -t

        assemble_loads(mesh, Loads(body=body, traction=traction), grid)
        for times in calls.values():
            np.testing.assert_array_equal(times, grid.nodes)

    @pytest.mark.parametrize("components, loads, message", [
        (1, Loads(body=[1.0, 2.0]), "scalar or per-node"),
        (1, Loads(body=lambda t: [1.0, 2.0]), "scalar or per-node"),
        (2, Loads(body=[1.0, 2.0, 3.0]), r"\(2,\) or \(2, n_nodes\)"),
        (1, Loads(traction=[1.0, 2.0]), "one value per component"),
        (2, Loads(traction=lambda t: [t, t, t]), "one value per component"),
    ])
    def test_a_load_of_the_wrong_shape_is_rejected(self, components, loads, message):
        with pytest.raises(DimensionMismatchError, match=message):
            assemble_loads(Mesh1D.uniform(1.0, 4), loads, TimeGrid(1.0, 2),
                           components=components)


class TestContactLaw:
    def test_threshold_must_vanish_at_zero(self):
        with pytest.raises(ValueError):
            ContactLaw(F=lambda r: r + 1.0, L_F=1.0)

    def test_threshold_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ContactLaw(F=lambda r: -np.asarray(r), L_F=1.0)

    def test_understated_lipschitz_constant_rejected(self):
        with pytest.raises(ValueError):
            ContactLaw(F=lambda r: 2.0 * np.asarray(r), L_F=0.5)

    def test_saturating_constants(self):
        law = ContactLaw.saturating(0.3, 60.0)
        assert law.L_F == pytest.approx(18.0)
        r = np.array([0.0, 1.0])
        np.testing.assert_allclose(law.F(r), [0.0, 0.3 * (1.0 - np.exp(-60.0))])

    def test_table_law_interpolates_and_bounds_slope(self):
        law = ContactLaw.from_table([0.0, 1.0, 2.0], [0.0, 0.4, 0.5])
        assert law.L_F == pytest.approx(0.4)
        assert law.F(np.array([1.5]))[0] == pytest.approx(0.45)

    def test_table_must_start_at_origin(self):
        with pytest.raises(ValueError):
            ContactLaw.from_table([0.5, 1.0], [0.0, 0.4])

    def test_the_rigid_law_has_no_threshold_map(self):
        assert ContactLaw.rigid() == ContactLaw()
        assert ContactLaw.rigid().F is None


class TestRigidObstacle:
    mesh = Mesh1D.uniform(1.0, 8)
    grid = TimeGrid(1.0, 8)

    def solve(self, traction):
        prob = build_problem("rigid_obstacle", self.mesh, Material(a=1.0),
                             ContactLaw.rigid(), Loads(traction=traction), self.grid)
        sol = solve_contact(prob, tol=1e-11)
        return prob, sol, recover_stress(prob, sol.u)

    def test_pushing_clamps_the_rod_at_the_obstacle(self):
        prob, sol, stress = self.solve(+1.0)
        assert sol.converged
        assert np.abs(sol.u.samples).max() < 1e-12
        np.testing.assert_allclose(stress.sigma_nu, -1.0, atol=1e-12)

    def test_pushing_complementarity(self):
        prob, sol, stress = self.solve(+1.0)
        report = contact_diagnostics(prob, sol.u, sol.v, stress)
        assert report.worst["penetration"] == 0.0
        assert report.worst["pressure_sign"] == 0.0
        assert report.worst["complementarity"] == 0.0
        assert report.ok()

    def test_pulling_leaves_contact_and_the_reaction_vanishes(self):
        prob, sol, stress = self.solve(-1.0)
        x = self.mesh.nodes[1:]
        assert np.abs(sol.u.samples - (-x)[None, :]).max() < 1e-12
        assert np.abs(stress.sigma_nu).max() < 1e-12
        assert contact_diagnostics(prob, sol.u, sol.v, stress).ok()

    def test_linear_field_has_unit_stress(self):
        prob, _, _ = self.solve(-1.0)
        x = self.mesh.nodes[1:]
        field = Trajectory(prob.space, self.grid, np.tile(x, (self.grid.steps + 1, 1)))
        stress = recover_stress(prob, field)
        np.testing.assert_allclose(stress.element_stress, 1.0, atol=1e-13)

    def test_wrong_law_kind_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_problem("rigid_obstacle", self.mesh, Material(a=1.0),
                          ContactLaw.linear(0.5), Loads(), self.grid)

    def test_unknown_problem_kind_rejected(self):
        with pytest.raises(ValueError):
            build_problem("thermal", self.mesh, Material(a=1.0),
                          ContactLaw.rigid(), Loads(), self.grid)

    @pytest.mark.parametrize("kind, law", [("rigid_obstacle", ContactLaw.rigid()),
                                           ("normal_compliance", ContactLaw.linear(0.5))])
    def test_a_rod_refuses_an_initial_displacement(self, kind, law):
        with pytest.raises(UnsupportedConfigurationError, match=f"^{kind} takes no u0"):
            build_problem(kind, self.mesh, Material(a=1.0), law, Loads(), self.grid,
                          u0=np.zeros(self.mesh.n_free))

    @pytest.mark.parametrize("kind, law", [("rigid_obstacle", ContactLaw.rigid()),
                                           ("normal_compliance", ContactLaw.linear(0.5))])
    def test_a_rod_refuses_an_elastic_coefficient(self, kind, law):
        # nonzero on one element is enough; zero everywhere is the rod's own b
        b = np.zeros(self.mesh.n_elements)
        build_problem(kind, self.mesh, Material(a=1.0, b=b), law, Loads(), self.grid)
        b[-1] = 0.5
        with pytest.raises(UnsupportedConfigurationError, match=f"^{kind} takes no b"):
            build_problem(kind, self.mesh, Material(a=1.0, b=b), law, Loads(), self.grid)


@pytest.mark.parametrize("factory", [penetration_memory, slip_memory])
def test_a_threshold_memory_declares_its_bound_in_the_energy_norm(factory):
    # u(x) = x is the trace representer of the contact end of a length-4 rod:
    # u(4) = 4 = c0 ||u|| with c0 = 2.  Held for t in [0, 1/2] it accumulates
    # 4 t, twice the L_F ||u|| t that L = L_F would allow
    mesh = Mesh1D.uniform(4.0, 4)
    space, grid = assemble_space(mesh), TimeGrid(0.5, 4)
    memory = factory(ContactLaw.linear(1.0), space, mesh.n_free - 1, grid)
    ramp = Trajectory(space, grid, np.tile(mesh.nodes[1:], (grid.steps + 1, 1)))
    integral = running_trapezoid(space.norms_many(ramp.samples), grid.dt)
    assert memory.l == 0.0
    assert (memory(ramp).samples[:, 0] - memory.L * integral).max() <= 1e-12


class TestNormalCompliance:
    mesh = Mesh1D.uniform(1.0, 8)
    grid = TimeGrid(1.0, 16)

    def test_functional_weight_equals_the_trace_constant(self):
        prob = build_problem("normal_compliance", self.mesh, Material(a=1.0),
                             ContactLaw.linear(0.5), Loads(traction=1.0), self.grid)
        c0 = trace_constant(prob.space, prob.contact_dofs["nu"])
        assert prob.spec.functional.alpha == pytest.approx(c0)
        assert prob.spec.parameter_memory.L == pytest.approx(c0 * 0.5)
        assert prob.spec.parameter_memory.l == 0.0

    def test_reaction_respects_the_accumulated_threshold(self):
        mat = Material(a=1.0, beta=lambda t: 0.3 * np.exp(-2.0 * t))
        prob = build_problem("normal_compliance", self.mesh, mat,
                             ContactLaw.linear(0.5), Loads(traction=1.0), self.grid)
        sol = solve_contact(prob, tol=1e-11)
        stress = recover_stress(prob, sol.u)
        report = contact_diagnostics(prob, sol.u, sol.v, stress)
        assert sol.converged
        # the solve certifies u within tol, so the reaction meets the
        # threshold up to round-off, the same abs as the active constraint
        assert report.worst["bound_excess"] <= 1e-12
        assert report.worst["pressure_sign"] < 1e-12
        # the constraint is active here: the reaction sits on the threshold
        assert -stress.sigma_nu[-1] == pytest.approx(report.series["threshold"][-1],
                                                     abs=1e-12)

    @pytest.mark.parametrize("mode", ["time_marching", "global_picard"])
    def test_a_summing_relaxation_solves_like_the_exponential_scan(self, mode):
        # one profile twice: an opaque callable sums the kernel over the input
        # prefix, re-stepped from committed states window after window in time
        # marching; the ExponentialProfile runs the chunked scan
        sols = []
        for beta in (lambda t: 0.3 * np.exp(-2.0 * t), ExponentialProfile(0.3, 2.0)):
            prob = build_problem("normal_compliance", Mesh1D.uniform(1.0, 4),
                                 Material(a=1.0, beta=beta), ContactLaw.linear(0.5),
                                 Loads(body=2.0), TimeGrid(1.0, 512))
            sols.append(solve_contact(prob, tol=1e-10, mode=mode))
        counts = [(s.converged, s.diagnostics["coupling_passes"], len(s.diagnostics["windows"]),
                   int(s.per_step_iterations.sum())) for s in sols]
        assert counts[0] == counts[1] and counts[0][0]
        if mode == "time_marching":     # windows stepped from committed states
            assert counts[0][2] > 1
        assert np.abs(sols[0].u.samples - sols[1].u.samples).max() <= 1e-13

    def test_zero_threshold_reproduces_the_free_rod(self):
        prob = build_problem("normal_compliance", self.mesh, Material(a=1.0),
                             ContactLaw.zero(), Loads(traction=1.0),
                             self.grid)
        sol = solve_contact(prob, tol=1e-11)
        x = self.mesh.nodes[1:]
        assert np.abs(sol.u.samples - x[None, :]).max() < 1e-12

    def test_wrong_law_kind_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_problem("normal_compliance", self.mesh, Material(a=1.0),
                          ContactLaw.rigid(), Loads(), self.grid)

    def test_a_saturating_law_bounds_the_pressure(self):
        # the problem kind, not the law, makes a threshold map a pressure bound
        prob = build_problem("normal_compliance", self.mesh, Material(a=1.0),
                             ContactLaw.saturating(0.3, 2.0), Loads(traction=1.0), self.grid)
        assert prob.spec.parameter_memory.L == pytest.approx(
            trace_constant(prob.space, prob.contact_dofs["nu"]) * 0.6)
        sol = solve_contact(prob, tol=1e-11)
        stress = recover_stress(prob, sol.u)
        assert sol.converged
        assert contact_diagnostics(prob, sol.u, sol.v, stress).ok(1e-8)


class TestShearFriction:
    mesh = Mesh1D.uniform(1.0, 8)
    grid = TimeGrid(1.0, 16)
    material = Material(a=0.5)
    law = ContactLaw.saturating(0.3, 60.0)

    def solve(self, sign):
        prob = build_problem("shear_friction", self.mesh, self.material, self.law,
                             Loads(body=[0.0, sign * 1.2]), self.grid)
        sol = solve_contact(prob, tol=1e-11)
        return prob, sol, recover_stress(prob, sol.u, sol.v)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_steady_slide_balances_load_against_friction(self, sign):
        # once the threshold saturates at 0.3 the late-time stress is
        # sigma(x) = sign (0.9 - 1.2 x), hence v(1) = sign 0.6
        prob, sol, stress = self.solve(sign)
        tau = prob.contact_dofs["tau"]
        assert sol.converged
        assert sol.v.samples[-1, tau] == pytest.approx(sign * 0.6, abs=1e-6)
        assert stress.sigma_tau[-1] == pytest.approx(-sign * 0.3, abs=1e-6)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_friction_law_diagnostics(self, sign):
        prob, sol, stress = self.solve(sign)
        report = contact_diagnostics(prob, sol.u, sol.v, stress)
        assert report.ok(1e-8)
        assert report.worst["dissipation_negativity"] < 1e-12
        assert report.worst["bound_excess"] < 1e-12
        assert report.worst["sliding_alignment"] < 1e-12

    def test_normal_velocity_is_bilateral(self):
        prob, sol, _ = self.solve(+1.0)
        assert np.abs(sol.v.samples[:, prob.contact_dofs["nu"]]).max() == 0.0

    def test_frictionless_layer_has_no_tangential_reaction(self):
        prob = build_problem("shear_friction", self.mesh, self.material,
                             ContactLaw.zero(), Loads(body=[0.0, 1.2]),
                             self.grid)
        sol = solve_contact(prob, tol=1e-11)
        stress = recover_stress(prob, sol.u, sol.v)
        assert np.abs(stress.sigma_tau).max() < 1e-12

    def test_initial_displacement_must_respect_the_constraint(self):
        u0 = np.zeros(2 * self.mesh.n_free)
        u0[self.mesh.n_free - 1] = 0.1  # normal contact dof
        with pytest.raises(UnsupportedConfigurationError):
            build_problem("shear_friction", self.mesh, self.material, self.law,
                          Loads(body=[0.0, 1.2]), self.grid, u0=u0)

    @pytest.mark.parametrize("u0, error", [([0.0], DimensionMismatchError),
                                           (np.full(16, np.nan), ValueError)])
    def test_a_missized_or_non_finite_initial_displacement_is_rejected(self, u0, error):
        with pytest.raises(error, match="length 16|u0 must be finite"):
            build_problem("shear_friction", self.mesh, self.material, self.law,
                          Loads(body=[0.0, 1.2]), self.grid, u0=u0)

    def test_wrong_law_kind_rejected(self):
        with pytest.raises(UnsupportedConfigurationError, match="needs a threshold law"):
            build_problem("shear_friction", self.mesh, self.material, ContactLaw.rigid(),
                          Loads(body=[0.0, 1.2]), self.grid)

    def test_any_threshold_law_bounds_the_friction(self):
        # the problem kind, not the law, makes a threshold map a friction bound
        prob = build_problem("shear_friction", self.mesh, self.material,
                             ContactLaw.linear(0.5), Loads(body=[0.0, 1.2]), self.grid)
        sol = solve_contact(prob, tol=1e-11)
        stress = recover_stress(prob, sol.u, sol.v)
        assert sol.converged
        assert contact_diagnostics(prob, sol.u, sol.v, stress).ok(1e-8)


BLOCK_CASES = {
    "rigid_obstacle": (Material(a=[1.0, 3.0, 2.0, 5.0], mu=0.5), ContactLaw.rigid(),
                       Loads(traction=1.0)),
    "normal_compliance": (Material(a=1.0, mu=0.5, beta=lambda t: 0.3 * np.exp(-2.0 * t)),
                          ContactLaw.linear(0.5), Loads(traction=1.0)),
    "shear_friction": (Material(a=0.5, mu=0.5, b=[1.0, 2.0, 0.5, 4.0]),
                       ContactLaw.saturating(0.3, 60.0),
                       Loads(body=[0.0, 1.2])),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_block_operator_applications_match_a_per_node_loop(kind):
    material, law, loads = BLOCK_CASES[kind]
    grid = TimeGrid(1.0, 6)
    prob = build_problem(kind, Mesh1D.uniform(1.0, 4), material, law, loads, grid)
    spec = prob.spec.inclusion
    rng = np.random.default_rng(7)
    u = Trajectory(prob.space, grid, rng.standard_normal((7, prob.space.dim)))
    v = Trajectory(prob.space, grid, rng.standard_normal((7, prob.space.dim)))
    v = v if kind == "shear_friction" else None

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    # recover_stress: the reactions with one operator application per node
    rate = v if v is not None else u
    total = np.array([spec.operator(r) for r in rate.samples])
    if v is not None:
        total += np.array([prob.spec.b_op(u_k) for u_k in u.samples])
    total += prob.relaxation(rate).samples
    reactions = (prob.space.metric @ total.T).T - prob.load_covectors
    stress = recover_stress(prob, u, v)
    close(stress.sigma_nu, reactions[:, prob.contact_dofs["nu"]])
    if v is not None:
        close(stress.sigma_tau, reactions[:, prob.contact_dofs["tau"]])

    # _node_gradients: A u_k - (f_k - xi_k), node by node
    xi = rng.standard_normal((7, spec.x_space.dim))
    want = np.array([spec.operator(u_k) - (spec.f.node(k) - xi[k])
                     for k, u_k in enumerate(rate.samples)])
    close(_node_gradients(spec, rate.samples, xi), want)


def _random_contact_problem(kind, seed):
    """A random non-uniform mesh of up to 64 elements with ``mu > 0``, an
    exponential relaxation memory and, on the shear layer, ``b > 0``; plus
    random displacement and velocity trajectories on it."""
    rng = np.random.default_rng(seed)
    n_el = int(rng.integers(2, 65))
    mesh = Mesh1D(np.cumsum(np.r_[0.0, rng.uniform(0.02, 0.2, n_el)]))
    material = Material(a=rng.uniform(0.5, 10.0, n_el), mu=float(rng.uniform(0.1, 4.0)),
                        b=rng.uniform(0.1, 3.0, n_el) if kind == "shear_friction" else 0.0,
                        beta=ExponentialProfile(float(rng.uniform(0.1, 1.0)),
                                                float(rng.uniform(0.5, 3.0))))
    law = ContactLaw.rigid() if kind == "rigid_obstacle" else ContactLaw.linear(0.5)
    loads = (Loads(body=[0.3, 1.2], traction=[0.1, -0.4]) if kind == "shear_friction"
             else Loads(body=0.7, traction=1.0))
    grid = TimeGrid(1.0, 6)
    prob = build_problem(kind, mesh, material, law, loads, grid)
    u, v = (Trajectory(prob.space, grid, rng.standard_normal((7, prob.space.dim)))
            for _ in range(2))
    return prob, u, (v if kind == "shear_friction" else None)


def _strain_matrix(mesh):
    return np.diag(1.0 / mesh.h) - np.diag(1.0 / mesh.h[1:], -1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_reactions_are_the_last_element_stress_minus_the_nodal_load(kind, seed):
    prob, u, v = _random_contact_problem(kind, seed)
    stress = recover_stress(prob, u, v)

    # the element stress in the dense strain-matrix form
    comps, n, K = prob.components, prob.mesh.n_free, prob.grid.steps + 1
    G1 = _strain_matrix(prob.mesh)
    rate = v if v is not None else u

    def strain(x):
        return np.einsum("en,kcn->kce", G1, x.samples.reshape(K, comps, n))

    material = prob.material
    want = material.a_field(prob.mesh) * strain(rate) + material.mu * np.tanh(strain(rate))
    if v is not None:
        want = want + material.b_field(prob.mesh) * strain(u)
    memory = prob.relaxation(rate)
    want = np.moveaxis(want + strain(memory), 1, 2)
    scale = np.abs(want).max()
    assert np.abs(stress.element_stress - want).max() <= 1e-12 * scale

    # the reactions as the equilibrium residual M (A rate + B u + S rate) - covectors
    total = prob.spec.inclusion.operator(rate.samples) + memory.samples
    if v is not None:
        total += prob.spec.b_op(u.samples)
    residual = (prob.space.metric @ total.T).T - prob.load_covectors
    for name, got in (("nu", stress.sigma_nu), ("tau", stress.sigma_tau)):
        if name in prob.contact_dofs:
            gap = np.abs(got - residual[:, prob.contact_dofs[name]]).max()
            assert gap <= 1e-11 * scale


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_stress_recovery_applies_no_operator_or_metric(kind, monkeypatch):
    prob, u, v = _random_contact_problem(kind, 0)
    want = recover_stress(prob, u, v)

    def refuse(*args, **kwargs):
        raise AssertionError("stress recovery applied a solver operator or the metric")

    # the contact operators' apply runs through solve_metric, so refusing it
    # refuses them too, called or applied
    for owner, name in ((HilbertSpace, "apply_metric"), (HilbertSpace, "solve_metric"),
                        (MonotoneOperator, "__call__"), (LipschitzOperator, "__call__")):
        monkeypatch.setattr(owner, name, refuse)
    got = recover_stress(prob, u, v)
    for field in ("element_stress", "sigma_nu", "sigma_tau"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("seed", range(3))
def test_the_elastic_norm_is_the_largest_element_coefficient(seed):
    prob, _, _ = _random_contact_problem("shear_friction", seed)   # builds the audited spec
    b = prob.material.b_field(prob.mesh)
    b_op = prob.spec.b_op
    assert b_op.L == b.max()
    G = np.kron(np.eye(2), _strain_matrix(prob.mesh))
    Kb = (G.T * np.tile(b * prob.mesh.h, 2)) @ G
    assert prob.space.eigvalsh(Kb)[-1] == pytest.approx(b.max(), rel=1e-12)
    assert audit_operator(b_op, prob.space).ok
