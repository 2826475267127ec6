"""1-D viscoelastic contact discretizations feeding the abstract solvers.

Two geometries, both linear P1 elements on an interval with the left end
clamped and the right end in contact:

* a rod loaded along its axis, for the unilateral problems -- either a rigid
  obstacle (complementarity at the contact node) or normal compliance whose
  yield threshold grows with the accumulated penetration;
* a shear layer with a bilaterally constrained normal component and a scalar
  tangential dof at the contact node, for slip-rate-dependent friction driven
  through a sweeping process in the velocity.

The inner product is the stiffness form ``int u' v'`` on the free nodes, so
Riesz representatives and reactions follow the variational convention: the
contact traction is the discrete equilibrium residual at the contact dof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    TimeGrid,
    Trajectory,
    UnsupportedConfigurationError,
    _reading_norm,
    _vec,
)
from .evi import EnergyMetric, LipschitzOperator, MonotoneOperator
from .histop import (HistoryOperator, VolterraKernel, continue_trapezoid, running_trapezoid,
                     volterra_operator, zero_operator)
from .inclusion import InclusionSolution, InclusionSpec, build_inclusion_variant
from .sweeping import SweepingSpec, build_sweeping_variant, solve_spec

__all__ = [
    "Mesh1D",
    "Material",
    "ContactLaw",
    "Loads",
    "ContactProblem",
    "StressRecord",
    "ContactReport",
    "assemble_space",
    "assemble_A",
    "assemble_elastic",
    "assemble_relaxation",
    "penetration_memory",
    "slip_memory",
    "assemble_loads",
    "trace_constant",
    "build_problem",
    "solve_contact",
    "recover_stress",
    "contact_diagnostics",
]


class Mesh1D:
    """Nodes on ``[0, length]``; node 0 clamped, last node is the contact node."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("node coordinates must be strictly increasing")
        self.nodes = nodes
        self.nodes.flags.writeable = False

    @classmethod
    def uniform(cls, length: float, elements: int) -> "Mesh1D":
        if elements < 1 or length <= 0:
            raise ValueError("need a positive length and at least one element")
        return cls(np.linspace(0.0, length, elements + 1))

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def n_free(self) -> int:
        return self.nodes.size - 1

    @property
    def length(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    def __repr__(self) -> str:
        return f"Mesh1D({self.n_elements} elements on [0, {self.nodes[-1]:g}])"


def _per_element(value, n_el: int, name: str, positive: bool) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_el, float(arr))
    if arr.shape != (n_el,):
        raise DimensionMismatchError(f"{name} must be scalar or one value per element")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if positive and np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    if not positive and np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


@dataclass(frozen=True)
class Material:
    """Coefficients of the constitutive response.

    ``a``: viscosity (or instantaneous) coefficient, per element or uniform;
    the monotone operator it induces has m = min(a), L = max(a) + mu.
    ``mu``: magnitude of the bounded-slope nonlinearity mu*tanh(strain),
    odd and increasing, so it never degrades monotonicity.
    ``b``: elastic coefficient of the shear layer's displacement coupling; a
    rod has none, and :func:`build_problem` refuses a nonzero ``b`` for it.
    ``beta``: scalar relaxation profile beta(t) for the fading-memory term;
    an :class:`~sweepvi.histop.ExponentialProfile` makes the memory O(1) per
    node, and ``None`` means no memory term.
    """

    a: object
    mu: float = 0.0
    b: object = 0.0
    beta: Callable[[float], float] | None = None

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def a_field(self, mesh: Mesh1D) -> np.ndarray:
        return _per_element(self.a, mesh.n_elements, "a", positive=True)

    def b_field(self, mesh: Mesh1D) -> np.ndarray:
        return _per_element(self.b, mesh.n_elements, "b", positive=False)


# the threshold map is audited at this many points on [0, radius]
_AUDIT_SAMPLES = 400
_AUDIT_RADIUS = 50.0


@dataclass(frozen=True)
class ContactLaw:
    """Contact response at the right end: rigid, or a threshold map.

    ``F = None`` is the rigid law, a unilateral constraint with no threshold
    (``rigid_obstacle``).  Otherwise the contact stress is bounded by the
    threshold map ``F`` with Lipschitz constant ``L_F``, and
    :func:`build_problem` assigns its role: ``F`` of the accumulated
    penetration bounds the normal pressure (``normal_compliance``), ``F`` of
    the accumulated slip the tangential stress (``shear_friction``).  A
    threshold map is audited when the law is made: ``F(0) = 0``, ``F >= 0``
    and a sampled slope at most ``L_F`` on ``[0, 50]``.
    """

    F: Callable[[np.ndarray], np.ndarray] | None = None
    L_F: float = 0.0

    def __post_init__(self):
        if self.F is None:
            return
        if self.L_F < 0:
            raise ValueError("L_F must be nonnegative")
        self._audit()

    def _audit(self):
        r = np.linspace(0.0, _AUDIT_RADIUS, _AUDIT_SAMPLES)
        vals = np.asarray(self.F(r), dtype=float)
        if abs(float(np.asarray(self.F(np.array([0.0])))[0])) > 1e-12:
            raise ValueError("threshold map must vanish at zero slip")
        if np.any(vals < -1e-12):
            raise ValueError("threshold map must be nonnegative")
        slopes = np.abs(np.diff(vals)) / np.diff(r)
        if slopes.max(initial=0.0) > self.L_F + 1e-9 * max(1.0, self.L_F):
            raise ValueError(
                f"threshold map exceeds its declared Lipschitz constant: sampled "
                f"slope {slopes.max():.6g} > {self.L_F:.6g}")

    @classmethod
    def rigid(cls) -> "ContactLaw":
        return cls()

    @classmethod
    def zero(cls) -> "ContactLaw":
        return cls(F=lambda r: np.zeros_like(np.asarray(r, dtype=float)), L_F=0.0)

    @classmethod
    def linear(cls, slope: float) -> "ContactLaw":
        if slope < 0:
            raise ValueError("slope must be nonnegative")
        return cls(F=lambda r, s=float(slope): s * np.asarray(r, dtype=float), L_F=float(slope))

    @classmethod
    def saturating(cls, fmax: float, rate: float) -> "ContactLaw":
        if fmax < 0 or rate < 0:
            raise ValueError("fmax and rate must be nonnegative")
        fmax, rate = float(fmax), float(rate)
        return cls(F=lambda r: fmax * (1.0 - np.exp(-rate * np.asarray(r, dtype=float))),
                   L_F=fmax * rate)

    @classmethod
    def from_table(cls, slips, thresholds) -> "ContactLaw":
        slips = np.asarray(slips, dtype=float)
        thresholds = np.asarray(thresholds, dtype=float)
        if slips.shape != thresholds.shape or slips.ndim != 1 or slips.size < 2:
            raise ValueError("need matching 1-D slip and threshold tables")
        if slips[0] != 0.0 or thresholds[0] != 0.0:
            raise ValueError("table must start at (0, 0)")
        if np.any(np.diff(slips) <= 0):
            raise ValueError("slip abscissae must increase")
        L = float(np.abs(np.diff(thresholds) / np.diff(slips)).max())
        return cls(F=lambda r: np.interp(np.asarray(r, dtype=float), slips, thresholds), L_F=L)


@dataclass(frozen=True)
class Loads:
    """Body force density and an optional point traction at the contact end.

    ``body``: scalar, per-mesh-node array, or callable of t returning either;
    for the shear layer give two components (normal, tangential) as shape
    (2,) or (2, n_nodes).  ``traction`` follows the same convention but is a
    single value per component, applied at the contact node.

    :meth:`on_grid` evaluates both over a whole time grid: a constant load is
    shape-checked and expanded once, a callable is called once per node.
    """

    body: object = 0.0
    traction: object = 0.0

    def on_grid(self, times: np.ndarray, components: int,
                n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Densities ``(K, components, n_nodes)`` and tractions ``(K, components)``
        at the ``K`` times ``times``.  Both are C-contiguous, so a stacked
        ``densities @ M`` makes the BLAS call of one node's ``density @ M``."""
        return (_over_grid(self.body, times, lambda raw: _body_density(raw, components, n_nodes)),
                _over_grid(self.traction, times, lambda raw: _traction_values(raw, components)))


def _over_grid(load, times: np.ndarray, shaped: Callable) -> np.ndarray:
    """``shaped(load(t))`` stacked over ``times``, or ``shaped(load)`` repeated."""
    if callable(load):
        return np.array([shaped(load(t)) for t in times])
    value = shaped(load)
    return np.repeat(value[None], len(times), axis=0)


def _body_density(raw, components: int, n_nodes: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if components == 1:
        if arr.ndim == 0:
            arr = np.full(n_nodes, float(arr))
        if arr.shape != (n_nodes,):
            raise DimensionMismatchError("body load must be scalar or per-node")
        return arr[None, :]
    if arr.ndim == 0:
        arr = np.full((2, n_nodes), float(arr))
    elif arr.shape == (2,):
        arr = np.repeat(arr[:, None], n_nodes, axis=1)
    if arr.shape != (2, n_nodes):
        raise DimensionMismatchError("body load must be (2,) or (2, n_nodes)")
    return arr


def _traction_values(raw, components: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(raw, dtype=float))
    if arr.shape == (1,) and components == 2:
        arr = np.repeat(arr, 2)
    if arr.shape != (components,):
        raise DimensionMismatchError("traction must have one value per component")
    return arr


def _mass(mesh: Mesh1D) -> np.ndarray:
    """Full P1 mass matrix over all mesh nodes (fixed node included)."""
    m = mesh.nodes.size
    M = np.zeros((m, m))
    h = mesh.h
    for e in range(mesh.n_elements):
        M[e:e + 2, e:e + 2] += h[e] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return M


def _strain_form(mesh: Mesh1D, coeff: np.ndarray, components: int):
    """``(G, h, G^T diag(coeff h) G)``: the strain matrix ``G`` of every component
    (the clamped end contributes zero), the element lengths ``h`` and the
    free-node Gram matrix of ``int coeff u' v'``."""
    inv_h = 1.0 / mesh.h
    G = np.kron(np.eye(components), np.diag(inv_h) - np.diag(inv_h[1:], -1))
    h = np.tile(mesh.h, components)
    return G, h, (G.T * (np.tile(coeff, components) * h)) @ G


def assemble_space(mesh: Mesh1D, components: int = 1) -> HilbertSpace:
    """Energy inner product ``int u' v'`` on the free nodes, per component."""
    _, _, K = _strain_form(mesh, np.ones(mesh.n_elements), components)
    return HilbertSpace(mesh.n_free * components, K)


def trace_constant(space: HilbertSpace, dof: int) -> float:
    """Exact norm of point evaluation at one dof: sup |v_dof| / ||v||."""
    return _reading_norm(space, [[dof]], [1.0])


def assemble_A(mesh: Mesh1D, material: Material, space: HilbertSpace | None = None,
               components: int = 1) -> MonotoneOperator:
    """Viscosity operator ``a * strain + mu * tanh(strain)`` in Riesz form.

    tanh is odd with slope in (0, 1], so the nonlinearity only adds
    monotonicity: m = min(a), L = max(a) + mu, both exact in the energy norm.

    The energy metric of the linear part, ``Ka = G^T diag(a h) G``, is
    declared as well.  The operator's Jacobian lies between ``Ka`` and
    ``Ka + mu G^T diag(h) G <= (1 + mu / min(a)) Ka``, so in the Ka-norm
    m_P = 1 and L_P = 1 + mu / min(a), free of the contrast max(a) / min(a).
    """
    space = space or assemble_space(mesh, components)
    a = material.a_field(mesh)
    G, h, Ka = _strain_form(mesh, a, components)
    mu = float(material.mu)

    def force(us: np.ndarray, Ka=Ka, G=G, h=h, mu=mu) -> np.ndarray:
        """``M A u`` for a vector ``u`` or for each row of ``us``."""
        # np.dot: the BLAS products of @, bit for bit, at less fixed cost
        out = np.dot(us, Ka)
        if mu:
            out = out + mu * np.dot(h * np.tanh(np.dot(us, G.T)), G)
        return out

    def apply(us: np.ndarray) -> np.ndarray:
        return space.solve_metric(force(us))

    energy = EnergyMetric(Ka, force, m=1.0, L=1.0 + mu / float(a.min()))
    return MonotoneOperator(apply=apply, m=float(a.min()), L=float(a.max()) + mu,
                            tag="viscosity", energy=energy)


def assemble_elastic(mesh: Mesh1D, material: Material, space: HilbertSpace | None = None,
                     components: int = 1) -> LipschitzOperator:
    """Linear elastic coupling ``b * strain`` with its exact energy norm ``max(b)``:
    the strain matrix is invertible, so ``b`` holds the eigenvalues of the pencil
    ``(Kb, K)``.
    """
    space = space or assemble_space(mesh, components)
    b = material.b_field(mesh)
    _, _, Kb = _strain_form(mesh, b, components)

    def apply(us: np.ndarray) -> np.ndarray:
        return space.solve_metric(us @ Kb)

    return LipschitzOperator(apply=apply, L=float(b.max()), tag="elastic")


def assemble_relaxation(material: Material, dim: int) -> VolterraKernel:
    """Fading-memory kernel: the profile times the identity in Riesz form.

    The spatial part of the memory term matches the energy form itself, so
    the nodal kernel is beta(t) * Id on the Riesz representatives.
    """
    beta = material.beta or (lambda t: 0.0)
    return VolterraKernel(scalar_profile=beta, matrix=np.eye(dim))


def _threshold_memory(law: ContactLaw, space: HilbertSpace, contact_dof: int, grid: TimeGrid,
                      magnitude: Callable[[np.ndarray], np.ndarray], tag: str) -> HistoryOperator:
    """``F(int magnitude(u at the contact dof) ds)`` as a running trapezoid sum.

    ``l = 0``; ``magnitude`` is 1-Lipschitz and reading the dof has norm
    ``c0 = trace_constant(space, contact_dof)``, so ``L = c0 L_F``, attained
    by the trace representer held constant in time.  The state is the
    accumulated integral and the last integrand value, so each node costs
    O(1).  A block of nodes takes the magnitudes of its contact column at
    once, continues the running sum with one seeded ``np.cumsum``
    (:func:`~sweepvi.histop.continue_trapezoid`) and evaluates F once per
    block; the sum is the same as :func:`~sweepvi.histop.running_trapezoid`.
    """
    dt, F = grid.dt, law.F

    def advance(state, first, inputs):
        acc, prev = state
        values = magnitude(inputs[:, contact_dof])
        accs = continue_trapezoid(acc, prev, first, values, dt)
        out = np.asarray(F(accs), dtype=float).reshape(len(inputs), 1)
        out.setflags(write=False)
        return (accs[-1], values[-1]), out

    L = trace_constant(space, contact_dof) * law.L_F
    return HistoryOperator((0.0, 0.0), advance, l=0.0, L=L,
                           tag=tag, out_space=HilbertSpace(1), grid=grid)


def penetration_memory(law: ContactLaw, space: HilbertSpace, contact_dof: int,
                       grid: TimeGrid) -> HistoryOperator:
    """Threshold trajectory F(int (u at the contact node)^+ ds), with
    ``l = 0`` and ``L = trace_constant(space, contact_dof) * L_F``."""
    return _threshold_memory(law, space, contact_dof, grid, lambda x: np.maximum(x, 0.0),
                             "penetration_threshold")


def slip_memory(law: ContactLaw, space: HilbertSpace, contact_dof: int,
                grid: TimeGrid) -> HistoryOperator:
    """Threshold trajectory F(int |tangential velocity at the contact node| ds),
    with ``l = 0`` and ``L = trace_constant(space, contact_dof) * L_F``."""
    return _threshold_memory(law, space, contact_dof, grid, np.abs, "slip_threshold")


def assemble_loads(mesh: Mesh1D, loads: Loads, grid: TimeGrid,
                   space: HilbertSpace | None = None,
                   components: int = 1) -> tuple[Trajectory, np.ndarray]:
    """Riesz representatives of the load functional plus the raw covectors.

    The covectors (consistent mass-weighted nodal forces, traction included)
    are returned alongside because reactions are recovered from them.  The
    loads are evaluated once over the grid (:meth:`Loads.on_grid`: a constant
    once, a callable once per node) and every node's ``density M`` is one
    product of one stacked ``matmul``; the clamped node is then
    dropped and each component's traction added at its contact dof.
    """
    space = space or assemble_space(mesh, components)
    densities, tractions = loads.on_grid(grid.nodes, components, mesh.nodes.size)
    forces = (densities @ _mass(mesh))[..., 1:]
    forces[..., -1] += tractions
    # with one component the reshape is a strided view; the solve gets C-ordered rows
    covectors = np.ascontiguousarray(forces.reshape(grid.steps + 1, space.dim))
    bad = np.flatnonzero(~np.isfinite(covectors).all(axis=1))
    if bad.size:
        raise ValueError(f"load (body force or traction) is not finite at node {bad[0]} "
                         f"(t = {grid.nodes[bad[0]]:g})")
    riesz = space.solve_metric(covectors)
    return Trajectory(space, grid, riesz), covectors


@dataclass(frozen=True)
class ContactProblem:
    """Assembled problem plus everything stress recovery needs."""

    kind: str
    spec: InclusionSpec | SweepingSpec
    mesh: Mesh1D
    material: Material
    law: ContactLaw
    space: HilbertSpace
    grid: TimeGrid
    components: int
    contact_dofs: dict
    load_covectors: np.ndarray = field(repr=False)
    relaxation: HistoryOperator = field(repr=False)


def build_problem(kind: str, mesh: Mesh1D, material: Material, law: ContactLaw,
                  loads: Loads, grid: TimeGrid, u0=None) -> ContactProblem:
    """Assemble one of the three contact problems through the canonical coupling builders.

    normal_compliance: rod, unconstrained cone, penetration-memory threshold
    on the positive part of the contact displacement.
    rigid_obstacle: rod, nonpositive contact displacement, no threshold.
    shear_friction: shear layer in the velocity, bilateral normal component,
    slip-memory friction threshold on the tangential velocity.

    ``law`` is the rigid law for rigid_obstacle and a threshold map for the
    other two, which take its role from ``kind``.  The initial displacement
    ``u0`` and a nonzero ``b`` are the shear layer's alone; a rod kind refuses both.
    """
    if kind in ("normal_compliance", "rigid_obstacle"):
        if u0 is not None:
            raise UnsupportedConfigurationError(
                f"{kind} takes no u0: only the shear layer has an initial displacement")
        if material.b_field(mesh).any():
            raise UnsupportedConfigurationError(
                f"{kind} takes no b: only the shear layer has an elastic coupling")
        components = 1
    elif kind == "shear_friction":
        components = 2
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    if (law.F is None) != (kind == "rigid_obstacle"):
        want = "the rigid law" if kind == "rigid_obstacle" else "a threshold law"
        raise UnsupportedConfigurationError(f"{kind} needs {want}")
    space = assemble_space(mesh, components)
    n = mesh.n_free
    A = assemble_A(mesh, material, space, components)
    f, covectors = assemble_loads(mesh, loads, grid, space, components)
    if material.beta is None:
        relaxation = zero_operator(space, tag="relaxation")
    else:
        relaxation = volterra_operator(assemble_relaxation(material, space.dim), grid,
                                       space, tag="relaxation")

    y_space = HilbertSpace(1)       # the one threshold parameter
    nu_dof = n - 1                  # the normal dof of the contact node
    dofs = {"nu": nu_dof}

    if kind == "normal_compliance":
        functional = HomogeneousFunctional.positive_part(space, y_space,
                                                         weights=[1.0], indices=[nu_dof])
        spec = build_inclusion_variant(
            "memory_pair", cone=ConstraintCone.whole_space(space), functional=functional,
            parameter_memory=penetration_memory(law, space, nu_dof, grid),
            load_memory=relaxation, operator=A, f=f, grid=grid)
    elif kind == "rigid_obstacle":
        spec = build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.nonpositive(space, [nu_dof]),
            functional=HomogeneousFunctional.zero(space, y_space),
            load_memory=relaxation, operator=A, f=f, grid=grid)
    else:
        tau_dof = 2 * n - 1
        functional = HomogeneousFunctional.block_norm(space, y_space, weights=[1.0],
                                                      blocks=[[tau_dof]])
        core = build_inclusion_variant(
            "memory_pair", cone=ConstraintCone.zero(space, [nu_dof]), functional=functional,
            parameter_memory=slip_memory(law, space, tau_dof, grid),
            load_memory=relaxation, operator=A, f=f, grid=grid)
        b_op = (assemble_elastic(mesh, material, space, components)
                if material.b_field(mesh).any() else None)
        u0 = np.zeros(space.dim) if u0 is None else _vec(u0, space.dim)
        if abs(u0[nu_dof]) > 1e-14:
            raise UnsupportedConfigurationError(
                "initial displacement must respect the bilateral contact constraint")
        spec = build_sweeping_variant("memory_pair", core=core, b_op=b_op, u0=u0)
        dofs["tau"] = tau_dof
    return ContactProblem(kind=kind, spec=spec, mesh=mesh, material=material, law=law,
                          space=space, grid=grid, components=components,
                          contact_dofs=dofs, load_covectors=covectors,
                          relaxation=relaxation)


def solve_contact(problem: ContactProblem, **kwargs) -> InclusionSolution:
    """Solve the assembled problem with :func:`~sweepvi.sweeping.solve_spec`'s
    options; ``v`` holds the shear layer's velocity."""
    return solve_spec(problem.spec, **kwargs)


@dataclass(frozen=True)
class StressRecord:
    """Element stresses and contact reactions over time.

    ``element_stress`` has shape (nodes, elements, components); reactions are
    equilibrium residuals at the contact dofs (the last element's stress minus
    the nodal load), the variationally consistent notion of boundary traction.
    """

    element_stress: np.ndarray
    sigma_nu: np.ndarray
    sigma_tau: np.ndarray | None = None


def recover_stress(problem: ContactProblem, u: Trajectory,
                   v: Trajectory | None = None) -> StressRecord:
    """Constitutive stress per element plus contact reactions per time node.

    ``v`` is the velocity of the sweeping (shear) problem and ``None`` for
    the rod problems; with it the elastic coupling ``b`` enters the stress.
    Strains are nodal differences over element lengths, so this costs
    O(nodes x dofs) and applies no solver operator or metric.
    """
    mesh, material, n = problem.mesh, problem.material, problem.mesh.n_free
    rate = v if v is not None else u     # variable the viscous part acts on

    def strain(x: Trajectory) -> np.ndarray:
        """(time, component, element) strains; the clamped node contributes zero."""
        nodal = x.samples.reshape(len(x.samples), problem.components, n)
        return np.diff(nodal, prepend=0.0, axis=-1) / mesh.h

    eps_rate = strain(rate)
    sigma = material.a_field(mesh) * eps_rate + material.mu * np.tanh(eps_rate)
    if v is not None:
        sigma += material.b_field(mesh) * strain(u)
    sigma += strain(problem.relaxation(rate))

    # M (A v + B u + S v) = G^T (h sigma); a contact dof is the last free node of
    # its component, which enters only the last element's strain, as 1 / h_last
    def reaction(dof: int) -> np.ndarray:
        return sigma[:, dof // n, -1] - problem.load_covectors[:, dof]

    tau = problem.contact_dofs.get("tau")
    return StressRecord(element_stress=np.moveaxis(sigma, 1, 2),
                        sigma_nu=reaction(problem.contact_dofs["nu"]),
                        sigma_tau=None if tau is None else reaction(tau))


@dataclass(frozen=True)
class ContactReport:
    """Per-time-node contact law residuals with their worst values."""

    kind: str
    series: dict
    worst: dict

    def ok(self, tol: float = 1e-8) -> bool:
        return all(v <= tol for v in self.worst.values())


def contact_diagnostics(problem: ContactProblem, u: Trajectory, v: Trajectory | None,
                        stress: StressRecord) -> ContactReport:
    """Check the contact law pointwise in time on the solved fields.

    ``u`` is the displacement, ``v`` the velocity (read by the friction
    law, ``None`` for the rod problems) and ``stress`` their
    :func:`recover_stress` record.
    """
    dt = problem.grid.dt
    series: dict = {}
    worst: dict = {}
    if problem.kind == "rigid_obstacle":
        u_nu = u.samples[:, problem.contact_dofs["nu"]]
        series["penetration"] = np.maximum(u_nu, 0.0)
        series["pressure_sign"] = np.maximum(stress.sigma_nu, 0.0)
        series["complementarity"] = np.abs(stress.sigma_nu * u_nu)
    elif problem.kind == "normal_compliance":
        u_nu = u.samples[:, problem.contact_dofs["nu"]]
        acc = running_trapezoid(np.maximum(u_nu, 0.0), dt)
        bound = np.asarray(problem.law.F(acc), dtype=float)
        series["pressure_sign"] = np.maximum(stress.sigma_nu, 0.0)
        series["bound_excess"] = np.maximum(-stress.sigma_nu - bound, 0.0)
        series["threshold"] = bound
    else:
        v_tau = v.samples[:, problem.contact_dofs["tau"]]
        acc = running_trapezoid(np.abs(v_tau), dt)
        bound = np.asarray(problem.law.F(acc), dtype=float)
        dissipation = -stress.sigma_tau * v_tau
        series["bound_excess"] = np.maximum(np.abs(stress.sigma_tau) - bound, 0.0)
        series["dissipation"] = dissipation
        series["threshold"] = bound
        sliding = np.abs(v_tau) > 1e-8
        align = np.zeros_like(v_tau)
        align[sliding] = np.abs(dissipation[sliding] - bound[sliding] * np.abs(v_tau[sliding]))
        series["sliding_alignment"] = align
        worst["dissipation_negativity"] = float(np.maximum(-dissipation, 0.0).max())
    for name in ("penetration", "pressure_sign", "complementarity", "bound_excess",
                 "sliding_alignment"):
        if name in series:
            worst[name] = float(series[name].max())
    return ContactReport(kind=problem.kind, series=series, worst=worst)
