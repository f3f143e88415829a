"""Wavefunction-driven trajectories and their conserved energy.

A wavefunction Psi(t, q) solving

    i*hbar dPsi/dt + (hbar^2 / 2m) sum_j d2Psi/dq_j^2 = U(q) Psi

induces the complex velocity field v_k = -2i*gamma (dPsi/dq_k)/Psi with
gamma = hbar/(2m); the quotient form avoids the logarithm branch cut
entirely.  Trajectories of that field are integrated over the complex
plane (the field is generically complex) and two energy forms are tracked
along them:

    theorem form   -(m/2) (box q)^2 - U(q)
    variant form   2m (gamma sum_k dPsi/dq_k / Psi)^2 + U(q)

The first uses the finite-scale derivative of the sampled trajectory and is
the conserved combination of momentum and energy terms under time
translation; the second substitutes the exact field value for box q and flips
the potential sign.  The two coincide when U = 0 and differ otherwise, so
both are reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .funcspace import Path, TimeGrid
from .lagdsl import diff, free_variables, generate, parse, references_velocity
from .scaleops import ScaleParams, scale_derivative_path
from .varcalc import NoetherReport, ResidualReport

__all__ = [
    "SchrodingerProblem",
    "Trajectory",
    "EnergyReport",
    "schrodinger_residual",
    "velocity_field",
    "integrate_trajectory",
    "energy_constant",
    "kinetic_coefficient_identity_gap",
]

_PSI_FLOOR = 1e-12
_DIVERGENCE_LIMIT = 1e6
_COLLAPSE = f"wavefunction magnitude at or below {_PSI_FLOOR} on the probed region"
_DIVERGENCE = "trajectory divergence: |q| exceeded 1e6"


class SchrodingerProblem:
    """Wavefunction, potential and physical constants defining one problem.

    psi is an expression over (t, q1..qd), the potential over (q1..qd) only;
    hbar and m are positive reals and gamma = hbar/(2m) is derived exactly.
    Symbolic partials of psi (time, gradient, diagonal second derivatives)
    are precomputed, and every program the reports run generated, once, in
    three passes: the potential; psi with its gradient, psi alone and one RK4
    step of the trajectory integrator; the terms of the wave-equation residual.
    """

    def __init__(self, psi, potential, hbar: float, m: float, dim: int = 1, params=None):
        if not (math.isfinite(hbar) and hbar > 0):
            raise ValidationError(f"hbar must be positive, got {hbar}")
        if not (math.isfinite(m) and m > 0):
            raise ValidationError(f"m must be positive, got {m}")
        self.params = dict(params or {})
        self.dim = int(dim)
        names = tuple(self.params)
        self.psi = parse(psi, self.dim, names) if isinstance(psi, str) else psi
        self.potential = parse(potential, self.dim, names) if isinstance(potential, str) else potential
        for expr, label in ((self.psi, "psi"), (self.potential, "potential")):
            if references_velocity(expr):
                raise ValidationError(f"{label} may not reference velocity variables")
        if "t" in free_variables(self.potential):
            raise ValidationError("the potential must depend on positions only")
        self.hbar = float(hbar)
        self.m = float(m)
        self.gamma = self.hbar / (2.0 * self.m)
        self.psi_t = diff(self.psi, "t")
        self.psi_q = tuple(diff(self.psi, f"q{k + 1}") for k in range(self.dim))
        self.psi_qq = tuple(diff(self.psi_q[k], f"q{k + 1}") for k in range(self.dim))
        (self._potential,) = _generate(self, (self.potential,))
        self._psi, self._psi_and_gradient, self._step = _generate(self, (self.psi, *self.psi_q), step=True)
        (self._residual_terms,) = _generate(self, (self.psi, *self.psi_qq, self.psi_t, self.potential))

    def psi_values(self, t, q):
        """Psi(t, q), checked against the magnitude floor; q has one component per dimension."""
        return self._psi(t, *_position(self, q))


def _position(prob: SchrodingerProblem, q):
    if len(q) != prob.dim:
        raise ValidationError(f"position has {len(q)} components, expected {prob.dim}")
    return q


def _above_floor(psi):
    if isinstance(psi, np.ndarray):
        smallest = np.min(np.abs(psi))
    else:  # complex abs raises OverflowError where |psi| overflows; hypot gives inf
        smallest = math.hypot(psi.real, psi.imag)
    if smallest <= _PSI_FLOOR:
        raise NumericalError(_COLLAPSE)
    return psi


def _generate(prob: SchrodingerProblem, roots, step=False) -> tuple:
    """program(t, q0, ..., q{d-1}) -> the roots' values, parameters bound once as
    complex(value), a first root Psi checked against the floor right after its own
    statements, so that its failure or collapse is reported first.  With step (roots
    Psi and its gradient) also psi(t, q0, ...), Psi alone and checked, and
    step(s, h, a0, ...), one RK4 step of dq/dt = -2i*gamma*grad Psi/Psi from q = a
    at t = s: each stage checks its input for divergence, runs the same statements
    and check, and takes c*dPsi/dq_k/Psi; the RK4 combinations are textbook, op for op."""
    checked = roots[0] is prob.psi
    params = {}

    def read(v) -> str:
        if v.kind != "param":
            return "_coerce(t)" if v.kind == "t" else f"_coerce(q{v.index - 1})"
        if v.name not in prob.params:
            raise ValidationError(f"unbound parameter {v.name!r}")
        params[f"param_{v.name}"] = complex(prob.params[v.name])
        return f"param_{v.name}"

    def each(form: str) -> str:  # form for every component k, each followed by a comma
        return "".join(form.format(k=k) + ", " for k in range(prob.dim))

    def function(head: str, body) -> str:
        return f"def {head}:" + "".join(f"\n    {line}" for line in body) + "\n"

    def write(lines, values, ends) -> str:
        head, rest = lines[: ends[0]], lines[ends[0] :]  # head ends where the first root is complete
        first = f"above_floor({values[0]})" if checked else values[0]
        others = "".join(v + ", " for v in values[1:])
        program = [*head, f"first = {first}", *rest, f"return (first, {others})"]
        source = function(f"program(t, {each('q{k}')})", program)
        if not step:
            return source
        source += function(f"psi(t, {each('q{k}')})", [*head, f"return {first}"])
        # hypot, where complex abs could overflow; of a finite q_k it is never nan
        bounded = " and ".join(
            f"isfinite(q{k}) and hypot(q{k}.real, q{k}.imag) <= {_DIVERGENCE_LIMIT!r}"
            for k in range(prob.dim)
        )
        # the stages read scalars only, and _coerce makes a scalar complex(x)
        body = ["half, sixth, _coerce = 0.5 * h, h / 6.0, complex"]
        stages = (("s", "a{k}"), ("s + half", "a{k} + half * k1_{k}"),
                  ("s + half", "a{k} + half * k2_{k}"), ("s + h", "a{k} + h * k3_{k}"))
        for j, (t, q) in enumerate(stages, 1):
            body.append(f"t, {each('q{k}')}= {t}, {each(q)}")
            body.append(f"if not ({bounded}): raise NumericalError({_DIVERGENCE!r})")
            body += [*head, f"psi = {values[0]}"]
            body.append(f"if hypot(psi.real, psi.imag) <= {_PSI_FLOOR!r}: raise NumericalError({_COLLAPSE!r})")
            body += [*rest, *(f"k{j}_{k} = c * {values[k + 1]} / psi" for k in range(prob.dim))]
        body.append(f"return ({each('a{k} + sixth * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k})')})")
        return source + function(f"step(s, h, {each('a{k}')})", body)

    env = generate(roots, read, write)
    env.update(params, c=-2j * prob.gamma, isfinite=cmath.isfinite, hypot=math.hypot)
    env.update(NumericalError=NumericalError, above_floor=_above_floor)
    return (env.pop("psi"), env.pop("program"), env.pop("step")) if step else (env.pop("program"),)


@dataclass(frozen=True)
class Trajectory:
    """Integrated path with its initial point and the grid the integrator used.

    The sample at t = a equals q0; left padding is filled by integrating
    backward in time from the anchor.
    """

    path: Path
    q0: np.ndarray
    grid: TimeGrid


@dataclass(frozen=True)
class EnergyReport:
    """Both energy forms along one trajectory, each with its own drift."""

    theorem: NoetherReport
    variant: NoetherReport


def schrodinger_residual(prob: SchrodingerProblem, t_nodes, q_nodes) -> ResidualReport:
    """Pointwise defect of the wave equation over paired probe points.

    r(t, q) = i*hbar dPsi/dt + (hbar^2/2m) sum_j d2Psi/dq_j^2 - U Psi, all
    derivatives symbolic.  t_nodes has shape (N,), q_nodes (N, d) or (N,);
    the report weights the l2 norm by 1/N (the probes carry no time step).
    """
    ts = np.asarray(t_nodes, dtype=float)
    qs = np.asarray(q_nodes, dtype=np.complex128)
    if qs.ndim == 1:
        qs = qs[:, None]
    if qs.shape != (ts.size, prob.dim):
        raise ValidationError(
            f"probe positions have shape {qs.shape}, expected ({ts.size}, {prob.dim})"
        )
    psi, *values = prob._residual_terms(ts, *qs.T)
    lap = np.zeros(ts.shape, dtype=np.complex128)
    for psi_qq in values[: prob.dim]:
        lap = lap + psi_qq
    psi_t, potential = values[prob.dim :]
    res = 1j * prob.hbar * psi_t + (prob.hbar**2 / (2.0 * prob.m)) * lap - potential * psi
    return ResidualReport.from_samples(ts, res, 1.0 / ts.size)


def velocity_field(prob: SchrodingerProblem, t: float, q) -> np.ndarray:
    """Induced velocity -2i*gamma (dPsi/dq_k)/Psi per component at (t, q)."""
    q = np.asarray(q, dtype=np.complex128).ravel()
    psi, *grad = prob._psi_and_gradient(t, *_position(prob, q))
    c = -2j * prob.gamma
    return np.array([c * dq / psi for dq in grad], dtype=np.complex128)


def integrate_trajectory(prob: SchrodingerProblem, q0, grid: TimeGrid) -> Trajectory:
    """Fixed-step RK4 for dq/dt = velocity_field(t, q) across all padded nodes.

    q0 anchors the trajectory at t = a; nodes right of a are reached forward,
    the left padding backward.  Aborts on wavefunction collapse under the
    magnitude floor or on divergence (|q| > 1e6), both checked at every
    stage.  The state is a tuple of scalars, one per component; each step
    is one call of the problem's generated RK4 step, which runs the four
    stages and their checks.
    """
    q0 = _position(prob, np.asarray(q0, dtype=np.complex128).ravel())
    ts = grid.nodes().tolist()
    rows = [()] * len(ts)
    anchor = grid.pad_steps
    rows[anchor] = tuple(q0.tolist())
    h, step = grid.h, prob._step
    for i in range(anchor, len(ts) - 1):
        rows[i + 1] = step(ts[i], h, *rows[i])
    for i in range(anchor, 0, -1):
        rows[i - 1] = step(ts[i], -h, *rows[i])
    path = Path.from_samples(grid, np.array(rows, dtype=np.complex128), label="trajectory")
    return Trajectory(path=path, q0=q0, grid=grid)


def energy_constant(prob: SchrodingerProblem, traj: Trajectory, sp: ScaleParams) -> EnergyReport:
    """Track both energy forms along a trajectory on the core window [a, b].

    theorem: -(m/2) (box_eps q)^2 - U(q) with box_eps q the scale derivative
    of the sampled trajectory; variant: 2m (gamma sum_k dPsi/dq_k / Psi)^2
    + U(q).  Each form gets its own drift statistic.  The window is the core
    of the path's own grid, and box q reads the path only eps beyond it.
    """
    p = traj.path
    v_path = scale_derivative_path(p, sp)
    ts = p.grid.nodes()[p.grid.core]
    qs = tuple(p.values[p.grid.core].T)
    vv = v_path.values[v_path.grid.core]
    potential = np.full(ts.shape, prob._potential(ts, *qs)[0], dtype=np.complex128)
    v_squared = (vv**2).sum(axis=1)
    theorem = -(0.5 * prob.m) * v_squared - potential
    psi, *grad = prob._psi_and_gradient(ts, *qs)
    grad_sum = 0.0 + 0.0j
    for dq in grad:  # sum_k (dPsi/dq_k)/Psi in quotient form, branch-free
        grad_sum = grad_sum + dq / psi
    variant = 2.0 * prob.m * (prob.gamma * grad_sum) ** 2 + potential
    return EnergyReport(
        theorem=NoetherReport.from_samples(ts, theorem),
        variant=NoetherReport.from_samples(ts, variant),
    )


def kinetic_coefficient_identity_gap(hbar: float, m: float) -> float:
    """Gap, in ulps, between 2m*gamma^2 and (1/8m)(h/pi)^2.

    gamma = hbar/(2m) and h = 2*pi*hbar make the two kinetic prefactors
    algebraically identical; the return value measures how far floating-point
    evaluation drifts apart.
    """
    lhs = 2.0 * m * (hbar / (2.0 * m)) ** 2
    h_planck = 2.0 * math.pi * hbar
    rhs = (1.0 / (8.0 * m)) * (h_planck / math.pi) ** 2
    return abs(lhs - rhs) / float(np.spacing(max(abs(lhs), abs(rhs))))
