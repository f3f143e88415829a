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
from .funcspace import Path, TimeGrid, sample
from .lagdsl import (
    Bindings,
    compile,
    compile_all,
    diff,
    free_variables,
    parse,
    references_velocity,
)
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


class SchrodingerProblem:
    """Wavefunction, potential and physical constants defining one problem.

    psi is an expression over (t, q1..qd), the potential over (q1..qd) only;
    hbar and m are positive reals and gamma = hbar/(2m) is derived exactly.
    Symbolic partials of psi (time, gradient, diagonal second derivatives)
    are precomputed, and every program the reports run compiled, once: psi,
    the potential, psi with its gradient (for the trajectory integrator) and
    the terms of the wave-equation residual.
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
        self._psi = compile(self.psi)
        self._potential = compile(self.potential)
        self._psi_and_gradient = compile_all((self.psi, *self.psi_q))
        self._residual_terms = compile_all((self.psi, *self.psi_qq, self.psi_t, self.potential))

    def _bind(self, t, q) -> Bindings:
        return Bindings(t=t, q=tuple(q), v=(), params=self.params)

    def psi_values(self, t, q):
        """Psi(t, q), validated against the magnitude floor."""
        return _above_floor(self._psi(self._bind(t, q)))

    def _psi_first(self, program, b: Bindings) -> tuple:
        """program(b), where the program's first value is Psi, with Psi checked.

        A failure or collapse of Psi is reported first, as evaluating Psi on
        its own before the rest would report it.
        """
        try:
            values = program(b)
        except NumericalError:
            _above_floor(self._psi(b))
            raise
        _above_floor(values[0])
        return values


def _above_floor(psi):
    if isinstance(psi, np.ndarray):
        smallest = np.min(np.abs(psi))
    else:  # complex abs raises OverflowError where |psi| overflows; hypot gives inf
        smallest = math.hypot(psi.real, psi.imag)
    if smallest <= _PSI_FLOOR:
        raise NumericalError(
            f"wavefunction magnitude at or below {_PSI_FLOOR} on the probed region"
        )
    return psi


def _check_bounded(y: tuple) -> None:
    """Divergence check of one RK4 stage; hypot, where complex abs could overflow."""
    for z in y:
        if not cmath.isfinite(z) or math.hypot(z.real, z.imag) > _DIVERGENCE_LIMIT:
            raise NumericalError("trajectory divergence: |q| exceeded 1e6")


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
    psi, *values = prob._psi_first(prob._residual_terms, prob._bind(ts, qs.T))
    lap = np.zeros(ts.shape, dtype=np.complex128)
    for psi_qq in values[: prob.dim]:
        lap = lap + psi_qq
    psi_t, potential = values[prob.dim :]
    res = 1j * prob.hbar * psi_t + (prob.hbar**2 / (2.0 * prob.m)) * lap - potential * psi
    return ResidualReport.from_samples(ts, res, 1.0 / ts.size)


def _log_gradient_sum(prob: SchrodingerProblem, t, q):
    """sum_k (dPsi/dq_k)/Psi in quotient form, branch-free."""
    psi, *grad = prob._psi_first(prob._psi_and_gradient, prob._bind(t, q))
    total = 0.0 + 0.0j
    for dq in grad:
        total = total + dq / psi
    return total


def _velocity(prob: SchrodingerProblem, b: Bindings) -> tuple:
    values = prob._psi_first(prob._psi_and_gradient, b)
    psi, c = values[0], -2j * prob.gamma
    return tuple([c * dq / psi for dq in values[1:]])


def velocity_field(prob: SchrodingerProblem, t: float, q) -> np.ndarray:
    """Induced velocity -2i*gamma (dPsi/dq_k)/Psi per component at (t, q)."""
    q = np.asarray(q, dtype=np.complex128).ravel()
    if q.size != prob.dim:
        raise ValidationError(f"position has {q.size} components, expected {prob.dim}")
    return np.array(_velocity(prob, prob._bind(t, q)), dtype=np.complex128)


def _rk4_step(rhs, t: float, y: tuple, h: float) -> tuple:
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(t, y)
    k2 = rhs(t + half, tuple([a + half * k for a, k in zip(y, k1)]))
    k3 = rhs(t + half, tuple([a + half * k for a, k in zip(y, k2)]))
    k4 = rhs(t + h, tuple([a + h * k for a, k in zip(y, k3)]))
    return tuple(
        [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
    )


def integrate_trajectory(prob: SchrodingerProblem, q0, grid: TimeGrid) -> Trajectory:
    """Fixed-step RK4 for dq/dt = velocity_field(t, q) across all padded nodes.

    q0 anchors the trajectory at t = a; nodes right of a are reached forward,
    the left padding backward.  Aborts on wavefunction collapse under the
    magnitude floor or on divergence (|q| > 1e6), both checked at every
    stage.  The state is a tuple of Python complex numbers, one per
    component, with one Bindings per stage.
    """
    q0 = np.asarray(q0, dtype=np.complex128).ravel()
    if q0.size != prob.dim:
        raise ValidationError(f"q0 has {q0.size} components, expected {prob.dim}")

    def rhs(t, y):
        _check_bounded(y)
        return _velocity(prob, Bindings(t=t, q=y, v=(), params=prob.params))

    ts = grid.nodes().tolist()
    rows = [()] * len(ts)
    anchor = grid.pad_steps
    rows[anchor] = tuple(q0.tolist())
    h = grid.h
    for i in range(anchor, len(ts) - 1):
        rows[i + 1] = _rk4_step(rhs, ts[i], rows[i], h)
    for i in range(anchor, 0, -1):
        rows[i - 1] = _rk4_step(rhs, ts[i], rows[i], -h)
    path = Path.from_samples(grid, np.array(rows, dtype=np.complex128), label="trajectory")
    return Trajectory(path=path, q0=q0, grid=grid)


def energy_constant(prob: SchrodingerProblem, traj: Trajectory, sp: ScaleParams) -> EnergyReport:
    """Track both energy forms along a trajectory on the core window [a, b].

    theorem: -(m/2) (box_eps q)^2 - U(q) with box_eps q the scale derivative
    of the sampled trajectory; variant: 2m (gamma sum_k dPsi/dq_k / Psi)^2
    + U(q).  Each form gets its own drift statistic.
    """
    p = traj.path
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    core = g1.core
    ts = g1.nodes()[core]
    qv = sample(p, g1).values[core]
    vv = v_path.values[core]
    b = prob._bind(ts, tuple(qv.T))
    potential = np.full(ts.shape, prob._potential(b), dtype=np.complex128)
    v_squared = (vv**2).sum(axis=1)
    theorem = -(0.5 * prob.m) * v_squared - potential
    grad_sum = _log_gradient_sum(prob, ts, tuple(qv.T))
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
