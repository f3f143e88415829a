"""Seeded workloads for the scalevar benchmark.

Each workload turns a seed into a fixed pool of operations.  The seed only
picks numbers (frequencies, amplitudes, phases, starting points); the shape
of every problem (command, dimension, grid size) is fixed, so the cost of an
operation does not depend on the seed.  Every operation is checked against a
closed-form oracle and against its own first output, so a wrong or drifting
result counts as a failed operation rather than as a fast one.

Generators (`*_inputs`) are pure functions of the seed and need only the
standard library and numpy.  `build` binds the inputs to an imported scalevar
package.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import warnings

import numpy as np

WORKLOADS = ("trajectory", "batch_csv", "library", "roughness")

# Sizes are chosen so that one operation takes roughly 0.1-0.3 s on a 2-core
# x86 box: a run of a few tens of seconds then holds about a hundred
# operations, enough for a tail percentile with ten samples beyond it.
TRAJECTORY_NODES = {1: 600, 2: 400}  # 2-D costs ~1.5x per node; equalise op cost
TRAJECTORY_POOL = 8
BATCH_NODES = 20_000
BATCH_COMMANDS = ("deriv", "functional", "check-el", "check-dbr", "invariance", "noether")
LIBRARY_NODES = 50_000
LIBRARY_SWEEPS = 25  # 200 at 400k nodes in the first measurements; scaled with the nodes
ROUGHNESS_SAMPLES = 2_500
ROUGHNESS_POOL = 6
ROUGHNESS_TERMS = 30
ROUGHNESS_DELTAS = tuple(2.0**-k for k in range(3, 10))


def _num(x: float) -> str:
    """A float as expression text that parses back to the same value."""
    return repr(float(x))


def _grid(rng: random.Random, n: int, steps: int) -> dict:
    """Grid on [0, T] with eps = steps grid steps and pad = 2*eps.

    steps is fixed per pool slot, not seeded: it sets the padded node count,
    and with it the RK4 steps, rows and call counts of an operation.
    """
    span = rng.uniform(1.0, 2.0)
    h = span / n
    return {
        "grid": {"a": 0.0, "b": span, "n": n, "pad": 2 * steps * h},
        "scale": {"epsilon": steps * h, "mu": "0"},
    }


# ---------------------------------------------------------------------------
# Input generators: seed -> configs or arrays


def trajectory_inputs(seed: int) -> list:
    """`schrodinger` configs: harmonic ground states in 1-D and 2-D.

    psi = exp(-sum a_k q_k^2 / 2) exp(-i E t) with a_k = m w_k / hbar solves
    the wave equation for U = sum m w_k^2 q_k^2 / 2, and its induced
    trajectory is q_k(t) = q0_k exp(i w_k t).
    """
    rng = random.Random(f"trajectory:{seed}")
    out = []
    for k in range(TRAJECTORY_POOL):
        dim = 1 + k % 2
        cfg = _grid(rng, TRAJECTORY_NODES[dim], steps=1 + k % 3)
        mass = rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.5, 1.5)
        omega = [rng.uniform(0.6, 1.6) for _ in range(dim)]
        a = [mass * w / hbar for w in omega]
        # a*|q0|^2 stays below 1.5 so |psi| along the complex path is O(1)
        q0 = [rng.choice((-1.0, 1.0)) * math.sqrt(rng.uniform(0.2, 1.5) / ak) for ak in a]
        energy = sum(omega) / 2.0
        gauss = " + ".join(f"{_num(ak)}*q{j + 1}^2" for j, ak in enumerate(a))
        pot = " + ".join(f"{_num(0.5 * mass * w * w)}*q{j + 1}^2" for j, w in enumerate(omega))
        cfg["command"] = "schrodinger"
        cfg["problem"] = {
            "psi": f"exp(-({gauss})/2)*exp(-i*{_num(energy)}*t)",
            "potential": pot,
            "hbar": hbar,
            "m": mass,
            "q0": q0,
        }
        cfg["_oracle"] = {"omega": omega, "q0": q0, "mass": mass}
        out.append(cfg)
    return out


def batch_inputs(seed: int) -> list:
    """The six variational commands, twice each, on paths with closed forms.

    Coefficients are positive so every expression parses to the same tree
    shape whatever the seed.
    """
    rng = random.Random(f"batch_csv:{seed}")
    out = []
    for rnd in range(2):
        for j, command in enumerate(BATCH_COMMANDS):
            cfg = _grid(rng, BATCH_NODES, steps=1 + (rnd + j) % 3)
            cfg["command"] = command
            if command == "deriv":
                c2, c1 = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
                mu = rng.choice(("1", "-1", "0", "i", "-i"))
                cfg["scale"]["mu"] = mu
                cfg["problem"] = {"path": f"{_num(c2)}*t^2 + {_num(c1)}*t"}
                oracle = {"c2": c2, "c1": c1, "mu": mu}
            elif command in ("functional", "noether"):
                slope, offset = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
                mass = rng.uniform(0.5, 2.0) if command == "functional" else 1.0
                cfg["problem"] = {
                    "L": f"{_num(0.5 * mass)}*v1^2",
                    "path": f"{_num(slope)}*t + {_num(offset)}",
                }
                if command == "noether":
                    cfg["problem"].update(tau="1", xi="0")
                oracle = {"slope": slope, "mass": mass}
            else:
                amp, omega, phase = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 6.0)
                cfg["problem"] = {
                    "L": f"0.5*v1^2 - {_num(0.5 * omega * omega)}*q1^2",
                    "path": f"{_num(amp)}*cos({_num(omega)}*t + {_num(phase)})",
                }
                if command == "invariance":
                    # translation in q is not a symmetry: integrand = dL/dq = -w^2 q
                    cfg["problem"].update(tau="0", xi="1")
                oracle = {"amp": amp, "omega": omega, "phase": phase}
            cfg["_oracle"] = oracle
            out.append(cfg)
    return out


def library_inputs(seed: int) -> dict:
    """A 3-D coupled oscillator L = |v|^2/2 - q.K.q/2 and a sum of its normal modes.

    K = R diag(w^2) R^T with a seeded rotation R, so every mode, and any sum
    of modes, is an exact extremal.  The path is handed over as samples.
    """
    rng = np.random.default_rng([seed, 3])
    n = LIBRARY_NODES
    span = float(rng.uniform(1.0, 2.0))
    steps = 2
    h = span / n
    omega = rng.uniform(0.8, 2.0, size=3)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    kmat = rot @ np.diag(omega**2) @ rot.T
    amp = rng.uniform(0.3, 1.0, size=3)
    phase = rng.uniform(0.0, 2 * np.pi, size=3)
    pad_steps = 2 * steps
    ts = (np.arange(n + 1 + 2 * pad_steps) - pad_steps) * h
    theta = np.outer(ts, omega) + phase  # (N, 3) mode angles
    q = (amp * np.cos(theta)) @ rot.T
    probe = rng.choice(np.arange(pad_steps + 8 * steps, n + pad_steps - 8 * steps), size=LIBRARY_SWEEPS)
    names = [(j, k) for j in range(3) for k in range(j, 3)]
    pot = " + ".join(
        f"{'' if j == k else '2*'}k{j + 1}{k + 1}*q{j + 1}*q{k + 1}" for j, k in names
    )
    return {
        "grid": {"a": 0.0, "b": span, "n": n, "pad": pad_steps * h},
        "epsilon": steps * h,
        "L": f"0.5*(v1^2 + v2^2 + v3^2) - 0.5*({pot})",
        "params": {f"k{j + 1}{k + 1}": float(kmat[j, k]) for j, k in names},
        "samples": q.astype(np.complex128),
        "probe_nodes": np.sort(probe),
        "sweep_epsilons": [m * h for m in (8, 4, 2, 1)],
        "_oracle": {"omega": omega, "rot": rot, "amp": amp, "phase": phase, "ts": ts},
    }


def roughness_inputs(seed: int) -> list:
    """`holder` configs on Weierstrass series with seeded exponents.

    trunc_tol is set so the series keeps exactly ROUGHNESS_TERMS terms for
    every seed.  The cost of cos grows with its argument, up to b^TERMS, so
    the pool spreads b_base over a fixed ladder and the seed only jitters it;
    together these keep the cost of the pool the same for every seed.
    """
    rng = random.Random(f"roughness:{seed}")
    out = []
    for k in range(ROUGHNESS_POOL):
        b_base = 2.5 + 0.2 * k + rng.uniform(-0.02, 0.02)
        alpha = rng.uniform(0.3, 0.7)
        a_coef = b_base**-alpha
        tol = a_coef**ROUGHNESS_TERMS / (1.0 - a_coef) * (1.0 + 1e-6)
        out.append(
            {
                "command": "holder",
                "grid": {"a": 0.0, "b": 1.0, "n": 100, "pad": 0.0},
                "scale": {"epsilon": 0.01, "mu": "0"},
                "problem": {
                    "weierstrass": {"a_coef": a_coef, "b_base": b_base, "trunc_tol": tol},
                    "deltas": list(ROUGHNESS_DELTAS),
                    "sample_count": ROUGHNESS_SAMPLES,
                },
                "_oracle": {"alpha": alpha},
            }
        )
    return out


INPUTS = {
    "trajectory": trajectory_inputs,
    "batch_csv": batch_inputs,
    "library": library_inputs,
    "roughness": roughness_inputs,
}


def inputs_digest(name: str, seed: int) -> str:
    """sha256 of everything the program would receive for (workload, seed)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for key in sorted(x):
                h.update(key.encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(INPUTS[name](seed))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Operations and their checks


class Operation:
    """One unit of client work: `run()` is timed, `check()` is not.

    `check(result)` returns a list of problems; empty means correct.  The
    first correct result's digest is remembered, and every rerun must
    reproduce it exactly.
    """

    label = ""
    work = 0  # work units (grid nodes, RK4 steps or probes) per operation

    def __init__(self):
        self._digest = None

    def run(self):
        raise NotImplementedError

    def _verify(self, result):
        """Return (problems, digest) for one result."""
        raise NotImplementedError

    def check(self, result) -> list:
        problems, digest = self._verify(result)
        if not problems:
            if self._digest is None:
                self._digest = digest
            elif digest != self._digest:
                problems.append("rerun output differs from the first run")
        return problems


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


class CliOperation(Operation):
    """One `scalevar.cli.run` on a generated config file."""

    def __init__(self, cli, cfg: dict, workdir: str, index: int):
        super().__init__()
        self.cli = cli
        self.command = cfg["command"]
        self.label = f"{self.command}#{index}"
        self.oracle = cfg["_oracle"]
        body = {k: v for k, v in cfg.items() if k != "_oracle"}
        self.prefix = os.path.join(workdir, f"op{index}")
        body["output"] = self.prefix
        self.grid = dict(body["grid"])
        self.eps = body["scale"]["epsilon"]
        self.config_path = os.path.join(workdir, f"op{index}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        n = self.grid["n"]
        h = (self.grid["b"] - self.grid["a"]) / n
        self.steps = round(self.eps / h)
        if self.command == "holder":
            self.work = len(body["problem"]["deltas"]) * body["problem"]["sample_count"]
        elif self.command == "schrodinger":
            self.work = n + 2 * round(self.grid["pad"] / h)  # RK4 steps over the padded grid
        else:
            self.work = n + 1

    def run(self):
        for suffix in (".csv", ".summary.json"):
            try:
                os.remove(self.prefix + suffix)
            except FileNotFoundError:
                pass
        return self.cli.run(self.config_path)

    def outputs(self):
        with open(self.prefix + ".csv", "rb") as fh:
            csv = fh.read()
        with open(self.prefix + ".summary.json", "rb") as fh:
            summary = fh.read()
        return csv, summary

    def _verify(self, rc):
        if rc != 0:
            return [f"exit code {rc}"], None
        try:
            csv, summary_bytes = self.outputs()
        except OSError as err:
            return [f"missing output: {err}"], None
        try:
            summary = json.loads(summary_bytes)
            header, table = _parse_csv(csv)
        except ValueError as err:
            return [f"unreadable output: {err}"], None
        problems = []
        for key, value in summary.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"summary {key} is not finite")
        want_header, want_keys, want_rows = self._expected_shape()
        if header != want_header:
            problems.append(f"header {header} != {want_header}")
        if table.shape[0] != want_rows:
            problems.append(f"{table.shape[0]} rows, expected {want_rows}")
        missing = sorted(set(want_keys) - set(summary))
        if missing:
            problems.append(f"summary lacks {missing}")
        if not problems:
            problems += self._oracle_problems(summary, table)
        return problems, hashlib.sha256(csv + b"\0" + summary_bytes).hexdigest()

    def _core_times(self, trim: int = 0):
        a, b, n = self.grid["a"], self.grid["b"], self.grid["n"]
        return a + np.arange(trim, n + 1 - trim) * (b - a) / n

    def _expected_shape(self):
        cmd, n = self.command, self.grid["n"]
        if cmd == "deriv":
            return ["t", "re_1", "im_1"], ["n_nodes", "max_abs", "l2"], n + 1
        if cmd == "functional":
            return ["t", "re_1", "im_1"], ["value_re", "value_im", "n_nodes"], n + 1
        if cmd in ("check-el", "check-dbr"):
            return ["t", "re_1", "im_1"], ["max_abs", "l2", "n_nodes"], n + 1 - 2 * self.steps
        if cmd == "invariance":
            keys = ["derivative_re", "derivative_im", "integral_re", "integral_im"]
            keys += ["difference_abs", "n_nodes"]
            return ["t", "re_1", "im_1"], keys, n + 1
        if cmd == "noether":
            return ["t", "c_re", "c_im"], ["mean_re", "mean_im", "drift", "n_nodes"], n + 1
        if cmd == "schrodinger":
            dim = len(self.oracle["q0"])
            cols = [f"{part}_{k}" for k in range(1, dim + 1) for part in ("re", "im")]
            keys = [
                "residual_max_abs", "drift_thm", "mean_thm_re", "mean_thm_im", "drift_variant",
                "mean_variant_re", "mean_variant_im", "forms_max_difference", "n_nodes",
            ]
            return ["t"] + cols + ["c_thm_re", "c_thm_im", "c_var_re", "c_var_im"], keys, n + 1
        keys = ["alpha", "fit_residual", "delta_min", "delta_max", "theory_alpha"]
        return ["delta", "m_max"], keys, len(ROUGHNESS_DELTAS)

    def _oracle_problems(self, s: dict, table: np.ndarray) -> list:
        cmd, o, eps = self.command, self.oracle, self.eps
        problems = []

        def expect(cond, what):
            if not cond:
                problems.append(what)

        if cmd == "holder":
            expect(np.array_equal(table[:, 0], ROUGHNESS_DELTAS), "deltas column changed")
            expect(bool(np.all(table[:, 1] > 0)), "non-positive oscillation")
            expect(_close(s["theory_alpha"], o["alpha"], 1e-9), "theory_alpha mismatch")
            expect(_close(s["alpha"], o["alpha"], 0.15), f"alpha {s['alpha']} far from {o['alpha']}")
            return problems
        trim = self.steps if cmd in ("check-el", "check-dbr") else 0
        ts = self._core_times(trim)
        expect(np.allclose(table[:, 0], ts, rtol=0, atol=1e-9), "time column off the grid")
        z = table[:, 1] + 1j * table[:, 2]
        if cmd == "deriv":
            mu = {"1": 1, "-1": -1, "0": 0, "i": 1j, "-i": -1j}[o["mu"]]
            want = 2 * o["c2"] * ts + o["c1"] + 1j * mu * o["c2"] * eps
            expect(np.max(np.abs(z - want)) <= 1e-6, "box q of the parabola is off")
            expect(_close(s["max_abs"], float(np.max(np.abs(want))), 1e-6), "max_abs off")
        elif cmd == "functional":
            want = 0.5 * o["mass"] * o["slope"] ** 2
            expect(np.max(np.abs(z - want)) <= 1e-8, "integrand of the free particle is off")
            expect(_close(s["value_re"], want * self.grid["b"], 1e-8), "action value off")
        elif cmd == "noether":
            want = -0.5 * o["slope"] ** 2
            expect(np.max(np.abs(z - want)) <= 1e-8, "Noether samples are off")
            expect(_close(s["mean_re"], want, 1e-8), f"Noether mean {s['mean_re']} != {want}")
        elif cmd in ("check-el", "check-dbr"):
            tol = _extremal_tolerance(cmd, o["amp"], o["omega"], eps)
            expect(s["max_abs"] <= tol, f"{cmd} residual {s['max_abs']:.3g} exceeds {tol:.3g}")
            expect(np.max(np.abs(z)) <= tol, f"{cmd} residual samples exceed {tol:.3g}")
        elif cmd == "invariance":
            w, amp, ph = o["omega"], o["amp"], o["phase"]
            want_z = -w * w * amp * np.cos(w * ts + ph)
            expect(np.max(np.abs(z - want_z)) <= 1e-8, "invariance integrand is off")
            want = -amp * w * (math.sin(w * self.grid["b"] + ph) - math.sin(ph))
            expect(_close(s["integral_re"], want, 1e-6 * (1 + abs(want))), "invariance integral off")
            expect(s["difference_abs"] <= 1e-9, "invariance derivative and integral disagree")
        elif cmd == "schrodinger":
            dim = len(o["q0"])
            q = table[:, 1 : 1 + 2 * dim : 2] + 1j * table[:, 2 : 2 + 2 * dim : 2]
            want_q = np.asarray(o["q0"]) * np.exp(1j * np.outer(ts, o["omega"]))
            expect(np.max(np.abs(q - want_q)) <= 1e-6, "trajectory leaves q0*exp(i w t)")
            scale = o["mass"] * max(o["omega"]) ** 2 * max(abs(x) for x in o["q0"]) ** 2
            expect(s["drift_thm"] <= scale * (max(o["omega"]) * eps) ** 2 + 1e-9, "drift_thm too large")
            expect(s["residual_max_abs"] <= 1e-9, "psi does not solve the wave equation")
        return problems


def _extremal_tolerance(cmd: str, amp: float, omega: float, eps: float) -> float:
    """Bound on the EL or DBR residual of an exact extremal, amplitude amp.

    The residual is the O(eps^2) stencil error plus rounding of the samples
    amplified by two nested difference quotients, hence the 1/eps^2 term.
    """
    if cmd in ("check-el", "el"):
        return amp * (omega**4 * eps**2 + 4e-15 / eps**2)
    return amp**2 * (omega**5 * eps**2 + (1 + omega) * 4e-15 / eps**2)


def _parse_csv(data: bytes):
    """Header and float table of a CSV, parsed from the bytes without a list of cells."""
    if not data.endswith(b"\n") or b"\r" in data:
        raise ValueError("CSV must end with LF and use LF line endings")
    header = data[: data.index(b"\n")].decode("ascii").split(",")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty body is checked by the row count
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2, encoding=None)
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.shape[1] != len(header):
        raise ValueError("CSV rows do not match the header")
    if not np.isfinite(table).all():
        raise ValueError("non-finite CSV value")
    return header, table


class LibraryPass(Operation):
    """One pass of direct API calls on the 3-D coupled oscillator; no file I/O."""

    label = "library"

    def __init__(self, sv, data: dict):
        super().__init__()
        self.sv = sv
        g = data["grid"]
        self.grid = sv.make_grid(g["a"], g["b"], g["n"], g["pad"])
        self.path = sv.Path.from_samples(self.grid, data["samples"], label="modes")
        self.sp = sv.ScaleParams(data["epsilon"], "0")
        self.params = data["params"]
        self.L_text = data["L"]
        self.probe_times = [self.grid.node(int(k)) for k in data["probe_nodes"]]
        self.sweep_epsilons = data["sweep_epsilons"]
        self.oracle = data["_oracle"]
        self.oracle["probe_nodes"] = data["probe_nodes"]
        self.work = g["n"] + 1

    def run(self):
        sv = self.sv
        Lg = sv.LagrangianSpec.from_text(self.L_text, dim=3, params=self.params)
        time_shift = sv.SymmetrySpec.from_text("1", ["0", "0", "0"], dim=3)
        q1_shift = sv.SymmetrySpec.from_text("0", ["1", "0", "0"], dim=3)
        p, sp = self.path, self.sp
        return {
            "action": sv.evaluate_functional(Lg, p, sp),
            "el": sv.euler_lagrange_residual(Lg, p, sp),
            "dbr": sv.dubois_reymond_residual(Lg, p, sp),
            "inv_derivative": sv.invariance_derivative(Lg, p, q1_shift, sp),
            "inv_integral": sv.invariance_integrand_integral(Lg, p, q1_shift, sp),
            "noether": sv.noether_constant(Lg, p, time_shift, sp),
            "sweeps": [
                sv.quantum_derivative(p, "0", self.sweep_epsilons, t=t).limit_estimate
                for t in self.probe_times
            ],
        }

    def _verify(self, r):
        o, eps = self.oracle, self.sp.epsilon
        w, rot, amp, ph = o["omega"], o["rot"], o["amp"], o["phase"]
        a, b = self.grid.a, self.grid.b
        problems = []

        def expect(cond, what):
            if not cond:
                problems.append(what)

        wmax = float(np.max(w))
        size = float(np.sum(amp * w**2))
        # action: L = -sum_j (A_j w_j)^2 cos(2 theta_j) / 2 on an exact extremal
        sin2 = np.sin(2 * (w * b + ph)) - np.sin(2 * (w * a + ph))
        action = float(-np.sum(amp**2 * w * sin2) / 4)
        expect(_close(r["action"].real, action, 0.1 * (wmax * eps) ** 2 * size + 1e-6), "action off")
        for key in ("el", "dbr"):
            # three coupled components: allow each mode's bound three times
            tol = 3 * _extremal_tolerance(key, float(np.sum(amp)), wmax, eps)
            expect(r[key].max_abs <= tol, f"{key} residual {r[key].max_abs:.3g} exceeds {tol:.3g}")
        # integrand dL/dq1 = -(K q)_1; its integral over [a, b] in closed form
        sin1 = np.sin(w * b + ph) - np.sin(w * a + ph)
        want = float(-np.sum(rot[0] * amp * w * sin1))
        expect(_close(r["inv_integral"].real, want, 1e-6 * (1 + abs(want))), "invariance integral off")
        expect(abs(r["inv_derivative"] - r["inv_integral"]) <= 1e-9, "invariance forms disagree")
        energy = float(0.5 * np.sum((amp * w) ** 2))
        expect(_close(r["noether"].mean.real, -energy, (wmax * eps) ** 2 * energy), "Noether energy off")
        expect(r["noether"].drift <= (wmax * eps) ** 2 * energy, "Noether drift too large")
        ts = o["ts"][o["probe_nodes"]]
        exact = -(np.sin(np.outer(ts, w) + ph) * amp * w) @ rot.T
        got = np.asarray(r["sweeps"])
        expect(np.max(np.abs(got - exact)) <= 2e-8, "quantum_derivative sweep off the derivative")
        h = hashlib.sha256()
        for key in ("action", "inv_derivative", "inv_integral"):
            h.update(np.complex128(r[key]).tobytes())
        for key in ("el", "dbr"):
            h.update(r[key].residuals.tobytes())
        h.update(r["noether"].constant_samples.tobytes())
        h.update(got.tobytes())
        return problems, h.hexdigest()


def build(name: str, seed: int, workdir: str, sv) -> list:
    """The operation pool of one workload, bound to the scalevar package `sv`."""
    data = INPUTS[name](seed)
    if name == "library":
        return [LibraryPass(sv, data)]
    from scalevar import cli

    return [CliOperation(cli, cfg, workdir, k) for k, cfg in enumerate(data)]


WORK_UNIT = {
    "trajectory": "RK4 steps",
    "batch_csv": "core grid nodes",
    "library": "core grid nodes",
    "roughness": "oscillation probes",
}
