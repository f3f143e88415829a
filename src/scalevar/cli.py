"""Batch experiment runner: parse a JSON config, execute one check, emit CSV
plus a JSON summary.

Usage:  scalevar run <config.json> [--set key=value]...

Exit codes: 0 success, 2 validation error (schema, expressions, grids; the
message names the field, and a grid or probe count over _MAX_NODES, or a
holder series of more than _MAX_SERIES_CELLS probe-term cosines, fails before
any allocation), 3 numerical failure (NaN, divergence, degenerate
data).  Each command returns a header, a float64 table and a summary; both
texts are rendered and checked for finiteness before either file is written,
so a failed run writes neither.  CSV numbers are repr() of the float64
values, formatted once per distinct value (by bits) of a column, with no
setting.  Both files are written in full into one temp directory beside the
outputs, then renamed into place as a pair, and are byte-identical across runs
of the same config.  The output prefix must end in a file name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .errors import GridError, NumericalError, ScaleVarError, ValidationError, clipped, shown
from .funcspace import Path, estimate_holder, make_grid, weierstrass
from .lagdsl import Bindings, evaluate, parse
from .scaleops import ScaleParams, parse_mu, scale_derivative_path, trapezoid
from .schrodinger import (
    SchrodingerProblem,
    energy_constant,
    integrate_trajectory,
    schrodinger_residual,
)
from .varcalc import (
    LagrangianSpec,
    ResidualReport,
    SymmetrySpec,
    dubois_reymond_residual,
    euler_lagrange_residual,
    functional_integrand,
    invariance_derivative,
    invariance_integrand,
    modulus,
    noether_constant,
)

__all__ = ["run", "main", "COMMANDS"]

# the most padded grid nodes, or holder probes per delta, a run may allocate
_MAX_NODES = 2_000_000
# the most cosines (probes times series terms) one Weierstrass evaluation may
# allocate, 8 bytes each; the bundled config at _MAX_NODES probes takes 82M
_MAX_SERIES_CELLS = 100_000_000


# ---------------------------------------------------------------------------
# Config plumbing

_MISSING = object()


def _walk(cfg: dict, dotted: str, default=_MISSING):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ValidationError(f'missing field "{dotted}"')
            return default
        node = node[part]
    return node


@contextlib.contextmanager
def _naming(field: str):
    """Name field in a ValidationError raised inside the block."""
    try:
        yield
    except ValidationError as err:
        raise ValidationError(f'invalid field "{clipped(field)}": {err}') from err


def _invalid(field: str, expected, value) -> ValidationError:
    return ValidationError(f'invalid field "{clipped(field)}": expected {expected}, got {shown(value)}')


def _field(cfg, dotted, types, default=_MISSING, what=""):
    value = _walk(cfg, dotted, default)
    if not isinstance(value, types):
        raise _invalid(dotted, what or types, value)
    return value


def _finite(value) -> bool:
    """Whether a JSON value is a finite number (an int within the float range); bools are not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _real(cfg, dotted, default=_MISSING):
    value = _walk(cfg, dotted, default)
    if not _finite(value):
        raise _invalid(dotted, "a finite number", value)
    return float(value)


def _positive(cfg, dotted) -> float:
    """A finite number in (0, inf)."""
    value = _real(cfg, dotted)
    if not value > 0:
        raise _invalid(dotted, "a positive number", value)
    return value


def _count(cfg, dotted) -> int:
    """An integer in [2, _MAX_NODES]; bools are not integers."""
    value = _walk(cfg, dotted)
    if isinstance(value, bool) or not isinstance(value, int) or not 2 <= value <= _MAX_NODES:
        raise _invalid(dotted, f"an integer in [2, {_MAX_NODES}]", value)
    return value


def _complex(field: str, value) -> complex:
    """A finite number, or an [re, im] pair of them, as a complex."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(map(_finite, parts)):
        raise _invalid(field, "a number or [re, im] pair", value)
    return complex(*parts)


def _json_int(digits: str) -> int:
    """A JSON integer; one too long for int() is refused without Python's advice on the limit."""
    if 0 < sys.get_int_max_str_digits() < len(digits.lstrip("-")):
        raise ValueError(f"an integer of {len(digits)} characters exceeds the {sys.get_int_max_str_digits()}-digit limit")
    return int(digits)


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set needs KEY=VALUE, got {shown(item)}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw, parse_int=_json_int)
        except (ValueError, RecursionError):  # not JSON, too deep, or an int too long
            value = raw
        parts = key.split(".")
        node = cfg
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationError(f"--set cannot descend into non-object field {shown(key)}")
        node[parts[-1]] = value
    return cfg


def _load_config(config_path: str, overrides) -> dict:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_int=_json_int)
    except (ValueError, RecursionError) as err:  # not UTF-8 or JSON, too deep, or an int too long
        raise ValidationError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return _apply_overrides(cfg, overrides)


def _config_grid(cfg):
    """The unpadded grid on [a, b]."""
    a = _real(cfg, "grid.a")
    b = _real(cfg, "grid.b")
    n = _count(cfg, "grid.n")
    with _naming("grid"):
        return make_grid(a, b, n)


def _padded(grid, steps):
    """grid padded by the steps a command reads beyond [a, b], its reach, and no further."""
    with _naming("grid"):
        if grid.n + 1 + 2 * steps > _MAX_NODES:
            raise ValidationError(f"{grid.n + 1} nodes and {steps:.7g} steps a side exceed the limit of {_MAX_NODES}")
        return grid.with_pad_steps(steps)


def _config_scale_grid(cfg, stencils=1, default_mu=None):
    """The scale, and the grid padded by the reach of box_eps applied `stencils` times:
    eps beyond [a, b], or 2*eps for the residuals, which apply it twice."""
    grid = _config_grid(cfg)
    epsilon = _real(cfg, "scale.epsilon")
    mu_raw = _walk(cfg, "scale.mu", default=None)
    if mu_raw is None:
        if default_mu is None:
            raise ValidationError('missing field "scale.mu"')
        mu_raw = default_mu
    if not isinstance(mu_raw, str):
        raise _invalid("scale.mu", 'one of the strings "1", "-1", "0", "i", "-i"', mu_raw)
    with _naming("scale.mu"):
        mu = parse_mu(mu_raw)
    with _naming("scale.epsilon"):
        sp = ScaleParams(epsilon, mu)
        steps = grid.steps_of(epsilon)
    return sp, _padded(grid, stencils * steps)


def _config_params(cfg) -> dict:
    raw = _field(cfg, "problem.params", dict, default={}, what="an object")
    for name in raw:  # in config order, by the rule parse applies to every name
        with _naming(f"problem.params.{name}"):
            parse("0", param_names=(name,))
    return {name: _complex(f"problem.params.{name}", value) for name, value in raw.items()}


def _expr_list(cfg, dotted):
    raw = _walk(cfg, dotted)
    if isinstance(raw, str):
        return [raw]
    if isinstance(raw, list) and raw and all(isinstance(x, str) for x in raw):
        return list(raw)
    raise ValidationError(f'invalid field "{dotted}": expected an expression or list of expressions')


def _config_path(cfg, grid, params) -> Path:
    """Sample the configured time-expression path, problem.path, onto the padded grid."""
    dotted = "problem.path"
    texts = _expr_list(cfg, dotted)
    exprs = []
    for k, text in enumerate(texts):
        with _naming(dotted if isinstance(_walk(cfg, dotted), str) else f"{dotted}[{k}]"):
            exprs.append(parse(text, 0, param_names=tuple(params)))
    ts = grid.nodes()
    b = Bindings(t=ts, q=(), v=(), params=params)
    cols = [np.broadcast_to(np.asarray(evaluate(e, b), dtype=np.complex128), ts.shape) for e in exprs]
    return Path.from_samples(grid, np.stack(cols, axis=1), label=dotted)


def _path_problem(cfg, stencils=1):
    """The scale, params and path of every path command, sampled as far as its stencils reach."""
    sp, grid = _config_scale_grid(cfg, stencils)
    params = _config_params(cfg)
    return sp, params, _config_path(cfg, grid, params)


def _config_lagrangian(cfg, params, dim) -> LagrangianSpec:
    text = _field(cfg, "problem.L", str, what="an expression string")
    with _naming("problem.L"):
        return LagrangianSpec.from_text(text, dim=dim, params=params)


def _config_symmetry(cfg, params, dim, stepped=False) -> SymmetrySpec:
    """The generators tau and xi, and with stepped the group-parameter step (invariance only)."""
    tau = _field(cfg, "problem.tau", str, what="an expression string")
    xi = _expr_list(cfg, "problem.xi")
    if len(xi) != dim:
        raise _invalid("problem.xi", f"{dim} components", len(xi))
    s_step = _real(cfg, "problem.s_step", default=1e-4) if stepped else 1e-4
    low, high = SymmetrySpec.S_STEP_RANGE
    if not low <= s_step <= high:
        raise _invalid("problem.s_step", f"a number in [{low}, {high}]", s_step)
    with _naming("problem.tau/problem.xi"):
        return SymmetrySpec.from_text(tau, xi, dim=dim, params=params, s_step=s_step)


# ---------------------------------------------------------------------------
# Output writers


def _write_pair(prefix: str, csv_text: str, summary_text: str) -> None:
    """Write <prefix>.csv, then <prefix>.summary.json, so that the two change together.

    Both texts, and a hard link to the previous CSV, go into one unique
    directory beside the outputs before either output is replaced; open()
    gives the new files the default mode.  If the summary cannot be renamed
    into place, the previous CSV is put back, or the new CSV removed when
    there was none.
    """
    csv_path, summary_path = prefix + ".csv", prefix + ".summary.json"
    parent = os.path.dirname(csv_path) or "."
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(dir=parent, prefix=os.path.basename(csv_path) + ".", suffix=".tmp")
    new_csv, new_summary, old_csv = (os.path.join(staging, n) for n in ("csv", "summary", "old"))
    try:
        for path, text in ((new_csv, csv_text), (new_summary, summary_text)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.link(csv_path, old_csv)
        os.replace(new_csv, csv_path)
        try:
            os.replace(new_summary, summary_path)
        except BaseException:
            if os.path.exists(old_csv):
                os.replace(old_csv, csv_path)
            else:
                os.unlink(csv_path)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _csv_text(header, table: np.ndarray) -> str:
    """CSV text of a float64 table: each number is repr() of its float, rows end in LF.

    Each column's distinct values are formatted once and gathered back; values
    are told apart by their bits, so -0.0 keeps its own repr beside 0.0.
    """
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NumericalError(
            f'non-finite value in output column "{header[j]}" at {header[0]}={float(table[i, 0])!r}'
        )
    cells = np.empty(table.shape, dtype=object)
    for j, bits in enumerate(table.view(np.int64).T):
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = list(map(repr, distinct.view(np.float64).tolist()))
        cells[:, j] = np.array(texts, dtype=object)[inverse]
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    # the header line is the first cell, so the text is assembled once and never copied
    return ("%s\n" + row * table.shape[0]) % ((",".join(header),) + tuple(cells.ravel()))


def _summary_text(summary: dict) -> str:
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalError(f'non-finite value in summary key "{key}"')
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _complex_columns(dim: int):
    return [f"{part}_{k}" for k in range(1, dim + 1) for part in ("re", "im")]


def _table(ts, arrays) -> np.ndarray:
    """Float64 table (t, re, im, ...) from a time vector and complex arrays (N,) or (N, d).

    Viewing complex128 as float64 interleaves each (re, im) pair with its
    exact bits, -0.0 included.
    """
    cols = [np.asarray(ts, dtype=np.float64)[:, None]]
    for arr in arrays:
        z = np.ascontiguousarray(np.asarray(arr, dtype=np.complex128))
        cols.append((z[:, None] if z.ndim == 1 else z).view(np.float64))
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# Commands


def _per_node(ts, columns, arrays, **summary):
    """Output of per-node samples: header t + columns, the (t, arrays...) table, and
    the summary with the node count."""
    return ["t"] + columns, _table(ts, arrays), {"n_nodes": int(ts.size), **summary}


def _pointwise(report: ResidualReport):
    """Output of per-node samples with their max |.| and h-weighted l2 norm."""
    dim = 1 if report.residuals.ndim == 1 else report.residuals.shape[1]
    return _per_node(
        report.node_times, _complex_columns(dim), [report.residuals],
        max_abs=report.max_abs, l2=report.l2,
    )


def _cmd_deriv(cfg):
    sp, _, p = _path_problem(cfg)
    dpath = scale_derivative_path(p, sp)
    core = dpath.grid.core
    samples = ResidualReport.from_samples(dpath.grid.nodes()[core], dpath.values[core], p.grid.h)
    return _pointwise(samples)


def _cmd_functional(cfg):
    sp, params, p = _path_problem(cfg)
    Lg = _config_lagrangian(cfg, params, p.dim)
    ts, integrand, h = functional_integrand(Lg, p, sp)
    value = complex(trapezoid(integrand, h))
    return _per_node(ts, _complex_columns(1), [integrand], value_re=value.real, value_im=value.imag)


def _cmd_residual(cfg, report):
    sp, params, p = _path_problem(cfg, stencils=2)
    Lg = _config_lagrangian(cfg, params, p.dim)
    return _pointwise(report(Lg, p, sp))


def _cmd_invariance(cfg):
    sp, params, p = _path_problem(cfg)
    Lg = _config_lagrangian(cfg, params, p.dim)
    sym = _config_symmetry(cfg, params, p.dim, stepped=True)
    derivative = invariance_derivative(Lg, p, sym, sp)
    ts, integrand, h = invariance_integrand(Lg, p, sym, sp)
    integral = complex(trapezoid(integrand, h))
    return _per_node(
        ts, _complex_columns(1), [integrand],
        derivative_re=derivative.real,
        derivative_im=derivative.imag,
        integral_re=integral.real,
        integral_im=integral.imag,
        difference_abs=modulus(derivative - integral),
    )


def _cmd_noether(cfg):
    sp, params, p = _path_problem(cfg)
    Lg = _config_lagrangian(cfg, params, p.dim)
    sym = _config_symmetry(cfg, params, p.dim)
    report = noether_constant(Lg, p, sym, sp)
    return _per_node(
        report.node_times, ["c_re", "c_im"], [report.constant_samples],
        mean_re=report.mean.real,
        mean_im=report.mean.imag,
        drift=report.drift,
    )


def _cmd_schrodinger(cfg):
    # forward operator by default: consistent with the integrator's dq/dt; the trajectory
    # is integrated as far beyond [a, b] as the energy report's box_eps q reads
    sp, grid = _config_scale_grid(cfg, default_mu="-i")
    params = _config_params(cfg)
    q0_raw = _field(cfg, "problem.q0", list, what="a list of initial components")
    q0 = [_complex(f"problem.q0[{k}]", item) for k, item in enumerate(q0_raw)]
    dim = len(q0)
    if dim < 1:
        raise ValidationError('invalid field "problem.q0": needs at least one component')
    psi = _field(cfg, "problem.psi", str, what="an expression string")
    potential = _field(cfg, "problem.potential", str, what="an expression string")
    hbar = _positive(cfg, "problem.hbar")
    mass = _positive(cfg, "problem.m")
    with _naming("problem.psi/problem.potential"):
        prob = SchrodingerProblem(psi, potential, hbar, mass, dim=dim, params=params)
    traj = integrate_trajectory(prob, q0, grid)
    energy = energy_constant(prob, traj, sp)
    thm, var = energy.theorem, energy.variant
    # core nodes of the energy window coincide with the trajectory's core, so qs aligns
    qs = traj.path.values[traj.path.grid.core]
    residual = schrodinger_residual(prob, thm.node_times, qs)
    return _per_node(
        thm.node_times,
        _complex_columns(dim) + ["c_thm_re", "c_thm_im", "c_var_re", "c_var_im"],
        [qs, thm.constant_samples, var.constant_samples],
        residual_max_abs=residual.max_abs,
        drift_thm=thm.drift,
        mean_thm_re=thm.mean.real,
        mean_thm_im=thm.mean.imag,
        drift_variant=var.drift,
        mean_variant_re=var.mean.real,
        mean_variant_im=var.mean.imag,
        forms_max_difference=float(np.max(np.abs(thm.constant_samples - var.constant_samples))),
    )


def _cmd_holder(cfg):
    grid = _config_grid(cfg)  # the estimator is scale-free: no scale section
    params = _config_params(cfg)
    deltas = _field(cfg, "problem.deltas", list, what="a list of decreasing deltas")
    sample_count = _count(cfg, "problem.sample_count")
    if _walk(cfg, "problem.weierstrass", default=None) is not None:
        a_coef = _real(cfg, "problem.weierstrass.a_coef")
        b_base = _real(cfg, "problem.weierstrass.b_base")
        trunc_tol = _real(cfg, "problem.weierstrass.trunc_tol")
        with _naming("problem.weierstrass"):
            p = weierstrass(a_coef, b_base, trunc_tol)
        terms = p.meta["series_terms"]
        if sample_count * terms > _MAX_SERIES_CELLS:
            raise ValidationError(
                f'invalid field "problem.sample_count": {sample_count} probes of a {terms}-term '
                f"Weierstrass series exceed the limit of {_MAX_SERIES_CELLS} cosines"
            )
        # the series takes cos(t * pi * b_base^k) for t on the grid, k < series_terms
        top = math.pi * b_base ** (terms - 1)
        if not math.isfinite(max(abs(grid.a), abs(grid.b)) * top):
            raise ValidationError('invalid field "grid": the Weierstrass series overflows on it')
    else:  # the probes read only [a, b]
        p = _config_path(cfg, _padded(grid, 0), params)
    if not all(map(_finite, deltas)):
        raise ValidationError('invalid field "problem.deltas": expected numbers')
    deltas_f = [float(d) for d in deltas]
    with _naming("problem.deltas"):
        estimate = estimate_holder(p, deltas_f, sample_count, interval=(grid.a, grid.b))
    header = ["delta", "m_max"]
    table = np.column_stack([deltas_f, estimate.profile])
    summary = {
        "alpha": estimate.alpha,
        "fit_residual": estimate.fit_residual,
        "delta_min": estimate.delta_range[0],
        "delta_max": estimate.delta_range[1],
    }
    if "holder_alpha" in p.meta:
        summary["theory_alpha"] = float(p.meta["holder_alpha"])
    return header, table, summary


_DISPATCH = {
    "deriv": _cmd_deriv,
    "functional": _cmd_functional,
    "check-el": lambda cfg: _cmd_residual(cfg, euler_lagrange_residual),
    "check-dbr": lambda cfg: _cmd_residual(cfg, dubois_reymond_residual),
    "invariance": _cmd_invariance,
    "noether": _cmd_noether,
    "schrodinger": _cmd_schrodinger,
    "holder": _cmd_holder,
}


COMMANDS = tuple(_DISPATCH)


def run(config_path: str, overrides=()) -> int:
    """Execute one experiment config; write <prefix>.csv and <prefix>.summary.json."""
    try:
        cfg = _load_config(config_path, overrides)
        command = _walk(cfg, "command")
        if command not in COMMANDS:
            raise _invalid("command", f"one of {', '.join(COMMANDS)}", command)
        prefix = _field(cfg, "output", str, what="an output path prefix")
        if os.path.basename(prefix) in ("", ".", ".."):  # names a directory, not a file
            raise _invalid("output", "a path prefix ending in a file name", prefix)
        header, table, summary = _DISPATCH[command](cfg)
        csv_text = _csv_text(header, table)
        summary_text = _summary_text({"command": command, **summary})
        _write_pair(prefix, csv_text, summary_text)
    except NumericalError as err:
        print(f"scalevar: numerical failure: {err}", file=sys.stderr)
        return 3
    except GridError as err:  # config readers name their fields; this is geometry a report found
        print(f'scalevar: invalid field "grid": {err}', file=sys.stderr)
        return 2
    except (ScaleVarError, OSError) as err:
        print(f"scalevar: {err}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="scalevar",
        description="Scale-derivative toolkit: batch experiment runner",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a dotted config key, e.g. --set scale.epsilon=0.002",
    )
    ns = ap.parse_args(argv)
    return run(ns.config, ns.overrides)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
