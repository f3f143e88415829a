import contextlib
import io
import json
import math
import os
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_series_rows, reference_write_csv
from scalevar import NumericalError
from scalevar.cli import _csv_text, _table, run
from scalevar.lagdsl import MAX_DEPTH

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))


def _run(tmp_path, config, *overrides):
    prefix = tmp_path / "out" / pathlib.Path(config).stem
    code = run(str(config), [f"output={prefix}", *overrides])
    return code, prefix.with_suffix(".csv"), prefix.parent / (prefix.name + ".summary.json")


def test_bundled_configs_exist():
    assert len(BUNDLED) == 8
    commands = {json.loads(c.read_text())["command"] for c in BUNDLED}
    assert commands == {
        "deriv",
        "functional",
        "check-el",
        "check-dbr",
        "invariance",
        "noether",
        "schrodinger",
        "holder",
    }


@pytest.mark.parametrize("config", BUNDLED, ids=lambda c: c.stem)
def test_bundled_configs_run_deterministically(tmp_path, config):
    code, csv_path, summary_path = _run(tmp_path / "one", config)
    assert code == 0
    first_csv = csv_path.read_bytes()
    first_summary = summary_path.read_bytes()
    code2, csv2, summary2 = _run(tmp_path / "two", config)
    assert code2 == 0
    assert csv2.read_bytes() == first_csv
    assert summary2.read_bytes() == first_summary
    # no temp leftovers from the atomic writes
    assert not list(csv_path.parent.glob("*.tmp"))


def test_csv_format(tmp_path):
    code, csv_path, _ = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json")
    assert code == 0
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,c_re,c_im"
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == sorted(ts)
    # shortest round-trip decimals: parsing back and re-printing is identity
    for cell in lines[1].split(","):
        assert repr(float(cell)) == cell


def test_noether_summary_values(tmp_path):
    code, _, summary_path = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json")
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["command"] == "noether"
    assert summary["drift"] < 1e-12
    assert abs(summary["mean_re"] + 0.5) < 1e-12
    assert abs(summary["mean_im"]) < 1e-15


def test_schrodinger_summary_values(tmp_path):
    code, csv_path, summary_path = _run(tmp_path, CONFIG_DIR / "schrodinger_gaussian.json")
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["residual_max_abs"] < 1e-12
    assert summary["drift_thm"] < 1e-4
    assert 0.1 < summary["drift_variant"] < 10.0
    header = csv_path.read_text().split("\n", 1)[0]
    assert header == "t,re_1,im_1,c_thm_re,c_thm_im,c_var_re,c_var_im"


def test_set_override_changes_run(tmp_path):
    config = CONFIG_DIR / "noether_free_particle.json"
    _, _, s1 = _run(tmp_path / "a", config)
    _, _, s2 = _run(tmp_path / "b", config, "scale.epsilon=0.002")
    assert json.loads(s1.read_text()) != json.loads(s2.read_text())


def test_invalid_mu_names_field(tmp_path, capsys):
    code, _, _ = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json", 'scale.mu="2"')
    assert code == 2
    assert "scale.mu" in capsys.readouterr().err


def test_nonstring_mu_rejected(tmp_path, capsys):
    code, _, _ = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json", "scale.mu=1")
    assert code == 2
    assert "scale.mu" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "noether_free_particle.json").read_text())
    del cfg["grid"]["n"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), []) == 2
    assert 'missing field "grid.n"' in capsys.readouterr().err


def test_bad_expression_reports_column(tmp_path, capsys):
    code, _, _ = _run(
        tmp_path, CONFIG_DIR / "noether_free_particle.json", 'problem.L="0.5*v1^^2"'
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "problem.L" in err and "column" in err


def test_epsilon_not_multiple_of_step(tmp_path, capsys):
    code, _, _ = _run(
        tmp_path, CONFIG_DIR / "noether_free_particle.json", "scale.epsilon=0.0015"
    )
    assert code == 2
    assert "scale.epsilon" in capsys.readouterr().err


def test_unknown_command_rejected(tmp_path, capsys):
    code, _, _ = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json", 'command="solve"')
    assert code == 2
    assert "command" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(str(tmp_path / "nope.json"), []) == 2


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad), []) == 2
    assert "JSON" in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path, capsys):
    code, _, _ = _run(
        tmp_path,
        CONFIG_DIR / "holder_weierstrass.json",
        "problem.weierstrass=null",
        'problem.path="1"',
        "grid.n=1024",
        'problem.deltas=[0.125,0.0625,0.03125]',
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ("problem.deltas=[0.1,0.2,0.05]", "problem.deltas"),
        ("problem.deltas=[0.1,-0.05]", "problem.deltas"),
        ("problem.deltas=[1.5,1.2,1.1]", "problem.deltas"),
        ("problem.sample_count=1", "problem.sample_count"),
        ("problem.sample_count=true", "problem.sample_count"),
        ("problem.sample_count=1000000000000", "problem.sample_count"),
    ],
)
def test_holder_config_errors_name_their_field(tmp_path, capsys, override, field):
    code, csv_path, _ = _run(tmp_path, CONFIG_DIR / "holder_weierstrass.json", override)
    assert code == 2
    err = capsys.readouterr().err
    assert f'invalid field "{field}"' in err
    assert "Traceback" not in err
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "config, override, field",
    [
        ("schrodinger_gaussian", 'problem.q0=[["a",1]]', "problem.q0[0]"),
        ("schrodinger_gaussian", 'problem.q0=[[1,"x"]]', "problem.q0[0]"),
        ("schrodinger_gaussian", "problem.q0=[[null,1]]", "problem.q0[0]"),
        ("schrodinger_gaussian", "problem.q0=[[true,false]]", "problem.q0[0]"),
        ("schrodinger_gaussian", "problem.q0=[1e400]", "problem.q0[0]"),
        ("noether_free_particle", "problem.params.w=[0,1e400]", "problem.params.w"),
        ("deriv_parabola", "grid.n=true", "grid.n"),
        ("deriv_parabola", "grid.n=1000000000000", "grid.n"),
        # grids that pad past the node limit: rejected before anything is allocated
        ("deriv_parabola", "grid.pad=1e300", "grid"),
        ("check_el_oscillator", "grid.b=1e-300", "grid"),
        ("check_el_oscillator", "grid.pad=1000000000000", "grid"),
        # constants the library classes also check, read where the cli reads them
        ("schrodinger_gaussian", "problem.hbar=-1", "problem.hbar"),
        ("schrodinger_gaussian", "problem.m=0", "problem.m"),
        ("invariance_time_translation", "problem.s_step=0.5", "problem.s_step"),
        ("invariance_time_translation", "problem.s_step=1e-14", "problem.s_step"),
        ("invariance_time_translation", "problem.s_step=1e-300", "problem.s_step"),
        # floats near 1e15 are 0.125 apart, so 100 steps of 0.01 would share nodes
        ("deriv_parabola", 'grid={"a": 1e15, "b": 1000000000000001.0, "n": 100, "pad": 0.02}', "grid"),
    ],
)
def test_config_value_errors_name_their_field(tmp_path, capsys, config, override, field):
    code, csv_path, _ = _run(tmp_path, CONFIG_DIR / f"{config}.json", override)
    assert code == 2
    err = capsys.readouterr().err
    assert f'invalid field "{field}": ' in err
    assert "Traceback" not in err
    assert not csv_path.exists()


def test_noether_does_not_read_the_group_parameter_step(tmp_path):
    config = CONFIG_DIR / "noether_free_particle.json"
    code, csv_path, summary_path = _run(tmp_path / "bundled", config)
    assert code == 0
    code, csv2, summary2 = _run(tmp_path / "stepped", config, "problem.s_step=0.5")
    assert code == 0
    assert (csv2.read_bytes(), summary2.read_bytes()) == (
        csv_path.read_bytes(), summary_path.read_bytes()
    )


@pytest.mark.parametrize(
    "config, override, label",
    [
        ("invariance_time_translation", 'problem.tau="exp(800*q1)"', "tau"),
        ("invariance_time_translation", 'problem.xi="exp(800*q1)"', "xi"),
        ("check_el_oscillator", 'problem.L="exp(-900*v1)"', "momentum"),
        ("check_dbr_oscillator", 'problem.path="1e300*t"', "energy"),
        ("deriv_parabola", 'problem.path="exp(800*t)"', "problem.path"),
    ],
)
def test_non_finite_intermediate_path_is_named(tmp_path, capsys, config, override, label):
    # numpy warns before the path check; only the message is checked here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, csv_path, _ = _run(tmp_path, CONFIG_DIR / f"{config}.json", override)
    assert code == 3
    err = capsys.readouterr().err
    assert f"numerical failure: path {label!r} contains non-finite samples" in err
    assert not csv_path.exists()


def test_holder_summary_reports_theory_alpha(tmp_path):
    code, _, summary_path = _run(tmp_path, CONFIG_DIR / "holder_weierstrass.json")
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert abs(summary["alpha"] - summary["theory_alpha"]) < 0.1
    assert summary["delta_max"] == 0.125


@pytest.mark.parametrize(
    "field, text, column",
    [
        ("problem.path", "1e400*t", 1),
        ("problem.path", "t + 1e400-1e400", 5),
        ("problem.L", "0.5*v1^2 + exp(1000)", 12),
    ],
)
def test_non_finite_constant_exits_two_naming_field(tmp_path, capsys, field, text, column):
    config = CONFIG_DIR / "noether_free_particle.json"
    code, _, _ = _run(tmp_path, config, f"{field}={json.dumps(text)}")
    assert code == 2
    err = capsys.readouterr().err
    assert f'invalid field "{field}"' in err and f"(column {column})" in err
    assert "not finite" in err


def test_expression_depth_cap_through_the_cli(tmp_path, capsys):
    config = CONFIG_DIR / "deriv_parabola.json"
    at_cap = json.dumps("+".join(["t"] * MAX_DEPTH))
    code, _, summary_path = _run(tmp_path / "ok", config, f"problem.path={at_cap}")
    assert code == 0
    assert json.loads(summary_path.read_text())["max_abs"] == pytest.approx(MAX_DEPTH)
    too_deep = json.dumps("+".join(["t"] * 3000))
    code, _, _ = _run(tmp_path / "deep", config, f"problem.path={too_deep}")
    assert code == 2
    err = capsys.readouterr().err
    assert 'invalid field "problem.path"' in err and "deeper than" in err


def test_stale_temp_directory_does_not_block_the_run(tmp_path):
    config = CONFIG_DIR / "noether_free_particle.json"
    code, csv_path, _ = _run(tmp_path / "ref", config)
    assert code == 0
    prefix = tmp_path / "out" / "noether_free_particle"
    blocker = pathlib.Path(str(prefix) + ".csv.tmp")
    blocker.mkdir(parents=True)
    code, csv2, _ = _run(tmp_path, config)
    assert code == 0
    assert csv2.read_bytes() == csv_path.read_bytes()
    assert blocker.is_dir() and sorted(p.name for p in csv2.parent.iterdir()) == [
        "noether_free_particle.csv",
        "noether_free_particle.csv.tmp",
        "noether_free_particle.summary.json",
    ]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    code, csv_path, _ = _run(tmp_path, CONFIG_DIR / "noether_free_particle.json")
    assert code == 2
    assert "cannot replace" in capsys.readouterr().err
    assert list(csv_path.parent.iterdir()) == []


def test_failed_summary_write_keeps_the_previous_pair(tmp_path, monkeypatch, capsys):
    config = CONFIG_DIR / "noether_free_particle.json"
    code, csv_path, summary_path = _run(tmp_path, config)
    assert code == 0
    before = csv_path.read_bytes(), summary_path.read_bytes()
    replace = os.replace

    def refuse_summary(src, dst):
        if str(dst).endswith(".summary.json"):
            raise PermissionError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_summary)
    # a changed epsilon changes both files, so a half-committed pair would show
    code, _, _ = _run(tmp_path, config, "scale.epsilon=0.002")
    assert code == 2
    assert "cannot replace" in capsys.readouterr().err
    assert (csv_path.read_bytes(), summary_path.read_bytes()) == before
    assert sorted(p.name for p in csv_path.parent.iterdir()) == [
        "noether_free_particle.csv",
        "noether_free_particle.summary.json",
    ]
    # with no earlier pair, the new CSV is removed again
    code, fresh_csv, _ = _run(tmp_path / "fresh", config)
    assert code == 2
    assert list(fresh_csv.parent.iterdir()) == []


def test_run_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    def refuse(mask):
        raise AssertionError("os.umask changes a process-wide setting")

    monkeypatch.setattr(os, "umask", refuse)
    code, csv_path, summary_path = _run(tmp_path, CONFIG_DIR / "deriv_parabola.json")
    assert code == 0 and csv_path.exists() and summary_path.exists()


def test_outputs_keep_the_default_file_mode(tmp_path):
    code, csv_path, summary_path = _run(tmp_path, CONFIG_DIR / "deriv_parabola.json")
    assert code == 0
    umask = os.umask(0)
    os.umask(umask)
    for path in (csv_path, summary_path):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_run_keeps_the_previous_outputs(tmp_path, capsys):
    config = CONFIG_DIR / "check_el_oscillator.json"
    code, csv_path, summary_path = _run(tmp_path, config)
    assert code == 0
    before = csv_path.read_bytes(), summary_path.read_bytes()
    # the CSV is finite, the summary's l2 overflows: neither file may change
    code, _, _ = _run(tmp_path, config, 'problem.L="exp(700*v1^2)"')
    assert code == 3
    assert "summary" in capsys.readouterr().err
    assert (csv_path.read_bytes(), summary_path.read_bytes()) == before
    assert sorted(p.name for p in csv_path.parent.iterdir()) == [
        "check_el_oscillator.csv",
        "check_el_oscillator.summary.json",
    ]


@pytest.mark.parametrize(
    "config, L, where",
    [
        ("functional_free_particle", "exp(800*v1)", 'output column "re_1" at t=0.0'),
        ("check_el_oscillator", "exp(700*v1^2)", 'summary key "l2"'),
    ],
)
def test_non_finite_value_is_located(tmp_path, capsys, config, L, where):
    config = CONFIG_DIR / f"{config}.json"
    code, csv_path, summary_path = _run(tmp_path, config, f"problem.L={json.dumps(L)}")
    assert code == 3
    assert f"numerical failure: non-finite value in {where}" in capsys.readouterr().err
    assert not csv_path.exists() and not summary_path.exists()


def test_integer_power_overflow_in_a_derivative_exits_two(tmp_path, capsys):
    # d/dv1 of v1/1e200 folds the quotient rule's 1e200^2
    config = CONFIG_DIR / "functional_free_particle.json"
    code, _, _ = _run(tmp_path, config, 'problem.L="v1/1e200"')
    assert code == 2
    err = capsys.readouterr().err
    assert 'invalid field "problem.L"' in err and "overflow" in err


def test_integer_power_overflow_at_run_time_exits_three(tmp_path, capsys):
    code, _, _ = _run(
        tmp_path,
        CONFIG_DIR / "schrodinger_gaussian.json",
        'problem.psi="1+q1^400"',
        "problem.q0=[10.0]",
    )
    assert code == 3
    assert "numerical failure: overflow in power ^400" in capsys.readouterr().err


def test_underflowed_negative_power_in_a_constant_exits_two(tmp_path, capsys):
    # 1e-200^2 underflows to zero, so the folded 1e-200^-2 overflows
    config = CONFIG_DIR / "functional_free_particle.json"
    code, _, _ = _run(tmp_path, config, 'problem.L="v1*1e-200^-2"')
    assert code == 2
    err = capsys.readouterr().err
    assert 'invalid field "problem.L"' in err and "Traceback" not in err


def test_underflowed_negative_power_at_run_time_exits_three(tmp_path, capsys):
    code, _, _ = _run(
        tmp_path,
        CONFIG_DIR / "schrodinger_gaussian.json",
        'problem.psi="1+q1^-2"',
        "problem.q0=[1e-200]",
    )
    assert code == 3
    assert "numerical failure: overflow in power ^-2" in capsys.readouterr().err


def test_non_finite_constant_folded_by_diff_exits_two(tmp_path, capsys):
    # parse folds nothing here; dL/dq1 folds 1.7e306*1000
    config = CONFIG_DIR / "check_el_oscillator.json"
    code, csv_path, _ = _run(tmp_path, config, 'problem.L="0.5*v1^2 + 1.7e306*q1^1000"')
    assert code == 2
    err = capsys.readouterr().err
    assert 'invalid field "problem.L": constant is not finite' in err
    assert not csv_path.exists()


def test_overflowing_weierstrass_frequencies_exit_two(tmp_path, capsys):
    config = CONFIG_DIR / "holder_weierstrass.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, csv_path, _ = _run(tmp_path, config, "problem.weierstrass.b_base=1e300")
    assert code == 2
    err = capsys.readouterr().err
    assert 'invalid field "problem.weierstrass"' in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not csv_path.exists()


# ---------------------------------------------------------------------------
# hostile values in any one config field

# one value of every JSON kind, and numbers at the extremes: 10**12 grid nodes
# or probes would ask for terabytes, so they must fail before any allocation
_HOSTILE = (True, False, None, "", "x", {}, [], [[1, "x"]], [[None, 1]], [[True, False]],
            0, -1, 1e-300, 1e300, -1e300, 10**12)


def _fields(node, path=()):
    """Key paths of every value in a config, containers and list elements included."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _fields(child, path + (key,))


def _with_params(config):
    cfg = json.loads(config.read_text())
    cfg["problem"]["params"] = {"w": [0.5, 0.25]}  # unused, but read and checked
    return cfg


_TARGETS = [
    (config, path)
    for config in BUNDLED
    for path in _fields(_with_params(config))
    if path != ("output",)
]


def _run_hostile(workdir, config, path, value):
    """Run config with value at path; the exit code must be 0, 2 or 3, an exit 2
    must name a config field, and no RuntimeWarning may be emitted."""
    cfg = _with_params(config)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg["output"] = str(workdir / "out")
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(str(config_path))
    assert code in (0, 2, 3)
    if code == 2:
        assert 'invalid field "' in err.getvalue() or 'missing field "' in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(_TARGETS), st.sampled_from(_HOSTILE))
def test_hostile_field_values_exit_0_2_or_3(tmp_path_factory, target, value):
    config, path = target
    _run_hostile(tmp_path_factory.mktemp("hostile"), config, path, value)


# inputs whose grid geometry only a report or the holder series finds: they
# once exited 2 naming no field, or warned and exited 3
_GRID_FOUND_LATE = [
    (config, path, value)
    for config in BUNDLED
    if config.stem != "holder_weierstrass"
    for path, value in [
        (("grid", "pad"), 0),
        (("grid", "pad"), 1e-300),
        (("scale", "epsilon"), 1e300),
        (("scale", "epsilon"), 10**12),
    ]
] + [
    (CONFIG_DIR / "holder_weierstrass.json", ("grid", "b"), 1e300),
    (CONFIG_DIR / "holder_weierstrass.json", ("grid", "a"), -1e300),
]


@pytest.mark.parametrize(
    "config, path, value",
    _GRID_FOUND_LATE,
    ids=[f"{c.stem}-{'.'.join(p)}={v!r}" for c, p, v in _GRID_FOUND_LATE],
)
def test_grid_geometry_found_late_names_the_grid(tmp_path, config, path, value):
    code, err = _run_hostile(tmp_path, config, path, value)
    assert code == 2
    assert err.startswith('scalevar: invalid field "grid": ') and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the table writer against the per-cell reference writer

# signed zeros, subnormals, the extremes, and both ends of repr's switch to exponent form
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1, 1.0)
_FINITE = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _series(draw):
    """(ts, arrays): complex or real arrays of shape (N,) or (N, d), several per row."""
    n = draw(st.integers(0, 5))
    floats = lambda k: draw(st.lists(_FINITE, min_size=k, max_size=k))
    ts = np.array(floats(n), dtype=np.float64)
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.sampled_from([None, 1, 2, 3]))
        shape = (n,) if width is None else (n, width)
        size = math.prod(shape)
        if draw(st.booleans()):
            arr = np.empty(shape, dtype=np.complex128)
            arr.real = np.reshape(floats(size), shape)
            arr.imag = np.reshape(floats(size), shape)
        else:
            arr = np.reshape(np.array(floats(size), dtype=np.float64), shape)
        arrays.append(arr)
    return ts, arrays


def _header(arrays):
    width = 1 + sum(2 * (1 if a.ndim == 1 else a.shape[1]) for a in arrays)
    return ["t"] + [f"c{k}" for k in range(1, width)]


def _reference_bytes(directory, header, ts, arrays) -> bytes:
    prefix = str(directory / "ref")
    reference_write_csv(prefix, header, reference_series_rows(ts, arrays))
    return pathlib.Path(prefix + ".csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(_series())
def test_table_writer_matches_the_per_cell_reference(tmp_path_factory, series):
    ts, arrays = series
    header = _header(arrays)
    table = _table(ts, arrays)
    assert table.dtype == np.float64 and table.shape == (ts.size, len(header))
    expected = _reference_bytes(tmp_path_factory.mktemp("ref"), header, ts, arrays)
    assert _csv_text(header, table).encode() == expected


@settings(max_examples=200, deadline=None)
@given(_series(), st.data())
def test_table_writer_rejects_and_locates_non_finite_values(tmp_path_factory, series, data):
    ts, arrays = series
    if ts.size == 0:
        ts, arrays = np.zeros(1), [np.zeros(1, dtype=np.complex128)]
    target = data.draw(st.integers(-1, len(arrays) - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if target < 0:
        ts = ts.copy()
        ts[data.draw(st.integers(0, ts.size - 1))] = bad
    else:
        arr = arrays[target] = arrays[target].copy()
        flat = arr.reshape(-1)
        k = data.draw(st.integers(0, flat.size - 1))
        part = flat.imag if np.iscomplexobj(arr) and data.draw(st.booleans()) else flat.real
        part[k] = bad
    header = _header(arrays)
    with pytest.raises(NumericalError):
        _reference_bytes(tmp_path_factory.mktemp("ref"), header, ts, arrays)
    rows = reference_series_rows(ts, arrays)
    # the first non-finite cell in row order, where the per-cell writer stopped
    i, j = next(
        (i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if not math.isfinite(x)
    )
    with pytest.raises(NumericalError) as info:
        _csv_text(header, _table(ts, arrays))
    assert str(info.value) == (
        f'non-finite value in output column "{header[j]}" at t={float(rows[i][0])!r}'
    )
