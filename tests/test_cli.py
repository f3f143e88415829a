import json
import os
import pathlib

import pytest

from scalevar.cli import max_threads, run
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


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SCALEVAR_THREADS", "4")
    assert max_threads() == 4
    code, csv_path, _ = _run(tmp_path / "mt", CONFIG_DIR / "holder_weierstrass.json")
    assert code == 0
    multi = csv_path.read_bytes()
    monkeypatch.setenv("SCALEVAR_THREADS", "junk")
    assert max_threads() == 1
    code, csv_path, _ = _run(tmp_path / "st", CONFIG_DIR / "holder_weierstrass.json")
    assert code == 0
    assert csv_path.read_bytes() == multi


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


def test_outputs_keep_the_default_file_mode(tmp_path):
    code, csv_path, summary_path = _run(tmp_path, CONFIG_DIR / "deriv_parabola.json")
    assert code == 0
    umask = os.umask(0)
    os.umask(umask)
    for path in (csv_path, summary_path):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
