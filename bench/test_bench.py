"""Tests of the benchmark itself: inputs, checks, failure counting and tracing.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def sv():
    return run_bench.import_scalevar()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    assert workloads.inputs_digest(name, 7) == workloads.inputs_digest(name, 7)
    assert workloads.inputs_digest(name, 7) != workloads.inputs_digest(name, 8)


@pytest.mark.parametrize("name", ["trajectory", "batch_csv"])
def test_generated_grids_are_valid(name):
    for seed in range(20):
        for cfg in workloads.INPUTS[name](seed):
            g, eps = cfg["grid"], cfg["scale"]["epsilon"]
            h = (g["b"] - g["a"]) / g["n"]
            assert abs(eps / h - round(eps / h)) < 1e-9
            assert g["pad"] >= 2 * eps * (1 - 1e-12)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_operation_passes(name, sv, tmp_path):
    ops = workloads.build(name, 11, str(tmp_path), sv)
    for op in ops:
        elapsed, problems = run_bench.run_checked(op, op.run)
        assert problems == [], op.label
        assert elapsed > 0


def _corrupt_csv(op):
    """Run op, then change one digit in the middle of its CSV."""

    def run():
        rc = op.run()
        path = op.prefix + ".csv"
        data = bytearray(Path(path).read_bytes())
        mid = data.index(b"\n", len(data) // 2) + 1
        while not chr(data[mid]).isdigit():
            mid += 1
        data[mid] = ord("7") if data[mid] != ord("7") else ord("3")
        Path(path).write_bytes(bytes(data))
        return rc

    return run


def test_corrupted_or_rejected_output_counts_as_failed(sv, tmp_path):
    ops = workloads.build("batch_csv", 3, str(tmp_path), sv)
    good, bad = ops[0], ops[1]
    cfg = json.loads(Path(ops[2].config_path).read_text())
    cfg["grid"].update(n=1500, b=1.0)
    cfg["scale"]["epsilon"] = 0.001
    Path(ops[2].config_path).write_text(json.dumps(cfg))
    samples = []
    for op, call in ((good, good.run), (bad, _corrupt_csv(bad)), (ops[2], ops[2].run)):
        elapsed, problems = run_bench.run_checked(op, call)
        samples.append((op.label, elapsed, op.work, problems))
    assert samples[0][3] == []
    assert samples[1][3], "a corrupted CSV row passed the checks"
    assert samples[2][3] == ["exit code 2"]
    _, extra = run_bench.end_to_end(samples, setup_s=0.1)
    assert extra["ops_failed_frac"] == pytest.approx(2 / 3)


@pytest.mark.parametrize(
    "data",
    [b"t,a\n1,2\n3\n", b"t,a\n1,2,3\n", b"t,a\n1,nan\n", b"t,a\n1,2", b"t,a\r\n1,2\r\n", b"t,a\n1,x\n"],
)
def test_malformed_csv_is_rejected(data):
    with pytest.raises(ValueError):
        workloads._parse_csv(data)


def test_rerun_must_match_first_output(sv, tmp_path):
    op = workloads.build("roughness", 5, str(tmp_path), sv)[0]
    assert run_bench.run_checked(op, op.run)[1] == []
    op._digest = "0" * 64
    assert run_bench.run_checked(op, op.run)[1] == ["rerun output differs from the first run"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_adds_up_and_counts_do_not_depend_on_the_seed(name, sv, tmp_path):
    calls = []
    for seed in (2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        ops = workloads.build(name, seed, str(workdir), sv)
        tracer = Tracer()
        tracer.install()
        try:
            for op in ops:
                tracer.run_op(op.run)
        finally:
            tracer.uninstall()
        agg = tracer.summary()
        layers = (*LAYERS, "bench", "trace")
        assert sum(agg["self_s"].get(k, 0.0) for k in layers) == pytest.approx(agg["wall"], rel=1e-9)
        assert agg["calls"]["bench"] == len(ops)
        calls.append(agg["calls"])
    assert calls[0] == calls[1]


def test_tracer_patches_every_binding_and_restores_it(sv):
    import scalevar.cli
    import scalevar.lagdsl
    import scalevar.varcalc

    original = scalevar.lagdsl.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = scalevar.lagdsl.evaluate
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert scalevar.cli.evaluate is wrapped
        assert scalevar.varcalc.evaluate is wrapped
        assert sv.evaluate is wrapped
        expr = sv.parse("((q1 + 1)*(q1 - 2))^2 + sin(q1)/3", 1)
        b = sv.Bindings(q=(sv.lagdsl.np.arange(5.0),))
        tracer.run_op(lambda: sv.evaluate(expr, b))
        assert scalevar.lagdsl.evaluate is wrapped  # set back after the outermost call
    finally:
        tracer.uninstall()
    assert scalevar.lagdsl.evaluate is original and scalevar.cli.evaluate is original
    agg = tracer.summary()
    assert agg["calls"]["lagdsl.evaluate"] == 1  # one span for the whole recursive walk
    assert agg["mean_width"]["lagdsl.evaluate"] == 5


def test_tail_has_ten_samples_beyond_it():
    times = [float(k) for k in range(1, 101)]
    assert run_bench.tail(times) == (90, 90.0)
    pct, value = run_bench.tail([float(k) for k in range(1, 38)])
    assert sum(t > value for t in range(1, 38)) >= 10 and pct == 72


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "library", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot benchmark" in proc.stderr
