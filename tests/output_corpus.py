"""Byte-identity corpus: a sha256 of every output that the bundled configs and the
benchmark operations produce, held in a committed manifest.

    python tests/output_corpus.py                   # print "<name> <sha256>" per output
    python tests/output_corpus.py --src OTHER/src   # the same, with scalevar from OTHER/src
    python tests/output_corpus.py --write-manifest  # rewrite tests/output_manifest.json

The outputs are:
- the bundled configs at their own grid.n and at 10x grid.n;
- the 2-D `schrodinger` run (two components and a parameter) at 1x and 10x grid.n;
- every trajectory, batch_csv and roughness operation of bench seeds 1-3;
- the library result digest of the same seeds.

A CLI output's digest covers its CSV and its summary; a failed run is recorded
as "exit <code>".  The inputs always come from this tree (configs/ and bench/),
and only the scalevar package may come from elsewhere, so two trees are
compared on the same inputs.  numpy's float64 kernels take SIMD paths chosen by
CPU features, so the manifest also holds the fingerprint of the host that wrote
it; a digest is only comparable on a host with the same fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"
SEEDS = (1, 2, 3)
CLI_WORKLOADS = ("trajectory", "batch_csv", "roughness")
# the 2-D schrodinger run: two components and a parameter
TWO_D = (
    "problem.psi=exp(-(q1^2 + 2*q2^2)/2)*exp(-i*k*t)",
    'problem.params={"k": 1.5}',
    "problem.potential=0.5*q1^2 + 2*q2^2",
    "problem.q0=[0.6, -0.4]",
)


def fingerprint() -> dict:
    """The parts of the host that decide numpy's float64 bits."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{flag: bool(features.get(flag)) for flag in ("AVX512_SKX", "AVX2", "FMA3")},
    }


def _output_digest(rc: int, prefix: str) -> str:
    if rc != 0:
        return f"exit {rc}"
    h = hashlib.sha256()
    for suffix in (".csv", ".summary.json"):
        h.update(pathlib.Path(prefix + suffix).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def bundled_runs():
    """(name, config path, overrides) of every bundled-config run."""
    for config in sorted((ROOT / "configs").glob("*.json")):
        n = json.loads(config.read_text(encoding="utf-8"))["grid"]["n"]
        yield config.stem, config, ()
        yield f"{config.stem}.10x", config, (f"grid.n={10 * n}",)
    gaussian = ROOT / "configs" / "schrodinger_gaussian.json"
    yield "schrodinger_gaussian.2d", gaussian, TWO_D
    yield "schrodinger_gaussian.2d.10x", gaussian, (*TWO_D, "grid.n=10000")


def bench_workloads():
    """The benchmark's workloads module, from this tree's bench/."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def digests(sv) -> dict:
    """name -> digest of every corpus output, computed with the scalevar package sv."""
    workloads = bench_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, overrides in bundled_runs():
            prefix = str(pathlib.Path(tmp) / name)
            out[name] = _output_digest(sv.cli.run(str(config), (*overrides, f"output={prefix}")), prefix)
        for workload in CLI_WORKLOADS:
            for seed in SEEDS:
                workdir = pathlib.Path(tmp) / f"{workload}.{seed}"
                workdir.mkdir()
                for op in workloads.build(workload, seed, str(workdir), sv):
                    out[f"{workload}/{seed}/{op.label}"] = _output_digest(op.run(), op.prefix)
    for seed in SEEDS:
        (op,) = workloads.build("library", seed, "", sv)
        out[f"library/{seed}"] = op._verify(op.run())[1]
    return out


def _import_scalevar(src: pathlib.Path):
    sys.path.insert(0, str(src))
    import scalevar
    import scalevar.cli

    where = pathlib.Path(scalevar.__file__).resolve().parent
    if where != src / "scalevar":
        raise ImportError(f"scalevar was imported from {where}, not from {src}")
    return scalevar


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                    help="directory holding the scalevar package to run (default: this tree's src)")
    ap.add_argument("--write-manifest", action="store_true",
                    help=f"rewrite {MANIFEST.relative_to(ROOT)} with this host's fingerprint")
    ns = ap.parse_args(argv)
    found = digests(_import_scalevar(ns.src.resolve()))
    if ns.write_manifest:
        manifest = {"fingerprint": fingerprint(), "outputs": found}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    else:
        sys.stdout.write("".join(f"{name} {digest}\n" for name, digest in sorted(found.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
