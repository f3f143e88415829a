import json

import pytest

import scalevar.cli
from output_corpus import MANIFEST, bench_workloads, digests, fingerprint


def test_outputs_are_byte_identical_to_the_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    recorded, here = manifest["fingerprint"], fingerprint()
    differs = [f"{key} {recorded.get(key)!r} here {value!r}"
               for key, value in here.items() if recorded.get(key) != value]
    if differs:
        pytest.skip("the manifest was written on another host: " + "; ".join(differs))
    found, want = digests(scalevar), manifest["outputs"]
    changed = sorted(name for name in want.keys() | found.keys() if found.get(name) != want.get(name))
    assert changed == []


@pytest.mark.parametrize("workload", ["trajectory", "batch_csv", "library", "roughness"])
def test_seed_one_benchmark_operations_pass_their_oracles(tmp_path, workload):
    # unlike the digests above, the oracles hold on every host
    ops = bench_workloads().build(workload, 1, str(tmp_path), scalevar)
    failed = {op.label: problems for op in ops if (problems := op.check(op.run()))}
    assert failed == {}
