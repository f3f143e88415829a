import json

import pytest

import scalevar.cli
from output_corpus import MANIFEST, digests, fingerprint


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
