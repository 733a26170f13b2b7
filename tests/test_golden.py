"""verify, simulate and spin write the bytes recorded in ``tests/golden/``.

The comparison holds only on the build the files were recorded on (see
``golden.py``); on any other, the test skips and names what differs.
Rewrite the files with ``PYTHONPATH=src python tests/golden.py``.
"""

import json

import golden
import pytest


def test_outputs_equal_the_golden_files_byte_for_byte():
    recorded = json.loads((golden.GOLDEN / "fingerprint.json").read_text())
    here = golden.fingerprint()
    differ = []
    for key, now in here.items():
        was = recorded.get(key)
        if key == "cpu_features" and was != now:  # name only the features that differ
            differ.append(f"{key} recorded only {sorted(set(was) - set(now))}, "
                          f"here only {sorted(set(now) - set(was))}")
        elif was != now:
            differ.append(f"{key} recorded {was!r}, here {now!r}")
    if differ:
        pytest.skip("golden files recorded on another build: " + "; ".join(differ))
    names = sorted(p.name for p in golden.GOLDEN.iterdir()
                   if p.name != "fingerprint.json" and not p.name.startswith("state"))
    got = golden.outputs()
    assert sorted(got) == names
    assert [name for name in names if got[name] != (golden.GOLDEN / name).read_bytes()] == []
