"""Every output of the reference runs against ``reference_artifacts.json``.

The rankings must always match. The bytes of every file must match
whenever numpy and scipy are the versions the reference was made with,
which CI pins. Regenerate with ``python tests/make_reference.py``.
"""

import json

from make_reference import REFERENCE, generate_fresh


def test_outputs_match_reference(tmp_path):
    expected = json.loads(REFERENCE.read_text())
    got = generate_fresh(tmp_path)
    assert got["orders"] == expected["orders"]
    if got["versions"] == expected["versions"]:
        assert sorted(got["digests"]) == sorted(expected["digests"])
        changed = [name for name, digest in got["digests"].items() if expected["digests"][name] != digest]
        assert not changed, f"outputs differ from the reference: {changed}"
