"""Golden soak reports: the four deterministic campaigns, pinned.

Each modeled-latency campaign (``smoke``, ``dirty_overload``,
``crash_recovery``, ``wal_recovery``) is bit-identical across runs and
hosts, so its ``run_soak(name).to_dict()`` is committed under
``tests/data/soak/`` and compared field by field.  A refactor of any
layer the soak composes (guard, queue, WAL, ladder, checkpoints) that
claims to keep behaviour must keep these documents; ``dirty_overload``
walks the ladder through panic, sampling and the rebuild back to exact.

Regenerate a document only for a change that is meant to move it:

    PYTHONPATH=src python -c "import json; from repro.soak import run_soak; \
print(json.dumps(run_soak('smoke').to_dict(), indent=2))" \
> tests/data/soak/smoke.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.soak import run_soak

GOLDEN = Path(__file__).parent / "data" / "soak"
CAMPAIGNS = ("smoke", "dirty_overload", "crash_recovery", "wal_recovery")


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_report_matches_the_golden_document(name):
    text = (GOLDEN / f"{name}.json").read_text()
    expected = json.loads(text)
    doc = run_soak(name).to_dict()
    got = json.loads(json.dumps(doc))
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key] == value, key
    # and byte for byte, as the document was written
    assert json.dumps(doc, indent=2) + "\n" == text
