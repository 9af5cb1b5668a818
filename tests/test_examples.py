"""Every example runs to completion and prints its key output line.

Each script runs in a subprocess, exactly as the README tells a reader
to run it, so a renamed or deleted import fails here (``compile()``
would resolve none).  All five take about a second together.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: example → text its output must contain (a new example needs an
#: entry); the last entry of each is printed only once the example's
#: loop has run to its end
KEY_LINES = {
    "approximation_tradeoff.py": ["(exact)", "(≤ 0.5 guaranteed)"],
    "location_game.py": ["top-5 zones", "local sweeps over 61 updates"],
    "multi_query_dashboard.py": [
        "checkpointed and the engine rebuilt from it",
        "tick  40:",
        "block hotspot stability",
    ],
    "quickstart.py": ["best weight", "processed 5100 objects in 51 updates"],
    "urban_sensing.py": ["stadium event begins", "t+ 90 min"],
}


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for line in KEY_LINES[script.name]:
        assert line in proc.stdout, line
    # an example keeps its files in a temporary directory it removes
    assert list(tmp_path.iterdir()) == []
