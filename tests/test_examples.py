"""Examples are code too: every ``examples/*.py`` runs to completion.

Three of them drive :class:`~repro.datalog.IncrementalEngine` and read
``engine.db`` / ``trace.events`` / ``trace.net``; nothing else runs
them, so the engine's public surface could drift under them unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert {p.name for p in EXAMPLES} >= {
        "datalog_playground.py",
        "retail_incremental.py",
        "analytics_dashboard.py",
    }


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
