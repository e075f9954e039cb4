"""Every demo script runs to the end without a word on stderr."""

from __future__ import annotations

from pathlib import Path

import pytest

from test_guard import run_child

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    done = run_child([str(demo)], timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
