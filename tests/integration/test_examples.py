"""Smoke tests: the shipped examples run end to end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "[Thm 2.1]" in out
        assert "[Thm 5.2a]" in out
        assert "delivery 100%" in out

    def test_compact_routing(self):
        out = _run("compact_routing.py")
        assert "Thm 4.2 two-mode" in out
        assert "100.0%" in out

    def test_meridian_demo(self):
        out = _run("meridian_demo.py")
        assert "nodes/ring" in out

    def test_distributed_rings(self):
        out = _run("distributed_rings.py")
        assert "valid r-net: True" in out
        assert "coverage gap" in out
        assert "6 repair probes/epoch" in out
