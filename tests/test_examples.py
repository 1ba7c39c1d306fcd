"""Smoke tests: every shipped example must run clean, end to end.

Each example carries its own assertions about the scenario outcome, so
"exit code 0" genuinely means the demo demonstrated what it claims.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_covered():
    """Keep this list in sync with the examples directory."""
    assert ALL_EXAMPLES == sorted(
        [
            "quickstart.py",
            "mitm_eavesdropping.py",
            "scheme_shootout.py",
            "dhcp_dai_lab.py",
            "capture_forensics.py",
            "vlan_segmentation.py",
            "session_hijack.py",
            "l2_dos_and_flood.py",
        ]
    )


@pytest.mark.parametrize(
    "script",
    [name for name in ALL_EXAMPLES if name != "scheme_shootout.py"],
)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_scheme_shootout_runs_clean():
    """The big one (regenerates three tables); given a longer leash."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "scheme_shootout.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Table 1" in result.stdout
    assert "Table 2" in result.stdout
    assert "Table 3" in result.stdout
