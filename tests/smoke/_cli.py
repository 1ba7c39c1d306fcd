"""Run the repro CLI in a fresh process, the way CI's smoke jobs do."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def run_cli(cwd: pathlib.Path, *args: str) -> None:
    """``python -m repro.cli ARGS`` in ``cwd``, with ``src`` importable;
    raises on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], cwd=cwd, env=env, check=True
    )
