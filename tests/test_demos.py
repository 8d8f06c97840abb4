"""Demo smoke test: each demo script runs to completion.

Demo 05 is the one end-to-end script that trains fusion matrices, fuses
with them and evaluates the result.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import _child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-5]_*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')}"
