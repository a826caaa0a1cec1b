"""Every narrative script under demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # the demos write only to temporary directories; tmp_path catches any stray file
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
