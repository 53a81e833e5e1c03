"""The demo scripts run end to end in a scratch directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["01_classify_first_order.py", "02_certify_gsore.py",
                                    "03_simulate_clegg.py", "04_frf_workflow.py"])
def test_demo_exits_cleanly(script, tmp_path, src_env):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=src_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
