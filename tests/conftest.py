import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's seeded loop populations (``bench/workloads.py``)."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads as wl
    return wl
