import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rolecomms
from rolecomms.potential_field import FieldParams
from rolecomms.table_sim import Limits, Workspace

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def fresh_python():
    """Runs a script, with arguments, in a fresh interpreter that imports the
    rolecomms under test, and returns what it prints."""
    src = str(Path(rolecomms.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(script: str, *args: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        return done.stdout

    return run


@pytest.fixture(scope="session")
def table1_config_dict() -> dict:
    return json.loads((CONFIG_DIR / "table1.json").read_text())


@pytest.fixture()
def default_field() -> FieldParams:
    return FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)


@pytest.fixture()
def default_limits() -> Limits:
    return Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)


@pytest.fixture()
def default_workspace() -> Workspace:
    return Workspace(x_range=(1.4, 9.3), y_range=(-3.5, 3.5), clearance=1.4)
