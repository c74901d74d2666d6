from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def fig1_path() -> Path:
    return DATA_DIR / "fig1.scenario"


@pytest.fixture(scope="session")
def fig1_scenario(fig1_path):
    from seatsim import parse_scenario

    return parse_scenario(fig1_path.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def closed_workers():
    """Each test starts and ends with no shard workers. A worker keeps the
    module state it had when it was forked, so one forked before a test
    patched a rule or ``_run_range`` would not see the patch."""
    from seatsim import simulation

    simulation._close_workers()
    yield
    simulation._close_workers()
