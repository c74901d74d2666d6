"""The package runs on the standard library alone, as the README promises."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import seatsim
print(seatsim.__file__)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _LIST_NEW_MODULES],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    origin, *loaded = result.stdout.split()
    assert origin.startswith(str(REPO_ROOT / "src"))
    assert "seatsim.grid" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"seatsim"}
    ]
    assert foreign == []
