"""The package runs on the standard library alone, as the README promises,
and each decision it makes has one owning module."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO_ROOT / "src" / "seatsim").glob("*.py"))

_LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import seatsim
print(seatsim.__file__)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _run_python(code, *options, **kwargs):
    """Run ``code`` in a fresh interpreter, started with the command-line
    ``options``, that imports seatsim from src/."""
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *options, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        **kwargs,
    )


def test_import_loads_only_the_standard_library():
    result = _run_python(_LIST_NEW_MODULES)
    origin, *loaded = result.stdout.split()
    assert origin.startswith(str(REPO_ROOT / "src"))
    assert "seatsim.grid" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"seatsim"}
    ]
    assert foreign == []
    # the sharded run_many imports pickle only when it forks
    assert not {"pickle", "multiprocessing", "concurrent.futures", "threading"} & set(loaded)


def test_cli_import_loads_no_dataclasses_typing_or_pathlib():
    # Each took milliseconds of every command's start-up for class
    # definitions, annotations or path objects alone. ``-S`` skips site,
    # whose ``.pth`` files may load some of them on their own.
    result = _run_python("import sys, seatsim.cli; print(*sorted(sys.modules))", "-S")
    loaded = result.stdout.split()
    assert "seatsim.cli" in loaded
    assert [name for name in ("dataclasses", "inspect", "typing", "pathlib")
            if name in loaded] == []


def test_no_process_pool_or_thread_module_in_the_package():
    for path in (REPO_ROOT / "src" / "seatsim").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for module in ("multiprocessing", "concurrent.futures", "threading"):
            assert f"import {module}" not in text, (path.name, module)
            assert f"from {module}" not in text, (path.name, module)


def _library_example():
    """The ``python`` block under README "Library use"."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    result = _run_python(_library_example(), cwd=REPO_ROOT)
    assert result.stdout == (
        "173.849 8.952887746420188\n"
        "Placement(row=7, start_seat=13, size=2)\n"
    )


def test_package_exports_resolve():
    import seatsim

    assert len(seatsim.__all__) == len(set(seatsim.__all__))
    assert [name for name in seatsim.__all__ if not hasattr(seatsim, name)] == []
    namespace = {}
    exec("from seatsim import *", namespace)
    assert set(seatsim.__all__) <= set(namespace)


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _imported(tree, module):
    """The names a module imports with ``from .<module> import ...``."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names]


def _error_classes():
    """Every exception class a seatsim module defines, by name."""
    import importlib

    modules = [importlib.import_module(f"seatsim.{path.stem}") for path in SOURCES]
    return {name: value for module in modules for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__}


def test_every_bad_input_error_is_a_value_error():
    # The command line exits 1 on any ValueError; a row index outside the
    # hall is a caller's fault, not bad input.
    errors = _error_classes()
    assert "ParseError" in errors and "RowOutOfRange" in errors
    assert {name for name, cls in errors.items() if not issubclass(cls, ValueError)} == {
        "RowOutOfRange"
    }


class TestOwnership:
    """Each decision has one module: the score and the grid text in grid.py,
    the scenario and its checks in scenario_io.py, the runs in simulation.py."""

    def test_scenario_io_does_not_import_simulation(self):
        assert _imported(_trees()["scenario_io.py"], "simulation") == []

    def test_only_policies_imports_private_grid_names(self):
        private = {name: [n for n in _imported(tree, "grid") if n.startswith("_")]
                   for name, tree in _trees().items()}
        assert {name for name, names in private.items() if names} == {"policies.py"}

    @pytest.mark.parametrize("attr", ["_entropy", "_from_board"])
    def test_only_grid_touches_the_hall_state(self, attr):
        users = {name for name, tree in _trees().items() for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == attr}
        assert users == {"grid.py"}

    def test_cli_names_no_error_class_but_parse_error(self):
        # ``main`` catches every bad-input error as a ValueError, not by name.
        errors = _error_classes()
        imported = {name for node in ast.walk(_trees()["cli.py"])
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for name in (alias.name for alias in node.names) if name in errors}
        assert imported == {"ParseError"}

    def test_patched_names_are_the_owners(self):
        # ``bench/tracer.py`` patches these module attributes by name.
        import seatsim
        from seatsim import cli, grid, scenario_io, simulation

        assert seatsim.entropy is simulation.entropy is cli.entropy is grid.entropy
        assert scenario_io.validate_scenario is seatsim.validate_scenario
        assert not (REPO_ROOT / "src" / "seatsim" / "entropy.py").exists()
