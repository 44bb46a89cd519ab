"""Every name a module of the package or of the tests imports is read in
that module.

No linter runs with the tests, so this is the unused-import check, on the
standard library's ``ast`` alone. A name counts as read where the module
loads it: a ``Name`` in a load context, which covers a call, an annotation
(still an expression under ``from __future__ import annotations``) and the
base of an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

import alertsift

PACKAGE = Path(alertsift.__file__).parent
TESTS = Path(__file__).parent

# Bindings kept for the benchmark's tracer, which reaches the program
# through them: (module file, name) and the line that needs it.
READ_ELSEWHERE = {
    # perfbench/test_perfbench.py:49-50 checks that alertsift.evaluate is the
    # evaluate() function.
    ("__init__.py", "evaluate"),
    # perfbench/tracing.py:80 wraps the projection at this binding too.
    ("routing.py", "project_for_specialists"),
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unread_imports(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = _loaded_names(tree)
    return sorted(
        (name, line) for name, line in _imported_names(tree).items() if name not in loaded
    )


def _unread_in(directory: Path) -> dict[tuple[str, str], int]:
    return {
        (path.name, name): line
        for path in sorted(directory.glob("*.py"))
        for name, line in unread_imports(path)
    }


def test_every_imported_name_is_read_in_its_module():
    unread = _unread_in(PACKAGE)
    assert unread.keys() - READ_ELSEWHERE == set(), unread
    # Each kept binding is still imported and still unread here; once it is
    # read, or gone, it leaves the list.
    assert unread.keys() == READ_ELSEWHERE


def imported_modules(path: Path) -> set[str]:
    """The top-level package of every module the file imports, absolute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module.partition(".")[0])
    return modules


def test_no_module_of_the_package_imports_numpy():
    # The package has no runtime dependency; numpy and scipy serve the tests.
    importers = {
        path.name
        for path in PACKAGE.rglob("*.py")
        if imported_modules(path) & {"numpy", "scipy"}
    }
    assert importers == set()


def test_the_numpy_check_sees_every_form_of_import(tmp_path):
    forms = ["import numpy", "import numpy.random as npr", "from numpy import random"]
    for text in forms:
        path = tmp_path / "module.py"
        path.write_text(f"{text}\n", encoding="utf-8")
        assert imported_modules(path) == {"numpy"}, text
    path.write_text("from .model import numpy\n", encoding="utf-8")
    assert imported_modules(path) == set()


def test_every_name_a_test_module_imports_is_read():
    # No test binding is kept for another reader.
    assert _unread_in(TESTS) == {}


def test_the_check_sees_an_unread_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import Any, Mapping\n"
        "def f(x: Any) -> None:\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert unread_imports(path) == [("Mapping", 4), ("codec", 3)]
