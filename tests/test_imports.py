"""Every module-level import under ``src/repro`` is used.

Each module is parsed with the standard library's :mod:`ast`; no linter
is needed.  A package's ``__init__.py`` re-exports by importing, so it
is skipped, and so is any import whose statement is marked
``# noqa: F401`` (a deliberate re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0] for alias in node.names
    ]


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name a module-level import of *path*
    binds that the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    unused = []
    # The statements of the module body itself: an import under
    # ``if TYPE_CHECKING:`` serves quoted annotations.
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        unused.extend(
            f"{node.lineno}: {name}"
            for name in _bound_names(node) if name not in used
        )
    return unused


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Any, Callable  # noqa: F401\n"
        "from json import dumps, loads\n"
        "def f(x: Any) -> str:\n"
        "    return dumps(x)\n"
    )
    assert unused_imports(module) == ["2: os", "3: osp", "5: loads"]
