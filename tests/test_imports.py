"""Every name a module imports is used in it.

No linter is installed with the package, so this scan stands in for
one: it parses each module under ``src/`` and ``tests/`` and reports
an imported name that the module never reads. An import marked
``# noqa: F401`` is kept on purpose and is skipped. Package
``__init__`` modules are skipped too, since their imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import not marked ``# noqa: F401``."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.AST) -> set[str]:
    """Every name the tree reads, quoted annotations such as "Configuration" included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _read(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _read(tree)
    return sorted((name, line) for name, line in _imported(tree, source.splitlines()).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("import math\nimport os  # noqa: F401\nfrom typing import IO, Iterator\n"
              "def f(out: 'IO[str]'):\n    return math.pi\n")
    assert unused_imports(source) == [("Iterator", 3)]
