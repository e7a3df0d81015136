"""Every name a module imports is used in it, and every function is called.

No linter is installed with the package, so two scans stand in for one.
The first parses each module under ``src/`` and ``tests/`` and reports
an imported name that the module never reads. An import marked
``# noqa: F401`` is kept on purpose and is skipped. Package
``__init__`` modules are skipped too, since their imports are the
package's exports. The second reports a function or method defined
under ``src/`` whose name no module there reads, the package
``__init__`` exports counting as reads; :data:`KEPT` lists the ones
kept on purpose, each with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = ROOT / "src" / "qsdsim"

_TRACED = "perfbench/tracer.py patches it by name"
_ITEM_1 = "moves to tests/ with the benchmark change of ROADMAP item 1"
# Functions under src/ that no module there reads, kept on purpose.
KEPT = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "configuration.Configuration.singleton": "public constructor, used in the README example",
    "rates.RateModel.clonal_rate": _TRACED,
    "rates.RateModel.death_bound": _TRACED,
    "rates.RateModel.death_rate": _TRACED,
    "rates.RateModel.mutation_rate": _TRACED,
    "rates.RateModel.reproduction_rate": _TRACED,
    "rates.RateModel.total_jump_rate": _TRACED,
    "streams._PrecomputedSeed.generate_state": "PCG64 calls it to seed itself",
    "validation.chi2_threshold": _ITEM_1,
    "validation.mass_histogram": _ITEM_1,
    "validation.two_sample_chi2": _ITEM_1,
}


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


def _defined(body: list[ast.stmt], prefix: str):
    """(qualified name, name) of every function and method, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.name
            yield from _defined(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defined(node.body, f"{prefix}{node.name}.")


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """Functions of the modules ``sources`` (name -> text) that no module reads.

    A read is a name, an attribute or an imported name; dunder methods,
    which Python calls, are skipped, and ``__init__`` only reads.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        if module != "__init__":
            defined += [(f"{module}.{qual}", name) for qual, name in _defined(tree.body, "")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(qual for qual, name in defined
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_every_function_under_src_is_read_there():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_functions(sources) == sorted(KEPT)


def test_the_function_scan_finds_an_unread_function_and_honours_exports():
    module = ("def used():\n    pass\n"
              "def exported():\n    used()\n"
              "class K:\n    def method(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n")
    sources = {"m": module, "__init__": "from .m import exported\n"}
    assert unreferenced_functions(sources) == ["m.K.method"]
