"""Every name a module imports is used in it, every function is called,
every option is set, and the CLI enters every function.

No linter is installed with the package, so four scans stand in for
one. The first parses each module under ``src/`` and ``tests/`` and
reports an imported name that the module never reads. An import marked
``# noqa: F401`` is kept on purpose and is skipped. Package
``__init__`` modules are skipped too, since their imports are the
package's exports. The second reports a function or method defined
under ``src/`` whose name no module there reads, the package
``__init__`` exports counting as reads; :data:`KEPT` lists the ones
kept on purpose, each with its reason. The third reports a defaulted
parameter of a function under ``src/`` that no call there sets: a
default that every caller takes is a constant, not an option.
:data:`KNOBS` lists the ones kept on purpose, each with its reason.
The fourth runs every subcommand under a profiler and reports a function
under ``src/`` that no run enters; :data:`NEVER_ENTERED` lists the ones
kept on purpose, each with its reason. An entry of the three lists whose
reason cites perfbench must still be pinned there: by a name that
``perfbench/tracer.py`` patches, or by an import time that
``BENCHMARK.json`` names.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = ROOT / "src" / "qsdsim"

_TRACED = "perfbench/tracer.py patches it by name"
_ITEM_1 = ("perfbench times the scipy.stats import that it alone needs; it moves to tests/"
           " with the benchmark change of ROADMAP item 1")
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
    "validation.chi2_threshold": _ITEM_1,
}
# Defaulted parameters under src/ that no call there sets, kept on purpose.
KNOBS = {
    "cli.main(argv)": "the console-script entry point calls it with no argument",
    "validation.chi2_threshold(quantile)": _ITEM_1,
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


def _options(body: list[ast.stmt], prefix: str, in_class: bool = False):
    """(qualified name, name, parameter, position) of every defaulted parameter.

    The position counts the positional parameters before it, a method's
    ``self`` or ``cls`` excluded; it is None for a keyword-only one.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if in_class and not static else 0
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield prefix + node.name, node.name, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield prefix + node.name, node.name, arg.arg, None
            yield from _options(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _options(node.body, f"{prefix}{node.name}.", in_class=True)


def _calls(tree: ast.AST):
    """(callee name, positional count or None for ``*args``, keywords or None for ``**kwargs``).

    ``functools.partial(f, ...)`` counts as a call of f with the bound
    arguments.
    """
    def name(func: ast.expr) -> str | None:
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called, args = name(node.func), node.args
        if called == "partial" and args:
            called, args = name(args[0]), args[1:]
        if called is None:
            continue
        count = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords}
        yield called, count, None if None in keywords else keywords


def unset_options(sources: dict[str, str]) -> list[str]:
    """``module.function(parameter)`` of every defaulted parameter no call sets.

    A call matches a function by name, a class name standing for its
    ``__init__``. It sets a parameter by keyword, by enough positional
    arguments, or by ``*args`` or ``**kwargs``.
    """
    options, calls = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        if module != "__init__":
            options += [(f"{module}.{qual}", name, param, pos)
                        for qual, name, param, pos in _options(tree.body, "")]
        calls += _calls(tree)

    def callee(qual: str, name: str) -> str:
        return qual.split(".")[-2] if name == "__init__" else name

    def sets(call, name, param, pos) -> bool:
        called, count, keywords = call
        if called != name:
            return False
        return (keywords is None or param in keywords or count is None
                or (pos is not None and pos < count))

    return sorted(f"{qual}({param})" for qual, name, param, pos in options
                  if not any(sets(call, callee(qual, name), param, pos) for call in calls))


def test_every_option_under_src_is_set_there():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unset_options(sources) == sorted(KNOBS)


def test_the_option_scan_finds_an_unset_default():
    module = ("from functools import partial\n"
              "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "def g(x=0, y=0):\n    pass\n"
              "def h(z=0):\n    pass\n"
              "def q(r=0):\n    pass\n"
              "class K:\n"
              "    def __init__(self, w=0):\n        pass\n"
              "    def m(self, u=0, v=0):\n        pass\n"
              "f(0, 1, e=5)\n"
              "g(*[1, 2])\n"
              "partial(h, z=1)\n"
              "q(**{})\n"
              "K(1).m(2)\n")
    assert unset_options({"m": module}) == ["m.K.m(v)", "m.f(c)", "m.f(d)"]


_PINNED = "perfbench times its import or patches it by name (ROADMAP item 1)"
_STUB = "abstract; every subclass overrides it"
# Functions under src/ that no CLI run enters, kept on purpose.
NEVER_ENTERED = {
    "configuration.Configuration.singleton": "public constructor, used in the README example",
    "coupling.CoupledState.__post_init__": _PINNED,
    "coupling.coupled_path": _PINNED,
    "coupling.coupled_rates": _PINNED,
    "coupling.step_coupled": _PINNED,
    "rates.RateModel.clonal_rate": _TRACED,
    "rates.RateModel.death_bound": _TRACED,
    "rates.RateModel.death_rate": _TRACED,
    "rates.RateModel.mutation_rate": _TRACED,
    "rates.RateModel.per_capita_death": _STUB,
    "rates.RateModel.reproduction_rate": _TRACED,
    "rates.RateModel.state_rates": _TRACED,
    "rates.RateModel.total_jump_rate": _TRACED,
    "trait_space.MutationKernel.density": _STUB,
    "trait_space.MutationKernel.inverse_cdf": _STUB,
    "trait_space.MutationKernel.sample": _STUB,
    "trait_space.MutationKernel.sup_density": _STUB,
    "validation.TestFunction.value_at_mass": _STUB,
    "validation.chi2_threshold": _PINNED,
}

# Run in a fresh interpreter: profiles the functions under the package
# directory argv[1] entered from the import of qsdsim.cli on, while the
# CLI runs the argv lists read from stdin, and writes the entered
# (file, qualified name) pairs and the exit statuses to argv[2].
_PROFILE = """
import json, sys
package, out = sys.argv[1], sys.argv[2]
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(profile)
from qsdsim.cli import main
statuses = [main(argv) for argv in json.loads(sys.stdin.read())]
sys.setprofile(None)
with open(out, "w") as f:
    json.dump({"entered": sorted(entered), "statuses": statuses}, f)
"""

# The models of the three benchmark workloads, with small stages.
_MODELS = {
    "ensemble": {"model.kind": "uniform", "model.lambda": "2.0", "model.b": "1.0",
                 "model.rho": "0.3"},
    "particles": {"model.kind": "logistic", "model.b": "1.0", "model.rho": "0.3",
                  "model.d": "2.0", "model.c": "0.5", "kernel.family": "truncated_gaussian",
                  "kernel.scale": "0.05"},
    "crowded": {"model.kind": "logistic", "model.b": "2.0", "model.rho": "0.3",
                "model.d": "1.0", "model.c": "0.01", "kernel.family": "truncated_gaussian",
                "kernel.scale": "0.02", "run.initial_mass": "100"},
}
_STAGES = {
    # a start of 30 lives long enough to draw thinning's mutation candidates
    "simulate": {"run.initial_mass": "30", "run.horizon": "1.0", "run.engine": "thinning"},
    "survival": {"run.replicas": "50", "run.horizon": "1.0"},
    "qsd-yaglom": {"run.replicas": "100", "run.horizon": "1.0"},
    "qsd-fv": {"run.particles": "20", "run.burn_in": "0.5", "run.horizon": "1.0"},
    "oracle": {"run.truncation": "30"},
    "validate": {"run.replicas": "20"},
}


def _cli_runs(work: Path) -> list[tuple[list[str], int]]:
    """(argv, exit status) of every subcommand on each workload model, and of the other paths."""
    def config(name: str, keys: dict[str, str]) -> str:
        path = work / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return str(path)

    runs = []
    for name, model in _MODELS.items():
        out = work / name
        for stage, keys in _STAGES.items():
            # crowded's start of 100 wins over the stage's
            runs.append(([stage, "--config", config(f"{name}-{stage}", {**keys, **model}),
                          "--out", str(out / stage)], 0))
        # tolerances that small stages pass
        loose = config(f"{name}-compare", {"run.tv_tol": "1.0", "run.theta_tol": "10.0"})
        runs.append((["compare", "--config", loose, str(out / "qsd-yaglom" / "qsd.json"),
                      str(out / "oracle" / "oracle.json"), "--out", str(out / "compare")], 0))
    uniform = config("uniform", _MODELS["ensemble"])
    runs += [
        (["simulate", "--config", uniform, "--engine", "gillespie", "--t-max", "1.0",
          "--out", str(work / "gillespie")], 0),
        (["survival", "--config", config("grid", {**_MODELS["ensemble"],
                                                   "run.initial": "2@0.25;1@0.75",
                                                   "run.grid": "0.5, 1.0",
                                                   "run.replicas": "50"}),
          "--out", str(work / "grid")], 0),
        (["simulate", "--config", config("void", {**_MODELS["ensemble"], "run.initial": "0"}),
          "--out", str(work / "void")], 0),
        (["frobnicate"], 1),
    ]
    return runs


def test_the_cli_enters_every_function_under_src_but_the_listed_ones(tmp_path):
    runs = _cli_runs(tmp_path)
    report = tmp_path / "entered.json"
    subprocess.run([sys.executable, "-c", _PROFILE, str(PACKAGE) + os.sep, str(report)],
                   input=json.dumps([argv for argv, _ in runs]), text=True,
                   capture_output=True, check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    got = json.loads(report.read_text())
    assert got["statuses"] == [status for _, status in runs]
    entered = {f"{Path(path).stem}.{name.replace('.<locals>.', '.')}"
               for path, name in got["entered"]}
    defined = {f"{path.stem}.{qual}" for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"
               for qual, _ in _defined(ast.parse(path.read_text()).body, "")}
    assert sorted(defined - entered) == sorted(NEVER_ENTERED)


# The import time that BENCHMARK.json names for a pinned function, by the
# prefix of its name; every other pin is a name that the tracer patches.
_TIMED_IMPORTS = {"coupling.": "qsdsim.coupling.import_s",
                  "validation.chi2_threshold": "scipy.stats.import_s"}


def patched_names(source: str) -> set[str]:
    """Attribute names a tracer source patches through ``p``, ``patch`` or ``replace``.

    A call's second argument is the name; where it is the variable of a
    ``for`` loop over a tuple of strings, every string of the tuple is.
    """
    def patches(node: ast.AST) -> bool:
        func = getattr(node, "func", None)
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return called in ("p", "patch", "replace") and len(node.args) >= 2

    tree = ast.parse(source)
    names = {node.args[1].value for node in ast.walk(tree) if patches(node)
             and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)}
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, ast.Tuple)):
            continue
        if any(patches(node) and isinstance(node.args[1], ast.Name)
               and node.args[1].id == loop.target.id for node in ast.walk(loop)):
            names |= {e.value for e in loop.iter.elts if isinstance(e, ast.Constant)}
    return names


def test_the_patch_scan_reads_calls_and_loops():
    source = ("p(cli, 'a', 'x', 'cli')\n"
              "for attr in ('b', 'c'):\n    p(K, attr, 'y', 'rates')\n"
              "for other in ('d',):\n    print(other)\n"
              "tracer.replace(m, 'e', make)\n")
    assert patched_names(source) == {"a", "b", "c", "e"}


def test_every_pin_that_cites_perfbench_is_still_pinned_there():
    # reads perfbench and BENCHMARK.json, changes neither; once the benchmark
    # frees a pin, this names the code to delete
    timed = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer"]}
    patched = patched_names((ROOT / "perfbench" / "tracer.py").read_text())
    pins = {(name, table) for table, entries in (("KEPT", KEPT), ("KNOBS", KNOBS),
                                                 ("NEVER_ENTERED", NEVER_ENTERED))
            for name, reason in entries.items() if "perfbench" in reason}
    freed = []
    for name, table in sorted(pins):
        imports = [metric for prefix, metric in _TIMED_IMPORTS.items() if name.startswith(prefix)]
        if not (set(imports) <= timed if imports
                else name.split("(")[0].split(".")[-1] in patched):
            freed.append(f"{table}: {name}")
    assert len(pins) > 10 and freed == []
