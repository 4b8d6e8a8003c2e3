"""Source hygiene checked with the standard library alone."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "operads"


def unused_imports(path):
    """Names bound by module-level imports of path that the module never reads.

    An import whose lines carry `# noqa: F401` is a deliberate re-export.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append("%s:%d %s" % (path.name, node.lineno, name))
    return unused


# the package root imports only to export, so it is left out
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom sys import argv, path  # used below\n"
                     "from json import dumps  # noqa: F401\nprint(path)\n")
    assert unused_imports(probe) == ["probe.py:1 os", "probe.py:2 argv"]


def _read_names(node):
    """Every name a node reads: names, attributes, imported names and whole strings.

    A whole string counts because bench/tracer.py looks attributes up by name.
    """
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _defined_names(stmt):
    """The names a module-level statement defines: a function, a class or assignment targets.

    A dunder such as __version__ is read from outside the package, so it is left out.
    """
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
            yield from (n.id for n in ast.walk(target)
                        if isinstance(n, ast.Name) and not n.id.startswith("__"))


def unreferenced(defining, readers):
    """Module-level functions, classes and assigned names of `defining` that no reader reads.

    Every defining file is a reader too.  A definition's own statement does
    not count, so recursion alone keeps nothing.  A reader that is not a
    defining file does not read a name that some such reader defines itself:
    its read is of the namesake, not of the defining file's name.
    """
    modules = {path: ast.parse(path.read_text()) for path in {*defining, *readers}}
    outside = set(readers).difference(defining)
    namesakes = {name for path in outside for stmt in modules[path].body
                 for name in _defined_names(stmt)}
    read = [(stmt, set(_read_names(stmt)) - (namesakes if path in outside else set()))
            for path, module in modules.items() for stmt in module.body]
    return ["%s %s" % (path.name, name) for path in defining for node in modules[path].body
            for name in _defined_names(node)
            if not any(name in names for stmt, names in read if stmt is not node)]


def test_every_function_and_class_is_read_by_the_package_or_the_benchmark():
    package = sorted(SRC.glob("*.py"))
    assert unreferenced(package, sorted((ROOT / "bench").glob("*.py"))) == []


def test_the_check_sees_an_unused_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def used():\n    return 1\n\n\ndef unused(n):\n    return unused(n - 1)\n\n\n"
                     "class Named:\n    pass\n\n\nprint(used(), 'Named')\n"
                     "SENTINEL, READ = object(), 2\nLIMIT: int = READ\n__version__ = '0'\n"
                     "print(LIMIT)\n\n\ndef shadowed():\n    return 0\n\n\ndef lent():\n    return 0\n")
    # a reader's own `shadowed` does not keep the probe's alive; its read of `lent` does
    reader = tmp_path / "reader.py"
    reader.write_text("import probe\n\n\ndef shadowed():\n    return 1\n\n\n"
                      "print(shadowed(), probe.shadowed(), probe.lent())\n")
    assert unreferenced([probe], []) == [
        "probe.py unused", "probe.py SENTINEL", "probe.py shadowed", "probe.py lent"]
    assert unreferenced([probe], [reader]) == [
        "probe.py unused", "probe.py SENTINEL", "probe.py shadowed"]


def test_the_installed_package_ships_its_data_and_its_command():
    # tier-1 runs from src/; an installed package has only what pyproject.toml lists
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    shipped = {p for glob in config["tool"]["setuptools"]["package-data"]["operads"]
               for p in SRC.glob(glob)}
    data = [p for p in (SRC / "data").rglob("*") if p.is_file()]
    assert data and set(data) <= shipped
    module, _, attr = config["project"]["scripts"]["operads"].partition(":")
    assert (module, attr) == ("operads.cli", "main")
    assert callable(getattr(importlib.import_module(module), attr))


def imported_modules(path):
    """The top-level names of the modules that path's absolute imports name, anywhere in it."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_generates_record_code_at_import():
    # dataclasses generates and execs every record's methods on each start;
    # the records are NamedTuples and plain classes instead
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "dataclasses" in imported_modules(p)] == []


def _loaded_modules(code):
    """The names in sys.modules once `python -c code` has run on src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_starting_the_command_loads_neither_dataclasses_nor_traceback():
    # each costs milliseconds of every run's start-up; only the internal-error
    # handler needs traceback, and it imports it there.  inspect and typing are
    # left out: importlib.resources imports inspect on Python 3.12, and
    # NamedTuple is typing's
    loaded = _loaded_modules("import operads.cli") - _loaded_modules("pass")
    assert "operads.cli" in loaded
    assert {"dataclasses", "traceback"} & loaded == set()
