"""Source hygiene checked with the standard library alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "operads"


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
