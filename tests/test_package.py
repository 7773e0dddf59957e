"""The package's export list matches what the package binds, and its
modules import nothing they do not use."""

import ast
import types
from pathlib import Path

import multivital


def test_every_export_resolves_and_star_import_works():
    assert len(multivital.__all__) == len(set(multivital.__all__))
    for name in multivital.__all__:
        assert hasattr(multivital, name), name
    namespace: dict = {}
    exec("from multivital import *", namespace)
    assert set(multivital.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(multivital).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(multivital.__all__) == set()


def test_every_module_import_is_used():
    # __init__ imports to re-export; elsewhere an import kept only to be
    # reached as a module attribute says so with "# noqa: F401".
    unused = []
    for path in sorted(Path(multivital.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
