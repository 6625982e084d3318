"""Every module's __all__ names what it defines, the package imports only
names that its modules export, and the README's methods table names only
exported functions."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ratio_ci

MODULES = sorted(info.name for info in pkgutil.iter_modules(ratio_ci.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    namespace: dict = {}
    exec(f"from ratio_ci.{name} import *", namespace)
    module = importlib.import_module(f"ratio_ci.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_imports_exist_and_are_exported():
    tree = ast.parse(Path(ratio_ci.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ratio_ci.{node.module}")
        # A module without __all__ exports its public names.
        public = [name for name in vars(module) if not name.startswith("_")]
        exported = getattr(module, "__all__", public)
        for alias in node.names:
            assert hasattr(ratio_ci, alias.name), (node.module, alias.name)
            assert alias.name in exported, (node.module, alias.name)


def test_readme_methods_table_names_exported_functions():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("## Methods at a glance", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(names) >= 8
    for name in names:
        assert callable(getattr(ratio_ci, name, None)), name
