"""Every module's __all__ names what it defines, the package imports only
names that its modules export, the README's methods table names only
exported functions, and every public name is used by the library, its
scripts or the README."""

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



def _public_names(tree: ast.Module) -> list[str]:
    """The module's __all__, or else the names it defines that do not
    start with an underscore."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if targets == ["__all__"]:
                return list(ast.literal_eval(node.value))
            defined += targets
    return [name for name in defined if not name.startswith("_")]


def _uses(path: Path) -> str:
    """The file's text without what only names a name: each def and class
    line, the __all__ list and the package's own imports (its re-exports)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return text
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            lines[node.lineno - 1] = ""
        elif (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ) or (isinstance(node, ast.ImportFrom) and node.level):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_public_name_has_a_caller_outside_the_tests():
    # The tests and perfbench/ do not count: a name only they use is dead.
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "ratio_ci").glob("*.py"))
    corpus = [*sources, *sorted((root / "scripts").glob("*.py")), root / "README.md"]
    text = "\n".join(map(_uses, corpus))
    unused = [
        f"{path.stem}.{name}"
        for path in sources
        for name in _public_names(ast.parse(path.read_text(encoding="utf-8")))
        if not re.search(rf"\b{name}\b", text)
    ]
    assert not unused, unused
