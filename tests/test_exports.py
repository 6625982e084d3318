"""Every module's __all__ names what it defines, the package imports only
names that its modules export, the README's methods table names every
method and only those, every public name is read by the code of the
library or of its scripts, and every public default is set there."""

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
    # The table's first column names each Method value once, and nothing else.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("## Methods at a glance", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(method.value for method in ratio_ci.Method)


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


def _loads(path: Path) -> set[str]:
    """The names the file's code reads: each name loaded and each attribute
    read. Imports, definitions, strings, docstrings and comments do not
    count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # The tests, perfbench/ and the README do not count: a name only they
    # use is dead.
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "ratio_ci").glob("*.py"))
    read = set().union(*map(_loads, [*sources, *sorted((root / "scripts").glob("*.py"))]))
    unused = [
        f"{path.stem}.{name}"
        for path in sources
        for name in _public_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert not unused, unused


def _defaults(tree: ast.Module) -> dict[str, list[tuple[str, str, int | None]]]:
    """For each public callable of the module, by the name a call spells:
    (label, parameter, position) of each defaulted parameter, where the
    position is None for a keyword-only one. The callables are the public
    functions, the public methods of public classes (position counted after
    self or cls), and public dataclasses, whose defaulted fields are set by
    the constructor."""
    public = set(_public_names(tree))
    found: dict[str, list[tuple[str, str, int | None]]] = {}

    def function(node: ast.FunctionDef, skip: int) -> None:
        args = node.args
        positional = [*args.posonlyargs, *args.args][skip:]
        first = len(positional) - len(args.defaults)
        settings = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
        settings += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        for name, position in settings:
            found.setdefault(node.name, []).append((f"{node.name}.{name}", name, position))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            function(node, 0)
        elif isinstance(node, ast.ClassDef) and node.name in public:
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        field = f.target.id
                        found.setdefault(node.name, []).append((f"{node.name}.{field}", field, i))
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    function(f, 1)
    return found


def _set_by_calls(path: Path) -> set[tuple[str | None, str | int | None]]:
    """(callee, parameter) for each parameter a call in the file sets, by
    keyword or (as an int position) by position. A call that unpacks *args
    or **kwargs sets every parameter, as (callee, None)."""
    spelled = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        unpacks = any(isinstance(a, ast.Starred) for a in node.args)
        if unpacks or any(k.arg is None for k in node.keywords):
            spelled.add((callee, None))
        spelled.update((callee, i) for i in range(len(node.args)))
        spelled.update((callee, k.arg) for k in node.keywords)
    return spelled


def test_every_public_default_is_set_outside_the_tests():
    # A default that no program overrides is a constant that a caller can
    # still change: some call in src/ or scripts/ must set each one. The
    # tests, perfbench/ and the README do not count. cli.main's argv is
    # exempt: the console script calls main(), and the tests pass argv.
    exempt = {"main.argv"}
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "ratio_ci").glob("*.py"))
    spelled = set().union(*map(_set_by_calls, [*sources, *sorted((root / "scripts").glob("*.py"))]))
    unset = [
        label
        for path in sources
        for callee, settings in _defaults(ast.parse(path.read_text(encoding="utf-8"))).items()
        for label, name, position in settings
        if label not in exempt
        and not {(callee, None), (callee, name), (callee, position)} & spelled
    ]
    assert not unset, unset
