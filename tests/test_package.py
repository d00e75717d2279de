"""The package surface: what ``from montrans import *`` binds, checked
against the names the tests and the README import, not against a copy of
the list."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path
from types import ModuleType

import montrans
import montrans.errors
from montrans import minimize

from helpers import learned, learning_target

ROOT = Path(__file__).parents[1]


def _names_imported_from_montrans(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "montrans" and node.level == 0
        for alias in node.names
    }


def test_star_import_binds_all_and_no_module():
    namespace: dict = {}
    exec("from montrans import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(montrans.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_names_the_tests_and_readme_import_are_public():
    sources = [path.read_text(encoding="utf-8") for path in sorted(Path(__file__).parent.glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    imported = set().union(*map(_names_imported_from_montrans, sources))
    assert {"Transducer", "learn", "membership_oracle"} <= imported
    assert imported <= set(montrans.__all__)


def test_every_error_class_is_public():
    errors = {
        name
        for name, value in vars(montrans.errors).items()
        if inspect.isclass(value) and issubclass(value, Exception) and value.__module__ == "montrans.errors"
    }
    assert "MontransError" in errors
    assert errors <= set(montrans.__all__)


def test_returned_types_are_the_public_names():
    target = learning_target()
    events = []
    machine, stats = learned(target, observer=lambda kind, payload: events.append((kind, payload)))
    assert type(stats) is montrans.LearnStats
    assert type(minimize(machine)) is montrans.StagedMinimization
    defects = [payload for kind, payload in events if kind == "defect"]
    assert defects and all(type(d) is montrans.Defect for d in defects)


def test_every_private_module_name_is_used():
    """Each module-level name and each method of a module-level class in the
    package with one leading underscore is read somewhere in the package
    besides its definition; an import alone does not count."""
    sources = sorted((ROOT / "src" / "montrans").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = (n for n in node.body if isinstance(n, ast.FunctionDef))
                defined |= {node.name, *(n.name for n in methods)}
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = (n for n in ast.walk(node) if isinstance(n, ast.Name))
                defined |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert {"_json_text", "_normalize", "_peel"} <= private, "private names not collected"
    assert not private - read, sorted(private - read)


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(file, mode)`` or ``path.open(mode)`` with a mode that writes,
    or one that is not a literal and so cannot be shown to only read."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 0 if isinstance(func, ast.Attribute) else 1
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position : position + 1]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_cli_write_writes_files():
    """No call in the package writes a file outside ``cli._write``, so every
    output shares its rule: bytes already at the path are left alone."""
    writers = []
    for path in sorted((ROOT / "src" / "montrans").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for fn in tree.body
            if path.name == "cli.py" and isinstance(fn, ast.FunctionDef) and fn.name == "_write"
            for node in ast.walk(fn)
        }
        assert exempt or path.name != "cli.py", "cli._write not found"
        writers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in exempt and _opens_for_writing(node)
        ]
    assert not writers, writers
    probes = ["open(p, 'w')", "p.open('a')", "open(p, mode=m)", "p.write_text(s)", "p.write_bytes(b)"]
    assert all(_opens_for_writing(ast.parse(code).body[0].value) for code in probes)
    assert not any(_opens_for_writing(ast.parse(code).body[0].value) for code in ("open(p)", "p.open('rb')"))


def test_every_helper_is_called_from_a_test_module():
    """Each public function of ``helpers.py`` is read in some test module;
    an import alone does not count."""
    here = Path(__file__).parent
    helpers = ast.parse((here / "helpers.py").read_text(encoding="utf-8"))
    functions = (node for node in helpers.body if isinstance(node, ast.FunctionDef))
    public = {node.name for node in functions if not node.name.startswith("_")}
    read = {
        node.id
        for path in here.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert {"draws", "corpus_targets", "learned"} <= public
    assert not public - read, sorted(public - read)


def test_project_version_is_the_package_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert version == montrans.__version__
