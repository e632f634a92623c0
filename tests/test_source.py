"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import symmarriage

MODULES = sorted(Path(symmarriage.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "star.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so a check guarding an answer
    # must raise InvariantError (or another exception) explicitly instead.
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _loaded_names(tree):
    """Every name the tree reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    unused = imported - _loaded_names(tree) - _exported(tree)
    assert not unused, f"{path.name} never uses {sorted(unused)}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_no_unreferenced_private_definitions():
    # A private module-level name is reachable only from the package, so one
    # that no module reads is dead code.
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_loaded_names, trees.values()))
    dead = [
        f"{name}:{defined}"
        for name, tree in trees.items()
        for defined in _private_definitions(tree)
        if defined.startswith("_") and not defined.startswith("__")
        and defined not in referenced
    ]
    assert dead == [], f"private definitions no module reads: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_attribute_hooks_or_hand_written_instance_state(path):
    # An instance holds its fields and its cached properties, nothing else:
    # no class answers missing attributes through ``__getattr__``, and no
    # code fills or reads an instance's ``__dict__`` (directly or by vars()).
    tree = _tree(path)
    hooks = [
        f"{node.name}.__getattr__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__getattr__"
    ]
    by_hand = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")
    ]
    assert hooks == [], f"{path.name} defines {hooks}"
    assert by_hand == [], f"{path.name} touches an instance's __dict__ at lines {by_hand}"


def _functions(tree):
    """Every function the tree defines, at any depth."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_checked_pass_reads_the_list_tables():
    # fileio names the list tables in two places only: the walk that feeds
    # the checked pass each member in the writers' order, and the
    # name-level reference that writes every error message.  A loader that
    # reads a table itself, by subscript, ``.get``, a key it walks or the
    # key tuples, has forked the checks.  Keys of a dict display write a
    # document and do not count.
    tree = _tree(Path(symmarriage.__file__).parent / "fileio.py")
    readers = set()
    for function in _functions(tree):
        written = {id(key) for node in ast.walk(function) if isinstance(node, ast.Dict) for key in node.keys}
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Constant)
                and node.value in ("girl_lists", "boy_lists")
                and id(node) not in written
            ) or (isinstance(node, ast.Name) and node.id in ("_INSTANCE_KEYS", "_TABLES")):
                readers.add(function.name)
    assert readers == {"parse_instance", "_text_members"}


def test_documents_are_parsed_whole_only_by_the_name_level_readers():
    # Only parse_instance, the name-level reference, and parse_result,
    # whose result documents are small, parse a document whole: no load of
    # an instance runs a pass over a parsed document.
    callers = set()
    for path in MODULES:
        for function in _functions(_tree(path)):
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if called == "_load_object":
                        callers.add(f"{path.name}:{function.name}")
    assert callers == {"fileio.py:parse_instance", "fileio.py:parse_result"}
