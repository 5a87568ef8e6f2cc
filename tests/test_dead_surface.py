"""Every function, method and class of the package has a reader.

A name counts as read when the package or the benchmark scripts refer
to it outside its own definition: as a name, as an attribute, or as a
string that is an identifier (the benchmark patches methods by name).
Prose does not count, and neither do tests: code that only tests call
is surface that nothing else needs.  The same holds for every instance
attribute that the package sets as `self.<name> = ...`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "adlv").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def definitions(tree, prefix=""):
    """(qualified name, node) of every non-dunder def and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qual, node
            yield from definitions(node, qual + ".")
        else:
            yield from definitions(node, prefix)


def references(tree):
    """(identifier, line) of every name, attribute and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def test_every_definition_is_read_outside_itself():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    unread = []
    for path in PACKAGE:
        elsewhere = {name for p in READERS if p != path for name, _line in refs[p]}
        for qual, node in definitions(trees[path]):
            if node.name in elsewhere:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and line not in inside for name, line in refs[path]):
                unread.append(f"{path.name}:{qual}")
    assert not unread, "defined but never read: " + ", ".join(unread)


def instance_attributes(tree):
    """(name, line) of every attribute set as `self.<name> = ...`."""
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield sub.attr, sub.lineno


def reads(tree):
    """Every attribute read (not stored) and every identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value


def test_every_instance_attribute_is_read():
    # Dataclass and NamedTuple fields are not `self.<name> = ...`
    # assignments, so they are outside this check.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    read = {name for tree in trees.values() for name in reads(tree)}
    unread = sorted(
        f"{path.name}:{line}:{name}"
        for path in PACKAGE
        for name, line in instance_attributes(trees[path])
        if name not in read
    )
    assert not unread, "set but never read: " + ", ".join(unread)


# Method names defined on more than one package class, each with the
# package readers of each definition.  A name read on one class counts
# as read on all, so a new shared name must be reviewed here.
SHARED_METHOD_NAMES = {
    # AffineWeylGroup.from_json: bench/workloads.py (w.from_json);
    # FrobeniusDatum.from_json: cli._resolve_sigma.
    "from_json",
}


def test_shared_method_names_are_reviewed():
    owners = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for qual, _node in definitions(ast.Module(body=node.body, type_ignores=[])):
                    if "." not in qual:
                        owners.setdefault(qual, set()).add(f"{path.name}:{node.name}")
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    assert shared == SHARED_METHOD_NAMES, {name: owners[name] for name in shared}
