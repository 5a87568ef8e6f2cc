"""Every function, method and class of the package has a reader.

A name counts as read when the package or the benchmark scripts refer
to it outside its own definition: as a name, as an attribute, or as a
string that is an identifier (the benchmark patches methods by name).
Prose does not count, and neither do tests: code that only tests call
is surface that nothing else needs.  The same holds for every instance
attribute that the package sets as `self.<name> = ...`, and for every
field of a package dataclass or NamedTuple, but for a reviewed few
that wait for a planned reader.
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
    # assignments; test_every_record_field_is_read checks them.
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


def defaulted_parameters(tree):
    """(function name, position or None, parameter) for every parameter
    with a default, of every function and method; the position counts
    from the first argument a caller writes, so a method's self or cls
    is not counted, and an __init__ is filed under its class's name."""
    for cls in [None] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        body = tree.body if cls is None else cls.body
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in fn.decorator_list
            )
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and not static:
                positional = positional[1:]
            name = cls.name if cls is not None and fn.name == "__init__" else fn.name
            first = len(positional) - len(fn.args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                yield name, pos, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, None, arg.arg


def calls(tree):
    """(callee name, positional count, keyword names) of every call;
    partial(f, ...) counts as a call of f with the remaining arguments,
    and a starred argument as passing every parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
            func, args = args[0], args[1:]
        name = getattr(func, "id", getattr(func, "attr", None))
        if any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in node.keywords
        ):
            yield name, float("inf"), None
        else:
            yield name, len(args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed():
    # A default that no package or benchmark call overrides is a
    # constant dressed as a parameter.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    passed = {}
    for tree in trees.values():
        for name, count, keywords in calls(tree):
            passed.setdefault(name, []).append((count, keywords))
    unpassed = sorted(
        f"{path.name}:{name}({param})"
        for path in PACKAGE
        for name, pos, param in defaulted_parameters(trees[path])
        if not any(
            keywords is None or param in keywords or (pos is not None and count > pos)
            for count, keywords in passed.get(name, ())
        )
    )
    assert not unpassed, "defaulted but never passed: " + ", ".join(unpassed)


# Fields that no package or benchmark code reads yet, each kept for the
# planned reader named above it.
UNREAD_FIELDS = {
    # The `support` entry of the basic pi0 report: J_tau's finite orbits
    # and the orbits that the sigma-supports of Adm(mu) meet.
    "TauOrbit.roots",
    "JbShadow.levi",
    "JbShadow.orbits",
    "JbShadow.omega_fixed_group",
    "JbShadow.omega_fixed_reps",
    # The coset c_{b,mu} pi_1(G)^sigma of the exact nonbasic pi0 report.
    "ObstructionClass.representative_lift",
    "ObstructionClass.fixed_generators",
}


def record_fields(tree):
    """(class.field) of every field of a dataclass or NamedTuple class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [getattr(d, "func", d) for d in node.decorator_list] + node.bases
        if any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple") for m in marks):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{node.name}.{stmt.target.id}"


def test_every_record_field_is_read():
    # A field counts as read as an attribute load or an identifier
    # string anywhere in the package or the benchmark, as above.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    read = {name for tree in trees.values() for name in reads(tree)}
    unread = {
        field
        for path in PACKAGE
        for field in record_fields(trees[path])
        if field.split(".")[1] not in read
    }
    assert unread == UNREAD_FIELDS, {
        "unread and not reviewed": sorted(unread - UNREAD_FIELDS),
        "reviewed but now read": sorted(UNREAD_FIELDS - unread),
    }
