"""Every function, method and class of the package has a reader.

A name counts as read when it occurs as a word in the package or in the
benchmark scripts outside its own definition.  Tests do not count: code
that only tests call is surface that nothing else needs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "adlv").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

# Tests read the memo's bound through it.
ALLOWED = {"ElementMemo.held"}


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


def test_every_definition_is_read_outside_itself():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in READERS}
    unread = []
    for path in PACKAGE:
        others = "\n".join("\n".join(lines[p]) for p in READERS if p != path)
        for qual, node in definitions(ast.parse("\n".join(lines[path]))):
            if qual in ALLOWED:
                continue
            # Another definition of the same name is not a reader.
            word = re.compile(rf"(?<!def )(?<!class )\b{re.escape(node.name)}\b")
            rest = lines[path][: node.lineno - 1] + lines[path][node.end_lineno :]
            if not (word.search("\n".join(rest)) or word.search(others)):
                unread.append(f"{path.name}:{qual}")
    assert not unread, "defined but never read: " + ", ".join(unread)
