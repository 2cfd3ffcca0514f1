"""Import hygiene: each module of the package, the tests and the scripts
reads every name it imports.  A deletion elsewhere tends to leave the
import of the deleted code's helpers behind; this catches it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "src" / "clarith" / "__init__.py"}  # re-exports
MODULES = sorted(p for d in ("src/clarith", "tests", "scripts")
                 for p in (ROOT / d).glob("**/*.py") if p not in EXEMPT)


def unread_imports(source):
    """Names that source imports and never reads, in order.  A read is a
    bare name, or the base of an attribute access; `__future__` imports
    bind nothing to read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_checker_counts_attribute_bases_as_reads():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom x import a, b\n"
              "os.path.join(a)\n")
    assert unread_imports(source) == ["js", "b"]


def test_every_import_is_read():
    unread = {str(p.relative_to(ROOT)): unread_imports(p.read_text(encoding="utf-8"))
              for p in MODULES}
    assert {path: names for path, names in unread.items() if names} == {}
