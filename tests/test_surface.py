"""The public surface: every public module-level function and class of
the package, and every public method, is read somewhere in `src/`
outside its own body, or is named in `LEDGER` with the reason it stays.

A read is a bare name, an attribute of a package module (`hpm.step`)
for a module-level name, an attribute of `self` for a method of the
enclosing class or of one of its bases in the package (`self.poll` in
`InductionRunner` reads `InductionRunner.poll` alone), or any other
attribute (`runner.stretch`) for a method.  A ledger reason starts with
its kind:
- `cli:`, an entry point;
- `twin:`, a slow twin that a named test compares against (a twin an
  oracle suite reads is read in `src/`, and needs no entry);
- `perfbench:`, a name the benchmark reads, kept until the benchmark's
  revision frees it.
The ledger cannot rot: an entry must name a public name that exists and
that nothing in `src/` reads, a `perfbench:` name must occur in
`perfbench/`, and a `twin:` name must be read by a test."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clarith"

LEDGER = {
    "bounds.UnaryBound.compose":
        "twin: test_bounds' composed_iterate_max writes iterate_max out with it",
    "game.is_quasilegal_move_prefix":
        "twin: conftest's longest_good_prefix, the slow truncation, scans with it",
    "hpm.sketch_of_configuration":
        "twin: criterion 10 compares each sketch with its configuration's",
    "game.legal_status": "perfbench: the analyze session calls it, the tracer wraps it",
    "game.truncate": "perfbench: the analyze session and its check call it",
    "hpm.run_tape_length": "perfbench: the tracer's hpm.run_tape span wraps it",
    "hpm.run_symbol": "perfbench: the tracer's hpm.run_tape span wraps it",
    "hpm.history_prefix": "perfbench: the tracer's span wraps it",
    "hpm.ScriptStrategy.step": "perfbench: the tracer's span wraps it",
    "wrappers.VasaRunner.poll": "perfbench: the tracer's span wraps it",
    "induction.InductionRunner.poll":
        "perfbench: the induct session calls it, the tracer wraps it",
}
KINDS = ("cli", "twin", "perfbench")


def public_names(module, tree):
    """{'module.name' or 'module.Class.method': its node} for the public
    module-level functions and classes and their public methods."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            out[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                out.update({f"{module}.{node.name}.{sub.name}": sub for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_"})
    return out


def reads(tree):
    """(key, line) per read: ('name', n) for a bare name, ('module', m.n)
    for an attribute of an imported package module m, ('self', C, n) for
    an attribute of `self` inside class C, ('attr', n) for any other
    attribute."""
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
               for a in node.names}
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((("name", child.id), child.lineno))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                base = child.value.id if isinstance(child.value, ast.Name) else None
                key = (("module", f"{modules[base]}.{child.attr}") if base in modules
                       else ("self", cls, child.attr) if base == "self" and cls
                       else ("attr", child.attr))
                out.append((key, child.lineno))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return out


def lineage(trees):
    """{class name: the names of it and its bases in the package}."""
    bases = {node.name: [b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def up(name):
        return {name}.union(*[up(b) for b in bases.get(name, ()) if b in bases])

    return {name: up(name) for name in bases}


def unread(sources):
    """{sources module: source text} -> every public name no module reads
    outside the name's own body."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    read = {m: reads(tree) for m, tree in trees.items()}
    lines = lineage(trees)
    missing = []
    for module, tree in trees.items():
        for qual, node in public_names(module, tree).items():
            name = qual.rsplit(".", 1)[1]
            if qual.count(".") == 2:
                cls = qual.split(".")[1]
                keys = {("attr", name)} | {("self", sub, name)
                                           for sub, up in lines.items() if cls in up}
            else:
                keys = {("name", name), ("module", qual)}
            if not any(key in keys and not (m == module and
                                            node.lineno <= line <= node.end_lineno)
                       for m, found in read.items() for key, line in found):
                missing.append(qual)
    return missing


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_the_checker_tells_reads_apart():
    sources = {
        "a": ("class C:\n    def m(self):\n        return self.m()\n"
              "    def n(self):\n        pass\n"
              "def f():\n    return f()\n"
              "def g():\n    return C().n\n"),
        "b": "from . import a, c\na.g()\nstep = a.C\nc.E().r\nc.F, c.G\n",
        # E's self.p reads D.p, its base's, and no other p; F's reads
        # F.p inside F.p's own body
        "c": ("class D:\n    def p(self):\n        pass\n"
              "class E(D):\n    def r(self):\n        return self.p\n"
              "class F:\n    def p(self):\n        return self.p\n"
              "class G:\n    def p(self):\n        pass\n"),
    }
    assert unread(sources) == ["a.C.m", "a.f", "c.F.p", "c.G.p"]


def test_every_public_name_is_read_or_ledgered():
    assert sorted(set(unread(package_sources())) - set(LEDGER)) == []


def test_every_ledger_entry_names_an_unread_public_name():
    sources = package_sources()
    names = set()
    for module, text in sources.items():
        names |= set(public_names(module, ast.parse(text)))
    assert sorted(set(LEDGER) - names) == []
    assert sorted(set(LEDGER) - set(unread(sources))) == []


def test_every_reason_has_a_kind():
    assert [q for q, why in LEDGER.items() if why.split(":")[0] not in KINDS] == []


def test_perfbench_entries_occur_in_perfbench():
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted((ROOT / "perfbench").glob("*.py")))
    absent = [q for q, why in LEDGER.items() if why.startswith("perfbench:")
              and not re.search(r"\b%s\b" % re.escape(q.split(".", 1)[1]), text)]
    assert absent == []


def test_twin_entries_are_read_by_a_test():
    read = set()
    for p in sorted((ROOT / "tests").glob("*.py")):
        read |= {key[-1] for key, _ in reads(ast.parse(p.read_text(encoding="utf-8")))}
    assert [q for q, why in LEDGER.items() if why.startswith("twin:")
            and q.rsplit(".", 1)[1] not in read] == []
