"""Every top-level hashmac function, class and method is reached from outside the tests.

A definition that only tests call is a code path the lab never runs.  This
test AST-walks the modules of src/hashmac/ (not `__init__`, whose imports are
the package's exports) and fails on any top-level function or class that no
`Name` or `Attribute` node refers to outside its own definition, in
src/hashmac/, demos/ or perfbench/.  A method of a top-level class (other
than a dunder, which Python calls itself) counts as reached only through an
`Attribute` node outside its own definition.  Strings and comments are not
references.  Names on the reviewed list below are allowed.  It only reads
files.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hashmac"

# module.name -> why a test-only definition stays.
TEST_ONLY = {
    "gf.rank": "the planned exact empty-coset probability needs it",
    "gf.stack_labels": "the planned exact empty-coset probability needs it",
    "empirical.is_cond_typical": "scenarios imports it only as a site perfbench/spans.py traces",
    "empirical.seq_mutual_multi": "scenarios imports it only as a site perfbench/spans.py traces",
}


def _sources() -> dict[str, str]:
    """Source of each scanned file, keyed module-style: 'gf', 'demos.x', 'perfbench.y'."""
    files = {p.stem: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
    for folder in ("demos", "perfbench"):
        files.update({f"{folder}.{p.stem}": p for p in (ROOT / folder).glob("*.py")})
    return {key: path.read_text() for key, path in files.items()}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced(modules: dict[str, str], others: dict[str, str]) -> set[str]:
    """module.name of each top-level def or class, and module.Class.name of each
    method, of modules that nothing refers to.

    A reference is a Name or Attribute node with that identifier (for a
    method, an Attribute node only) in any source of modules or others,
    outside the definition's own lines.  Dunder methods are not checked.
    """
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    defs = []  # (module, qualified name, node, is a method)
    for key, source in {**modules, **others}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((key, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((key, node.lineno, True))
        if key not in modules:
            continue
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defs.append((key, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(key, f"{node.name}.{m.name}", m, True) for m in node.body
                         if isinstance(m, FUNCTIONS)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
    return {f"{key}.{name}" for key, name, node, method in defs
            if not any((attr or not method)
                       and (where != key or not node.lineno <= line <= node.end_lineno)
                       for where, line, attr in refs.get(node.name, ()))}


def test_unreferenced_finds_test_only_definitions():
    mod = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Named:\n    pass\n"
           "def only_in_a_string():\n    pass\n"
           "def reached_by_attribute():\n    pass\n"
           "def _private_caller():\n    return used()\n")
    other = ("import mod\n"
             "from mod import Named\n"
             "'only_in_a_string'  # reached_by_attribute\n"
             "mod.reached_by_attribute()\nmod._private_caller()\n")
    assert unreferenced({"mod": mod}, {"demo": other}) == {
        "mod.recursive", "mod.Named", "mod.only_in_a_string"}


def test_unreferenced_finds_test_only_methods():
    mod = ("class K:\n"
           "    def __init__(self):\n        self.recursive()\n"
           "    def recursive(self):\n        return self.recursive()\n"
           "    def by_attribute(self):\n        pass\n"
           "    def by_name_only(self):\n        pass\n"
           "    @property\n    def prop(self):\n        return 1\n"
           "    def only_in_a_string(self):\n        pass\n"
           "def by_name_only():\n    return K\n")
    other = ("import mod\nfrom mod import by_name_only\n"
             "k = mod.K()\nk.by_attribute()\nk.prop\nby_name_only()\n"
             "'only_in_a_string'\n")
    # __init__ is a dunder; recursive is reached from __init__, outside its own lines.
    assert unreferenced({"mod": mod}, {"demo": other}) == {
        "mod.K.by_name_only", "mod.K.only_in_a_string"}


def test_every_definition_is_reached_outside_the_tests():
    sources = _sources()
    modules = {k: v for k, v in sources.items() if "." not in k}
    found = unreferenced(modules, {k: v for k, v in sources.items() if "." in k})
    assert found - TEST_ONLY.keys() == set(), "reached only from tests: remove them or list them"
    assert TEST_ONLY.keys() - found == set(), "listed names that are now reached: take them off"
