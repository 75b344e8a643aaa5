"""Every hashmac parameter with a default is on a reviewed list.

A parameter with a default is an option: a second code path that a caller
can reach, or that only the default ever reaches.  A dataclass field with
a default is a parameter of the class's __init__, so it counts too, unless
it is declared field(init=False).  This test AST-walks src/hashmac/ and
compares the (function or dataclass, parameter) pairs that have a default
with the list below, so a new option fails the suite until its author
adds it here.  It only reads src/hashmac/.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hashmac"

# (module.qualified function or dataclass, parameter); a lambda is named <lambda>.
OPTIONS = {
    ("cli.main", "argv"),
    ("ensembles.EnsembleSpec", "column_degree"),
    ("ensembles._joint_hits", "alive"),
    ("prob.as_distribution", "tol"),
    ("regions.mutual_information", "c_names"),
    ("regions.in_region_sw", "include_aux"),
    ("regions.RegionVerdict", "witness"),
    ("rng._hashmix", "mult"),
    ("scenarios.build_private_code", "ensemble_factory"),
    ("scenarios.build_private_code", "check_region"),
    ("scenarios.build_private_code", "_law"),
    ("scenarios.build_superposition_code", "ensemble_factory"),
    ("scenarios.build_superposition_code", "check_region"),
    ("scenarios.build_superposition_code", "_law"),
    ("slack._check_radius", "name"),
    ("verify.LemmaReport", "vacuous"),
    ("verify.regions_suite", "split_points"),
}


def _named(node, name: str) -> bool:
    """Whether node is `name`, `something.name` or a call of either."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def defaulted_parameters(source: str, module: str) -> set[tuple[str, str]]:
    """(module.qualified function or dataclass, parameter) for each parameter with a default."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{scope}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                positional = args.posonlyargs + args.args
                params = positional[len(positional) - len(args.defaults):]
                params += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.update((name, a.arg) for a in params)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                name = f"{scope}.{child.name}"
                if any(_named(d, "dataclass") for d in child.decorator_list):
                    found.update((name, f.target.id) for f in child.body
                                 if isinstance(f, ast.AnnAssign) and f.value is not None
                                 and not _init_false(f.value))
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_defaulted_parameters_finds_every_kind():
    src = ("def f(a, b=1, /, c=2, *args, d, e=3, **kw):\n"
           "    g = lambda x, y=0: x\n"
           "class K:\n"
           "    def m(self, z=None):\n"
           "        def inner(w):\n"
           "            pass\n"
           "def plain(a, b):\n"
           "    pass\n")
    assert defaulted_parameters(src, "mod") == {
        ("mod.f", "b"), ("mod.f", "c"), ("mod.f", "e"),
        ("mod.f.<lambda>", "y"), ("mod.K.m", "z")}


def test_defaulted_parameters_finds_dataclass_fields():
    src = ("from dataclasses import dataclass, field\n"
           "import dataclasses\n"
           "@dataclass(frozen=True)\n"
           "class A:\n"
           "    x: int\n"
           "    y: int = 0\n"
           "    z: list = field(default_factory=list)\n"
           "    w: int = field(init=False, repr=False)\n"
           "    def m(self, k=1):\n"
           "        pass\n"
           "@dataclasses.dataclass\n"
           "class B:\n"
           "    v: str | None = None\n"
           "class Plain:\n"
           "    c: int = 3\n")
    assert defaulted_parameters(src, "mod") == {
        ("mod.A", "y"), ("mod.A", "z"), ("mod.A.m", "k"), ("mod.B", "v")}


def test_every_option_is_on_the_list():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted_parameters(path.read_text(), path.stem)
    assert found - OPTIONS == set(), "new options: add them to OPTIONS once reviewed"
    assert OPTIONS - found == set(), "options that are gone: take them off OPTIONS"
