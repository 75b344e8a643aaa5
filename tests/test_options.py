"""Every hashmac parameter with a default is on a reviewed list.

A parameter with a default is an option: a second code path that a caller
can reach, or that only the default ever reaches.  This test AST-walks
src/hashmac/ and compares the (function, parameter) pairs that have a
default with the list below, so a new option fails the suite until its
author adds it here.  It only reads src/hashmac/.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hashmac"

# (module.qualified function, parameter); a lambda is named <lambda>.
OPTIONS = {
    ("cli.main", "argv"),
    ("ensembles._joint_hits", "alive"),
    ("prob.as_distribution", "tol"),
    ("regions.mutual_information", "c_names"),
    ("regions.in_region_sw", "include_aux"),
    ("rng._hashmix", "mult"),
    ("scenarios.build_private_code", "ensemble_factory"),
    ("scenarios.build_private_code", "check_region"),
    ("scenarios.build_private_code", "_law"),
    ("scenarios.build_superposition_code", "ensemble_factory"),
    ("scenarios.build_superposition_code", "check_region"),
    ("scenarios.build_superposition_code", "_law"),
    ("slack._check_radius", "name"),
    ("verify.regions_suite", "split_points"),
}


def defaulted_parameters(source: str, module: str) -> set[tuple[str, str]]:
    """(module.qualified function, parameter) for each parameter with a default."""
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
                visit(child, f"{scope}.{child.name}")
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


def test_every_option_is_on_the_list():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted_parameters(path.read_text(), path.stem)
    assert found - OPTIONS == set(), "new options: add them to OPTIONS once reviewed"
    assert OPTIONS - found == set(), "options that are gone: take them off OPTIONS"
