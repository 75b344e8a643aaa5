"""Each enumeration limit has one owner, read at call time: no function takes a budget.

`gf.ENUMERATION_BUDGET` bounds vectors, cosets, decoder products and types;
`ensembles.SUPPORT_BUDGET` bounds the labels of a support walk.  A `budget`
parameter would be a second, per-call limit, and a module that imported a
constant by name would hold a copy that a monkeypatch of the owner misses.
This test only reads src/hashmac/.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hashmac"
MODULES = sorted(SRC.glob("*.py"))
LIMITS = ("ENUMERATION_BUDGET", "SUPPORT_BUDGET")


def limit_breaches(source: str) -> list[str]:
    """Functions that take a `budget` parameter, and imports of a limit by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "budget" for p in params):
                found.append(f"{getattr(node, 'name', 'lambda')} takes budget")
        if isinstance(node, ast.ImportFrom):
            found += [f"imports {a.name}" for a in node.names if a.name in LIMITS]
    return found


def test_limit_breaches_finds_each_form():
    assert limit_breaches("def f(x, budget=3):\n    pass\n") == ["f takes budget"]
    assert limit_breaches("class C:\n    def __init__(self, *, budget):\n        pass\n") \
        == ["__init__ takes budget"]
    assert limit_breaches("from .gf import ENUMERATION_BUDGET, rank\n") \
        == ["imports ENUMERATION_BUDGET"]
    assert limit_breaches("from .ensembles import SUPPORT_BUDGET as B\n") \
        == ["imports SUPPORT_BUDGET"]
    assert not limit_breaches("from . import gf\n\ndef f(n):\n"
                              "    return n > gf.ENUMERATION_BUDGET\n"
                              "# budget\nx = 'SUPPORT_BUDGET'\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_budget_parameter_and_no_copied_limit(path):
    assert not limit_breaches(path.read_text()), f"hashmac.{path.stem}"
