"""No hashmac module but prob reads SUM_TOL, so one module holds the distribution rule.

Every law the package takes in is judged by `prob.as_distribution`; a module
that read the tolerance itself would be writing a second rule.  This test
only reads src/hashmac/.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hashmac"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "prob.py")


def reads_sum_tol(source: str) -> bool:
    """Whether the module imports, names or takes the attribute SUM_TOL."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "SUM_TOL" for a in node.names):
            return True
        if isinstance(node, ast.Name) and node.id == "SUM_TOL":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "SUM_TOL":
            return True
    return False


def test_reads_sum_tol_finds_each_form():
    assert reads_sum_tol("from .prob import SUM_TOL\n")
    assert reads_sum_tol("from . import prob\nx = prob.SUM_TOL\n")
    assert reads_sum_tol("def f(t=SUM_TOL):\n    pass\n")
    assert not reads_sum_tol("# SUM_TOL\nJOINT_TOTAL_TOL = 1e-9\nx = 'SUM_TOL'\n")


def test_prob_defines_sum_tol():
    assert reads_sum_tol((SRC / "prob.py").read_text())


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.stem)
def test_only_prob_reads_sum_tol(path):
    assert not reads_sum_tol(path.read_text()), f"hashmac.{path.stem} reads SUM_TOL"
