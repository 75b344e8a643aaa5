"""No hashmac module but rng reads raw words or writes numpy's draw constants.

`rng.Stream` is the one implementation of numpy's draw rules: Lemire's
bounded draw on 32-bit halves and the doubles `(w >> 11) * 2^-53`.  A module
that read `random_raw`, or held 2^32 - 1 or 2^-53 (a numeric literal or a
constant expression of them), would be writing a second copy.  This test
only reads src/hashmac/.
"""

import ast
import operator
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hashmac"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "rng.py")

DRAW_CONSTANTS = (2**32 - 1, 2.0**-53)
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Pow: operator.pow, ast.LShift: operator.lshift, ast.RShift: operator.rshift,
           ast.BitAnd: operator.and_, ast.BitOr: operator.or_, ast.BitXor: operator.xor}


def constant_value(node):
    """The number a node of numeric literals and arithmetic on them stands for, else None."""
    if isinstance(node, ast.Constant):
        value = node.value
        return value if isinstance(value, (int, float)) and not isinstance(value, bool) else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = constant_value(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = constant_value(node.left), constant_value(node.right)
        if left is not None and right is not None:
            return _BINARY[type(node.op)](left, right)
    return None


def copies_draw_rule(source: str) -> bool:
    """Whether the module names random_raw, in any form, or holds a draw constant."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "random_raw" for a in node.names):
            return True
        if isinstance(node, ast.Name) and node.id == "random_raw":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "random_raw":
            return True
        if isinstance(node, ast.Constant) and node.value == "random_raw":  # getattr(s, ...)
            return True
        if constant_value(node) in DRAW_CONSTANTS:
            return True
    return False


def test_copies_draw_rule_finds_each_form():
    assert copies_draw_rule("words = rng.random_raw(4)\n")
    assert copies_draw_rule("draw = getattr(rng, 'random_raw')\n")
    assert copies_draw_rule("from .rng import random_raw\n")
    assert copies_draw_rule("x = h & 0xFFFFFFFF\n")
    assert copies_draw_rule("MASK = 2**32 - 1\n")
    assert copies_draw_rule("MASK = (1 << 32) - 1\n")
    assert copies_draw_rule("UNIT = 2.0**-53\n")
    assert copies_draw_rule("u = (w >> 11) * 1.1102230246251565e-16\n")
    assert not copies_draw_rule("# random_raw, 0xFFFFFFFF\n"
                                "doc = 'reads random_raw words'\n"
                                "x = (2**32 - q) % q\n"
                                "y = 2**32 + 2**-52\n")


def test_rng_holds_the_draw_rule():
    assert copies_draw_rule((SRC / "rng.py").read_text())


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.stem)
def test_only_rng_copies_the_draw_rule(path):
    assert not copies_draw_rule(path.read_text()), f"hashmac.{path.stem} copies a draw rule"
