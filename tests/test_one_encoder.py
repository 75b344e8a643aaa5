"""No hashmac module but codec names the encoder's tie rule, so one module holds the encoder.

`codec.Codebook` is the encoder: a float tie group (`tie_groups`,
`_tie_limit`, `REL_TOL`), exact refinement on GF(2) (`exact_min`), then
the first row.  A module that named one of these would be writing a second
encoder, which the codec suite's reference check would not see.  This test
only reads src/hashmac/.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hashmac"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "codec.py")
TIE_RULE = {"tie_groups", "exact_min", "_tie_limit", "REL_TOL"}


def tie_rule_names(source: str) -> set[str]:
    """The tie-rule names the module imports, names or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names} & TIE_RULE
        elif isinstance(node, ast.Name) and node.id in TIE_RULE:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in TIE_RULE:
            found.add(node.attr)
    return found


def test_tie_rule_names_finds_each_form():
    assert tie_rule_names("from .codec import exact_min as pick\n") == {"exact_min"}
    assert tie_rule_names("from . import codec\nx = codec.tie_groups(d, e)\n") == {"tie_groups"}
    assert tie_rule_names("def f(t=REL_TOL):\n    return _tie_limit(t)\n") \
        == {"REL_TOL", "_tie_limit"}
    assert not tie_rule_names("# tie_groups\nABS_TOL = 1e-14\nx = 'exact_min'\n")


def test_codec_defines_the_tie_rule():
    assert tie_rule_names((SRC / "codec.py").read_text()) == TIE_RULE


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.stem)
def test_only_codec_names_the_tie_rule(path):
    assert not tie_rule_names(path.read_text()), f"hashmac.{path.stem} names the tie rule"
