"""The codec suite's reference searches stay independent of the code they check.

`verify._ref_*` brute-force every binary vector and score candidates with
their own scalar `Counter`/`Fraction` code.  If one of them used a name
imported from a hashmac module (a kernel, an enumeration, an elimination),
a fault there would reach both sides of the comparison and cancel out.
The mutation tests show the suite still reports a tie-order fault.
"""

import ast
import itertools
import pathlib

import numpy as np

from hashmac import verify
from hashmac.codec import ABS_TOL, EmptyCosetError, MinDivDecoder
from hashmac.gf import enumerate_coset, stack_labels

VERIFY = pathlib.Path(__file__).resolve().parent.parent / "src" / "hashmac" / "verify.py"
ALLOWED = {"ABS_TOL"}


def oracle_breaches(source: str) -> list[str]:
    """Names a `_ref_*` function reads that come from a hashmac import.

    A hashmac import is a relative one or one from the `hashmac` package;
    the names it binds include modules (`from . import slack`).  A call of
    another top-level function of the module counts too, unless that
    function is a `_ref_*` one itself, which is checked on its own.
    """
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "hashmac"):
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "hashmac"}
    helpers = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_ref_")}
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_ref_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and (
                    node.id in (imported - ALLOWED) or node.id in helpers):
                found.append(f"{fn.name} reads {node.id}")
    return found


def test_oracle_breaches_finds_each_form():
    head = ("from .codec import ABS_TOL, EncodeTarget\nfrom . import gf as g\n"
            "import hashmac.empirical\nimport numpy as np\n\n"
            "def helper(x):\n    return x\n\n")
    assert oracle_breaches(head + "def _ref_a(x):\n    return EncodeTarget(x)\n") \
        == ["_ref_a reads EncodeTarget"]
    assert oracle_breaches(head + "def _ref_a(n):\n    return g.all_vectors(2, n)\n") \
        == ["_ref_a reads g"]
    assert oracle_breaches(head + "def _ref_a(x):\n    return hashmac.empirical.f(x)\n") \
        == ["_ref_a reads hashmac"]
    assert oracle_breaches(head + "def _ref_a(x):\n"
                           "    def inner(y):\n        return helper(y)\n"
                           "    return inner(x)\n") == ["_ref_a reads helper"]
    assert not oracle_breaches(head + "def _ref_b(x):\n    return x\n\n"
                               "def _ref_a(x):\n    return np.sum(_ref_b(x)) + ABS_TOL\n\n"
                               "def other():\n    return EncodeTarget\n")


def test_ref_oracles_use_no_hashmac_name_but_abs_tol():
    source = VERIFY.read_text()
    names = {n.name for n in ast.parse(source).body
             if isinstance(n, ast.FunctionDef) and n.name.startswith("_ref_")}
    assert {"_ref_encode", "_ref_decode", "_ref_select",
            "_ref_div_cells", "_ref_key_cells"} <= names
    assert not oracle_breaches(source)


def test_ref_space_is_every_vector_in_product_order():
    for n in range(0, 6):
        space = verify._ref_space(n)
        assert space.shape == (2**n, n)
        assert [tuple(r) for r in space.tolist()] == list(itertools.product((0, 1), repeat=n))
        # Built once per n and shared, so no caller may write to it.
        assert verify._ref_space(n) is space
        assert not space.flags.writeable


def _reports():
    reports = verify.codec_suite()
    return {r.name: r.violations for r in reports}


def _last_tie_encode(cs, target):
    """The encoder with its ties broken toward the last coset member."""
    cands = enumerate_coset(stack_labels(cs.check, cs.message_map),
                            np.concatenate([cs.syndrome, cs.message]))
    if cands.shape[0] == 0:
        raise EmptyCosetError("empty coset")
    d = target.divergences(cands)
    return cands[np.flatnonzero(d <= d.min() * (1 + 1e-12) + ABS_TOL)[-1]]


def _last_tie_decode(labels, syndromes, y, model, u=None):
    """The decoder with its ties broken toward the last product member."""
    dec = MinDivDecoder(labels, syndromes, model, u=u)
    last = dec._ties(np.asarray(y, dtype=np.int64)[None])[0][-1]
    return tuple(c[i] for c, i in zip(dec.cosets, np.unravel_index(last, dec.sizes)))


def test_codec_suite_catches_last_tie_encoder(monkeypatch):
    assert _reports()["encoder-reference-equivalence"] == 0
    monkeypatch.setattr(verify, "min_div_encode", _last_tie_encode)
    assert _reports()["encoder-reference-equivalence"] > 0


def test_codec_suite_catches_last_tie_decoder(monkeypatch):
    assert _reports()["decoder-reference-equivalence"] == 0
    monkeypatch.setattr(verify, "min_div_decode", _last_tie_decode)
    assert _reports()["decoder-reference-equivalence"] > 0
