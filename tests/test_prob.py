import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashmac.cli as cli
from hashmac.channel import Dmc, deterministic_dmc
from hashmac.empirical import conditional_divergences, divergence_to, is_cond_typical
from hashmac.prob import SUM_TOL, CondPmf, Pmf, as_distribution, entropy
from hashmac.regions import JOINT_TOTAL_TOL, JointLaw, joint_sw, joint_ts, mutual_information


def test_entropy_fair_coin():
    assert entropy(Pmf((0, 1), [0.5, 0.5])) == 1.0


def test_entropy_uniform_four():
    assert entropy(Pmf(range(4), [0.25] * 4)) == 2.0


def test_zero_prob_contributes_nothing():
    assert entropy(Pmf((0, 1), [1.0, 0.0])) == 0.0


def test_mutual_info_independent_is_zero():
    law = JointLaw(("u", "v"), np.full((2, 2), 0.25))
    assert abs(mutual_information(law, ["u"], ["v"])) < 1e-12


def test_mutual_info_copy_channel():
    law = JointLaw(("u", "v"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert abs(mutual_information(law, ["u"], ["v"]) - 1.0) < 1e-12


def test_cond_mutual_info_chain():
    # w = u xor v with independent fair u, v: I(U;V|W) = 1 bit.
    t = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            t[u, v, (u + v) % 2] = 0.25
    law = JointLaw(("u", "v", "w"), t)
    assert abs(mutual_information(law, ["u"], ["v"], ["w"]) - 1.0) < 1e-12


# Divergences of a distribution are taken from a sequence of that type.

def test_divergence_self_zero():
    p = Pmf((0, 1), [0.3, 0.7])
    assert abs(divergence_to([0] * 3 + [1] * 7, p)) < 1e-12


def test_divergence_point_vs_fair():
    assert divergence_to([0, 0], Pmf((0, 1), [0.5, 0.5])) == 1.0


def test_divergence_disjoint_support():
    assert divergence_to([0], Pmf((0, 1), [0, 1])) == math.inf


def test_divergence_alphabet_mismatch():
    with pytest.raises(ValueError):
        divergence_to([0, 1], Pmf((0, 2), [0.5, 0.5]))


def test_cond_entropy_and_divergence():
    cond = CondPmf((0, 1), (0, 1), [[0.5, 0.5], [1.0, 0.0]])
    # v has the type of base, and u given v the rows of cond.
    same = conditional_divergences(np.array([[0, 1, 0, 0]]), cond, np.array([0, 0, 1, 1]))
    assert same.tolist() == [0.0]
    assert is_cond_typical([0, 1, 0, 0], [0, 0, 1, 1], cond, 1e-300)


def test_cond_divergence_weights_rows():
    # Only the rows of symbols that v takes count: here row 0 alone.
    q2 = CondPmf((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
    d = conditional_divergences(np.array([[0, 0]]), q2, np.array([0, 0]))
    assert abs(d[0] - 1.0) < 1e-12
    # Strict membership: a radius just past 1 bit admits the pair, 1 bit does not.
    assert is_cond_typical([0, 0], [0, 0], q2, 1.0 + 1e-12)
    assert not is_cond_typical([0, 0], [0, 0], q2, 1.0 - 1e-12)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf((0, 1), [0.6, 0.6])
    with pytest.raises(ValueError):
        Pmf((0, 1), [-0.1, 1.1])
    # Tolerance of 1e-12 on the total mass.
    Pmf((0, 1), [0.5, 0.5 + 5e-13])


# One distribution check: every constructor that takes a law accepts exactly
# the rows that prob.as_distribution accepts.

def _is_distribution(row, tol):
    """The rule, written out: finite nonnegative cells summing to 1 within tol."""
    return (all(math.isfinite(v) and v >= 0 for v in row)
            and abs(sum(row) - 1.0) <= tol)


@st.composite
def _rows(draw, size, tol):
    """A distribution row, one off in its sum by up to 3 tol, or one with a bad cell."""
    weights = draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    row = [w / sum(weights) for w in weights]
    kind = draw(st.sampled_from(["as drawn", "off by a little", "bad cell"]))
    if kind == "off by a little":
        row[-1] += draw(st.floats(-3, 3)) * tol
    elif kind == "bad cell":
        row[draw(st.integers(0, size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-1, -1e-300))
    return row


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_law_constructor_agrees_with_the_one_check(data):
    size = data.draw(st.integers(1, 3))
    mu = data.draw(_rows(2, SUM_TOL))
    r1, r2, r3, r4 = (data.draw(_rows(size, SUM_TOL)) for _ in range(4))
    ok = lambda *rows: all(_is_distribution(r, SUM_TOL) for r in rows)
    for r in (mu, r1, r2, r3, r4):
        assert _accepts(lambda: as_distribution(r)) == ok(r)
    dmc = deterministic_dmc((size, size), 2 * size - 1, lambda a, b: a + b)
    cases = [
        (lambda: Pmf(range(size), r1), [r1]),
        (lambda: Pmf((0, 1), mu), [mu]),
        (lambda: CondPmf((0, 1), range(size), [r1, r2]), [r1, r2]),
        (lambda: Dmc((2, 2), size, [[r1, r2], [r3, r4]]), [r1, r2, r3, r4]),
        (lambda: joint_ts([1.0], [[r1], [r2]], dmc), [r1, r2]),
        (lambda: joint_ts(mu, [[r1, r2], [r3, r4]], dmc), [mu, r1, r2, r3, r4]),
        (lambda: joint_sw(mu, [r1, r2], [r3, r4], dmc), [mu, r1, r2, r3, r4]),
    ]
    for build, rows in cases:
        assert _accepts(build) == ok(*rows)
    # The config parsers take the same rows, and name the first bad one.
    if ok(r1):
        cli._parse_dist(r1, size, "f")
    else:
        with pytest.raises(cli.ConfigError, match=r"^f: not a probability distribution"):
            cli._parse_dist(r1, size, "f")
    bad = [i for i, r in enumerate((r1, r2)) if not ok(r)]
    if not bad:
        cli._parse_cond([r1, r2], 2, size, "g")
    else:
        with pytest.raises(cli.ConfigError,
                           match=rf"^g\[{bad[0]}\]: not a probability distribution"):
            cli._parse_cond([r1, r2], 2, size, "g")


@settings(max_examples=200, deadline=None)
@given(_rows(4, JOINT_TOTAL_TOL))
def test_joint_law_checks_its_whole_table_at_its_own_tolerance(cells):
    accepted = _accepts(lambda: JointLaw(("a", "b"), np.reshape(cells, (2, 2))))
    assert accepted == _is_distribution(cells, JOINT_TOTAL_TOL)


def test_nan_and_off_sum_rows_are_rejected():
    nan = float("nan")
    noisy = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
    for build in (lambda: Pmf((0, 1), [nan, 1.0]),
                  lambda: CondPmf((0, 1), (0, 1), [[0.5, 0.5], [nan, 1.0]]),
                  lambda: Dmc((2,), 2, [[0.5, 0.5], [nan, 1.0]]),
                  lambda: JointLaw(("a",), [nan, 1.0]),
                  lambda: joint_ts([1.0], [[[nan, 1.0]], [[0.5, 0.5]]], noisy),
                  # Rows summing to 1.3 and 0.7 under a uniform mu make a
                  # table whose total is 1: only a row check sees them.
                  lambda: joint_sw([0.5, 0.5], [[0.7, 0.6], [0.35, 0.35]],
                                   [[0.5, 0.5]] * 2, noisy),
                  lambda: joint_ts([0.5, 0.5], [[[0.7, 0.6], [0.35, 0.35]],
                                                [[0.5, 0.5]] * 2], noisy)):
        with pytest.raises(ValueError, match="not a distribution"):
            build()


def test_the_check_names_the_first_bad_row_and_returns_a_frozen_copy():
    for values, message in (
            ([[0.5, 0.5], [float("nan"), 1.0], [-1.0, 2.0]], r"^row 1 is .*: a cell is not finite"),
            ([[[0.5, 0.5], [1.0, 0.0]], [[-0.5, 1.5], [1.0, 0.0]]], r"^row \(1, 0\) is .*negative"),
            ([0.5, 1.0], r"^the values are not a distribution: its cells sum to 1.5")):
        with pytest.raises(ValueError, match=message):
            as_distribution(values)
    for bad in (["a", 1.0], [[0.5, 0.5], [1.0]], [10**400, 0.0], 1.0, []):
        with pytest.raises(ValueError):
            as_distribution(bad)
    src = np.array([[0.25, 0.75]])
    out = as_distribution(src)
    assert out is not src and not out.flags.writeable and out.dtype == float
    src[0, 0] = 0.5
    assert out.tolist() == [[0.25, 0.75]]
