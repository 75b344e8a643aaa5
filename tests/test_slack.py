import math

import pytest

from hashmac.slack import (RadiusError, cond_entropy_slack, cond_typical_size_slack,
                           entropy_slack, type_count_penalty, typical_size_slack)


def test_type_count_penalty_value():
    assert abs(type_count_penalty(4, 2) - 2 * math.log2(5) / 4) < 1e-15


def test_entropy_slack_value():
    assert abs(entropy_slack(0.02, 2) - (-0.2 * math.log2(0.1))) < 1e-15


def test_size_slack_is_entropy_slack_plus_penalty():
    for n in (4, 8, 64):
        for g in (0.01, 0.05, 0.125):
            assert typical_size_slack(g, n, 2) == \
                entropy_slack(g, 2) + type_count_penalty(n, 2)
            assert cond_typical_size_slack(g, g, n, 2, 3) == \
                cond_entropy_slack(g, g, 2, 3) + type_count_penalty(n, 6)


def test_cond_entropy_slack_formula():
    g, gp = 0.02, 0.08
    sp, s = math.sqrt(2 * gp), math.sqrt(2 * g)
    want = -sp * math.log2(sp / 6) + s * math.log2(2)
    assert abs(cond_entropy_slack(gp, g, 2, 3) - want) < 1e-15


def test_radius_bounds_enforced():
    with pytest.raises(RadiusError):
        entropy_slack(0.2, 2)
    with pytest.raises(RadiusError):
        entropy_slack(0.0, 2)
    with pytest.raises(RadiusError):
        cond_entropy_slack(0.05, 0.3, 2, 2)
