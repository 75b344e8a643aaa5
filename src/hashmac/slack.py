"""Finite-blocklength slack terms for typical-set size and entropy deviation.

All values are in bits.  The entropy-deviation terms require the divergence
radius to be at most 1/8; outside that range the bounds they feed are not
valid and evaluation is refused.
"""

from __future__ import annotations

import math

MAX_RADIUS = 0.125


class RadiusError(ValueError):
    """Divergence radius outside (0, 1/8]; shrink the margins."""


def _check_radius(gamma: float, name: str = "gamma"):
    if not 0 < gamma <= MAX_RADIUS:
        raise RadiusError(f"{name}={gamma} outside (0, {MAX_RADIUS}]")


def type_count_penalty(n: int, alphabet_size: int) -> float:
    """Bits lost to the polynomial number of types: |U| log2(n+1) / n."""
    if n < 1 or alphabet_size < 1:
        raise ValueError("n and alphabet_size must be positive")
    return alphabet_size * math.log2(n + 1) / n


def entropy_slack(gamma: float, alphabet_size: int) -> float:
    """Max entropy deviation over the radius-gamma typical set."""
    _check_radius(gamma)
    s = math.sqrt(2 * gamma)
    return -s * math.log2(s / alphabet_size)


def cond_entropy_slack(gamma_prime: float, gamma: float,
                       alphabet_size: int, cond_alphabet_size: int) -> float:
    """Conditional-entropy deviation bound for conditionally typical pairs."""
    _check_radius(gamma_prime, "gamma_prime")
    _check_radius(gamma)
    sp = math.sqrt(2 * gamma_prime)
    s = math.sqrt(2 * gamma)
    return -sp * math.log2(sp / (alphabet_size * cond_alphabet_size)) \
        + s * math.log2(alphabet_size)


def typical_size_slack(gamma: float, n: int, alphabet_size: int) -> float:
    """Two-sided slack on (1/n) log of the typical-set size."""
    return entropy_slack(gamma, alphabet_size) + type_count_penalty(n, alphabet_size)


def cond_typical_size_slack(gamma_prime: float, gamma: float, n: int,
                            alphabet_size: int, cond_alphabet_size: int) -> float:
    """Conditional variant of typical_size_slack."""
    return cond_entropy_slack(gamma_prime, gamma, alphabet_size, cond_alphabet_size) \
        + type_count_penalty(n, alphabet_size * cond_alphabet_size)
