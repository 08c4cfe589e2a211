"""Exact comparisons against logarithmic bounds, avoiding floating point.

All metric quantities in this library are `fractions.Fraction`.  Theorem
bounds of the form ``2*delta*(log2(n)+1)`` are irrational for most n, so
instead of materializing them we compare exactly through integer powers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_float(x: Fraction) -> float:
    """x as a float for a display, or math.inf where x is too large for one
    (where `float(x)` raises)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def leq_log2(q: Fraction, n: int) -> bool:
    """Exact test of ``q <= log2(n)`` for an integer n >= 1.

    Powers of two and values outside [bits-1, bits] decide by integer
    arithmetic alone; only the genuine uncertainty band computes
    2**a <= n**b, so denominators must stay moderate there."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if q <= 0:
        return True
    a, b = q.numerator, q.denominator
    bits = n.bit_length()
    if n == 1 << (bits - 1):
        return a <= (bits - 1) * b
    if a <= (bits - 1) * b:
        return True  # 2^a <= 2^{(bits-1) b} < n^b
    if a >= bits * b:
        return False  # 2^a >= 2^{bits b} > n^b
    if b > 1 << 22:
        raise ValueError("denominator too large for the exact log comparison")
    # q <= log2(n)  <=>  2**a <= n**b   (a, b > 0)
    return 2 ** a <= n ** b


def within_log_bound(value: Fraction, delta: Fraction, n: int) -> bool:
    """Exact test of ``value <= 2*delta*(log2(n) + 1)``."""
    if value <= 0:
        return True
    if delta == 0:
        return False
    return leq_log2(value / (2 * delta) - 1, n)


LOG2_PRECISION_BITS = 12


def log2_upper(n: int) -> Fraction:
    """Smallest dyadic p/2^LOG2_PRECISION_BITS that is >= log2(n).

    Used where a rational stand-in for log2(n) is needed as a tolerance;
    rounding up keeps certificate thresholds sound (never tighter than the
    true bound).  The verification computes n**(2^LOG2_PRECISION_BITS)
    once, so the precision stays moderate (a grid of 1/4096).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Fraction(0)
    exact = n.bit_length() - 1
    if n == 1 << exact:
        return Fraction(exact)
    denom = 1 << LOG2_PRECISION_BITS
    lo, hi = exact * denom, (exact + 1) * denom
    # binary search the least p with n <= 2**(p/denom), i.e. n**denom <= 2**p
    npow = n ** denom
    while lo < hi:
        mid = (lo + hi) // 2
        if npow <= 1 << mid:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, denom)
