"""Input validation helpers shared by the public entry points.

Exact quantities are fractions.Fraction throughout; floats are converted
exactly (every float is a dyadic rational), never by decimal approximation.
NaN and infinite inputs are rejected here with ValueError.
"""

import math
from fractions import Fraction

import numpy as np


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(f"exact values must be finite, got {x!r}")
        return Fraction(float(x))
    if isinstance(x, str):
        return parse_fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


# a token's decimal exponent may be at most this in size: Fraction builds
# 10^exponent exactly (0.2 s for 1e1000000); a float repr needs at most 324
_MAX_EXPONENT = 1000


def parse_fraction(token):
    """Exact rational from a file token; ValueError on any malformed one and
    on a decimal exponent past _MAX_EXPONENT in size."""
    try:
        exponent = abs(int(token.lower().partition("e")[2] or 0))
    except ValueError:
        exponent = 0  # malformed; Fraction rejects the token below
    if exponent > _MAX_EXPONENT:
        raise ValueError(f"exponent of {token!r} is past {_MAX_EXPONENT} in size")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def as_fraction_vector(v, length=None):
    vec = tuple(as_fraction(x) for x in v)
    if length is not None and len(vec) != length:
        raise ValueError(f"expected a vector of length {length}, got {len(vec)}")
    return vec


def as_fraction_matrix(rows):
    mat = tuple(as_fraction_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("rows have inconsistent lengths")
    return mat


def as_float_vector(v, length=None):
    try:
        arr = np.asarray([float(x) for x in v], dtype=np.float64)
    except OverflowError:
        raise ValueError("vector entries must be finite in float64") from None
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    if length is not None and arr.shape != (length,):
        raise ValueError(f"expected a vector of length {length}, got shape {arr.shape}")
    return arr


def check_eps(eps, upper=1.0):
    eps = float(eps)
    if not 0.0 < eps < upper:
        raise ValueError(f"eps must lie in (0, {upper}), got {eps}")
    return eps


def check_positive(name, x):
    try:
        x = float(x)
    except OverflowError:
        raise ValueError(f"{name} must be finite in float64, got {x!r}") from None
    if not x > 0.0 or not np.isfinite(x):
        raise ValueError(f"{name} must be a positive finite number, got {x}")
    return x


def as_integer(x):
    """x as an int; ValueError unless x has an integer value."""
    try:
        k = int(x)
    except (OverflowError, ValueError):
        k = None
    if k is None or k != x:
        raise ValueError(f"{x!r} is not an integer")
    return k


def check_count(name, k):
    """k as a positive int; a fractional count is rejected, not truncated."""
    try:
        count = as_integer(k)
    except (TypeError, ValueError):
        count = 0
    if count <= 0:
        raise ValueError(f"{name} must be a positive integer, got {k!r}")
    return count
