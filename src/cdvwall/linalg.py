"""Exact linear algebra on small integer matrices.

Matrices are tuples of row tuples, vectors are flat tuples.  Every entry is
an arbitrary-precision integer and there are no floats or fractions.  All
elimination runs in one fraction-free Gauss-Jordan routine, `eliminate`,
which returns a determinant and an adjugate product rather than a quotient.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

Vec = tuple
Mat = tuple


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def eliminate(m: Mat, rhs: Mat = ()) -> tuple[int, Optional[Mat]]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix [m | rhs].

    Each step replaces a row r by (pivot * r - r[k] * pivot_row) // prev,
    where prev is the previous pivot.  The division is exact (Bareiss,
    Math. Comp. 1968), so every entry stays an integer.  Returns det(m) and
    adj(m) . rhs, or (0, None) when m is singular; m x = rhs then has the
    solution x = adj(m) . rhs / det(m).
    """
    n = len(m)
    a = [list(row) + list(extra) for row, extra in zip(m, rhs or [()] * n)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(n):
            if i == k:
                continue
            row, f = a[i], a[i][k]
            row[k + 1:] = [(pivot * x - f * y) // prev
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    # the left block is now prev * I, the right one prev * m^-1 . rhs
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("length mismatch in pairing")
    return sum(map(mul, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vec_gcd(u: Sequence) -> int:
    """The gcd of the absolute entries; 0 for the zero or empty vector."""
    return gcd(*u)


def primitive(u: Vec) -> Vec:
    """Divide out the gcd, then normalise the first nonzero entry positive."""
    g = vec_gcd(u)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    w = tuple(a // g for a in u)
    for a in w:
        if a != 0:
            return w if a > 0 else vec_neg(w)
    raise ValueError("unreachable")


def integer_multiple_of(v: Vec, u: Vec) -> Optional[int]:
    """Return k with v == k*u, or None.  u must be nonzero."""
    lead = next((i for i, a in enumerate(u) if a != 0), None)
    if lead is None:
        raise ValueError("u is zero")
    if v[lead] % u[lead] != 0:
        return None
    k = v[lead] // u[lead]
    return k if v == tuple(k * a for a in u) else None


def is_colinear(v: Vec, u: Vec) -> bool:
    """True when v lies on the rational line through u (u nonzero): every
    2x2 minor of (v, u) vanishes, which it suffices to check against one
    coordinate where u is nonzero."""
    lead = next((i for i, a in enumerate(u) if a != 0), None)
    if lead is None:
        raise ValueError("u is zero")
    ul, vl = u[lead], v[lead]
    return all(x * ul == vl * y for x, y in zip(v, u))
