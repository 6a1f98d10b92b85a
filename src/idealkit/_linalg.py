"""Exact integer linear algebra for the cone kernel.

Matrices are row-major lists of integer rows.  All elimination happens in
one routine, ``_echelon``: integer column operations bring A to its column
Hermite form A V = H with V unimodular.  The rank is the pivot count and
the greedy independent rows are the pivot rows.  V is not built: below A's
rows, the unit rows become I V = V, and when A's rank r is short the
pivots run on into them, so V's columns r.. come out as the Hermite normal
form of the integer kernel (Cohen, GTM 138, 2.4).  The pivot rows of H
form a lower-triangular L with a positive diagonal; ``lower_solve`` solves
x L = s c exactly, which is all the cone kernel needs of L^-1.  Sizes stay
tiny (the ambient dimension is the variable count plus one), so clarity
wins over asymptotics.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def dot(a, b):
    """Inner product, truncated to the shorter vector as ``zip`` is."""
    return sum(map(mul, a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _xgcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _echelon(A, ncols):
    """Column Hermite form (H, pivots) of an integer matrix: A V = H.

    V is unimodular and not built: stack A on the ncols unit rows to read
    it off H past A's rows.  Rows are taken in order; row i gets the next
    pivot column r exactly when it is independent of the rows before it,
    and ``pivots`` lists those rows.  An extended-gcd step per pair of
    columns gathers row i's entries right of the pivots into column r; the
    pivot is made positive and the entries to its left are reduced modulo
    it.  Rows above i are zero from column r on, so only rows i.. take part.
    """
    H = [list(map(int, row)) for row in A]
    pivots = []
    r = 0
    for i, row in enumerate(H):
        if r == ncols:
            break
        rows = H[i:]
        for j in range(r + 1, ncols):
            if row[j] == 0:
                continue
            g, x, y = _xgcd(row[r], row[j])
            p, q = row[r] // g, row[j] // g
            for w in rows:
                w[r], w[j] = x * w[r] + y * w[j], p * w[j] - q * w[r]
        piv = row[r]
        if piv == 0:
            continue
        if piv < 0:
            piv = -piv
            for w in rows:
                w[r] = -w[r]
        for c in range(r):
            q = row[c] // piv
            if q:
                for w in rows:
                    w[c] -= q * w[r]
        pivots.append(i)
        r += 1
    return H, pivots


def rank(rows):
    """Rank of an integer matrix: its number of pivots."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def lower_solve(L, c, s):
    """The integer row vector x with x L = s c, for L square lower-triangular
    with a positive diagonal and s a multiple of det L.

    s L^-1 is integral, so back-substitution from the last column divides
    exactly: column j gives x_j L_jj = s c_j - sum_{i > j} x_i L_ij.
    """
    t = len(L)
    x = [0] * t
    for j in range(t - 1, -1, -1):
        x[j] = (s * c[j] - sum(x[i] * L[i][j] for i in range(j + 1, t))) // L[j][j]
    return x
