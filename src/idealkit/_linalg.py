"""Exact integer linear algebra for the cone kernel.

Matrices are row-major lists of integer rows.  All elimination happens in
one routine, ``_echelon``: integer column operations bring A to its column
Hermite form A V = H with V unimodular.  Rank, a greedy independent row
subset, a saturated kernel lattice basis and a diagonal form are read off
H, V and the pivot rows.  Sizes stay tiny (the ambient dimension is the
variable count plus one), so clarity wins over asymptotics; the size
reduction keeps the entries of H below their pivots.
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
    """Column Hermite form (H, V, pivots) of an integer matrix: A V = H.

    V is unimodular.  Rows are taken in order; row i gets the next pivot
    column r exactly when it is independent of the rows before it, and
    ``pivots`` lists those rows.  An extended-gcd step per pair of columns
    gathers row i's entries right of the pivots into column r; the pivot is
    made positive and the entries to its left are reduced modulo it.  Rows
    above i are zero from column r on, so only rows i.. of H take part.
    """
    H = [list(map(int, row)) for row in A]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    pivots = []
    r = 0
    for i, row in enumerate(H):
        if r == ncols:
            break
        rows = H[i:] + V
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
    return H, V, pivots


def rank(rows):
    """Rank of an integer matrix: its number of pivots."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[2])


def independent_rows(rows, need=None):
    """Indices of the rows independent of the rows before them (the greedy
    maximal independent subset), or of the first ``need`` of them."""
    pivots = _echelon(rows, len(rows[0]) if rows else 0)[2]
    return pivots if need is None else pivots[:need]


def kernel_lattice_basis(A):
    """Basis of the saturated integer kernel lattice {x in Z^n : A x = 0}.

    With A V = H in column echelon form, the columns of V past the pivots
    map to zero; V is unimodular, so they span a direct summand of Z^n.
    """
    if not A:
        return []
    n = len(A[0])
    _, V, pivots = _echelon(A, n)
    return [tuple(row[j] for row in V) for j in range(len(pivots), n)]


def diagonalize(A):
    """Integer diagonal form (D, V): U A V = D for some unimodular U and V.

    Column and row echelon forms alternate until D is diagonal (not
    necessarily with the Smith divisibility chain, which nothing here
    needs).  The diagonal entries are nonnegative, the nonzero ones first.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D, V, _ = _echelon(A, n)
    while any(x for i, row in enumerate(D) for j, x in enumerate(row) if i != j):
        # row operations: the column echelon form of the transpose
        R = list(zip(*_echelon(list(zip(*D)), m)[0]))
        D, W, _ = _echelon(R, n)
        V = [[dot(row, col) for col in zip(*W)] for row in V]
    return D, V
