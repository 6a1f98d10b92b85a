"""Small exact linear algebra helpers over the integers and rationals.

Everything works on lists/tuples of Python ints or Fractions; matrices are
row-major lists of rows.  Sizes stay tiny (ambient dimension is the variable
count plus one), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def rank(rows):
    """Rank of an integer (or rational) matrix, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def independent_rows(rows, need=None):
    """Indices of a maximal (or size-``need``) linearly independent row subset."""
    picked = []
    basis = []
    ncols = len(rows[0]) if rows else 0
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for b in basis:
            c = next((j for j in range(ncols) if b[j] != 0), None)
            if c is not None and v[c] != 0:
                f = v[c] / b[c]
                v = [a - f * x for a, x in zip(v, b)]
        if any(x != 0 for x in v):
            picked.append(idx)
            basis.append(v)
            if need is not None and len(picked) == need:
                break
    return picked


def frac_inverse(A):
    """Exact inverse of a square nonsingular matrix, as Fractions."""
    n = len(A)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def frac_solve(A, b):
    """Solve a consistent square system exactly; raises if singular."""
    inv = frac_inverse(A)
    return mat_vec(inv, [Fraction(x) for x in b])


def diagonalize(A):
    """Integer diagonalization U A V = D with U, V unimodular.

    D is diagonal (not necessarily with the Smith divisibility chain, which
    nothing here needs); diagonal entries are nonnegative.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    U = identity(m)
    V = identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in (D, V):
            for r in row:
                r[i] -= q * r[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in (D, V):
            for r in row:
                r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(D[i][t] == 0 for i in range(t + 1, m)) \
                    and all(D[t][j] == 0 for j in range(t + 1, n)):
                break
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, D, V


def kernel_lattice_basis(A):
    """Basis of the saturated integer kernel lattice {x in Z^n : A x = 0}.

    With U A V = D diagonal, the columns of V matching zero diagonal entries
    form a basis of the kernel lattice (V is unimodular, so they span a
    direct summand of Z^n).
    """
    if not A:
        return []
    n = len(A[0])
    _, D, V = diagonalize(A)
    r = sum(1 for t in range(min(len(D), n)) if D[t][t] != 0)
    cols = []
    for j in range(r, n):
        cols.append(tuple(V[i][j] for i in range(n)))
    return cols
