"""Integer linear algebra: the echelon routine against rational references."""

import random

from idealkit._linalg import _echelon, dot, lower_solve, rank

from oracles import (
    det_reference,
    frac_solve,
    independent_rows_reference,
    minors_gcd,
    rank_reference,
)

SHAPES = ("zero_rows", "tall", "wide", "corank1", "full_column", "low_rank")


def _random_matrix(rng, shape):
    bound = rng.choice([2, 5, 50])

    def entries(m, n):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]

    n = rng.randint(1, 5)
    if shape == "zero_rows":
        A = entries(rng.randint(1, 4), n)
        for _ in range(rng.randint(1, 3)):
            A.insert(rng.randint(0, len(A)), [0] * n)
    elif shape == "tall":
        A = entries(rng.randint(n + 1, 6), n)
    elif shape == "wide":
        n = rng.randint(2, 6)
        A = entries(rng.randint(1, n - 1), n)
    elif shape == "corank1":
        # every row is orthogonal to the kernel vector (k, -1)
        n = rng.randint(2, 5)
        k = [rng.randint(-3, 3) for _ in range(n - 1)]
        A = [row + [dot(row, k)] for row in entries(rng.randint(1, 6), n - 1)]
    elif shape == "full_column":
        A = entries(rng.randint(n, 6), n)
        while rank_reference(A) < n:
            A = entries(len(A), n)
    else:
        # a product of m x t and t x n factors, t below both sizes
        t = rng.randint(1, n)
        L, R = entries(rng.randint(t, 6), t), entries(t, n)
        A = [[dot(row, col) for col in zip(*R)] for row in L]
    return A


def _matrices(seed, count=240):
    rng = random.Random(seed)
    return [_random_matrix(rng, SHAPES[i % len(SHAPES)]) for i in range(count)]


def test_dot_matches_definition():
    # the other tests check H, V and kernels with dot, so pin it first
    rng = random.Random(9)
    for bound in (50, 2 ** 70):
        for _ in range(300):
            a = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 8))]
            b = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 8))]
            # unequal lengths: the shorter vector decides, as zip does
            want = sum(a[i] * b[i] for i in range(min(len(a), len(b))))
            assert dot(a, b) == want and dot(tuple(a), b) == want, (a, b)


def test_empty_matrix():
    assert rank([]) == 0


def _stacked(A, n):
    """_echelon of A over the n unit rows: A V is H on A's rows, and V is
    H past them."""
    return _echelon(A + [[int(i == j) for j in range(n)] for i in range(n)], n)


def test_echelon_is_a_reduced_column_hermite_form():
    for A in _matrices(10):
        n = len(A[0])
        H, pivots = _stacked(A, n)
        m = len(A)
        V = H[m:]
        assert [[dot(row, col) for col in zip(*V)] for row in A] == H[:m], A
        assert abs(det_reference(V)) == 1, A
        r = sum(i < m for i in pivots)
        assert pivots == sorted(pivots) and r == rank_reference(A), A
        # with the unit rows the stack has full column rank; alone, A gets
        # the same rows of H and the same pivots, so no caller pays for V
        assert len(pivots) == n, A
        assert _echelon(A, n) == (H[:m], pivots[:r]), A
        for i, row in enumerate(H):
            # each row is zero from the column after its last pivot on
            k = sum(p <= i for p in pivots)
            assert not any(row[k:]), A
        for k, i in enumerate(pivots):
            assert H[i][k] > 0 and all(0 <= x < H[i][k] for x in H[i][:k]), A


def test_rank_and_independent_rows_match_rational_reference():
    deficient = 0
    for A in _matrices(11):
        r = rank_reference(A)
        deficient += r < min(len(A), len(A[0]))
        assert rank(A) == r, A
        # the pivot rows are the greedy independent rows: the double
        # description starts from the first d of them
        pivots = _echelon(A, len(A[0]))[1]
        assert pivots == independent_rows_reference(A), A
        for need in range(1, r + 2):
            assert (pivots[:need]
                    == independent_rows_reference(A, need=need)), (A, need)
    assert deficient > 40


def _kernel(A, n):
    """The columns of V past A's pivots, with the unit rows they pivot on."""
    H, pivots = _stacked(A, n)
    m = len(A)
    r = sum(i < m for i in pivots)
    return ([tuple(row[j] for row in H[m:]) for j in range(r, n)],
            [i - m for i in pivots[r:]])


def test_kernel_lattice_basis_is_saturated_kernel():
    for A in _matrices(12):
        n = len(A[0])
        # the columns of V past A's pivots: the lineality basis of a cone
        basis, units = _kernel(A, n)
        assert len(basis) == n - rank_reference(A), A
        assert all(len(v) == n and not any(dot(row, v) for row in A)
                   for v in basis), A
        if basis:
            # saturated: Z^n / span(basis) is torsion-free
            assert minors_gcd(basis, len(basis)) == 1, A
        # column Hermite normal form: kernel vector k is zero above its
        # unit pivot p, positive at p, and the kernel vectors before it are
        # reduced modulo it there
        for k, (v, p) in enumerate(zip(basis, units)):
            assert not any(v[:p]) and v[p] > 0, A
            assert all(0 <= w[p] < v[p] for w in basis[:k]), A


def test_kernel_entries_stay_within_the_hadamard_bound():
    # the Hermite normal form of the kernel is reduced: its entries stay
    # within the product of A's row norms, where the transform of the
    # elimination alone reaches 1,735 bits on these matrices
    rng = random.Random(7)
    for _ in range(50):
        A = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(8)] for _ in range(6)]
        hadamard2 = 1
        for row in A:
            hadamard2 *= dot(row, row)
        basis, _ = _kernel(A, 8)
        assert len(basis) == 2, A
        assert all(x * x <= hadamard2 for v in basis for x in v), A


def test_lower_solve_matches_rational_solve():
    rng = random.Random(14)
    for t in range(1, 8):
        for _ in range(40):
            L = [[rng.randint(-9, 9) for _ in range(i)] + [rng.randint(1, 6)]
                 + [0] * (t - i - 1) for i in range(t)]
            det = 1
            for i in range(t):
                det *= L[i][i]
            c = [rng.randint(-20, 20) for _ in range(t)]
            LT = [list(col) for col in zip(*L)]
            for s in (det, 3 * det):
                # x L = s c, i.e. L^T x = s c
                assert lower_solve(L, c, s) == frac_solve(LT, [s * x for x in c]), (L, c, s)
