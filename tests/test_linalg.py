"""Exact linear algebra kernels: frozen examples plus randomized round trips."""

import random
from fractions import Fraction

import pytest

from ordercone.cones import _basis_inverse
from ordercone.linalg import (
    ZERO,
    _canonical_rows,
    _coprime,
    _echelon,
    _int_rows,
    _kernel,
    _nullspace,
    _over,
    _rank,
    as_fraction,
    canonical_subspace_basis,
    dot,
    in_span,
    mat,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    support,
    transpose,
    vec,
)

# Facet functionals of the four-ray fixture, reused as a well-understood 4x3 matrix.
F4 = mat([[-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]])


def test_as_fraction_grammar():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-7") == Fraction(-7)
    assert as_fraction("+2/6") == Fraction(1, 3)
    assert as_fraction(5) == Fraction(5)
    for bad in ("1.5", "1e3", "3/0", "1/2/3", "", "x", 1.5, None, True):
        with pytest.raises(ValueError):
            as_fraction(bad)


def test_fraction_normalization_invariants():
    rng = random.Random(8841)
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
        from math import gcd

        assert gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0
    assert Fraction(0, 7) == Fraction(0, 1)
    assert str(Fraction(-4, 6)) == "-2/3"


def test_solve_linear_frozen():
    # Substitution-checked: F4 . (-1,-1,-1) = (1,-1,-3,-1).
    x = solve_linear(F4, vec([1, -1, -3, -1]))
    assert x == vec([-1, -1, -1])
    assert mat_vec(F4, x) == vec([1, -1, -3, -1])

    eye = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_linear(eye, vec([1, 2, 3])) == vec([1, 2, 3])

    assert solve_linear(mat([[1, 0], [1, 0]]), vec([0, 1])) is None
    # Underdetermined systems pin free variables at zero.
    assert solve_linear(mat([[1, 1]]), vec([2])) == vec([2, 0])


def test_nullspace_frozen():
    # rows f2,f3,f4 of the four-ray matrix are independent: trivial kernel.
    assert nullspace(mat([[1, -1, 1], [1, 1, 1], [-1, 1, 1]])) == ()
    # rows f1,f4 annihilate exactly span{(1,0,1)}.
    assert nullspace(mat([[-1, -1, 1], [-1, 1, 1]])) == (vec([1, 0, 1]),)
    assert nullspace(mat([[1, 0, 1]])) == (vec([1, 0, -1]), vec([0, 1, 0]))
    # Left kernel of F4 is the single relation y1 - y2 + y3 - y4 = 0.
    assert nullspace(transpose(F4)) == (vec([1, -1, 1, -1]),)


def test_nullspace_random_annihilates():
    rng = random.Random(193)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        A = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = nullspace(A)
        assert rank(A) + len(basis) == cols
        for v in basis:
            assert all(e == 0 for e in mat_vec(A, v))


def test_reversed_elimination_gives_the_canonical_kernel():
    # One elimination with the columns reversed against the free-variable
    # basis canonicalized by a second one.
    rng = random.Random(23_1707)
    cases = [([[1, 1, 1]], 3), ([], 1), ([[0]], 1), ([[5]], 1), ([[2], [-4]], 1), ([], 3)]
    for _ in range(1500):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[-1] = [3 * a - b for a, b in zip(rows[0], rows[1])]
        cases.append(([_coprime(row) for row in rows], n))
    kinds = set()
    for rows, n in cases:
        assert _nullspace(rows, n) == _canonical_rows(_kernel(rows, n)), (rows, n)
        r = _rank(rows)
        kinds.add("n = 1" if n == 1 else "full rank" if r == min(len(rows), n) else "rank-deficient")
    assert kinds == {"n = 1", "full rank", "rank-deficient"}


def test_primitive():
    assert primitive(vec(["2/3", "-4/3"])) == vec([1, -2])
    assert primitive(vec([-2, -4])) == vec([-1, -2])  # direction kept, no sign flip
    assert primitive(vec([0, 0])) == vec([0, 0])
    assert primitive(vec([0, "5/7"])) == vec([0, 1])


def test_canonical_subspace_basis_identifies_spans():
    b1 = canonical_subspace_basis(mat([[2, 4], [1, 3]]), 2)
    b2 = canonical_subspace_basis(mat([[1, 0], [0, 1]]), 2)
    assert b1 == b2 == (vec([1, 0]), vec([0, 1]))
    b3 = canonical_subspace_basis(mat([[2, 0, 2], [3, 0, 3]]), 3)
    assert b3 == (vec([1, 0, 1]),)
    assert canonical_subspace_basis((), 3) == ()


def test_canonical_subspace_basis_random_span_equality():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = rng.randint(0, n)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        # A second spanning set: random invertible recombination plus noise rows.
        mixed = list(base)
        for _ in range(2):
            if base:
                coeffs = [rng.randint(-2, 2) for _ in base]
                mixed.append([sum(c * r[i] for c, r in zip(coeffs, base)) for i in range(n)])
        rng.shuffle(mixed)
        c1 = canonical_subspace_basis(mat(base), n) if base else ()
        c2 = canonical_subspace_basis(mat(mixed), n) if mixed else ()
        assert c1 == c2
        for v in c1:
            assert in_span(mat(base), v, n)


def basis_inverse(M):
    """`_basis_inverse` of the int rows d M, read back as (B, M_B^{-1}) over Fractions, or (B, None).

    Its scale L is checked to be the least that makes the inverse integral.
    """
    d, A = _int_rows(M)
    B, L, inverse = _basis_inverse(A)
    if inverse is None:
        return tuple(B), None
    inv = tuple(_over([d * e for e in row], L) for row in inverse)
    assert _int_rows(tuple(_over(row, L) for row in inverse))[0] == L
    return tuple(B), inv


def test_basis_inverse():
    assert basis_inverse(mat([[1, 1], [0, 1]])) == ((0, 1), mat([[1, -1], [0, 1]]))
    assert basis_inverse(mat([[1, 2], [2, 4]])) == ((0,), None)
    M = mat([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    Minv = basis_inverse(M)[1]
    eye = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert mat([mat_vec(M, col) for col in transpose(Minv)]) == transpose(eye)
    B, L, inverse = _basis_inverse([[1, 0], [2, 0], [0, 3]])
    assert (B, L, inverse) == ([0, 2], 3, [[3, 0], [0, 1]])


def greedy_independent_rows(rows):
    """The first-wins rank loop, as the oracle of the rows B of `_basis_inverse`."""
    kept, staged = [], ()
    for i, row in enumerate(rows):
        if rank(staged + (row,)) > len(kept):
            kept.append(i)
            staged += (row,)
    return tuple(kept)


def test_basis_rows_match_greedy_rank_loop():
    rng = random.Random(8842)
    for _ in range(80):
        cols = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        rows = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(cols)])
        M = mat(rows)
        B = basis_inverse(M)[0]
        assert B == greedy_independent_rows(M)
        assert len(B) == rank(M)


def test_misc_helpers():
    assert dot(vec([1, 2]), vec([3, 4])) == 11
    assert support(vec([0, 5, 0, -1])) == frozenset({2, 4})
    assert basis_inverse(mat([[1, 0], [2, 0], [0, 1]])) == ((0, 2), mat([[1, 0], [0, 1]]))
    R, piv = rref(mat([[0, 2], [1, 1]]))
    assert piv == (0, 1) and R == mat([[1, 0], [0, 1]])
    assert rank(F4) == 3


# --- the integer kernel `_echelon`, read as a rational RREF, against the
# Fraction Gauss-Jordan kernel that it replaced, kept as its oracle


def rref(M):
    """The RREF of M from `_echelon`'s integer rows, each pivot row over its pivot, and the pivot columns."""
    rows, pivots = _echelon([_coprime(r) for r in M])
    R = [_over(row, row[c]) for row, c in zip(rows, pivots)]
    R += [(ZERO,) * len(row) for row in rows[len(pivots):]]
    return tuple(R), tuple(pivots)


def oracle_rref(M):
    """RREF by Gauss-Jordan over Fraction: scale the pivot row to 1, clear the column."""
    rows = [[Fraction(e) for e in r] for r in M]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_canonical(vectors, n):
    if not vectors:
        return ()
    R, pivots = oracle_rref(vectors)
    return tuple(primitive(R[i]) for i in range(len(pivots)))


def oracle_nullspace(A):
    n = len(A[0])
    R, pivots = oracle_rref(A)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(tuple(v))
    return oracle_canonical(tuple(basis), n)


def oracle_solve(A, b):
    n = len(A[0])
    R, pivots = oracle_rref(tuple(row + (bi,) for row, bi in zip(A, b)))
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = R[i][n]
    return tuple(x)


def oracle_invert(M):
    n = len(M)
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    R, pivots = oracle_rref(tuple(row + e for row, e in zip(M, eye)))
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in R)


def random_entry(rng):
    k = rng.random()
    if k < 0.35:
        return Fraction(0)
    if k < 0.65:
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 15))


def random_matrix(rng, rows, cols):
    """Rational entries, with duplicated, scaled and zero rows and zero columns."""
    M = [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        i, j = rng.randrange(rows), rng.randrange(rows)
        s = Fraction(rng.choice([-3, -1, 1, 2, 7]), rng.choice([1, 2, 9]))
        M[j] = [s * e for e in M[i]]
    if rng.random() < 0.2:
        M[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.2:
        k = rng.randrange(cols)
        for row in M:
            row[k] = Fraction(0)
    return tuple(tuple(row) for row in M)


def all_fractions(value):
    """Every number in a nested tuple is a Fraction (the API returns no ints)."""
    if isinstance(value, tuple):
        return all(all_fractions(e) for e in value)
    return isinstance(value, Fraction)


def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(61_2024)
    shapes = [(1, 1)] * 40 + [(r, c) for r in range(1, 7) for c in range(1, 7)] * 16
    for rows, cols in shapes:
        M = random_matrix(rng, rows, cols)
        R, pivots = rref(M)
        assert (R, pivots) == oracle_rref(M)
        assert all_fractions(R)
        assert rank(M) == len(pivots)
        null = nullspace(M)
        assert null == oracle_nullspace(M) and all_fractions(null)
        basis = canonical_subspace_basis(M, cols)
        assert basis == oracle_canonical(M, cols) and all_fractions(basis)
        assert basis_inverse(M)[0] == oracle_rref(transpose(M))[1]
        b = tuple(random_entry(rng) for _ in range(rows))
        x = solve_linear(M, b)
        assert x == oracle_solve(M, b) and (x is None or all_fractions(x))
        S = random_matrix(rng, cols, cols)  # singular when a row is scaled or zeroed
        B, inv = basis_inverse(S)
        assert inv == oracle_invert(S) and (inv is None or all_fractions(inv))
        assert (inv is None) == (len(B) < cols)
    assert len(shapes) >= 500


def test_integer_kernel_on_edge_shapes():
    zero = mat([[0, 0, 0], [0, 0, 0]])
    assert rref(zero) == oracle_rref(zero) == (zero, ())
    assert nullspace(zero) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert basis_inverse(mat([["-2/3"]])) == ((0,), mat([["-3/2"]]))
    assert basis_inverse(mat([[0]])) == ((), None)
    assert basis_inverse(()) == ((), ())
    assert rref(()) == ((), ())
    assert solve_linear(mat([["1/2", 0]]), vec([0])) == vec([0, 0])


def test_dot_sums_over_a_common_denominator():
    rng = random.Random(9090)
    for _ in range(300):
        n = rng.randint(0, 7)
        u = [random_entry(rng) for _ in range(n)]
        v = [rng.choice([random_entry(rng), rng.randint(-9, 9)]) for _ in range(n)]
        got = dot(u, v)
        assert got == sum((a * b for a, b in zip(u, v)), Fraction(0))
        assert isinstance(got, Fraction)
    assert dot((0, 0), (Fraction(1, 3), 5)) == 0
    assert dot((), ()) == 0 and isinstance(dot((), ()), Fraction)
    assert dot((2, 3), (4, 5)) == Fraction(23)
    assert dot(vec(["1/6", "1/10", "-1/15"]), vec([1, 1, 1])) == Fraction(1, 5)
    with pytest.raises(ValueError):
        dot((1,), (1, 2))
