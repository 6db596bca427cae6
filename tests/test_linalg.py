"""Exact linear algebra kernels: frozen examples plus randomized round trips."""

import random
from fractions import Fraction

import pytest

from ordercone.linalg import (
    as_fraction,
    canonical_subspace_basis,
    dot,
    independent_subset,
    in_span,
    invert,
    mat,
    mat_vec,
    nullspace,
    primitive,
    rank,
    rref,
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


def test_invert():
    assert invert(mat([[1, 1], [0, 1]])) == mat([[1, -1], [0, 1]])
    assert invert(mat([[1, 2], [2, 4]])) is None
    M = mat([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    Minv = invert(M)
    eye = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert mat([mat_vec(M, col) for col in transpose(Minv)]) == transpose(eye)


def greedy_independent_rows(rows):
    """The first-wins rank loop that independent_subset replaced, as its oracle."""
    kept, staged = [], ()
    for i, row in enumerate(rows):
        if rank(staged + (row,)) > len(kept):
            kept.append(i)
            staged += (row,)
    return tuple(kept)


def test_independent_subset_matches_greedy_rank_loop():
    rng = random.Random(8842)
    for _ in range(80):
        cols = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        rows = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(cols)])
        M = mat(rows)
        assert independent_subset(M) == greedy_independent_rows(M)
        assert len(independent_subset(M)) == rank(M)


def test_misc_helpers():
    assert dot(vec([1, 2]), vec([3, 4])) == 11
    assert support(vec([0, 5, 0, -1])) == frozenset({2, 4})
    assert independent_subset(mat([[1, 0], [2, 0], [0, 1]])) == (0, 2)
    R, piv = rref(mat([[0, 2], [1, 1]]))
    assert piv == (0, 1) and R == mat([[1, 0], [0, 1]])
    assert rank(F4) == 3
