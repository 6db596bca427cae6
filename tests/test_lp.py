"""Exact simplex: frozen small programs plus an LP-duality property check."""

import random
from fractions import Fraction

from ordercone.linalg import dot, mat, transpose, vec, zero_vec
from ordercone.lp import Infeasible, Optimal, Polyhedron, Unbounded, feasible_point, lp, lp_nonneg


def box(n, lo, hi):
    rows, rhs = [], []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(list(e))
        rhs.append(lo)
        rows.append([-c for c in e])
        rhs.append(-hi)
    return rows, rhs


def test_box_corner():
    rows, rhs = box(2, 0, 1)
    P = Polyhedron(mat(rows), vec(rhs), 2)
    res = lp(vec([1, 1]), P)
    assert isinstance(res, Optimal)
    assert res.value == 2 and res.point == vec([1, 1])
    res = lp(vec([1, -1]), P, sense="min")
    assert res.value == -1 and res.point == vec([0, 1])


def test_single_variable_ratio():
    # max x s.t. 3 - x >= 0, x >= 0
    P = Polyhedron(mat([[-1], [1]]), vec([-3, 0]), 1)
    res = lp(vec([1]), P)
    assert res == Optimal(Fraction(3), vec([3]))


def test_infeasible_and_unbounded():
    P = Polyhedron(mat([[1], [-1]]), vec([1, 0]), 1)
    assert isinstance(lp(vec([1]), P), Infeasible)
    assert feasible_point(P) is None
    P = Polyhedron(mat([[1]]), vec([0]), 1)
    assert isinstance(lp(vec([1]), P), Unbounded)
    assert isinstance(lp(vec([-1]), P, sense="min"), Unbounded)


def test_equality_encoded_rows():
    # x1 + x2 = 1 via opposite inequalities, x >= 0, maximize x1.
    A = mat([[1, 1], [-1, -1], [1, 0], [0, 1]])
    b = vec([1, -1, 0, 0])
    P = Polyhedron(A, b, 2)
    res = lp(vec([1, 0]), P)
    assert res == Optimal(Fraction(1), vec([1, 0]))
    res = lp(vec([0, 0]), P)
    assert isinstance(res, Optimal) and P.contains(res.point)


def test_degenerate_pivoting_terminates():
    # x2 pinned to 0; Bland's rule must not cycle on the degenerate vertex.
    A = mat([[0, -1], [0, 1], [-1, 0], [1, 0]])
    b = vec([0, 0, -1, 0])
    res = lp(vec([0, 1]), Polyhedron(A, b, 2))
    assert res.value == 0


def test_dependent_equality_rows():
    # x1 + x2 = 1 stated three times: phase 1 ends with artificials basic at
    # zero on dependent rows.  Each row owns a slack, so each artificial is
    # pivoted out and no row has to be dropped.
    A = mat([[1, 1], [-1, -1], [1, 1], [-1, -1], [2, 2], [1, 0], [0, 1]])
    b = vec([1, -1, 1, -1, 2, 0, 0])
    P = Polyhedron(A, b, 2)
    assert lp(vec([1, 2]), P) == Optimal(Fraction(2), vec([0, 1]))
    assert lp(vec([1, 2]), P, sense="min") == Optimal(Fraction(1), vec([1, 0]))


def test_negative_rhs_orientation():
    # Feasible region entirely in the negative orthant.
    A = mat([[-1, 0], [0, -1], [1, 0], [0, 1]])
    b = vec([1, 1, -5, -5])
    res = lp(vec([1, 1]), Polyhedron(A, b, 2))
    assert res == Optimal(Fraction(-2), vec([-1, -1]))


def random_feasible_bounded(rng, n):
    rows, rhs = box(n, -3, 3)
    x0 = vec([rng.randint(-3, 3) for _ in range(n)])
    for _ in range(rng.randint(0, 3)):
        a = [rng.randint(-3, 3) for _ in range(n)]
        slack = rng.randint(0, 4)
        rows.append(a)
        rhs.append(dot(vec(a), x0) - slack)
    return Polyhedron(mat(rows), vec(rhs), n), x0


def test_optimal_certificates_random():
    rng = random.Random(4901)
    for _ in range(60):
        n = rng.randint(1, 3)
        P, x0 = random_feasible_bounded(rng, n)
        c = vec([rng.randint(-4, 4) for _ in range(n)])
        res = lp(c, P)
        assert isinstance(res, Optimal)
        assert P.contains(res.point)
        assert dot(c, res.point) == res.value
        assert res.value >= dot(c, x0)


def test_strong_duality_random():
    # max{c.x : Ax >= b} must equal min{-b.y : A^T y = -c, y >= 0}.
    rng = random.Random(77120)
    for _ in range(40):
        n = rng.randint(1, 3)
        P, _ = random_feasible_bounded(rng, n)
        c = vec([rng.randint(-3, 3) for _ in range(n)])
        primal = lp(c, P)
        assert isinstance(primal, Optimal)

        k = len(P.A)
        At = transpose(P.A)
        rows = [list(r) for r in At] + [[-e for e in r] for r in At]
        rhs = [-e for e in c] + list(c)
        for i in range(k):
            e = [0] * k
            e[i] = 1
            rows.append(e)
            rhs.append(0)
        dual = lp(tuple(-e for e in P.b), Polyhedron(mat(rows), vec(rhs), k), sense="min")
        assert isinstance(dual, Optimal)
        assert dual.value == primal.value


def test_lp_nonneg_matches_lp_with_explicit_sign_rows():
    # Random polyhedra, some empty and some unbounded: lp_nonneg over P must
    # give what lp gives over P with the rows x >= 0 written out.
    rng = random.Random(31337)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(0, 5)
        A = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
        b = vec([rng.randint(-4, 4) for _ in range(k)])
        c = vec([rng.randint(-3, 3) for _ in range(n)])
        sense = rng.choice(("max", "min"))
        signs = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        P = Polyhedron(A, b, n)
        want = lp(c, Polyhedron(A + signs, b + zero_vec(n), n), sense)
        got = lp_nonneg(c, P, sense)
        assert type(got) is type(want)
        kinds.add(type(got))
        if isinstance(got, Optimal):
            assert got.value == want.value == dot(c, got.point)
            assert P.contains(got.point) and all(e >= 0 for e in got.point)
    assert kinds == {Optimal, Infeasible, Unbounded}


def test_zero_dimensional_edge():
    P = Polyhedron((), (), 2)
    res = lp(zero_vec(2), P)
    assert isinstance(res, Optimal) and res.value == 0
    assert isinstance(lp(vec([1, 0]), P), Unbounded)
