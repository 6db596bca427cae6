"""Space construction, order queries, and suprema on the worked fixtures."""

import random
from itertools import combinations

import pytest

from ordercone.cones import (
    archimedean_certificate,
    build_space,
    embed,
    extreme_rays,
    in_cone,
    leq,
    sup_in_X,
    upper_bound_polyhedron,
)
from ordercone.errors import NotGenerating, NotPointed, ParseError
from ordercone.fixtures import (
    FOUR_RAY_FACETS,
    FOUR_RAY_GENERATORS,
    builtin_space,
    four_ray,
    random_polygon_space,
    random_positive,
    random_simplicial_space,
    random_space,
    simplex,
)
from ordercone.linalg import dot, mat, mat_vec, nullspace, primitive, rank, solve_linear, transpose, vec
from ordercone.lp import upper_set_minima

V1, V2, V3, V4 = (vec(g) for g in FOUR_RAY_GENERATORS)


def test_four_ray_roundtrip_from_generators():
    S = build_space(3, generators=mat(FOUR_RAY_GENERATORS))
    assert set(S.F) == {primitive(vec(f)) for f in FOUR_RAY_FACETS}
    assert set(S.generators) == {vec(g) for g in FOUR_RAY_GENERATORS}


def test_four_ray_roundtrip_from_facets():
    S = build_space(3, facets=mat(FOUR_RAY_FACETS))
    assert set(S.generators) == {vec(g) for g in FOUR_RAY_GENERATORS}


def test_builtin_keeps_stated_row_order():
    S = four_ray()
    assert S.generators == mat(FOUR_RAY_GENERATORS)
    assert S.F == mat(FOUR_RAY_FACETS)
    assert builtin_space("four-ray").F == S.F
    assert builtin_space("simplex:3").m == 3
    with pytest.raises(ParseError):
        builtin_space("simplex:x")
    with pytest.raises(ParseError):
        builtin_space("octahedron")


def test_scaled_permuted_input_is_canonicalized():
    gens = [(2, 0, 2), (0, -3, 3), (-5, 0, 5), (0, 4, 4)]
    S = build_space(3, generators=mat(gens))
    assert set(S.generators) == {vec(g) for g in FOUR_RAY_GENERATORS}


def test_redundant_generator_dropped():
    gens = list(FOUR_RAY_GENERATORS) + [(1, 1, 2)]  # v1 + v2, interior of a face
    S = build_space(3, generators=mat(gens))
    assert set(S.generators) == {vec(g) for g in FOUR_RAY_GENERATORS}
    assert len(S.generators) == 4


def test_rejections():
    with pytest.raises(NotGenerating):
        build_space(3, generators=mat([(1, 0, 0), (0, 1, 0), (-1, -1, 0)]))
    with pytest.raises(NotPointed):
        build_space(2, generators=mat([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    with pytest.raises(NotPointed):
        build_space(2, facets=mat([(1, 0)]))  # half space: contains a line
    with pytest.raises(ParseError):
        build_space(3, generators=mat(FOUR_RAY_GENERATORS), facets=mat([(0, 0, 1)]))
    with pytest.raises(ParseError):
        build_space(2, generators=mat([(1, 0, 0)]))
    with pytest.raises(ParseError):
        build_space(2, generators=mat([(0, 0), (1, 0)]))


def test_four_ray_order_facts():
    S = four_ray()
    assert embed(S, V1) == vec([0, 2, 2, 0])
    assert embed(S, V2) == vec([0, 0, 2, 2])
    assert embed(S, V3) == vec([2, 0, 0, 2])
    assert embed(S, V4) == vec([2, 2, 0, 0])
    assert nullspace(transpose(S.F)) == (vec([1, -1, 1, -1]),)  # the one relation on the range of F
    assert leq(S, V2, vec([0, 1, 2]))  # v2 <= v1 + v3
    assert not leq(S, V1, V2)
    assert in_cone(S, vec([0, 0, 1])) and not in_cone(S, vec([1, 1, 0]))


def test_upper_bound_polyhedron_is_the_image_max():
    S = four_ray()
    U = upper_bound_polyhedron(S, [V1, V2])
    assert U.A == S.F and U.b == vec([0, 2, 2, 2])
    assert U.contains(vec([1, 1, 2]))  # v1 + v2 is a common upper bound
    assert not U.contains(V1)


def test_sup_four_ray():
    S = four_ray()
    assert sup_in_X(S, [V1, V2]) is None  # the square cone is not a lattice
    assert sup_in_X(S, [V1, V3]) == vec([0, 0, 2])  # opposite rays join at v1+v3
    assert sup_in_X(S, [V2, V4]) == vec([0, 0, 2])
    assert sup_in_X(S, [V1]) == V1
    assert sup_in_X(S, [V1, vec([0, 0, 0])]) == V1  # v1 >= 0


def test_sup_simplicial_is_coordinatewise():
    S = simplex(3)
    s = sup_in_X(S, [vec([1, 5, -2]), vec([3, 0, 0])])
    assert s == vec([3, 5, 0])


def upper_set_minima_bruteforce(F, w, n):
    """Vertex enumeration oracle: minima are attained at rank-n tight subsets."""
    m = len(F)
    best = [None] * m
    for S in combinations(range(m), n):
        sub = tuple(F[i] for i in S)
        if rank(sub) < n:
            continue
        x = solve_linear(sub, tuple(w[i] for i in S))
        if x is None or any(dot(F[i], x) < w[i] for i in range(m)):
            continue
        for j in range(m):
            v = dot(F[j], x)
            if best[j] is None or v < best[j]:
                best[j] = v
    return tuple(best)


def test_tightening_against_vertex_enumeration():
    S = four_ray()
    w = vec([1, 0, 0, 0])
    assert upper_set_minima(S.F, w) == upper_set_minima_bruteforce(S.F, w, 3) == w
    w = vec([0, 2, 2, 2])  # the sup-less pair: already tight everywhere
    assert upper_set_minima(S.F, w) == w
    rng = random.Random(2024)
    for _ in range(25):
        sp = random_space(rng)
        w = vec([rng.randint(-3, 3) for _ in range(sp.m)])
        assert upper_set_minima(sp.F, w) == upper_set_minima_bruteforce(sp.F, w, sp.dim)


def test_sup_random_simplicial_always_exists():
    rng = random.Random(99)
    for _ in range(30):
        S = random_simplicial_space(rng, rng.randint(2, 4))
        xs = [random_positive(rng, S) for _ in range(rng.randint(1, 3))]
        s = sup_in_X(S, xs)
        assert s is not None
        im = embed(S, s)
        for x in xs:
            assert leq(S, x, s)
        tight = upper_set_minima(S.F, upper_bound_polyhedron(S, xs).b)
        assert im == tight


def test_sup_least_among_sampled_upper_bounds():
    rng = random.Random(7310)
    for _ in range(20):
        S = random_space(rng)
        xs = [random_positive(rng, S) for _ in range(2)]
        s = sup_in_X(S, xs)
        if s is None:
            continue
        for _ in range(5):
            z = tuple(a + b for a, b in zip(s, random_positive(rng, S)))
            assert leq(S, s, z) and all(leq(S, x, z) for x in xs)


def test_polygon_cone_counts():
    rng = random.Random(5)
    S = random_polygon_space(rng, 5)
    assert len(S.generators) == 5 and S.m == 5 and S.dim == 3


def test_archimedean_certificate():
    S = four_ray()
    b = archimedean_certificate(S, V1, vec([0, 0, 10]))
    assert b is not None
    n = int(b) + 1
    assert not leq(S, vec([n * e for e in V1]), vec([0, 0, 10]))
    assert leq(S, vec([(n - 1) * e for e in V1]), vec([0, 0, 10])) or b < n - 1
    assert archimedean_certificate(S, vec([-e for e in V1]), vec([0, 0, 1])) is None


def test_extreme_rays_trivial_cone():
    assert extreme_rays(mat([(1,), (-1,)])) == ()


def test_build_space_coerces_rational_strings():
    S = build_space(2, generators=[[1, 0], ["1/2", 1]])
    assert S.generators == (vec([1, 0]), vec([1, 2]))
    with pytest.raises(ParseError):
        build_space(2, generators=[[1, 0], [0.5, 1]])
