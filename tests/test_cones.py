"""Space construction, order queries, and suprema on the worked fixtures."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from ordercone.cones import (
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
    random_unimodular,
    simplex,
)
from ordercone.linalg import (
    dot,
    independent_subset,
    invert,
    mat,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    transpose,
    vadd,
    vec,
    vsub,
)
from ordercone.lp import Polyhedron, lp
from test_bands import direct_sum, oracle_spaces, pentagon
from test_cover import moment_cone

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
    with pytest.raises(ParseError, match="between 1 and 256"):  # before the rows are looked at
        build_space(257, generators=mat([(1, 0)]))
    with pytest.raises(ParseError, match="between 1 and 256"):
        simplex(10_000_000)


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


def upper_set_minima(F, w, n):
    """Coordinatewise minima over {x : F x >= w}, one LP per row."""
    return tuple(lp(f, Polyhedron(F, w, n), "min").value for f in F)


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
    assert upper_set_minima(S.F, w, 3) == upper_set_minima_bruteforce(S.F, w, 3) == w
    w = vec([0, 2, 2, 2])  # the sup-less pair: already tight everywhere
    assert upper_set_minima(S.F, w, 3) == w
    rng = random.Random(2024)
    for _ in range(25):
        sp = random_space(rng)
        w = vec([rng.randint(-3, 3) for _ in range(sp.m)])
        assert upper_set_minima(sp.F, w, sp.dim) == upper_set_minima_bruteforce(sp.F, w, sp.dim)


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
        tight = upper_set_minima(S.F, upper_bound_polyhedron(S, xs).b, S.dim)
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


def test_row_basis_is_computed_once_and_left_out_of_equality():
    rng = random.Random(4410)
    for space in [four_ray(), simplex(3)] + [random_space(rng) for _ in range(10)]:
        fresh = build_space(space.dim, generators=space.generators, facets=space.F, name=space.name)
        B, Binv, G = space.row_basis
        assert space.row_basis is space.row_basis  # cached on the space
        FB = tuple(space.F[i] for i in B)
        eye = mat([[int(t == u) for u in range(space.dim)] for t in range(space.dim)])
        assert len(B) == space.dim and tuple(mat_vec(FB, col) for col in transpose(Binv)) == eye
        assert tuple(G[i] for i in B) == eye
        assert tuple(mat_vec(transpose(FB), g) for g in G) == space.F  # f_i = g_i F_B
        assert space == fresh and repr(space) == repr(fresh)


def test_extreme_rays_trivial_cone():
    assert extreme_rays(mat([(1,), (-1,)])) == ()
    assert fraction_extreme_rays(mat([(1,), (-1,)])) == ()


# The Fraction routes that the integer facet matrix and the integer double
# description replaced, kept as oracles.


def fraction_extreme_rays(A):
    n = len(A[0])
    seed = independent_subset(A)
    if len(seed) < n:
        raise ValueError("extreme_rays needs a pointed cone (rank deficient input)")
    Binv = invert(tuple(A[i] for i in seed))
    rays = [primitive(col) for col in transpose(Binv)]
    active = list(seed)
    seed_set = set(seed)

    def adjacent(r1, r2):
        tight = tuple(A[i] for i in active if dot(A[i], r1) == 0 and dot(A[i], r2) == 0)
        return rank(tight) == n - 2

    for idx in (i for i in range(len(A)) if i not in seed_set):
        a = A[idx]
        plus, zero, minus = [], [], []
        for r in rays:
            s = dot(a, r)
            (plus if s > 0 else zero if s == 0 else minus).append(r)
        if minus:
            fresh = [
                primitive(vsub(tuple(dot(a, rp) * e for e in rm), tuple(dot(a, rm) * e for e in rp)))
                for rp in plus
                for rm in minus
                if adjacent(rp, rm)
            ]
            rays = plus + zero + fresh
        active.append(idx)
    return tuple(sorted(set(rays)))


def fraction_embed(space, x):
    return mat_vec(space.F, x)


def fraction_in_cone(space, x):
    return all(dot(f, x) >= 0 for f in space.F)


def fraction_leq(space, x, y):
    d = vsub(y, x)
    return all(dot(f, d) >= 0 for f in space.F)


def integer_route_spaces():
    """Every kind of space the integer routes see, facet rows scaled by non-integers too."""
    rng = random.Random(14071)
    spaces = oracle_spaces() + [random_space(rng) for _ in range(12)]
    spaces += [moment_cone(range(-2, 4), 3), moment_cone((-3, -1, 0, 2, 5), 2), moment_cone(range(-3, 4), 4)]
    spaces += [
        direct_sum(four_ray(), simplex(2), scramble=random_unimodular(rng, 5)),
        direct_sum(pentagon(), four_ray(), scramble=random_unimodular(rng, 6)),
    ]
    factors = (Fraction(1, 2), Fraction(3, 4), Fraction(5, 3), Fraction(2, 7), Fraction(9, 5))
    scaled = [
        replace(sp, F=tuple(tuple(e * factors[j % len(factors)] for e in f) for j, f in enumerate(sp.F)))
        for sp in spaces[::3]
    ]
    return spaces + scaled, rng


def rational_vector(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5))) for _ in range(n))


def test_integer_facet_routes_match_the_fraction_routes():
    spaces, rng = integer_route_spaces()
    assert any(e.denominator > 1 for sp in spaces for f in sp.F for e in f)
    for sp in spaces:
        for _ in range(12):
            x, y = rational_vector(rng, sp.dim), rational_vector(rng, sp.dim)
            pos = tuple(Fraction(e, rng.choice((1, 2, 3))) for e in random_positive(rng, sp))
            for u, v in ((x, y), (pos, x), (x, vadd(x, pos)), (pos, pos)):
                assert repr(embed(sp, u)) == repr(fraction_embed(sp, u)), sp.name
                assert repr(in_cone(sp, u)) == repr(fraction_in_cone(sp, u)), sp.name
                assert repr(leq(sp, u, v)) == repr(fraction_leq(sp, u, v)), sp.name
        assert embed(sp, (0,) * sp.dim) == (Fraction(0),) * sp.m
        with pytest.raises(ValueError):
            in_cone(sp, (1,) * (sp.dim + 1))


def test_integer_double_description_matches_the_fraction_route():
    spaces, rng = integer_route_spaces()
    for sp in spaces:
        # Redundant rows: positive sums of two facets, mixed in.
        extra = [vadd(sp.F[i], sp.F[j]) for i, j in combinations(range(sp.m), 2)][:4]
        mixed = list(sp.F) + extra
        rng.shuffle(mixed)
        for A in (sp.F, sp.generators, tuple(mixed)):
            got = extreme_rays(A)
            assert repr(got) == repr(fraction_extreme_rays(A)), sp.name
        assert extreme_rays(sp.F) == tuple(sorted(sp.generators))
    for A in (mat([(1, 0), (-1, 0)]), mat([(1, 0, 0), (0, 1, 0)])):  # rank deficient
        with pytest.raises(ValueError):
            fraction_extreme_rays(A)
        with pytest.raises(ValueError):
            extreme_rays(A)


def test_build_space_refuses_facets_that_cut_out_only_the_origin():
    gens = mat([(2, 0, -1), (2, -1, -2), (0, 2, 1), (2, 2, 0), (2, -2, -1)])
    facets = mat([(-2, 0, 2), (1, 0, -2), (2, -1, -1), (-1, 1, 2), (2, -1, 0)])
    assert extreme_rays(facets) == ()
    with pytest.raises(ParseError, match="facets do not match"):
        build_space(3, generators=gens, facets=facets)
    with pytest.raises(NotGenerating):
        build_space(3, facets=facets)


def test_int_facets_are_cached_with_the_true_denominator():
    sp = four_ray()
    half = replace(sp, F=tuple(tuple(e / 2 for e in f) for f in sp.F))
    assert sp.int_facets == (1, tuple(tuple(int(e) for e in f) for f in sp.F))
    assert half.int_facets == (2, sp.int_facets[1])
    assert half.int_facets is half.int_facets
    assert half == replace(half) and repr(half) == repr(replace(half))
    assert embed(half, V1) == vec([0, 1, 1, 0])


def test_build_space_coerces_rational_strings():
    S = build_space(2, generators=[[1, 0], ["1/2", 1]])
    assert S.generators == (vec([1, 0]), vec([1, 2]))
    with pytest.raises(ParseError):
        build_space(2, generators=[[1, 0], [0.5, 1]])
