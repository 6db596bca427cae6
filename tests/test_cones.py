"""Space construction, order queries, and suprema on the worked fixtures."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from ordercone import cones, linalg
from ordercone.cli import main
from ordercone.cones import (
    MAX_ROWS,
    OrderedSpace,
    build_space,
    embed,
    in_cone,
    leq,
    sup_in_X,
    upper_bound_polyhedron,
)
from ordercone.errors import NotGenerating, NotPointed, OrderConeError, ParseError
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
    _coprime,
    _fractions,
    dot,
    is_zero_vec,
    mat,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    support,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
)
from ordercone.lp import Polyhedron, lp
from test_bands import direct_sum, oracle_spaces, pentagon
from test_cover import moment_cone
from test_linalg import oracle_invert, oracle_rref

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


def fraction_sup(space, xs):
    """`sup_in_X` as it ran on Fractions: one elimination of F s = w, w the max of the images."""
    return solve_linear(space.F, tuple(max(col) for col in zip(*[embed(space, x) for x in xs])))


def mixed_vector(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n))


def test_sup_in_X_is_the_fraction_solve():
    """The integer `sup_in_X` returns exactly the Fraction elimination's answer: the same sup or None."""
    rng = random.Random(7311)
    fifteen_gon = build_space(3, generators=[[k, k * k, 1] for k in range(-7, 8)])
    spaces = [random_space(rng) for _ in range(20)] + [random_polygon_space(rng, m) for m in (4, 5, 6, 7, 8)]
    spaces += [fifteen_gon, moment_cone(range(6), 3), moment_cone(range(8), 3), moment_cone(range(7), 4)]
    found = {True: 0, False: 0}
    for sp in spaces:
        for _ in range(20):
            atoms = [vscale(Fraction(rng.randint(1, 6), rng.randint(1, 7)), g) for g in rng.sample(sp.generators, 2)]
            xs = rng.choice([atoms, atoms[:1], [mixed_vector(rng, sp.dim) for _ in range(rng.randint(1, 3))]])
            got = sup_in_X(sp, xs)
            assert got == fraction_sup(sp, xs), sp.name
            found[got is None] += 1
    assert found[True] >= 100 and found[False] >= 100


def test_polygon_cone_counts():
    rng = random.Random(5)
    S = random_polygon_space(rng, 5)
    assert len(S.generators) == 5 and S.m == 5 and S.dim == 3


def test_row_basis_is_computed_once_and_left_out_of_equality():
    rng = random.Random(4410)
    for space in [four_ray(), simplex(3)] + [random_space(rng) for _ in range(10)]:
        fresh = build_space(space.dim, generators=space.generators, facets=space.F, name=space.name)
        B, D, Binv, G = space.row_basis
        assert space.row_basis is space.row_basis  # cached on the space
        assert all(type(e) is int for M in (Binv, G) for row in M for e in row) and D > 0
        assert B == oracle_rref(transpose(space.F))[1]  # the first-wins independent rows
        FB = tuple(space.F[i] for i in B)
        D_eye = tuple(tuple(D * int(t == u) for u in range(space.dim)) for t in range(space.dim))
        assert len(B) == space.dim and tuple(mat_vec(FB, col) for col in transpose(Binv)) == D_eye
        assert tuple(G[i] for i in B) == D_eye
        assert tuple(mat_vec(transpose(FB), g) for g in G) == tuple(vscale(D, f) for f in space.F)  # D f_i = D g_i F_B
        assert space == fresh and repr(space) == repr(fresh)


def extreme_rays(A):
    """`cones._rays` on the rows of A made coprime, its rays read back as Fraction rows."""
    return tuple(_fractions(r) for r, _ in cones._rays([_coprime(a) for a in A]))


def test_extreme_rays_trivial_cone():
    assert extreme_rays(mat([(1,), (-1,)])) == ()
    assert fraction_extreme_rays(mat([(1,), (-1,)])) == ()


# The Fraction routes that the integer facet matrix and the integer double
# description replaced, kept as oracles.


def fraction_extreme_rays(A):
    n = len(A[0])
    seed = oracle_rref(transpose(A))[1]
    if len(seed) < n:
        raise ValueError("extreme_rays needs a pointed cone (rank deficient input)")
    Binv = oracle_invert(tuple(A[i] for i in seed))
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


# The Fraction construction that the integer one replaced, kept as its
# oracle: `_clean_rows` and `build_space` as they were, on Fraction rows,
# with the Fraction double description above as their `extreme_rays`.


def fraction_clean_rows(rows, dim, what):
    out = []
    seen = set()
    for r in rows:
        if len(r) != dim:
            raise ParseError(f"{what} has wrong dimension: expected {dim}, got {len(r)}")
        try:
            p = primitive(vec(r))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad entry in {what}: {exc}") from None
        if is_zero_vec(p):
            raise ParseError(f"zero vector given as a {what}")
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def fraction_build_space(dim, generators=None, facets=None, name="space"):
    gens = fraction_clean_rows(generators, dim, "generator") if generators is not None else None
    face = fraction_clean_rows(facets, dim, "facet") if facets is not None else None
    if gens is not None:
        if rank(gens) < dim:
            raise NotGenerating(f"generators span a rank-{rank(gens)} subspace of Q^{dim}")
        dual = fraction_extreme_rays(gens)
        if rank(dual) < dim:
            raise NotPointed("the generated cone contains a line")
        canon_gens = fraction_extreme_rays(dual)
        gens = gens if set(gens) == set(canon_gens) else canon_gens
        if face is not None:
            ok = rank(face) == dim
            if ok:
                try:
                    rays = fraction_extreme_rays(face)
                    ok = bool(rays) and set(fraction_extreme_rays(rays)) == set(dual)
                except ValueError:
                    ok = False
            if not ok:
                raise ParseError("facets do not match the cone generated by the generators")
            face = face if set(face) == set(dual) else dual
        else:
            face = dual
    else:
        if rank(face) < dim:
            raise NotPointed(f"facets have rank {rank(face)}; the cone contains a line")
        canon_gens = fraction_extreme_rays(face)
        if rank(canon_gens) < dim:
            raise NotGenerating("the facet cone is not full dimensional")
        irred = fraction_extreme_rays(canon_gens)
        face = face if set(face) == set(irred) else irred
        gens = canon_gens
    images = [mat_vec(face, g) for g in gens]
    if any(e < 0 for image in images for e in image):
        raise ParseError("internal representation mismatch")
    supports = tuple(support(image) for image in images)
    return OrderedSpace(name=name, dim=dim, generators=gens, F=face, atom_supports=supports)


def built(build, dim, **rows):
    """(repr, atom supports) of the space, or (error class, message)."""
    try:
        sp = build(dim, name="probe", **rows)
    except OrderConeError as exc:
        return type(exc).__name__, str(exc)
    return repr(sp), sp.atom_supports


def test_build_space_matches_the_fraction_construction():
    spaces, rng = integer_route_spaces()
    factors = (Fraction(1, 2), Fraction(3, 4), Fraction(5, 3), Fraction(2, 7), Fraction(9, 5), Fraction(7))
    for sp in spaces:
        G, F = list(sp.generators), list(sp.F)
        scaled_G = [vscale(rng.choice(factors), g) for g in G]
        scaled_F = [vscale(rng.choice(factors), f) for f in F]
        redundant_G = scaled_G + [vadd(G[0], G[-1]), G[0], vscale(Fraction(1, 3), G[-1])]
        redundant_F = scaled_F + [vadd(F[0], F[-1]), F[-1]]
        rng.shuffle(redundant_G)
        rng.shuffle(redundant_F)
        routes = [
            {"generators": G},
            {"facets": F},
            {"generators": G, "facets": F},
            {"generators": G[::-1], "facets": F[::-1]},  # the caller's order is kept
            {"generators": redundant_G},
            {"facets": redundant_F},
            {"generators": redundant_G, "facets": redundant_F},
            {"generators": G, "facets": F[1:]},  # a facet missing: the facets do not match
        ]
        for rows in routes:
            got = built(build_space, sp.dim, **rows)
            assert got == built(fraction_build_space, sp.dim, **rows), (sp.name, rows)
            if got[0].startswith("OrderedSpace("):
                space = build_space(sp.dim, **rows)
                # The caches build_space seeds are what the cached properties compute.
                assert space.int_facets == type(space).int_facets.func(space), sp.name
                assert space.int_generators == type(space).int_generators.func(space), sp.name


def test_build_space_refusals_match_the_fraction_construction():
    cut_to_origin = {
        "generators": [(2, 0, -1), (2, -1, -2), (0, 2, 1), (2, 2, 0), (2, -2, -1)],
        "facets": [(-2, 0, 2), (1, 0, -2), (2, -1, -1), (-1, 1, 2), (2, -1, 0)],
    }
    cases = [
        (3, {"generators": [(1, 0, 0), (0, 1, 0), (1, 1, 0)]}, "NotGenerating"),  # rank deficient
        (2, {"generators": [(1, 0), (-1, 0), (0, 1)]}, "NotPointed"),  # a line
        (2, {"facets": [(1, 0), (-1, 0)]}, "NotPointed"),  # rank deficient facets
        (2, {"facets": [(1, 0), (0, 1), (-1, -1)]}, "NotGenerating"),  # only the origin
        (3, cut_to_origin, "ParseError"),
        (3, {"facets": cut_to_origin["facets"]}, "NotGenerating"),
        (2, {"generators": [(1, 0), (0, 1)], "facets": [(1, 0), (1, 1)]}, "ParseError"),  # mismatched
        (2, {"generators": [(1, 0), (0, 1)], "facets": [(1, 0), (0, 1), (1, 0), (1, -1)]}, "ParseError"),
        # A strict superset of the true facets, one extra row negative on a generator.
        (3, {"generators": FOUR_RAY_GENERATORS, "facets": [*FOUR_RAY_FACETS, (1, 0, 0)]}, "ParseError"),
        (1, {"generators": []}, "NotGenerating"),
        (1, {"facets": []}, "NotPointed"),
        (1, {"generators": [(2,), (-3,)]}, "NotPointed"),
        (1, {"facets": [(1,), (-5,)]}, "NotGenerating"),
        (1, {"generators": [(2,), (3,)], "facets": [(-1,)]}, "ParseError"),
        (2, {"generators": [(1, 0), (0, 0)]}, "ParseError"),  # a zero row
        (2, {"generators": [(1, "x")]}, "ParseError"),
        (2, {"generators": [(1, 0, 0)]}, "ParseError"),
    ]
    for dim, rows, error in cases:
        got = built(build_space, dim, **rows)
        assert got[0] == error, (rows, got)
        assert got == built(fraction_build_space, dim, **rows), rows


def test_a_cone_in_dimension_one_keeps_its_one_atom_on_every_route(tmp_path):
    # Its one ray lies on no facet and its facet {0} holds no ray.
    for rows in ({"generators": [[2], [3]]}, {"facets": [[1], [5]]}, {"generators": [[2], [3]], "facets": [[1], [5]]}):
        space = build_space(1, **rows)
        assert (space.generators, space.F, space.atom_supports) == ((vec([1]),), (vec([1]),), (frozenset({1}),))
        assert built(build_space, 1, **rows) == built(fraction_build_space, 1, **rows)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 1, "generators": []}))
    assert main(["atoms", "--space", str(path), "--json"]) == 1


# The integer construction with a second double description in place of the
# zero-set rules, kept as their oracle: `cones._representations` on the same
# int rows, with every rank an elimination and every redundancy test a
# double description of the other side.


def two_dd_representations(dim, gens, face):
    def rays(A):
        return [r for r, _ in cones._rays(A)]

    if gens is not None:
        r = linalg._rank(gens)
        if r < dim:
            raise NotGenerating(f"generators span a rank-{r} subspace of Q^{dim}")
        dual = rays(gens)
        if linalg._rank(dual) < dim:
            raise NotPointed("the generated cone contains a line")
        canon_gens = rays(dual)
        gens = gens if set(gens) == set(canon_gens) else canon_gens
        if face is None:
            return gens, dual
        ok = linalg._rank(face) == dim
        if ok:
            try:
                face_rays = rays(face)
                ok = bool(face_rays) and set(rays(face_rays)) == set(dual)
            except ValueError:
                ok = False
        if not ok:
            raise ParseError("facets do not match the cone generated by the generators")
        return gens, face if set(face) == set(dual) else dual
    r = linalg._rank(face)
    if r < dim:
        raise NotPointed(f"facets have rank {r}; the cone contains a line")
    canon_gens = rays(face)
    if linalg._rank(canon_gens) < dim:
        raise NotGenerating("the facet cone is not full dimensional")
    irred = rays(canon_gens)
    return canon_gens, face if set(face) == set(irred) else irred


def probe_spaces():
    """Polygons, simplicial cones, direct sums, cyclic polytopes and random spaces."""
    rng = random.Random(22054)
    spaces = [random_polygon_space(rng, m) for m in range(4, 15)] + [simplex(n) for n in range(2, 7)]
    for _ in range(14):
        parts = [random_space(rng) for _ in range(2)]
        spaces.append(direct_sum(*parts, scramble=random_unimodular(rng, sum(sp.dim for sp in parts))))
    spaces += [moment_cone(range(7), 3), moment_cone(range(8), 4), moment_cone(range(9), 4), moment_cone(range(8), 5)]
    return spaces + [random_space(rng) for _ in range(20)], rng


def test_zero_set_rules_match_the_second_double_description(monkeypatch):
    spaces, rng = probe_spaces()
    assert len(spaces) == 54
    routes = []
    for sp in spaces:
        G, F = list(sp.generators), list(sp.F)
        # Two redundant rows on each side: positive sums of two rows.
        more_G = G + [vadd(G[0], G[-1]), vadd(vscale(Fraction(3), G[0]), G[-1])]
        more_F = F + [vadd(F[0], F[-1]), vadd(vscale(Fraction(3), F[0]), F[-1])]
        rng.shuffle(more_G)
        rng.shuffle(more_F)
        routes += [
            (sp.dim, {"generators": more_G}),
            (sp.dim, {"facets": more_F}),
            (sp.dim, {"generators": more_G, "facets": more_F}),
            (sp.dim, {"generators": G, "facets": F[1:]}),  # a facet missing
            (sp.dim, {"generators": G, "facets": F + [vscale(Fraction(-1), G[0])]}),  # a row negative on G[0]
            (sp.dim, {"facets": F[1:]}),  # a facet dropped: the cone grows, or gets a line
            (sp.dim, {"generators": G[1:]}),  # a generator dropped: the cone shrinks, or flattens
        ]
    got = [built(build_space, dim, **rows) for dim, rows in routes]
    monkeypatch.setattr(cones, "_representations", two_dd_representations)
    expected = [built(build_space, dim, **rows) for dim, rows in routes]
    for (dim, rows), g, e in zip(routes, got, expected):
        assert g == e, (dim, rows)
    kinds = {g[0] if not g[0].startswith("OrderedSpace(") else "built" for g in got}
    assert kinds == {"built", "ParseError", "NotGenerating", "NotPointed"}


def test_build_space_runs_one_double_description_and_no_other_elimination(monkeypatch):
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    ten_gon = [[t, t * t, 1] for t in range(10)] + [[9, 57, 2]]  # and a generator inside it
    builds = [
        (3, {"generators": FOUR_RAY_GENERATORS}, 4),
        (3, {"facets": FOUR_RAY_FACETS}, 4),
        (3, {"generators": FOUR_RAY_GENERATORS, "facets": FOUR_RAY_FACETS}, 4),
        (5, {"generators": eye}, 5),
        (3, {"generators": ten_gon}, 10),
    ]
    calls = {"rays": 0, "echelon": 0}
    rays, echelon = cones._rays, linalg._echelon

    def counted_rays(*args):
        calls["rays"] += 1
        return rays(*args)

    def counted_echelon(rows):
        calls["echelon"] += 1
        return echelon(rows)

    monkeypatch.setattr(cones, "_rays", counted_rays)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(cones, "_echelon", counted_echelon)
    for dim, rows, atoms in builds:
        calls.update(rays=0, echelon=0)
        space = build_space(dim, **rows)
        # The seed's independent rows and its inverse are the only eliminations:
        # the cut's adjacency test and the face rules read zero-set masks.
        assert (len(space.generators), calls) == (atoms, {"rays": 1, "echelon": 2}), rows


def test_build_space_refuses_more_rows_than_the_bound(tmp_path, monkeypatch):
    def no_elimination(rows):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(linalg, "_echelon", no_elimination)
    monkeypatch.setattr(cones, "_echelon", no_elimination)
    over = [(1, k) for k in range(MAX_ROWS)] + [(1, 0)]  # counted as given, the duplicate too
    for rows in ({"generators": over}, {"facets": over}, {"generators": [(1, 0), (0, 1)], "facets": over}):
        with pytest.raises(ParseError, match=f"more than {MAX_ROWS}"):
            build_space(2, **rows)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "generators": over}))
    assert main(["classify", "--space", str(path)]) == 2
    monkeypatch.undo()
    assert build_space(2, generators=over[:MAX_ROWS]).m == 2  # the bound itself is accepted
