"""Cover-side order structure: modulus domination, density, majorization."""

import itertools
import random
from fractions import Fraction

import pytest

from ordercone.cones import build_space, embed, in_cone, leq
from ordercone.cover import cover_modulus, is_majorizing, modulus_dominates
from ordercone.errors import ParseError
from ordercone.fixtures import (
    four_ray,
    random_polygon_space,
    random_positive,
    random_simplicial_space,
    random_space,
    random_vector,
    simplex,
)
from ordercone.linalg import dot, mat, solve_linear, support, vadd, vec, vscale, vsub
from ordercone.lp import Polyhedron, feasible_point, lp


def frac_vec(*entries):
    return vec(entries)


def test_cover_modulus_frozen():
    sp = four_ray()
    v1, v2 = sp.generators[0], sp.generators[1]
    assert cover_modulus(sp, v1) == frac_vec(0, 2, 2, 0)
    assert cover_modulus(sp, vsub(v1, v2)) == frac_vec(0, 2, 0, 2)
    assert cover_modulus(sp, vec((0, 0, 0))) == frac_vec(0, 0, 0, 0)


def test_modulus_dominates_frozen():
    sp = four_ray()
    v1, v2 = sp.generators[0], sp.generators[1]
    d = vadd(v1, v2)
    assert modulus_dominates(sp, v1, d)
    assert not modulus_dominates(sp, d, v1)
    q2 = simplex(2)
    e1, e2 = q2.generators
    assert not modulus_dominates(q2, e1, e2)
    assert modulus_dominates(q2, e1, vadd(e1, e2))
    # zero is dominated by everything and dominates only zero
    z = vec((0, 0, 0))
    assert modulus_dominates(sp, z, v1)
    assert not modulus_dominates(sp, v1, z)
    assert modulus_dominates(sp, z, z)


def test_modulus_dominates_scaling_random():
    rng = random.Random(20401)
    for _ in range(60):
        sp = random_space(rng)
        x = random_vector(rng, sp.dim)
        half = vscale(Fraction(1, 2), x)
        assert modulus_dominates(sp, half, x)
        if any(x):
            assert not modulus_dominates(sp, x, half)
        # mutual domination pins the modulus exactly
        y = random_vector(rng, sp.dim)
        if modulus_dominates(sp, x, y) and modulus_dominates(sp, y, x):
            assert cover_modulus(sp, x) == cover_modulus(sp, y)


def test_modulus_dominates_matches_pointwise_comparison():
    """Pointwise moduli vs the upper-set LPs they replace.

    |x| <= |y| in the solid order iff min{f_j(z) : F z >= |F y|} >= |F x|_j
    for every j; the LPs check this on pairs where the pointwise test fails
    as well.
    """
    rng = random.Random(20402)
    for _ in range(40):
        sp = random_space(rng)
        x = random_vector(rng, sp.dim)
        y = random_vector(rng, sp.dim)
        wx, wy = cover_modulus(sp, x), cover_modulus(sp, y)
        pointwise = all(a <= b for a, b in zip(wx, wy))
        U = Polyhedron(sp.F, wy, sp.dim)
        by_lp = all(lp(f, U, "min").value >= wxj for f, wxj in zip(sp.F, wx))
        assert modulus_dominates(sp, x, y) == pointwise == by_lp


def density_patterns(m, rng=None, limit=None):
    if limit is None:
        for pat in itertools.product((-1, 0, 1), repeat=m):
            yield vec(pat)
    else:
        for _ in range(limit):
            yield vec(tuple(rng.choice((-1, 0, 1)) for _ in range(m)))


def check_density(sp, patterns):
    """Order density without an LP: min{f_j(z) : F z >= w} = w_j, attained.

    p, the sum of the atoms on facet j, has f_j(p) = 0 and f_i(p) > 0 for
    i != j.  With f_j(z0) = w_j, z = z0 + t p has F z >= w and f_j(z) = w_j
    for large t; row j bounds the minimum below by w_j.
    """
    for j, f in enumerate(sp.F):
        p = tuple(sum(col, start=Fraction(0)) for col in zip(*(g for g in sp.generators if dot(f, g) == 0)))
        Fp = embed(sp, p)
        assert support(Fp) == frozenset(range(1, sp.m + 1)) - {j + 1}
        unit = solve_linear((f,), (Fraction(1),))
        for w in patterns:
            Fz0 = embed(sp, vscale(w[j], unit))
            t = max([Fraction(0)] + [(w[i] - Fz0[i]) / Fp[i] for i in range(sp.m) if i != j])
            Fz = vadd(Fz0, vscale(t, Fp))
            assert Fz[j] == w[j] and all(a >= b for a, b in zip(Fz, w, strict=True))


def moment_cone(ts, d):
    """The cone over the cyclic polytope with vertices (1, t, ..., t^d)."""
    return build_space(d + 1, generators=[[t**e for e in range(d + 1)] for t in ts])


def test_order_density_grid_small_m():
    rng = random.Random(20404)
    spaces = [four_ray(), random_polygon_space(rng, 5), random_polygon_space(rng, 6)]
    for sp in spaces:
        check_density(sp, list(density_patterns(sp.m)))


def test_order_density_sampled_larger_m():
    rng = random.Random(20405)
    for m in (7, 8):
        sp = random_polygon_space(rng, m)
        check_density(sp, list(density_patterns(sp.m, rng=rng, limit=120)))


def test_order_density_at_images_and_random_points():
    rng = random.Random(20406)
    sp = four_ray()
    check_density(sp, [frac_vec(1, 0, 0, 0), embed(sp, sp.generators[0])])
    for _ in range(40):
        spr = random_space(rng)
        x = random_vector(rng, spr.dim)
        check_density(spr, [embed(spr, x), random_vector(rng, spr.m)])


def test_order_density_beyond_q3():
    rng = random.Random(20410)
    cones = [moment_cone(range(k), 3) for k in (6, 7, 8)] + [moment_cone(range(7), 4)]
    assert [sp.m for sp in cones] == [8, 10, 12, 14]
    for sp in cones:
        patterns = list(density_patterns(sp.m, rng=rng, limit=120))
        check_density(sp, patterns + [embed(sp, random_vector(rng, sp.dim)) for _ in range(20)])


def test_is_majorizing_frozen():
    sp = four_ray()
    v1 = sp.generators[0]
    full = frozenset(range(1, sp.m + 1))
    assert is_majorizing(sp, sp.generators[:3], full)
    assert is_majorizing(sp, (v1,), {2, 3})
    assert not is_majorizing(sp, (v1,), {1, 2, 3})
    assert not is_majorizing(sp, (), {1})
    assert is_majorizing(sp, (), frozenset())
    q2 = simplex(2)
    assert is_majorizing(q2, (q2.generators[0],), {1})
    assert not is_majorizing(q2, (q2.generators[0],), {1, 2})
    with pytest.raises(ParseError):
        is_majorizing(sp, (v1,), {0, 2})


def test_bipositivity_against_generator_membership():
    """F x >= 0 must coincide with x being a nonnegative generator combination."""
    rng = random.Random(20407)
    checked = 0
    while checked < 500:
        sp = random_space(rng)
        gens = sp.generators
        k = len(gens)
        for _ in range(25):
            if rng.random() < 0.5:
                x = random_positive(rng, sp)
            else:
                x = random_vector(rng, sp.dim)
            rows, rhs = [], []
            for i in range(sp.dim):
                row = tuple(g[i] for g in gens)
                rows.append(row)
                rhs.append(x[i])
                rows.append(tuple(-e for e in row))
                rhs.append(-x[i])
            for idx in range(k):
                rows.append(tuple(Fraction(int(idx == t)) for t in range(k)))
                rhs.append(0)
            combo = feasible_point(Polyhedron(mat(rows), vec(rhs), k))
            image_positive = all(c >= 0 for c in embed(sp, x))
            assert image_positive == (combo is not None)
            assert image_positive == in_cone(sp, x)
            checked += 1
            if checked == 500:
                break


def test_riesz_decomposition_in_cover():
    """Coordinatewise split certifies the decomposition property of Q^m."""
    rng = random.Random(20408)
    for _ in range(200):
        m = rng.randint(1, 7)
        y1 = vec(tuple(rng.randint(0, 6) for _ in range(m)))
        y2 = vec(tuple(rng.randint(0, 6) for _ in range(m)))
        total = vadd(y1, y2)
        y = vec(
            tuple(
                total[j] * Fraction(rng.randint(0, 4), 4) for j in range(m)
            )
        )
        y = tuple(map(min, y, total))
        u = tuple(map(min, y, y1))
        v = vsub(y, u)
        assert vadd(u, v) == y
        assert all(0 <= u[j] <= y1[j] for j in range(m))
        assert all(0 <= v[j] <= y2[j] for j in range(m))


def test_simplicial_embed_is_order_isomorphism():
    rng = random.Random(20409)
    for _ in range(40):
        sp = random_simplicial_space(rng, rng.randint(1, 5))
        assert sp.m == sp.dim
        x = random_vector(rng, sp.dim)
        y = random_vector(rng, sp.dim)
        ix, iy = embed(sp, x), embed(sp, y)
        assert leq(sp, x, y) == all(a <= b for a, b in zip(ix, iy))
        # injectivity on the sampled pair
        if x != y:
            assert ix != iy
