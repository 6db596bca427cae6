"""Disjointness, complements, band calculus, and extension/restriction."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordercone import linalg
from ordercone.atoms import ProjectionReport, decompose_by_atom, enumerate_order_projections, is_projection_band
from ordercone.bands import (
    DEFAULT_ENUMERATION_CAP,
    Band,
    _covered,
    _cut_piece,
    _flats,
    _is_separator,
    _kernel_is_directed,
    _kernel_rows,
    _span_closure,
    band_of,
    disjoint_complement,
    disjoint_eq1_oracle,
    enumerate_bands,
    extend_band,
    full_space,
    is_band,
    is_directed_subspace,
    is_disjoint,
    kernel_of_rows,
    principal_ideal_member,
    restrict_band,
    restriction_is_projection_band,
    subspace,
    union_support,
    vanish_set,
)
from ordercone.cones import build_space, embed, in_cone, sup_in_X
from ordercone.errors import CapExceeded, NotABand, ParseError
from ordercone.fixtures import (
    four_ray,
    random_polygon_space,
    random_simplicial_space,
    random_space,
    random_unimodular,
    random_vector,
    simplex,
)
from ordercone.linalg import (
    canonical_subspace_basis,
    dot,
    mat_vec,
    rank,
    transpose,
    vabs,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)
from ordercone.lp import Polyhedron, lp
from test_cover import moment_cone
from test_linalg import oracle_invert


def line(*v):
    return subspace(len(v[0]), [vec(x) for x in v])


def test_is_disjoint_frozen():
    sp = four_ray()
    v1, v2, v3, v4 = sp.generators
    assert is_disjoint(sp, v1, v3)
    assert is_disjoint(sp, v2, v4)
    assert not is_disjoint(sp, v1, v2)
    assert is_disjoint(sp, v1, vec((0, 0, 0)))
    assert is_disjoint(sp, vec((1, -1, 0)), vec((1, 1, 0)))


def test_disjoint_eq1_oracle_frozen():
    sp = four_ray()
    v1, v2, v3 = sp.generators[:3]
    assert disjoint_eq1_oracle(sp, v1, v3)
    assert not disjoint_eq1_oracle(sp, v1, v2)
    assert disjoint_eq1_oracle(sp, v1, vec((0, 0, 0)))
    q2 = simplex(2)
    assert not disjoint_eq1_oracle(q2, vec((1, 1)), vec((1, -1)))
    assert disjoint_eq1_oracle(q2, vec((1, 0)), vec((0, -3)))


def test_dual_oracle_agreement_random():
    rng = random.Random(30501)
    for _ in range(10):
        sp = random_space(rng)
        for _ in range(60):
            x = random_vector(rng, sp.dim, -3, 3)
            y = random_vector(rng, sp.dim, -3, 3)
            assert is_disjoint(sp, x, y) == disjoint_eq1_oracle(sp, x, y)


def test_disjoint_complement_frozen():
    sp = four_ray()
    v1, v2, v3, v4 = sp.generators
    pairs = [(v1, v3), (v2, v4), (v3, v1), (v4, v2)]
    for a, partner in pairs:
        comp = disjoint_complement(sp, [a])
        assert comp.carrier.basis == line(partner).basis
        assert comp.zero_set == union_support(sp, [a])
        assert comp.directed
        assert kernel_of_rows(sp, comp.zero_set).basis == comp.carrier.basis
    q2 = simplex(2)
    assert disjoint_complement(q2, [vec((1, 0))]).carrier.basis == (vec((0, 1)),)
    wide = disjoint_complement(sp, [v1, v3])
    assert wide.carrier.dim == 0
    assert wide.zero_set == frozenset({1, 2, 3, 4})
    everything = disjoint_complement(sp, [])
    assert everything.carrier.basis == full_space(3).basis
    assert everything.zero_set == frozenset()
    assert everything.directed


def test_band_of_frozen():
    sp = four_ray()
    v1, v2 = sp.generators[:2]
    assert band_of(sp, v1).carrier.basis == line(v1).basis
    assert band_of(sp, vadd(v1, v2)).carrier.basis == full_space(3).basis
    assert band_of(sp, vec((0, 0, 0))).carrier.dim == 0
    q2 = simplex(2)
    assert band_of(q2, vec((1, 0))).carrier.basis == (vec((1, 0)),)
    # An atom's principal band need not be its ray.  A pentagon's atom is
    # nonzero on three facets whose rows span Q^3, so its band is all of Q^3,
    # which is a projection band.
    pent = pentagon()
    for a in pent.generators:
        assert band_of(pent, a).carrier.basis == full_space(3).basis
        assert is_projection_band(pent, band_of(pent, a)).is_projection_band


def test_is_band_frozen():
    sp = four_ray()
    v1, v3 = sp.generators[0], sp.generators[2]
    assert is_band(sp, line(v1))
    assert not is_band(sp, line(v1, v3))
    assert is_band(sp, subspace(3, []))
    assert is_band(sp, full_space(3))
    assert is_band(sp, line(vec((1, -1, 0))))
    assert is_band(sp, line(vec((1, 1, 0))))
    assert is_band(sp, band_of(sp, v1))


def test_enumerate_bands_four_ray():
    """The full inventory of double-complement fixed points.

    The four generator lines are the directed nontrivial bands; two further
    lines (the kernels of opposite facet pairs) are bands without any nonzero
    positive element, giving eight fixed points in all.
    """
    sp = four_ray()
    bands = enumerate_bands(sp)
    assert len(bands) == 8
    by_dim = {0: [], 1: [], 3: []}
    for b in bands:
        by_dim[b.carrier.dim].append(b)
    assert len(by_dim[0]) == 1 and by_dim[0][0].directed
    assert by_dim[0][0].zero_set == frozenset({1, 2, 3, 4})
    assert len(by_dim[3]) == 1 and by_dim[3][0].directed
    assert by_dim[3][0].zero_set == frozenset()
    directed_lines = [b for b in by_dim[1] if b.directed]
    skew_lines = [b for b in by_dim[1] if not b.directed]
    assert len(directed_lines) == 4 and len(skew_lines) == 2
    expected = {line(g).basis: zs for g, zs in zip(
        sp.generators,
        [frozenset({1, 4}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})],
    )}
    for b in directed_lines:
        assert expected.pop(b.carrier.basis) == b.zero_set
    assert not expected
    skew = {b.carrier.basis: b.zero_set for b in skew_lines}
    assert skew == {
        (vec((1, -1, 0)),): frozenset({1, 3}),
        (vec((1, 1, 0)),): frozenset({2, 4}),
    }


def test_enumerate_bands_simplicial_and_cap():
    q3 = simplex(3)
    bands = enumerate_bands(q3)
    assert len(bands) == 8
    assert all(b.directed for b in bands)
    assert sorted(len(b.zero_set) for b in bands) == [0, 1, 1, 1, 2, 2, 2, 3]
    q1 = simplex(1)
    assert [b.carrier.dim for b in enumerate_bands(q1)] == [0, 1]
    with pytest.raises(CapExceeded):
        enumerate_bands(four_ray(), cap=3)


def test_cap_counts_flats_not_facets():
    # The cone over a 15-gon has 15 facets and 2 bands, 0 and X, both
    # projection bands.  No two hyperplanes cover its rows, so no flat is
    # visited, and cap 6 answers it too.
    sp = build_space(3, generators=[[k, k * k, 1] for k in range(-7, 8)])
    assert sp.m == 15
    assert [b.carrier.dim for b in enumerate_bands(sp)] == [0, 3]
    assert len(enumerate_order_projections(sp)) == 2
    assert [b.carrier.dim for b in enumerate_bands(sp, cap=6)] == [0, 3]
    # The octahedron's cone has 8 facets and 58 flats, all of them walked:
    # refused below the cap its flats need, and answered at that cap, which
    # is below 8.
    octa = octahedron()
    (C,) = octa.components
    flats = len(_flats(octa, C, _kernel_rows(octa, frozenset()), DEFAULT_ENUMERATION_CAP, 0)[0])
    cap = (flats - 1).bit_length()
    assert (flats, cap) == (58, 6) and cap < octa.m
    with pytest.raises(CapExceeded, match="flats"):
        enumerate_bands(octa, cap=cap - 1)
    assert len(enumerate_bands(octa, cap=cap)) == 14


def test_principal_ideal_member_frozen():
    q2 = simplex(2)
    assert not principal_ideal_member(q2, vec((0, 1)), vec((1, 0)))
    assert principal_ideal_member(q2, vec((0, 0)), vec((1, 0)))
    q3 = simplex(3)
    assert principal_ideal_member(q3, vec((0, 7, 0)), vec((0, 1, 0)))
    assert not principal_ideal_member(q3, vec((1, 1, 0)), vec((0, 1, 0)))
    sp = four_ray()
    v1, v2 = sp.generators[:2]
    assert principal_ideal_member(sp, v1, vadd(v1, v2))
    assert not principal_ideal_member(sp, vadd(v1, v2), v1)


def ideal_member_lp(space, x, a):
    """The upper-set LP route: |F x| vanishes wherever min{f_j(z) : F z >= |F a|} is 0."""
    wa, wx = vabs(embed(space, a)), vabs(embed(space, x))
    U = Polyhedron(space.F, wa, space.dim)
    return all(wx[j] == 0 or wa[j] > 0 or lp(space.F[j], U, "min").value > 0 for j in range(space.m))


def test_principal_ideal_member_matches_upper_set_lp():
    rng = random.Random(30509)
    spaces = [four_ray(), simplex(3)] + [random_polygon_space(rng, m) for m in (4, 5, 7)]
    spaces += [random_space(rng) for _ in range(10)]
    answers = set()
    for sp in spaces:
        gens = sp.generators
        bases = list(gens) + [vadd(g, h) for g, h in zip(gens, gens[1:])] + [random_vector(rng, sp.dim)]
        for a in bases:
            for x in [random_vector(rng, sp.dim) for _ in range(3)] + list(gens[:3]):
                member = principal_ideal_member(sp, x, a)
                assert member == ideal_member_lp(sp, x, a)
                answers.add(member)
    assert answers == {True, False}


def test_principal_ideal_of_atom_is_its_span_simplicial():
    rng = random.Random(30502)
    for _ in range(20):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        a = sp.generators[rng.randrange(len(sp.generators))]
        x = random_vector(rng, sp.dim, -3, 3)
        member = principal_ideal_member(sp, x, a)
        in_span = subspace(sp.dim, [a]).contains(x)
        assert member == in_span


def test_is_directed_subspace_frozen():
    sp = four_ray()
    v1, v3 = sp.generators[0], sp.generators[2]
    assert is_directed_subspace(sp, line(v1))
    assert is_directed_subspace(sp, line(v1, v3))
    assert is_directed_subspace(sp, subspace(3, []))
    assert is_directed_subspace(sp, full_space(3))
    assert not is_directed_subspace(sp, line(vec((1, -1, 0))))
    assert not is_directed_subspace(sp, line(vec((1, 1, 0))))
    q2 = simplex(2)
    assert not is_directed_subspace(q2, line(vec((1, -1))))


def test_extend_restrict_frozen():
    sp = four_ray()
    v1 = sp.generators[0]
    assert extend_band(sp, line(v1)) == frozenset({2, 3})
    assert restrict_band(sp, {2, 3}).basis == line(v1).basis
    assert restrict_band(sp, {3}).dim == 0
    assert restrict_band(sp, {1, 2, 3, 4}).basis == full_space(3).basis
    assert extend_band(sp, full_space(3)) == frozenset({1, 2, 3, 4})
    assert extend_band(sp, subspace(3, [])) == frozenset()
    q3 = simplex(3)
    diag = subspace(3, [vec((1, 1, 0))])
    assert extend_band(q3, diag) == union_support(q3, diag.basis)
    with pytest.raises(ParseError):
        restrict_band(sp, {0, 2})
    with pytest.raises(ParseError):
        restrict_band(sp, {5})


def test_band_calculus_random():
    rng = random.Random(30503)
    pick = random.Random(30515)  # draws the principal-band probes, leaving rng's stream as it was
    for _ in range(40):
        sp = random_space(rng)
        k = rng.randint(0, sp.dim)
        D = subspace(sp.dim, [random_vector(rng, sp.dim, -2, 2) for _ in range(k)])
        comp = disjoint_complement(sp, D)
        dd = disjoint_complement(sp, comp)
        # D sits inside its double complement, and is a band iff it is all of it
        assert all(dd.carrier.contains(b) for b in D.basis)
        assert is_band(sp, D) == (dd.carrier.basis == D.basis)
        a = random_vector(pick, sp.dim, -2, 2)
        assert band_of(sp, a) == disjoint_complement(sp, disjoint_complement(sp, [a]))
        # the complement is already a fixed point: D^d = D^ddd
        ddd = disjoint_complement(sp, dd)
        assert ddd.carrier.basis == comp.carrier.basis
        assert is_band(sp, comp)
        assert kernel_of_rows(sp, comp.zero_set).basis == comp.carrier.basis


def test_restriction_is_band_iff_structure_allows():
    rng = random.Random(30504)
    # every restriction in a simplicial (hence fordable) space is a band
    for _ in range(8):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        indices = list(range(1, sp.m + 1))
        for r in range(sp.m + 1):
            for J in combinations(indices, r):
                assert is_band(sp, restrict_band(sp, J))
    # the four-ray space fails exactly on the two-dimensional restrictions
    sp = four_ray()
    for r in range(5):
        for J in combinations(range(1, 5), r):
            R = restrict_band(sp, J)
            got = is_band(sp, R)
            assert got == (R.dim != 2)
            # cross-check against the direct double complement
            dd = disjoint_complement(sp, disjoint_complement(sp, R))
            assert got == (dd.carrier.basis == R.basis)


def test_disjointness_transfers_to_suprema_in_pervasive_spaces():
    rng = random.Random(30505)
    for _ in range(30):
        sp = random_simplicial_space(rng, rng.randint(2, 5))
        idx = list(range(len(sp.generators)))
        rng.shuffle(idx)
        cut = rng.randint(1, len(idx) - 1)
        a_part, s_part = idx[:cut], idx[cut:]
        a = vec((0,) * sp.dim)
        for k in a_part:
            a = vadd(a, vscale(Fraction(rng.randint(1, 3)), sp.generators[k]))
        S = []
        for _ in range(rng.randint(2, 4)):
            s = vec((0,) * sp.dim)
            for k in s_part:
                s = vadd(s, vscale(Fraction(rng.randint(0, 3)), sp.generators[k]))
            S.append(s)
        assert all(is_disjoint(sp, a, s) for s in S)
        sup = sup_in_X(sp, S)
        assert sup is not None
        assert is_disjoint(sp, a, sup)
        assert disjoint_eq1_oracle(sp, a, sup)


def test_extension_supports_complementary_in_pervasive_spaces():
    rng = random.Random(30506)
    for _ in range(10):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        full = frozenset(range(1, sp.m + 1))
        for band in enumerate_bands(sp):
            comp = disjoint_complement(sp, band)
            ext = extend_band(sp, band)
            ext_comp = extend_band(sp, comp)
            assert ext | ext_comp == full
            assert not ext & ext_comp


def test_extend_restrict_roundtrips():
    rng = random.Random(30507)
    # supports first: pervasive spaces recover every J
    for _ in range(6):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        indices = list(range(1, sp.m + 1))
        for r in range(sp.m + 1):
            for J in combinations(indices, r):
                assert extend_band(sp, restrict_band(sp, J)) == frozenset(J)
    # carriers second: every band in any space comes back from its extension
    spaces = [four_ray(), simplex(3)] + [random_space(rng) for _ in range(6)]
    for sp in spaces:
        for band in enumerate_bands(sp):
            back = restrict_band(sp, extend_band(sp, band))
            assert back.basis == band.carrier.basis


def test_vanish_set_matches_zero_sets():
    sp = four_ray()
    for band in enumerate_bands(sp):
        assert vanish_set(sp, band.carrier) == band.zero_set
    v1 = sp.generators[0]
    assert vanish_set(sp, line(v1)) == frozenset({1, 4})
    assert vanish_set(sp, full_space(3)) == frozenset()


def sweep_bands(space):
    """The 2^m subset sweep that enumerate_bands replaced, kept as its oracle.

    Every row kernel is visited, and kept when it is its own double
    complement; `directed` comes from double description.
    """
    full = frozenset(range(1, space.m + 1))
    seen = {}
    for mask in range(1 << space.m):
        J = frozenset(j + 1 for j in range(space.m) if mask >> j & 1)
        carrier = kernel_of_rows(space, J)
        if carrier.basis in seen:
            continue
        supp = union_support(space, carrier.basis)
        complement = kernel_of_rows(space, supp)
        if kernel_of_rows(space, union_support(space, complement.basis)).basis != carrier.basis:
            continue
        seen[carrier.basis] = Band(carrier, full - supp, is_directed_subspace(space, carrier))
    return tuple(sorted(seen.values(), key=lambda b: (b.carrier.dim, b.carrier.basis)))


def pentagon():
    return build_space(3, generators=[vec((k, k * k, 1)) for k in (-2, -1, 0, 1, 2)], name="pentagon")


def oracle_spaces():
    rng = random.Random(30508)
    return (
        [four_ray(), pentagon()]
        + [simplex(n) for n in range(1, 6)]
        + [random_space(rng) for _ in range(10)]
    )


def octahedron():
    return build_space(
        4, generators=[[s * (i == k) for i in range(3)] + [1] for k in range(3) for s in (1, -1)], name="octahedron"
    )


def cube():
    return build_space(4, generators=[[a, b, c, 1] for a in (1, -1) for b in (1, -1) for c in (1, -1)], name="cube")


def parallel_hexagon():
    """The cone over a hexagon whose opposite sides are parallel."""
    gens = [[1, 0, 1], [1, 1, 1], [0, 1, 1], [-1, 0, 1], [-1, -1, 1], [0, -1, 1]]
    return build_space(3, generators=gens, name="parallel hexagon")


def test_non_generic_cones_match_the_subset_sweep():
    for make, count in ((octahedron, 14), (cube, 16), (parallel_hexagon, 2)):
        sp = make()
        bands = enumerate_bands(sp)
        assert len(bands) == count and bands == sweep_bands(sp), sp.name


def covered_by_two_hyperplanes(space, C):
    """Whether two hyperplanes of the component C cover it, found by brute force.

    The hyperplanes of C, of rank r - 1 for r = r(C), are the closures of its
    (r - 1)-subsets of that rank: every row j of C with r(S + j) = r(S).  No
    code is shared with the cover search or the flat walk.
    """

    def r(S):
        return rank(tuple(space.F[j - 1] for j in S))

    k = r(C) - 1
    hyperplanes = {frozenset(j for j in C if r(S + (j,)) == k) for S in combinations(sorted(C), k) if r(S) == k}
    return any(H | G == C for H, G in combinations(hyperplanes, 2))


def test_two_bands_iff_no_two_hyperplanes_cover():
    # The band flats of a component C are the parts L & C of the bands' zero
    # sets, read here off the 2^m subset sweep.
    spaces = oracle_spaces() + [octahedron(), cube(), parallel_hexagon()]
    spaces += [sp for sp in piece_spaces() if sp.m <= 10]
    answers = set()
    for sp in spaces:
        full = frozenset(range(1, sp.m + 1))
        sweep = sweep_bands(sp)
        for C in sp.components:
            covered = covered_by_two_hyperplanes(sp, C)
            assert (len({b.zero_set & C for b in sweep}) == 2) == (not covered), (sp.name, C)
            found, leaves = _covered(sp, C, _kernel_rows(sp, full - C), DEFAULT_ENUMERATION_CAP, 0)
            assert found == covered and 1 <= leaves <= 2 ** (len(C) - 1), (sp.name, C)
            answers.add(covered)
    assert answers == {True, False}


def test_flats_are_walked_only_where_two_hyperplanes_cover(monkeypatch):
    walks = []

    def counting(space, C, *args):
        walks.append(C)
        return _flats(space, C, *args)

    monkeypatch.setattr("ordercone.bands._flats", counting)

    def walked(sp):
        walks.clear()
        enumerate_bands(sp)
        return len(walks)

    rng = random.Random(30516)
    polygons = [pentagon(), parallel_hexagon()] + [random_polygon_space(rng, m) for m in range(5, 12)]
    assert [walked(sp) for sp in polygons] == [0] * len(polygons)
    assert walked(simplex(5)) == 0  # one-row components have rank 1
    assert [walked(sp) for sp in (four_ray(), octahedron(), cube())] == [1, 1, 1]
    assert walked(direct_sum(four_ray(), pentagon(), simplex(1))) == 1


def test_a_200_gon_cone_has_two_bands():
    sp = build_space(3, generators=[[t, t * t, 1] for t in range(200)])
    bands = enumerate_bands(sp)
    assert [(b.carrier.dim, b.zero_set, b.directed) for b in bands] == [
        (0, frozenset(range(1, 201)), True),
        (3, frozenset(), True),
    ]


def test_cover_search_cap_refuses_a_high_rank_component_quickly(monkeypatch):
    # The cone of the polynomials of degree at most 5 that are nonnegative at
    # t = 0..11: its 12 facet rows lie on the moment curve, so every 6 of
    # them are independent and no two hyperplanes (5 rows each) cover them.
    # The search visits all C(9, 4) = 126 of its leaves to find that out.
    sp = build_space(6, facets=[[t**e for e in range(6)] for t in range(12)])
    assert sp.m == 12 and len(sp.components) == 1
    (C,) = sp.components
    assert _covered(sp, C, _kernel_rows(sp, frozenset()), DEFAULT_ENUMERATION_CAP, 0) == (False, 126)
    assert [b.carrier.dim for b in enumerate_bands(sp)] == [0, 6]
    cuts = [0]

    def counting(basis, r):
        cuts[0] += 1
        return _cut_piece(basis, r)

    monkeypatch.setattr("ordercone.bands._cut_piece", counting)
    with pytest.raises(CapExceeded, match=r"more than 2\^5 leaves"):
        enumerate_bands(sp, cap=5)
    assert cuts[0] <= (2**5 + 1) * sp.m  # each leaf ends a path of at most m cuts


def test_span_closure_matches_the_canonical_kernel():
    """Every row set's closure and rank against the canonical kernel.

    The scrambled direct sums have components of several rows, so the
    unions of components, which `_span_closure` reads off the row basis,
    are swept there too, and not only on simplices.
    """
    rng = random.Random(30524)
    sums = [
        direct_sum(four_ray(), simplex(2), scramble=random_unimodular(rng, 5)),
        direct_sum(four_ray(), four_ray(), scramble=random_unimodular(rng, 6)),
        direct_sum(pentagon(), simplex(1), scramble=random_unimodular(rng, 4)),
    ]
    for sp in oracle_spaces() + sums:
        assert sp.m <= 10
        for mask in range(1 << sp.m):
            J = frozenset(j + 1 for j in range(sp.m) if mask >> j & 1)
            K = kernel_of_rows(sp, J)
            assert _span_closure(sp, J) == (vanish_set(sp, K), sp.dim - K.dim), (sp.name, J)


def test_enumerate_bands_equals_subset_sweep():
    for sp in oracle_spaces():
        assert enumerate_bands(sp) == sweep_bands(sp), sp.name


def test_order_projections_match_is_projection_band():
    for sp in oracle_spaces():
        reports = (is_projection_band(sp, band) for band in enumerate_bands(sp))
        expected = tuple(rep for rep in reports if rep.is_projection_band)
        assert enumerate_order_projections(sp) == expected, sp.name


def direct_sum(*spaces, scramble=None):
    """The direct sum of the spaces' cones, its generators mapped by `scramble` if given."""
    n = sum(sp.dim for sp in spaces)
    gens, offset = [], 0
    for sp in spaces:
        gens += [(0,) * offset + tuple(g) + (0,) * (n - offset - sp.dim) for g in sp.generators]
        offset += sp.dim
    if scramble is not None:
        gens = [mat_vec(scramble, vec(g)) for g in gens]
    return build_space(n, generators=gens, name=" + ".join(sp.name for sp in spaces))


def projection_spaces():
    rng = random.Random(30510)
    return oracle_spaces() + [
        direct_sum(four_ray(), simplex(2)),
        direct_sum(four_ray(), four_ray(), scramble=random_unimodular(rng, 6)),
    ]


def project_along(space, band, complement):
    """The route `_project` replaced, kept as its oracle: invert [band basis | complement basis].

    The projection onto the band along the complement keeps the first k
    coordinates in that basis.  `_project` certifies its P by one identity
    F P = E_L F; this oracle checks what that identity implies, directly:
    P is idempotent and splits every atom positively.
    """
    n, k = space.dim, band.carrier.dim
    if k + complement.dim != n:
        return ProjectionReport(band, False, None)
    M = transpose(band.carrier.basis + complement.basis)
    Minv = oracle_invert(M)
    assert Minv is not None, "band and complement meet outside 0"
    cols = tuple(mat_vec(M, col[:k] + zero_vec(n - k)) for col in transpose(Minv))
    P = transpose(cols)
    assert tuple(mat_vec(P, col) for col in cols) == cols
    for g in space.generators:
        assert in_cone(space, mat_vec(P, g)) and in_cone(space, vsub(g, mat_vec(P, g)))
    return ProjectionReport(band, True, P)


def flat_pass_projections(space):
    """Every band of the flat pass, paired with its disjoint complement and projected along it."""
    reports = (project_along(space, b, disjoint_complement(space, b).carrier) for b in enumerate_bands(space))
    return tuple(rep for rep in reports if rep.is_projection_band)


def test_order_projections_match_flat_pass_oracle():
    for sp in projection_spaces():
        assert enumerate_order_projections(sp) == flat_pass_projections(sp), sp.name


def test_is_projection_band_matches_oracle():
    for sp in projection_spaces():
        gens = sp.generators
        principal = [band_of(sp, a) for a in list(gens) + [vadd(g, h) for g, h in zip(gens, gens[1:])]]
        for band in list(enumerate_bands(sp)) + principal:
            expected = project_along(sp, band, disjoint_complement(sp, band).carrier)
            assert is_projection_band(sp, band) == expected, (sp.name, band)


def test_components_are_the_minimal_separators():
    # A separator is a nonempty row set L with r(L) + r([m] - L) = n; the
    # components are the minimal ones.
    for sp in projection_spaces():
        rows = range(1, sp.m + 1)

        def r(L):
            return rank(tuple(sp.F[j - 1] for j in L))

        subsets = (frozenset(L) for k in range(1, sp.m + 1) for L in combinations(rows, k))
        seps = [L for L in subsets if r(L) + r(set(rows) - L) == sp.dim]
        minimal = [L for L in seps if not any(S < L for S in seps)]
        assert sp.components == tuple(sorted(minimal, key=min)), sp.name
    assert four_ray().components == (frozenset({1, 2, 3, 4}),)
    for n in range(1, 6):
        assert len(simplex(n).components) == n


def test_projections_of_four_summed_four_rays():
    # m = 16: four components give 16 projection bands, read off without
    # visiting the 12^4 flats.
    sp = direct_sum(four_ray(), four_ray(), four_ray(), four_ray())
    assert len(sp.components) == 4
    reports = enumerate_order_projections(sp)
    assert len(reports) == 16
    assert sorted(r.band.carrier.dim for r in reports) == [0] + [3] * 4 + [6] * 6 + [9] * 4 + [12]
    with pytest.raises(CapExceeded):
        enumerate_order_projections(sp, cap=3)


def single_pass_bands(space, cap=DEFAULT_ENUMERATION_CAP):
    """The one pass over all flats that the per-component pass replaced, kept as its oracle.

    Close-by-one visits every flat L of the whole matroid with its kernel,
    taking the parallel classes of the rows outside L on that kernel; a flat
    is a band flat iff cl([m] - cl([m] - L)) = L.
    """
    kernels, covers = {}, {}
    todo = [(frozenset(), 1)]
    while todo:
        if len(kernels).bit_length() > cap:
            raise CapExceeded(f"band enumeration visits more than 2^{cap} flats")
        L, start = todo.pop()
        K = kernels[L] = kernel_of_rows(space, L)
        classes = {}
        for j in range(1, space.m + 1):
            if j not in L:
                r = tuple(dot(space.F[j - 1], b) for b in K.basis)
                lead = next(e for e in r if e != 0)
                classes.setdefault(tuple(e / lead for e in r), set()).add(j)
        up = covers[L] = {}
        for cls in classes.values():
            cover = L | cls
            for j in cls:
                up[j] = cover
            if min(cls) >= start:
                todo.append((cover, min(cls) + 1))
    full = frozenset(range(1, space.m + 1))

    def closure(S):
        C = frozenset()
        for j in S:
            if j not in C:
                C = covers[C][j]
        return C

    complement = {L: closure(full - L) for L in kernels}
    bands = (
        Band(K, L, _kernel_is_directed(space, L, K.dim))
        for L, K in kernels.items()
        if complement[complement[L]] == L
    )
    return tuple(sorted(bands, key=lambda b: (b.carrier.dim, b.carrier.basis)))


def test_enumerate_bands_matches_single_pass():
    rng = random.Random(30511)
    spaces = projection_spaces() + [
        direct_sum(four_ray(), pentagon(), simplex(1), scramble=random_unimodular(rng, 7)),
    ]
    for sp in spaces:
        assert enumerate_bands(sp) == single_pass_bands(sp), sp.name
    assert len(spaces[-1].components) == 3
    assert len(enumerate_bands(spaces[-1])) == 8 * 2 * 2  # four-ray, pentagon and a line


def test_band_cap_limits_the_bands_output():
    # Three summed four-rays: 3 x 12 flats visited, but 8^3 = 2^9 bands.
    sp = direct_sum(four_ray(), four_ray(), four_ray())
    with pytest.raises(CapExceeded, match="512 bands"):
        enumerate_bands(sp, cap=8)
    bands = enumerate_bands(sp, cap=9)
    assert len(bands) == 512
    assert sum(b.directed for b in bands) == 6**3  # a band is directed iff each of its parts is
    # The flats visited are summed over the components: 36 > 2^5.
    with pytest.raises(CapExceeded, match="flats"):
        enumerate_bands(sp, cap=5)


def test_enumerate_bands_refuses_huge_simplex_fast():
    # 20 one-row components: 40 flats visited, then 2^20 bands are refused
    # before any carrier is built.
    with pytest.raises(CapExceeded, match="1048576 bands"):
        enumerate_bands(simplex(20))


def test_restriction_is_projection_band_on_every_support():
    answers = set()
    for sp in projection_spaces():
        for k in range(sp.m + 1):
            for J in combinations(range(1, sp.m + 1), k):
                D = restrict_band(sp, J)
                expected = is_band(sp, D) and is_projection_band(sp, D).is_projection_band
                assert restriction_is_projection_band(sp, J) == expected, (sp.name, J)
                answers.add(expected)
    assert answers == {True, False}


def test_restriction_is_projection_band_matches_the_kernel_route():
    # The oracle is the route the one-closure rule replaced: build the
    # canonical kernel of the restriction and read its maximal zero set.
    rng = random.Random(30514)
    spaces = [
        four_ray(),
        simplex(3),
        simplex(4),
        direct_sum(four_ray(), simplex(2)),
        direct_sum(pentagon(), simplex(1), scramble=random_unimodular(rng, 4)),
    ]
    spaces += [random_polygon_space(rng, m) for m in range(4, 8)] + [random_space(rng) for _ in range(20)]
    answers = {True: 0, False: 0}
    for sp in spaces:
        for k in range(sp.m + 1):
            for J in combinations(range(1, sp.m + 1), k):
                expected = _is_separator(sp, vanish_set(sp, restrict_band(sp, J)))
                assert restriction_is_projection_band(sp, J) == expected, (sp.name, J)
                answers[expected] += 1
    assert min(answers.values()) >= 100, answers
    for bad in ([0], [1, 5]):
        with pytest.raises(ParseError, match=r"^J must be a subset of 1\.\.4$"):
            restriction_is_projection_band(four_ray(), bad)


def test_restriction_directedness_face_rule_matches_double_description():
    answers = set()
    for sp in projection_spaces():
        full = frozenset(range(1, sp.m + 1))
        for k in range(sp.m + 1):
            for J in combinations(range(1, sp.m + 1), k):
                D = restrict_band(sp, J)
                directed = _kernel_is_directed(sp, full - frozenset(J), D.dim)
                assert directed == is_directed_subspace(sp, D), (sp.name, J)
                answers.add(directed)
    assert answers == {True, False}


def random_span(rng, sp):
    """A span that is often a band: some generators, a row kernel, or random vectors."""
    kind = rng.randrange(3)
    if kind == 0:
        return subspace(sp.dim, rng.sample(sp.generators, rng.randint(1, len(sp.generators))))
    if kind == 1:
        return kernel_of_rows(sp, rng.sample(range(1, sp.m + 1), rng.randint(0, sp.m)))
    return subspace(sp.dim, [random_vector(rng, sp.dim, -2, 2) for _ in range(rng.randint(1, sp.dim))])


def test_separator_guard_matches_is_band_on_random_spans():
    rng = random.Random(30512)
    spaces = [four_ray(), simplex(4)] + [
        direct_sum(*parts, scramble=random_unimodular(rng, sum(p.dim for p in parts)))
        for parts in [(four_ray(), simplex(1)), (pentagon(), simplex(2)), (four_ray(), simplex(1), pentagon())]
    ]
    answers = set()
    for sp in spaces:
        for _ in range(40):
            D = random_span(rng, sp)
            if not is_band(sp, D):
                with pytest.raises(NotABand):
                    is_projection_band(sp, D)
                answers.add("not a band")
                continue
            rep = is_projection_band(sp, D)
            assert rep.band == Band(D, vanish_set(sp, D), is_directed_subspace(sp, D)), (sp.name, D)
            assert rep == project_along(sp, rep.band, disjoint_complement(sp, D).carrier), (sp.name, D)
            answers.add(rep.is_projection_band)
    assert answers == {"not a band", True, False}


def test_is_projection_band_reports_a_band_for_a_subspace():
    q3 = simplex(3)
    e1 = subspace(3, [vec((1, 0, 0))])
    rep = is_projection_band(q3, e1)
    assert rep.band == Band(e1, frozenset({2, 3}), True)
    assert rep.band.carrier.basis == e1.basis and rep.is_projection_band
    sp = four_ray()
    D = band_of(sp, sp.generators[0]).carrier
    rep = is_projection_band(sp, D)
    assert rep.band == Band(D, vanish_set(sp, D), True) and not rep.is_projection_band
    bands = enumerate_bands(sp)
    assert not all(b.directed for b in bands)
    for band in bands:
        assert is_projection_band(sp, band.carrier).band == band


def piece_spaces():
    rng = random.Random(30513)
    return [
        four_ray(),
        simplex(5),
        moment_cone(range(-2, 4), 3),
        moment_cone(range(-3, 4), 4),
        direct_sum(four_ray(), simplex(2)),
        direct_sum(four_ray(), pentagon(), scramble=random_unimodular(rng, 6)),
    ] + [random_polygon_space(rng, m) for m in (4, 5, 6, 7)]


def test_incremental_pieces_span_the_flat_kernels():
    for sp in piece_spaces():
        full = frozenset(range(1, sp.m + 1))
        for C in sp.components:
            pieces, _ = _flats(sp, C, _kernel_rows(sp, full - C), DEFAULT_ENUMERATION_CAP, 0)
            for L, piece in pieces.items():
                K = kernel_of_rows(sp, full - C | L)
                assert len(piece) == K.dim, (sp.name, L)
                assert canonical_subspace_basis(piece, sp.dim) == K.basis, (sp.name, L)


def test_band_layer_elimination_counts(monkeypatch):
    """Eliminations (`linalg._echelon` calls) per band-layer call, pinned.

    Each count is taken on a fresh space whose `components` are already
    cached, so it measures the call alone; a change that adds eliminations
    shows here as a changed count.  The atom-band count is summed over the
    space's atoms, as are the decomposition count (one split of each atom
    by itself) and the count of `is_band` on the atom bands.
    """
    calls = [0]
    echelon = linalg._echelon

    def counting(M):
        calls[0] += 1
        return echelon(M)

    monkeypatch.setattr(linalg, "_echelon", counting)

    def count(make, probe):
        sp = make()
        sp.components
        calls[0] = 0
        probe(sp)
        return calls[0]

    def atom_band_tests(sp):
        bands = [band_of(sp, a) for a in sp.generators]
        calls[0] = 0  # count the is_band calls alone
        return [is_band(sp, band) for band in bands]

    probes = {
        "enumerate_bands": enumerate_bands,
        "enumerate_order_projections": enumerate_order_projections,
        "atom bands": lambda sp: [is_projection_band(sp, band_of(sp, a)) for a in sp.generators],
        "atom decompositions": lambda sp: [decompose_by_atom(sp, a, a) for a in sp.generators],
        "atom band tests": atom_band_tests,
    }
    spaces = {
        "four-ray": four_ray,
        "simplex:5": lambda: simplex(5),
        "four-ray^3": lambda: direct_sum(four_ray(), four_ray(), four_ray()),
        "8-gon": lambda: build_space(3, generators=[[t, t * t, 1] for t in range(8)]),
    }
    got = {(s, p): count(make, probe) for s, make in spaces.items() for p, probe in probes.items()}
    assert got == {
        ("four-ray", "enumerate_bands"): 11,
        ("four-ray", "enumerate_order_projections"): 1,
        ("four-ray", "atom bands"): 20,
        ("four-ray", "atom decompositions"): 8,
        ("four-ray", "atom band tests"): 8,
        ("simplex:5", "enumerate_bands"): 36,
        ("simplex:5", "enumerate_order_projections"): 36,
        ("simplex:5", "atom bands"): 5,
        ("simplex:5", "atom decompositions"): 0,
        ("simplex:5", "atom band tests"): 0,
        ("four-ray^3", "enumerate_bands"): 526,
        ("four-ray^3", "enumerate_order_projections"): 10,
        ("four-ray^3", "atom bands"): 60,
        ("four-ray^3", "atom decompositions"): 24,
        ("four-ray^3", "atom band tests"): 24,
        ("8-gon", "enumerate_bands"): 1,
        ("8-gon", "enumerate_order_projections"): 1,
        ("8-gon", "atom bands"): 8,
        ("8-gon", "atom decompositions"): 8,
        ("8-gon", "atom band tests"): 0,
    }
