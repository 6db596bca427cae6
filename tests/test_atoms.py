"""Atoms, discreteness, classification, decompositions, and projections."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordercone.atoms import (
    AtomDecomposition,
    Classification,
    DecompositionConfirmed,
    Holds,
    HypothesesNotMet,
    Inapplicable,
    NoDecomposition,
    NoSplit,
    NoWitness,
    Split,
    Violated,
    Witness,
    atom_lambda,
    atoms,
    check_ideal_decomposition,
    classify,
    decompose_by_atom,
    enumerate_order_projections,
    is_atom,
    is_discrete,
    is_projection_band,
    pervasive_witness_check,
    rdp_split,
)
from ordercone.bands import (
    Band,
    band_of,
    disjoint_complement,
    enumerate_bands,
    extend_band,
    is_directed_subspace,
    is_disjoint,
    restrict_band,
    subspace,
    vanish_set,
)
from ordercone.cones import build_space, embed, in_cone, leq
from ordercone.cover import is_majorizing
from ordercone.errors import (
    NotABand,
    NotAtom,
    NotDirectSum,
    NotPervasive,
    NotPositive,
    PreconditionViolated,
)
from ordercone.fixtures import (
    four_ray,
    random_polygon_space,
    random_positive,
    random_simplicial_space,
    random_space,
    random_vector,
    simplex,
)
from ordercone.linalg import (
    mat,
    mat_vec,
    rank,
    solve_linear,
    support,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)
from ordercone.lp import Optimal, Polyhedron, lp


def pentagon():
    gens = [vec((k, k * k, 1)) for k in (-2, -1, 0, 1, 2)]
    return build_space(3, generators=gens, name="pentagon")


def box_max(space, bound, J):
    """max of sum_{j in J} f_j(u) over 0 <= F u <= bound, by an exact LP."""
    rows, rhs = [], []
    for f, cap in zip(space.F, bound):
        rows.append(f)
        rhs.append(Fraction(0))
        rows.append(tuple(-e for e in f))
        rhs.append(-cap)
    c = vec([sum(space.F[j - 1][i] for j in J) for i in range(space.dim)])
    res = lp(c, Polyhedron(mat(rows), vec(rhs), space.dim))
    assert isinstance(res, Optimal)
    return res.value


def interval_meet_is_trivial(space, b, d):
    """Check [0,b] and [0,d] meet only in 0, via an exact LP."""
    bound = tuple(min(p, q) for p, q in zip(embed(space, b), embed(space, d)))
    return box_max(space, bound, range(1, space.m + 1)) == 0


def split_lp_is_discrete(space, x):
    """Discreteness by split LPs, the oracle for the face rule of is_discrete.

    For each split of supp(F x) into complementary nonempty parts J1, J2, an
    LP asks whether some u in [0, x] has F u supported on each part; x is
    discrete iff no split passes both.
    """
    img = embed(space, x)
    supp = sorted(support(img))
    k = len(supp)
    realizable = {}

    def part_realizable(J):
        if J not in realizable:
            bound = [img[j - 1] if j in J else 0 for j in range(1, space.m + 1)]
            realizable[J] = box_max(space, bound, J) > 0
        return realizable[J]

    for mask in range(1, 1 << (k - 1)):
        J1 = frozenset(supp[i] for i in range(k) if mask >> i & 1)
        if part_realizable(J1) and part_realizable(frozenset(supp) - J1):
            return False
    return True


def first_overlapping_atoms(space):
    gens = space.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if support(embed(space, gens[i])) & support(embed(space, gens[j])):
                return gens[i], gens[j]
    return None


def test_atoms_frozen():
    sp = four_ray()
    assert atoms(sp) == sp.generators
    assert len(atoms(sp)) == 4
    assert len(atoms(simplex(3))) == 3
    pent = pentagon()
    assert len(atoms(pent)) == 5
    assert set(atoms(pent)) == {vec((k, k * k, 1)) for k in (-2, -1, 0, 1, 2)}


def test_is_atom_frozen():
    sp = four_ray()
    v1, v2 = sp.generators[:2]
    assert is_atom(sp, v1)
    assert is_atom(sp, vscale(Fraction(1, 2), v1))
    assert not is_atom(sp, vadd(v1, v2))
    assert not is_atom(sp, zero_vec(3))
    assert not is_atom(sp, vscale(Fraction(-1), v1))
    q2 = simplex(2)
    assert is_atom(q2, vec((2, 0)))
    assert not is_atom(q2, vec((1, 1)))


def test_is_discrete_frozen():
    sp = four_ray()
    v1, v2, v3 = sp.generators[:3]
    assert is_discrete(sp, vadd(v1, v2))
    assert is_discrete(sp, v1)
    assert not is_discrete(sp, vadd(v1, v3))
    q2 = simplex(2)
    assert not is_discrete(q2, vec((1, 1)))
    assert is_discrete(q2, vec((1, 0)))
    with pytest.raises(NotPositive):
        is_discrete(sp, zero_vec(3))
    with pytest.raises(NotPositive):
        is_discrete(sp, vec((0, 0, -1)))


def test_atoms_are_discrete_everywhere():
    rng = random.Random(40601)
    spaces = [four_ray(), simplex(2), pentagon()] + [random_space(rng) for _ in range(10)]
    for sp in spaces:
        for a in atoms(sp):
            assert is_discrete(sp, a)


def test_is_discrete_matches_split_lp_oracle():
    rng = random.Random(40607)
    for _ in range(10):
        sp = random_space(rng)
        gens = sp.generators
        probes = list(gens) + [vadd(a, b) for a, b in combinations(gens, 2)]
        probes += [random_positive(rng, sp) for _ in range(3)]
        for x in probes:
            assert is_discrete(sp, x) == split_lp_is_discrete(sp, x)


def test_is_discrete_has_no_support_cap():
    polygon = random_polygon_space(random.Random(40608), 16)
    assert polygon.m == 16
    # no two of a polygon's atoms have disjoint supports once m >= 5
    assert is_discrete(polygon, vec(map(sum, zip(*polygon.generators))))
    q16 = simplex(16)
    assert not is_discrete(q16, vec([1] * 16))
    assert is_discrete(q16, q16.generators[0])


def test_discrete_iff_atom_in_pervasive_spaces():
    rng = random.Random(40602)
    for _ in range(15):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        x = random_positive(rng, sp)
        assert is_discrete(sp, x) == is_atom(sp, x)
    # the non-pervasive gap: discrete without being an atom
    sp = four_ray()
    d = vadd(sp.generators[0], sp.generators[1])
    assert is_discrete(sp, d) and not is_atom(sp, d)


def test_classify_four_ray_frozen():
    sp = four_ray()
    cls = classify(sp)
    assert cls == Classification(
        is_lattice=False,
        is_pervasive=False,
        is_fordable=False,
        weakly_pervasive=Violated(sp.generators[0], sp.generators[1]),
        has_rdp=False,
        atom_count=4,
    )
    b, d = cls.weakly_pervasive.b, cls.weakly_pervasive.d
    assert in_cone(sp, b) and in_cone(sp, d)
    assert not is_disjoint(sp, b, d)
    assert interval_meet_is_trivial(sp, b, d)


def test_classify_simplicial_and_pentagon():
    for n in (1, 2, 3, 4):
        cls = classify(simplex(n))
        assert cls.is_lattice and cls.is_pervasive and cls.is_fordable and cls.has_rdp
        assert cls.weakly_pervasive == Holds()
        assert cls.atom_count == n
    cls = classify(pentagon())
    assert not cls.is_lattice and not cls.is_pervasive and not cls.has_rdp
    assert not cls.is_fordable
    assert cls.atom_count == 5
    assert not isinstance(cls.weakly_pervasive, Holds)


def test_classify_invariants_random():
    rng = random.Random(40603)
    for _ in range(20):
        sp = random_space(rng)
        cls = classify(sp)
        assert cls.is_pervasive == cls.is_lattice == cls.has_rdp
        if cls.is_pervasive:
            assert cls.is_fordable
            assert cls.weakly_pervasive == Holds()
        else:
            assert cls.weakly_pervasive == Violated(*first_overlapping_atoms(sp))
            b, d = cls.weakly_pervasive.b, cls.weakly_pervasive.d
            assert in_cone(sp, b) and in_cone(sp, d)
            assert not is_disjoint(sp, b, d)
            assert interval_meet_is_trivial(sp, b, d)


def test_band_directedness_matches_double_description():
    rng = random.Random(40609)
    spaces = [four_ray(), pentagon()] + [random_space(rng) for _ in range(8)]
    for sp in spaces:
        bands = list(enumerate_bands(sp)) + [disjoint_complement(sp, [a]) for a in sp.generators]
        for band in bands:
            assert band.directed == is_directed_subspace(sp, band.carrier)


def test_pervasive_witness_check_frozen():
    sp = four_ray()
    assert pervasive_witness_check(sp, vec((-1, -1, -1))) == NoWitness()
    assert pervasive_witness_check(sp, vec((0, 0, -1))) == Inapplicable()
    q2 = simplex(2)
    res = pervasive_witness_check(q2, vec((1, -1)))
    assert isinstance(res, Witness)
    img = embed(q2, res.x)
    assert all(c >= 0 for c in img) and any(c > 0 for c in img)
    assert img[0] <= 1 and img[1] <= 0
    assert pervasive_witness_check(q2, vec((-2, -3))) == Inapplicable()


def test_pervasive_witness_check_always_finds_one_in_pervasive_spaces():
    rng = random.Random(40604)
    for _ in range(20):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        b = random_vector(rng, sp.dim)
        res = pervasive_witness_check(sp, b)
        if all(c <= 0 for c in embed(sp, b)):
            assert res == Inapplicable()
        else:
            assert isinstance(res, Witness)
            img = embed(sp, res.x)
            p = tuple(max(c, Fraction(0)) for c in embed(sp, b))
            assert all(0 <= u <= q for u, q in zip(img, p))
            assert any(u > 0 for u in img)


def test_atom_lambda_frozen_and_errors():
    q2 = simplex(2)
    e1 = vec((1, 0))
    assert atom_lambda(q2, vec((3, 5)), e1) == 3
    rest = vsub(vec((3, 5)), vscale(Fraction(3), e1))
    assert is_disjoint(q2, rest, e1)
    assert atom_lambda(simplex(3), vec((1, 4, 2)), vec((0, 1, 0))) == 4
    assert atom_lambda(q2, vec((0, 7)), e1) == 0
    sp = four_ray()
    with pytest.raises(NotPervasive):
        atom_lambda(sp, sp.generators[0], sp.generators[0])
    with pytest.raises(NotAtom):
        atom_lambda(q2, vec((3, 5)), vec((1, 1)))
    with pytest.raises(NotPositive):
        atom_lambda(q2, vec((-1, 0)), e1)


def test_atom_lambda_random_properties():
    rng = random.Random(40605)
    for _ in range(25):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        a = sp.generators[rng.randrange(len(sp.generators))]
        x = random_positive(rng, sp)
        lam = atom_lambda(sp, x, a)
        rest = vsub(x, vscale(lam, a))
        assert in_cone(sp, rest)
        assert is_disjoint(sp, rest, a)
        assert (lam == 0) == is_disjoint(sp, x, a)
        bumped = vsub(x, vscale(lam + Fraction(1, 7), a))
        assert not in_cone(sp, bumped)


def test_decompose_by_atom_frozen():
    q2 = simplex(2)
    res = decompose_by_atom(q2, vec((3, 5)), vec((1, 0)))
    assert res == AtomDecomposition(Fraction(3), vec((3, 0)), vec((0, 5)))
    res = decompose_by_atom(simplex(3), vec((1, -2, 4)), vec((0, 0, 1)))
    assert res == AtomDecomposition(Fraction(4), vec((0, 0, 4)), vec((1, -2, 0)))
    sp = four_ray()
    out = decompose_by_atom(sp, sp.generators[1], sp.generators[0])
    assert isinstance(out, NoDecomposition)
    with pytest.raises(NotAtom):
        decompose_by_atom(sp, sp.generators[1], vadd(sp.generators[0], sp.generators[1]))


def test_decompose_agrees_with_atom_lambda_on_positive_inputs():
    rng = random.Random(40606)
    for _ in range(20):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        a = sp.generators[rng.randrange(len(sp.generators))]
        x = random_positive(rng, sp)
        res = decompose_by_atom(sp, x, a)
        assert isinstance(res, AtomDecomposition)
        assert res.lam == atom_lambda(sp, x, a)
        assert vadd(res.atom_part, res.disjoint_part) == x
        assert is_disjoint(sp, res.atom_part, res.disjoint_part)


def test_atom_projection_is_linear_idempotent_positive():
    rng = random.Random(40607)
    for _ in range(10):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        a = sp.generators[rng.randrange(len(sp.generators))]

        def proj(v):
            res = decompose_by_atom(sp, v, a)
            assert isinstance(res, AtomDecomposition)
            return res.atom_part

        x = random_vector(rng, sp.dim)
        y = random_vector(rng, sp.dim)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert proj(vadd(x, y)) == vadd(proj(x), proj(y))
        assert proj(vscale(c, x)) == vscale(c, proj(x))
        assert proj(proj(x)) == proj(x)
        p = random_positive(rng, sp)
        assert in_cone(sp, proj(p))
        assert in_cone(sp, vsub(p, proj(p)))


def test_principal_band_of_atom_is_its_span_in_pervasive_spaces():
    rng = random.Random(40608)
    for _ in range(10):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        for a in atoms(sp):
            assert band_of(sp, a).carrier.basis == subspace(sp.dim, [a]).basis


def test_disjointness_vs_independence_for_atoms():
    rng = random.Random(40609)
    # disjoint atoms are independent everywhere; pervasiveness gives the converse
    spaces = [four_ray(), pentagon()] + [random_space(rng) for _ in range(8)]
    for sp in spaces:
        pervasive = classify(sp).is_pervasive
        gens = atoms(sp)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                a1, a2 = gens[i], gens[j]
                independent = rank((a1, a2)) == 2
                if is_disjoint(sp, a1, a2):
                    assert independent
                if pervasive and independent:
                    assert is_disjoint(sp, a1, a2)
        if pervasive:
            assert rank(gens) == len(gens)
    # the four-ray hypothesis failure: independent but not disjoint
    sp = four_ray()
    assert rank(sp.generators[:2]) == 2
    assert not is_disjoint(sp, sp.generators[0], sp.generators[1])


def test_atom_images_in_simplicial_spaces():
    rng = random.Random(40610)
    for _ in range(10):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        for a in atoms(sp):
            img = embed(sp, a)
            assert sum(1 for c in img if c != 0) == 1
            assert all(c >= 0 for c in img)
        # converse: a coordinate-direction image pins an atom
        j = rng.randrange(sp.m)
        target = vec([Fraction(int(t == j)) for t in range(sp.m)])
        x = solve_linear(sp.F, target)
        assert x is not None
        assert is_atom(sp, x)
    # in the four-ray space no nonzero element has a singleton-support image
    sp = four_ray()
    for j in range(1, 5):
        others = [sp.F[t - 1] for t in range(1, 5) if t != j]
        assert solve_linear(mat(others), zero_vec(3)) == zero_vec(3)


def test_is_projection_band_frozen():
    q2 = simplex(2)
    rep = is_projection_band(q2, band_of(q2, vec((1, 0))))
    assert rep.is_projection_band
    assert rep.matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    sp = four_ray()
    rep = is_projection_band(sp, band_of(sp, sp.generators[0]))
    assert not rep.is_projection_band and rep.matrix is None
    full = band_of(sp, vadd(sp.generators[0], sp.generators[1]))
    rep = is_projection_band(sp, full)
    assert rep.is_projection_band
    assert rep.matrix == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    zero_band = disjoint_complement(sp, full)
    rep = is_projection_band(sp, zero_band)
    assert rep.is_projection_band
    assert rep.matrix == tuple((Fraction(0),) * 3 for _ in range(3))
    with pytest.raises(NotABand):
        is_projection_band(sp, subspace(3, [sp.generators[0], sp.generators[2]]))


def test_enumerate_order_projections_counts():
    sp = four_ray()
    reports = enumerate_order_projections(sp)
    assert len(reports) == 2
    dims = sorted(r.band.carrier.dim for r in reports)
    assert dims == [0, 3]
    assert len(enumerate_order_projections(simplex(3))) == 8
    assert len(enumerate_order_projections(simplex(1))) == 2


def test_projection_reports_verify_and_split_supports():
    rng = random.Random(40611)
    for _ in range(8):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        reports = enumerate_order_projections(sp)
        assert len(reports) == 2 ** sp.dim
        full = frozenset(range(1, sp.m + 1))
        for rep in reports:
            P = rep.matrix
            # retraction onto the carrier
            for b in rep.band.carrier.basis:
                assert mat_vec(P, b) == b
            x = random_vector(rng, sp.dim)
            assert rep.band.carrier.contains(mat_vec(P, x))
            comp = disjoint_complement(sp, rep.band)
            assert extend_band(sp, rep.band) | extend_band(sp, comp) == full
            assert not extend_band(sp, rep.band) & extend_band(sp, comp)


def test_projection_band_symmetry_with_complement():
    rng = random.Random(40612)
    spaces = [four_ray(), simplex(3), pentagon()] + [random_space(rng) for _ in range(6)]
    for sp in spaces:
        for band in enumerate_bands(sp):
            comp = disjoint_complement(sp, band)
            assert (
                is_projection_band(sp, band).is_projection_band
                == is_projection_band(sp, comp).is_projection_band
            )


def test_rdp_split_frozen():
    sp = four_ray()
    v1, v2, v3 = sp.generators[:3]
    assert rdp_split(sp, v1, v3, v2) == NoSplit()
    z = vadd(v1, v3)
    res = rdp_split(sp, v1, v3, z)
    assert res == Split(v1, v3)
    with pytest.raises(PreconditionViolated):
        rdp_split(sp, v1, v3, vec((0, 0, -1)))
    with pytest.raises(PreconditionViolated):
        rdp_split(sp, v1, v1, vscale(Fraction(5), v2))


def test_rdp_split_matches_classification():
    rng = random.Random(40613)
    for _ in range(8):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        assert classify(sp).has_rdp
        for _ in range(10):
            x1 = random_positive(rng, sp)
            x2 = random_positive(rng, sp)
            i1, i2 = embed(sp, x1), embed(sp, x2)
            zi = vec(
                [
                    (a + b) * Fraction(rng.randint(0, 4), 4)
                    for a, b in zip(i1, i2)
                ]
            )
            z = solve_linear(sp.F, zi)
            assert z is not None
            res = rdp_split(sp, x1, x2, z)
            assert isinstance(res, Split)
            assert vadd(res.z1, res.z2) == z
            assert in_cone(sp, res.z1) and leq(sp, res.z1, x1)
            assert in_cone(sp, res.z2) and leq(sp, res.z2, x2)


def test_check_ideal_decomposition_frozen():
    q3 = simplex(3)
    res = check_ideal_decomposition(
        q3,
        subspace(3, [vec((1, 0, 0))]),
        subspace(3, [vec((0, 1, 0)), vec((0, 0, 1))]),
    )
    assert isinstance(res, DecompositionConfirmed)
    assert res.tier == "pervasive-coordinate-ideals"
    assert res.complement_matches
    assert res.projection.is_projection_band

    sp = four_ray()
    v1, v2, v3 = sp.generators[:3]
    res = check_ideal_decomposition(
        sp, subspace(3, [v1, v3]), subspace(3, [v2])
    )
    assert res == HypothesesNotMet("space is not weakly pervasive")

    q2 = simplex(2)
    res = check_ideal_decomposition(
        q2, subspace(2, [vec((1, 0))]), subspace(2, [vec((1, 1))])
    )
    assert isinstance(res, HypothesesNotMet)
    assert "not solid" in res.reason

    with pytest.raises(NotDirectSum):
        check_ideal_decomposition(
            q2, subspace(2, [vec((1, 0))]), subspace(2, [vec((2, 0))])
        )


def test_check_ideal_decomposition_accepts_coordinate_splits():
    rng = random.Random(40614)
    for _ in range(8):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        gens = list(atoms(sp))
        rng.shuffle(gens)
        cut = rng.randint(1, len(gens) - 1) if len(gens) > 1 else 1
        B = subspace(sp.dim, gens[:cut])
        D = subspace(sp.dim, gens[cut:])
        res = check_ideal_decomposition(sp, B, D)
        assert isinstance(res, DecompositionConfirmed)
        assert res.tier == "pervasive-coordinate-ideals"
        assert res.complement_matches


def test_majorizing_restrictions_decompose_only_in_lattices():
    rng = random.Random(40615)
    for _ in range(6):
        sp = random_simplicial_space(rng, rng.randint(2, 4))
        indices = list(range(1, sp.m + 1))
        for mask in range(1 << sp.m):
            J = frozenset(j for j in indices if mask >> (j - 1) & 1)
            B = restrict_band(sp, J)
            assert is_majorizing(sp, B.basis, J)
            comp = disjoint_complement(sp, B)
            assert B.dim + comp.carrier.dim == sp.dim
    # four-ray: the restriction majorizes its support but fails to decompose
    sp = four_ray()
    B = restrict_band(sp, {2, 3})
    assert is_majorizing(sp, B.basis, {2, 3})
    comp = disjoint_complement(sp, B)
    assert B.dim + comp.carrier.dim != sp.dim
