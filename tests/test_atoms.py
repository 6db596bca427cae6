"""Atoms, discreteness, classification, decompositions, and projections."""

import importlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import ordercone
from ordercone import cones, linalg
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
    band_of,
    disjoint_complement,
    disjoint_eq1_oracle,
    enumerate_bands,
    extend_band,
    is_directed_subspace,
    is_disjoint,
    restrict_band,
    subspace,
)
from ordercone.cones import build_space, embed, in_cone, leq, sup_in_X
from ordercone.cover import is_majorizing, modulus_dominates
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
    random_unimodular,
    random_vector,
    simplex,
)
from ordercone.linalg import (
    dot,
    mat,
    mat_vec,
    primitive,
    rank,
    solve_linear,
    support,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)
from ordercone.lp import Infeasible, Optimal, Polyhedron, lp, lp_nonneg
from ordercone.selftest import _atom_triple, _split_exists
from test_bands import direct_sum, flat_pass_projections, oracle_spaces
from test_cover import moment_cone
from test_linalg import oracle_invert, oracle_rref


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


def lambda_lp(space, x, a):
    """max{mu : F(x - mu a) >= 0}, the one-variable LP oracle for atom_lambda."""
    rows = mat([[-e] for e in embed(space, a)])
    rhs = vec([-e for e in embed(space, x)])
    res = lp(vec([1]), Polyhedron(rows, rhs, 1))
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


def generator_is_atom(space, x):
    """The generator rule that the face rule of `is_atom` replaced, kept as its oracle."""
    return in_cone(space, x) and primitive(x) in space.generators


def test_is_atom_face_rule_matches_the_generator_oracle():
    rng = random.Random(17041)
    spaces = [four_ray(), pentagon()] + [random_space(rng) for _ in range(20)]
    for sp in spaces:
        G = sp.generators
        probes = [zero_vec(sp.dim)]
        for g in G:
            probes += [g, vscale(Fraction(5, 3), g), vscale(Fraction(-1), g), vscale(Fraction(-2, 7), g)]
        probes += [vadd(a, b) for a, b in combinations(G, 2)]
        probes += [random_vector(rng, sp.dim) for _ in range(20)]
        probes += [random_positive(rng, sp, scale=1) for _ in range(10)]
        answers = [is_atom(sp, x) for x in probes]
        assert answers == [generator_is_atom(sp, x) for x in probes], sp.name
        assert sum(answers) >= 2 * len(G), sp.name  # every atom and its multiple 5/3


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


def test_pervasive_witness_check_matches_lp_oracle():
    """A witness exists iff the LP max of the image sum over 0 <= F u <= max(F b, 0) is > 0."""
    rng = random.Random(40612)
    spaces = [four_ray(), pentagon()] + [random_polygon_space(rng, m) for m in (4, 6, 8)]
    spaces += [random_space(rng) for _ in range(12)]
    kinds = set()
    for sp in spaces:
        gens = sp.generators
        probes = [random_vector(rng, sp.dim) for _ in range(6)]
        probes += [vsub(vscale(Fraction(2), g), h) for g, h in zip(gens, gens[1:] + gens[:1])]
        for b in probes:
            res = pervasive_witness_check(sp, b)
            p = tuple(max(c, Fraction(0)) for c in embed(sp, b))
            kinds.add(type(res).__name__)
            if not any(p):
                assert res == Inapplicable()
                continue
            assert isinstance(res, Witness) == (box_max(sp, p, range(1, sp.m + 1)) > 0)
            if isinstance(res, Witness):
                img = embed(sp, res.x)
                assert all(0 <= u <= q for u, q in zip(img, p)) and any(img)
    assert kinds == {"Inapplicable", "NoWitness", "Witness"}


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
        assert lam == lambda_lp(sp, x, a)
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


def interval_probe(rng, space):
    """Random x1, x2 >= 0 and a random z in [0, x1 + x2]."""
    x1, x2, w = (random_positive(rng, space, 1) for _ in range(3))
    img, cap = embed(space, w), embed(space, vadd(x1, x2))
    top = min(b / a for a, b in zip(img, cap) if a > 0)
    return x1, x2, vscale(top * Fraction(rng.randint(1, 4), 4), w)


def test_rdp_split_matches_four_row_lp_oracle():
    """rdp_split agrees with the self-test's four-rows-per-facet LP on every probe.

    A returned split is checked against exactly the oracle's rows
    (0 <= z1 <= x1, 0 <= z - z1 <= x2), so it is the oracle's feasible point;
    every NoSplit is put to the oracle, which must find none either.
    """
    rng = random.Random(40614)
    fifteen_gon = build_space(3, generators=[[k, k * k, 1] for k in range(-7, 8)])
    cyclic = [moment_cone(range(k), 3) for k in (6, 7, 8)] + [moment_cone(range(7), 4)]
    plan = [(random_space(rng), 20) for _ in range(70)]
    plan += [(random_polygon_space(rng, 4), 20) for _ in range(30)]
    plan += [(fifteen_gon, 12)] + [(sp, 10) for sp in cyclic]
    probes = triples = 0
    for sp, count in plan:
        for _ in range(count):
            triple = _atom_triple(rng, sp) if rng.random() < 0.4 else None
            x1, x2, z = triple or interval_probe(rng, sp)
            res = rdp_split(sp, x1, x2, z)
            if isinstance(res, Split):
                assert vadd(res.z1, res.z2) == z
                assert in_cone(sp, res.z1) and leq(sp, res.z1, x1)
                assert in_cone(sp, res.z2) and leq(sp, res.z2, x2)
            else:
                assert not _split_exists(sp, x1, x2, z)
            if triple is not None:
                assert res == NoSplit()
                triples += 1
            probes += 1
    assert probes >= 2000 and triples >= 500


def test_rdp_split_on_simplicial_cones_is_the_lower_corner():
    """On a simplicial cone the split is z1 = F^{-1} max(0, F z - F x2)."""
    rng = random.Random(40615)
    for _ in range(20):
        sp = random_simplicial_space(rng, rng.randint(1, 4))
        x1, x2, z = interval_probe(rng, sp)
        lo = tuple(max(Fraction(0), a - b) for a, b in zip(embed(sp, z), embed(sp, x2)))
        z1 = solve_linear(sp.F, lo)
        assert rdp_split(sp, x1, x2, z) == Split(z1, vsub(z, z1))


def fraction_row_basis(space):
    """B, F_B^{-1} and G = F F_B^{-1} by Fraction elimination: the oracle of `row_basis`."""
    B = oracle_rref(transpose(space.F))[1]
    Binv = oracle_invert(tuple(space.F[i] for i in B))
    return B, Binv, tuple(mat_vec(transpose(Binv), f) for f in space.F)


def fraction_rdp_split(space, x1, x2, z):
    """`rdp_split` as it ran on Fractions: the oracle for its integer form.

    The same LP in image coordinates, set up with Fraction images, box ends
    and the rows of `fraction_row_basis`, and solved by the public `lp_nonneg`.
    """
    if not (in_cone(space, x1) and in_cone(space, x2) and in_cone(space, z)):
        raise PreconditionViolated("x1, x2, z must lie in the cone")
    if not leq(space, z, vadd(x1, x2)):
        raise PreconditionViolated("need z <= x1 + x2")
    n = space.dim
    Fz = embed(space, z)
    lo = tuple(max(Fraction(0), a - b) for a, b in zip(Fz, embed(space, x2)))
    hi = tuple(map(min, embed(space, x1), Fz))
    B, Binv, G = fraction_row_basis(space)
    lo_B = tuple(lo[i] for i in B)
    rows, rhs = [], []
    for t, i in enumerate(B):
        rows.append(vec([-int(u == t) for u in range(n)]))
        rhs.append(lo[i] - hi[i])
    for i, g in enumerate(G):
        if i not in B:
            base = dot(g, lo_B)
            rows += [g, tuple(-e for e in g)]
            rhs += [lo[i] - base, base - hi[i]]
    res = lp_nonneg(zero_vec(n), Polyhedron(tuple(rows), tuple(rhs), n))
    if isinstance(res, Infeasible):
        return NoSplit()
    z1 = mat_vec(Binv, vadd(lo_B, res.point))
    return Split(z1, vsub(z, z1))


def mixed_positive(rng, space):
    """A nonzero cone element whose coordinates have mixed denominators."""
    coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 7)) for _ in space.generators]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = Fraction(1, rng.randint(1, 7))
    gens = space.generators
    return tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), start=Fraction(0)) for i in range(space.dim))


def test_rdp_split_is_the_fraction_split():
    """The integer `rdp_split` returns exactly the Fraction form's answer: the same z1 or NoSplit.

    The moment cones C(8,4) and C(8,5) have LPs whose phase 1 takes
    different pivots when the rows' scales are dropped, so they check that
    the integer rows are the same constraints.
    """
    rng = random.Random(40617)
    fifteen_gon = build_space(3, generators=[[k, k * k, 1] for k in range(-7, 8)])
    plan = [(random_space(rng), 15) for _ in range(20)]
    plan += [(random_polygon_space(rng, m), 15) for m in (4, 5, 6, 7, 8)]
    plan += [(fifteen_gon, 15), (moment_cone(range(6), 3), 15), (moment_cone(range(7), 4), 15)]
    plan += [(moment_cone(range(8), 4), 60), (moment_cone(range(8), 5), 60)]
    found = {Split: 0, NoSplit: 0}
    for sp, count in plan:
        for _ in range(count):
            x1, x2, w = (mixed_positive(rng, sp) for _ in range(3))
            img, cap = embed(sp, w), embed(sp, vadd(x1, x2))
            top = min(b / a for a, b in zip(img, cap) if a > 0)
            z = vscale(top * Fraction(rng.randint(1, 4), rng.randint(4, 5)), w)
            triple = _atom_triple(rng, sp) if rng.random() < 0.3 else None
            if triple is not None:
                scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                x1, x2, z = (vscale(scale, v) for v in triple)
            res = rdp_split(sp, x1, x2, z)
            assert res == fraction_rdp_split(sp, x1, x2, z), sp.name
            found[type(res)] += 1
    assert found[Split] >= 300 and found[NoSplit] >= 100


def test_queries_refuse_wrong_length_vectors():
    sp = four_ray()
    v1, _, v3 = sp.generators[:3]
    short = vec((1, 0))
    for args in ((short, v3, v1), (v1, short, v1), (v1, v3, short)):
        with pytest.raises(ValueError):
            rdp_split(sp, *args)
    with pytest.raises(ValueError):
        sup_in_X(sp, [v1, vec((1, 0, 1, 0))])
    for args in ((short, v1), (v1, short)):
        with pytest.raises(ValueError):
            disjoint_eq1_oracle(sp, *args)


def test_split_and_sup_work_counts(monkeypatch):
    """Eliminations and pivots per `rdp_split` and `sup_in_X` call, pinned.

    Once a space's `row_basis` is cached, neither query eliminates; on a
    simplicial cone `rdp_split` makes no pivot either.
    """
    counts = {"_echelon": 0, "_pivot": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    modules = {linalg: counts, cones: ["_echelon"], importlib.import_module("ordercone.lp"): ["_pivot"]}
    for mod, names in modules.items():
        for name in names:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    rng = random.Random(40618)
    spaces = {
        "four-ray": four_ray(),
        "pentagon": pentagon(),
        "C(7,4)": moment_cone(range(7), 4),
        **{f"simplicial:{n}": random_simplicial_space(rng, n) for n in (1, 3, 5)},
    }
    got = {}
    for label, sp in spaces.items():
        sp.row_basis
        counts.update(_echelon=0, _pivot=0)
        for _ in range(10):
            rdp_split(sp, *(_atom_triple(rng, sp) or interval_probe(rng, sp)))
        got[label, "rdp_split"] = counts["_echelon"], counts["_pivot"]
        counts.update(_echelon=0, _pivot=0)
        for _ in range(10):
            sup_in_X(sp, [mixed_positive(rng, sp), random_vector(rng, sp.dim)])
        got[label, "sup_in_X"] = counts["_echelon"], counts["_pivot"]
    pivots = {"four-ray": 25, "pentagon": 37, "C(7,4)": 112}  # phase 1 of the atom-triple LPs
    assert got == {
        **{(label, "rdp_split"): (0, pivots.get(label, 0)) for label in spaces},
        **{(label, "sup_in_X"): (0, 0) for label in spaces},
    }


def test_split_and_sup_certificates_survive_optimize():
    """Under python -O a wrong D F_B^{-1} fails the integer checks of `rdp_split` and `sup_in_X`."""
    script = "\n".join(
        [
            "from ordercone.atoms import rdp_split",
            "from ordercone.cones import sup_in_X",
            "from ordercone.errors import CertificateError",
            "from ordercone.fixtures import four_ray, simplex",
            "from ordercone.linalg import vec",
            "assert False, 'asserts must be stripped'",
            "four, q3 = four_ray(), simplex(3)",
            "v1, v3 = four.generators[0], four.generators[2]",
            "x1, x2, z = vec((1, 2, 0)), vec((0, 1, 3)), vec((1, 2, 1))",
            "probes = [",
            "    (four, lambda: rdp_split(four, v1, v3, vec((0, 0, 2)))),",
            "    (four, lambda: sup_in_X(four, [v1, v3])),",
            "    (q3, lambda: rdp_split(q3, x1, x2, z)),",
            "    (q3, lambda: sup_in_X(q3, [x1, x2])),",
            "]",
            "for sp, probe in probes:",
            "    probe()",
            "    B, D, Rinv, G = sp.row_basis",
            "    sp.__dict__['row_basis'] = (B, D, (tuple(e + 1 for e in Rinv[0]),) + Rinv[1:], G)",
            "    try:",
            "        probe()",
            "    except CertificateError as exc:",
            "        print('CertificateError:', exc)",
            "    else:",
            "        raise SystemExit('no CertificateError')",
            "    sp.__dict__['row_basis'] = (B, D, Rinv, G)",
        ]
    )
    src = str(Path(ordercone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("CertificateError:") == 4


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


def test_check_ideal_decomposition_witnesses_non_solid_lines():
    # every atom image is 3 e_j, while F(1,1) = (1,1): a witness must be scaled
    sp = build_space(2, generators=[vec((2, 1)), vec((1, 2))])
    diag, atom = subspace(2, [vec((1, 1))]), subspace(2, [vec((2, 1))])
    res = check_ideal_decomposition(sp, diag, atom)
    assert res == HypothesesNotMet("B is not solid (modulus of [2/3, 1/3] is dominated by [1, 1])")
    x, d = vec((Fraction(2, 3), Fraction(1, 3))), vec((1, 1))
    assert modulus_dominates(sp, x, d) and not diag.contains(x)
    res = check_ideal_decomposition(sp, atom, diag)
    assert res == HypothesesNotMet("D is not solid (modulus of [2/3, 1/3] is dominated by [1, 1])")
    q2 = simplex(2)
    res = check_ideal_decomposition(q2, subspace(2, [vec((1, 0))]), subspace(2, [vec((1, -1))]))
    assert res == HypothesesNotMet("D is not directed")


def test_projection_certificate_survives_optimize():
    """Under python -O a forged finer component partition still fails the projection's checks.

    `is_projection_band` takes the separator shortcut on the forged
    components too, and still ends in the certificate check.
    """
    script = "\n".join(
        [
            "from ordercone.atoms import _project, is_projection_band",
            "from ordercone.bands import kernel_of_rows",
            "from ordercone.errors import CertificateError",
            "from ordercone.fixtures import four_ray",
            "assert False, 'asserts must be stripped'",
            "sp = four_ray()",
            "sp.__dict__['components'] = tuple(frozenset({j}) for j in range(1, 5))",
            "for L in (frozenset({1}), frozenset({1, 2})):",
            "    for probe in (lambda: _project(sp, kernel_of_rows(sp, L), L),",
            "                  lambda: is_projection_band(sp, kernel_of_rows(sp, L))):",
            "        try:",
            "            probe()",
            "        except CertificateError as exc:",
            "            print('CertificateError:', exc)",
            "        else:",
            "            raise SystemExit('no CertificateError')",
        ]
    )
    src = str(Path(ordercone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("CertificateError:") == 4


def test_integer_certificate_catches_a_corrupted_row_basis():
    """Under python -O a wrong D F_R^{-1} fails the integer checks of `_project`."""
    script = "\n".join(
        [
            "from ordercone.atoms import _project, enumerate_order_projections",
            "from ordercone.bands import kernel_of_rows",
            "from ordercone.cones import build_space",
            "from ordercone.errors import CertificateError",
            "assert False, 'asserts must be stripped'",
            "four = [[1, 0, 1, 0, 0], [-1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, -1, 1, 0, 0]]",
            "gens = four + [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]",
            "sp = build_space(5, generators=gens, name='four-ray + simplex:2')",
            "if len(sp.components) != 3:",
            "    raise SystemExit('expected three components')",
            "R, D, Rinv, G = sp.row_basis",
            "bad = (tuple(e + 1 if t == 0 else e for t, e in enumerate(Rinv[0])),) + Rinv[1:]",
            "sp.__dict__['row_basis'] = (R, D, bad, G)",
            "identity = lambda: _project(sp, kernel_of_rows(sp, ()), frozenset())",
            "for probe in (identity, lambda: enumerate_order_projections(sp)):",
            "    try:",
            "        probe()",
            "    except CertificateError as exc:",
            "        print('CertificateError:', exc)",
            "    else:",
            "        raise SystemExit('no CertificateError')",
        ]
    )
    src = str(Path(ordercone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("CertificateError:") == 2


def test_integer_certificate_catches_a_corrupted_component_projection():
    """Under python -O a wrong cached Π_C fails the check of every call that sums it."""
    script = "\n".join(
        [
            "from ordercone.atoms import enumerate_order_projections, is_projection_band",
            "from ordercone.bands import kernel_of_rows",
            "from ordercone.cones import build_space",
            "from ordercone.errors import CertificateError",
            "assert False, 'asserts must be stripped'",
            "four = [[1, 0, 1, 0, 0], [-1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, -1, 1, 0, 0]]",
            "gens = four + [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]",
            "sp = build_space(5, generators=gens, name='four-ray + simplex:2')",
            "comps = sp.components",
            "if len(comps) != 3:",
            "    raise SystemExit('expected three components')",
            "S, projections = sp.component_projections",
            "P = projections[1]",
            "bad = (tuple(e + 1 if c == 0 else e for c, e in enumerate(P[0])),) + P[1:]",
            "sp.__dict__['component_projections'] = (S, (projections[0], bad, projections[2]))",
            "full = frozenset(range(1, sp.m + 1))",
            "piece = kernel_of_rows(sp, full - comps[1])",
            "whole = kernel_of_rows(sp, ())",
            "for probe in (lambda: enumerate_order_projections(sp),",
            "              lambda: is_projection_band(sp, piece),",
            "              lambda: is_projection_band(sp, whole)):",
            "    try:",
            "        probe()",
            "    except CertificateError as exc:",
            "        print('CertificateError:', exc)",
            "    else:",
            "        raise SystemExit('no CertificateError')",
            "# A band whose sum leaves the corrupted component out is still answered.",
            "rest = kernel_of_rows(sp, comps[1])",
            "if not is_projection_band(sp, rest).is_projection_band:",
            "    raise SystemExit('the band without component 2 lost its projection')",
        ]
    )
    src = str(Path(ordercone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("CertificateError:") == 3
    assert res.stdout.count("the projection of component 2 ") == 3


ROW_FACTORS = (Fraction(1, 2), Fraction(3, 4), Fraction(5, 3), Fraction(2, 7), Fraction(9, 5), Fraction(4))


def rescale_rows(sp):
    """The space with facet row j scaled by ROW_FACTORS[j mod 6]: the same order, another `int_facets` scale."""
    return replace(sp, F=tuple(tuple(e * ROW_FACTORS[j % len(ROW_FACTORS)] for e in f) for j, f in enumerate(sp.F)))


def int_product(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)


def test_component_projections_are_complementary_idempotents():
    # On ints, with scale S: the S Π_C sum to S I, S Π_C S Π_C = S (S Π_C),
    # and S Π_C S Π_C' = 0 for C != C'; the sums per union are still the
    # oracle's projections.
    rng = random.Random(40620)
    spaces = oracle_spaces() + [
        direct_sum(four_ray(), simplex(2), scramble=random_unimodular(rng, 5)),
        direct_sum(four_ray(), pentagon(), simplex(1), scramble=random_unimodular(rng, 7)),
    ]
    spaces += [rescale_rows(sp) for sp in (four_ray(), simplex(3), direct_sum(four_ray(), simplex(2)))]
    for sp in spaces:
        S, projections = sp.component_projections
        assert len(projections) == len(sp.components), sp.name
        n = sp.dim
        total = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*projections))
        assert total == tuple(tuple(S * int(i == j) for j in range(n)) for i in range(n)), sp.name
        for (s, P), (t, Q) in combinations(enumerate(projections), 2):
            assert int_product(P, Q) == int_product(Q, P) == ((0,) * n,) * n, (sp.name, s, t)
        for P in projections:
            assert int_product(P, P) == tuple(tuple(S * e for e in row) for row in P), sp.name
        assert enumerate_order_projections(sp) == flat_pass_projections(sp), sp.name


def test_bands_and_projections_ignore_facet_row_scaling():
    # A directly built space may carry non-integral facet rows: halving every
    # row changes no band, no projection band and no projection.
    rng = random.Random(40616)
    spaces = [four_ray(), pentagon(), simplex(3), direct_sum(pentagon(), simplex(1))]
    spaces.append(direct_sum(four_ray(), simplex(2), scramble=random_unimodular(rng, 5)))
    for sp in spaces:
        half = replace(sp, F=tuple(tuple(e / 2 for e in f) for f in sp.F))
        assert any(e.denominator > 1 for f in half.F for e in f)
        assert enumerate_bands(half) == enumerate_bands(sp), sp.name
        assert enumerate_order_projections(half) == enumerate_order_projections(sp), sp.name
        for a in sp.generators:
            assert is_projection_band(half, band_of(half, a)) == is_projection_band(sp, band_of(sp, a))


def test_split_sup_and_projections_ignore_per_row_facet_scaling():
    # Scaling each facet row by its own positive rational leaves the order,
    # so every answer, unchanged; it changes the denominator d of
    # `int_facets` that the row basis folds in.
    rng = random.Random(40619)
    found = {"split": 0, "no split": 0, "sup": 0, "no sup": 0}
    for sp in (four_ray(), simplex(3), direct_sum(four_ray(), simplex(2))):
        scaled = rescale_rows(sp)
        assert scaled.int_facets[0] > 1
        assert enumerate_order_projections(scaled) == enumerate_order_projections(sp), sp.name
        for _ in range(30):
            x1, x2, z = _atom_triple(rng, sp) or interval_probe(rng, sp)
            res = rdp_split(scaled, x1, x2, z)
            assert res == rdp_split(sp, x1, x2, z), sp.name
            found["split" if isinstance(res, Split) else "no split"] += 1
            xs = rng.choice([[x1, x2], [mixed_positive(rng, sp), random_vector(rng, sp.dim)]])
            sup = sup_in_X(scaled, xs)
            assert sup == sup_in_X(sp, xs), sp.name
            found["sup" if sup is not None else "no sup"] += 1
    assert min(found.values()) >= 10, found


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
