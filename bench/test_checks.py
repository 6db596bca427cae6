"""The benchmark's checks reject corrupted answers.

Each test gives a check one right answer, which must pass, and one or more
corrupted ones, which must fail.  Run with
    python3 -m pytest bench/test_checks.py
"""

import random
from fractions import Fraction

import pytest

import checks as C
import gen

F = Fraction
EYE2 = ((1, 0), (0, 1))
EYE3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def fails(fn, *args):
    with pytest.raises(C.CheckFailed):
        fn(*args)


def four_ray_plus_lines():
    return gen.direct_sum_cone(random.Random(0), 1, 2)


def test_band_counts_from_make_up():
    cone = four_ray_plus_lines()
    assert C.expected_band_counts(cone) == (32, 8)
    C.check_count("bands", 32, 32)
    fails(C.check_count, "bands", 31, 32)
    hexagon = gen.polygon_cone(random.Random(0), 6)
    assert C.expected_band_counts(hexagon) == (2, 2)
    fails(C.check_count, "bands", 3, 2)
    assert C.expected_band_counts(gen.simplicial_cone(random.Random(0), 4)) == (16, 16)


def test_polygon_facets_general_position():
    hexagon = gen.polygon_cone(random.Random(1), 6)
    assert gen.facets_in_general_position(hexagon.facets)
    # Three facet normals through one line are dependent.
    assert not gen.facets_in_general_position(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_projection_rejects_non_idempotent_and_non_positive():
    C.check_projection(EYE2, EYE2, EYE2)
    C.check_projection(((1, 0), (0, 0)), EYE2, EYE2)
    fails(C.check_projection, ((2, 0), (0, 2)), EYE2, EYE2)  # P^2 != P
    fails(C.check_projection, ((1, 1), (0, 0)), EYE2, EYE2)  # idempotent, g - P g < 0


def test_complementary_pairs():
    zero = ((0, 0), (0, 0))
    C.check_complementary_pairs([EYE2, zero], 2)
    fails(C.check_complementary_pairs, [EYE2], 2)
    fails(C.check_complementary_pairs, [((1, 0), (0, 0)), zero, EYE2], 2)


def test_atom_band():
    cone = four_ray_plus_lines()
    line_atom = next(iter(cone.simplicial_atoms))
    ray_atom = next(g for g in cone.generators if g not in cone.simplicial_atoms)
    C.check_atom_band(cone, line_atom, (line_atom,), True)
    C.check_atom_band(cone, ray_atom, (tuple(2 * e for e in ray_atom),), False)
    fails(C.check_atom_band, cone, line_atom, (line_atom,), False)
    fails(C.check_atom_band, cone, ray_atom, (ray_atom,), True)
    fails(C.check_atom_band, cone, ray_atom, (line_atom,), False)  # not the atom's ray
    fails(C.check_atom_band, cone, ray_atom, (ray_atom, line_atom), False)
    hexagon = gen.polygon_cone(random.Random(0), 6)
    C.check_atom_band(hexagon, hexagon.generators[0], EYE3, True)
    fails(C.check_atom_band, hexagon, hexagon.generators[0], (hexagon.generators[0],), False)


def test_split():
    x1, x2 = (F(2), F(0)), (F(1), F(1))
    z = (F(2), F(1))
    C.check_split(EYE2, x1, x2, z, (F(1), F(0)), (F(1), F(1)))
    fails(C.check_split, EYE2, x1, x2, z, (F(3), F(0)), (F(-1), F(1)))  # z1 outside [0, x1]
    fails(C.check_split, EYE2, x1, x2, z, (F(1), F(0)), (F(1), F(0)))  # z1 + z2 != z


def test_disjointness_agreement():
    assert C.own_disjoint(EYE2, (F(1), F(0)), (F(0), F(-2)))
    assert not C.own_disjoint(EYE2, (F(1), F(1)), (F(0), F(-2)))
    C.check_disjoint({"is_disjoint": True, "oracle": True, "own": True})
    fails(C.check_disjoint, {"is_disjoint": False, "oracle": True, "own": True})


def test_simplicial_supremum():
    cone = gen.simplicial_cone(random.Random(3), 3)
    x, y = (F(1), F(-2), F(0)), (F(0), F(1), F(4))
    s = C.simplicial_sup(cone.generators, cone.facets, (x, y))
    C.check_upper_bound(cone.facets, s, (x, y))
    assert C.image(cone.facets, s) == tuple(max(a, b) for a, b in zip(C.image(cone.facets, x), C.image(cone.facets, y)))
    fails(C.check_equal, "sup", tuple(e + 1 for e in s), s)
    fails(C.check_upper_bound, EYE2, (F(1), F(0)), ((F(1), F(0)), (F(0), F(1))))


def test_atom_lambda_and_decomposition():
    x, a = (F(3), F(5)), (F(1), F(0))
    C.check_atom_lambda(EYE2, x, a, F(3))
    fails(C.check_atom_lambda, EYE2, x, a, F(4))  # lambda a not below x
    fails(C.check_atom_lambda, EYE2, x, a, F(2))  # not maximal
    C.check_decomposition(EYE2, x, a, F(3), F(3), (F(3), F(0)), (F(0), F(5)))
    fails(C.check_decomposition, EYE2, x, a, F(3), F(2), (F(2), F(0)), (F(1), F(5)))  # lambda differs
    fails(C.check_decomposition, EYE2, x, a, F(3), F(3), (F(3), F(0)), (F(0), F(4)))  # parts do not add up
    fails(C.check_decomposition, EYE2, x, a, F(2), F(2), (F(2), F(0)), (F(1), F(5)))  # parts not disjoint


def test_modulus_ideal_and_witness():
    x, y = (F(1), F(0)), (F(2), F(-1))
    C.check_modulus(EYE2, x, y, True, simplicial=True)
    fails(C.check_modulus, EYE2, x, y, False, True)
    fails(C.check_modulus, EYE2, y, x, True, True)
    C.check_modulus(EYE2, y, x, True, simplicial=False)  # no converse outside lattices
    C.check_ideal_member(EYE2, x, y, True, simplicial=True)
    fails(C.check_ideal_member, EYE2, y, x, True, True)
    fails(C.check_ideal_member, EYE2, x, y, False, False)
    C.check_witness(EYE2, (F(-1), F(-1)), "Inapplicable", None, True)
    C.check_witness(EYE2, (F(2), F(-1)), "Witness", (F(1), F(0)), True)
    fails(C.check_witness, EYE2, (F(2), F(-1)), "Witness", (F(3), F(0)), True)  # above b+
    fails(C.check_witness, EYE2, (F(2), F(-1)), "NoWitness", None, True)
    fails(C.check_witness, EYE2, (F(2), F(-1)), "Inapplicable", None, False)


def test_structure():
    cone = gen.polygon_cone(random.Random(2), 5)
    facets = [tuple(F(e) for e in f) for f in cone.facets]
    atoms = [tuple(F(e) for e in g) for g in cone.generators]
    C.check_structure(cone, facets, atoms, False)
    fails(C.check_structure, cone, facets[1:], atoms, False)
    fails(C.check_structure, cone, facets, atoms[1:], False)
    fails(C.check_structure, cone, facets, atoms, True)
    fails(C.check_structure, cone, facets, [tuple(2 * e for e in g) for g in atoms], False)


def test_discreteness():
    cone = gen.simplicial_cone(random.Random(4), 3)
    a, b = cone.generators[:2]
    C.check_discrete_atom(a, True, True)
    fails(C.check_discrete_atom, a, False, True)
    fails(C.check_discrete_atom, a, True, False)
    C.check_discrete_pair(cone, a, b, False, False)
    fails(C.check_discrete_pair, cone, a, b, True, False)  # disjoint atoms: the sum is not discrete
    fails(C.check_discrete_pair, cone, a, b, False, True)
