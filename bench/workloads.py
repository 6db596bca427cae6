"""The three workloads: fixed query sets generated from a seed.

`SETUPS[name](oc, rng)` receives the imported `ordercone` package, builds
the inputs (and the spaces that queries reuse) and returns the list of
queries of one round.  A query is one call, or one short chain
of calls, into the library's public API; its check runs outside the timed
region and compares the answer with the benchmark's own computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks as C
import gen


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def frac(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in v)


def build(oc, cone: gen.Cone, generators=None):
    return oc.build_space(cone.dim, generators=[frac(g) for g in (generators or cone.generators)], name=cone.name)


# --- bands ---------------------------------------------------------------------

# Polygon cones show the 2^m sweep of band enumeration growing with m; the
# simplicial cones and direct sums have many bands and many projections, so
# they load the band, nullspace and projection-matrix code instead.  A round
# of bands stays near 3 s, so that a run holds about a dozen; a 12-gon alone
# would add 2.3 s.
BANDS_POLYGONS = (6, 8, 10)
BANDS_SIMPLICIAL = (4, 5, 6)
BANDS_SUMS = ((1, 2), (2, 0))


def bands_setup(oc, rng: random.Random) -> list[Query]:
    cones = (
        [gen.polygon_cone(rng, m) for m in BANDS_POLYGONS]
        + [gen.simplicial_cone(rng, n) for n in BANDS_SIMPLICIAL]
        + [gen.direct_sum_cone(rng, a, b) for a, b in BANDS_SUMS]
    )
    queries = []
    for cone in cones:
        space = build(oc, cone)
        n_bands, n_proj = C.expected_band_counts(cone)
        queries.append(
            Query(
                "enumerate_bands",
                lambda sp=space: oc.enumerate_bands(sp),
                lambda got, c=cone, k=n_bands: C.check_count(f"bands of {c.name}", len(got), k),
            )
        )
        queries.append(
            Query(
                "enumerate_order_projections",
                lambda sp=space: oc.enumerate_order_projections(sp),
                lambda got, c=cone, k=n_proj: _check_projections(c, got, k),
            )
        )
        for a in cone.generators:
            queries.append(
                Query(
                    "atom_band",
                    lambda sp=space, a=frac(a): oc.is_projection_band(sp, oc.band_of(sp, a)),
                    lambda rep, c=cone, a=a: _check_atom_band(c, a, rep),
                )
            )
    return queries


def _check_projections(cone, reports, expected: int) -> None:
    C.check_count(f"projection bands of {cone.name}", len(reports), expected)
    for rep in reports:
        C.check_projection(rep.matrix, cone.generators, cone.facets)
    C.check_complementary_pairs([rep.matrix for rep in reports], cone.dim)


def _check_atom_band(cone, a, rep) -> None:
    C.check_atom_band(cone, a, rep.band.carrier.basis, rep.is_projection_band)
    if rep.is_projection_band:
        C.check_projection(rep.matrix, cone.generators, cone.facets)


# --- queries -------------------------------------------------------------------

# Short order queries on spaces built during setup; each probe draws fresh
# vectors.  The cost of rdp_split grows with the number of facets on which
# z exceeds x2: with none, z1 = 0 is a split; on an 8-gon, a split with all
# eight took fifty times as long.  Left to chance, that number made the
# round's total swing by a fifth from seed to seed, so the probes of a space
# fix it at none, half and all of the facets.  The set holds many small
# spaces; the 9- and 10-gons appear once each.
QUERY_SIMPLICIAL = (2, 3, 4, 5, 6)
QUERY_POLYGONS = (4, 5, 6, 7, 8)
QUERY_LARGE_POLYGONS = (9, 10)
COPIES = 2


def queries_setup(oc, rng: random.Random) -> list[Query]:
    cones = [
        make(rng, k)
        for _ in range(COPIES)
        for make, sizes in ((gen.simplicial_cone, QUERY_SIMPLICIAL), (gen.polygon_cone, QUERY_POLYGONS))
        for k in sizes
    ] + [gen.polygon_cone(rng, m) for m in QUERY_LARGE_POLYGONS]
    queries = [_four_ray_nosplit(oc)]
    for cone in cones:
        space = build(oc, cone)
        m = len(cone.facets)
        for exceeded in (0, (m + 1) // 2, m):
            queries += _probe(oc, rng, cone, space, exceeded)
    return queries


def _four_ray_nosplit(oc) -> Query:
    """The paper's triple in the four-ray space: v2 <= v1 + v3, yet no split exists."""
    space = oc.build_space(3, generators=[frac(g) for g in gen.FOUR_RAY_GENERATORS], name="four-ray")
    v1, v2, v3, _ = (frac(g) for g in gen.FOUR_RAY_GENERATORS)

    def check(got) -> None:
        C.require(type(got).__name__ == "NoSplit", f"four-ray rdp_split(v1, v3, v2) gave {got}")

    return Query("rdp_split", lambda: oc.rdp_split(space, v1, v3, v2), check)


def _subset_vector(rng: random.Random, cone: gen.Cone):
    """A signed combination of one or two generators, and their indices."""
    idx = rng.sample(range(len(cone.generators)), rng.randint(1, 2))
    coeffs = [0] * len(cone.generators)
    for i in idx:
        coeffs[i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return gen.combine(coeffs, cone.generators)


def _split_inputs(rng: random.Random, cone: gen.Cone, exceeded: int):
    """x1, x2 > 0 and z = alpha x1 + beta x2, with f(z) > f(x2) on exactly `exceeded` facets f."""
    for _ in range(10_000):
        x1, x2 = gen.positive(rng, cone), gen.positive(rng, cone)
        alpha, beta = Fraction(rng.randint(0, 4), 4), Fraction(rng.randint(0, 4), 4)
        z = tuple(alpha * a + beta * b for a, b in zip(x1, x2))
        if sum(C.dot(f, z) > C.dot(f, x2) for f in cone.facets) == exceeded:
            return x1, x2, alpha, beta, z
    raise RuntimeError(f"no split probe of {cone.name} exceeds x2 on {exceeded} facets")


def _probe(oc, rng: random.Random, cone: gen.Cone, space, exceeded: int) -> list[Query]:
    F, G = cone.facets, cone.generators
    simplicial = len(G) == cone.dim
    x1, x2, alpha, beta, z = _split_inputs(rng, cone, exceeded)
    u, v = gen.signed(rng, cone.dim), gen.signed(rng, cone.dim)
    p, q = _subset_vector(rng, cone), _subset_vector(rng, cone)

    def check_split(got) -> None:
        C.require(type(got).__name__ == "Split", f"no split of z = {alpha} x1 + {beta} x2")
        C.check_split(F, x1, x2, z, got.z1, got.z2)

    def check_sup(got) -> None:
        if simplicial:
            C.require(got is not None, "a lattice has every supremum")
            C.check_equal("sup", got, C.simplicial_sup(G, F, (u, v)))
        if got is not None:
            C.check_upper_bound(F, got, (u, v))

    def check_disjoint(got) -> None:
        C.check_disjoint({"is_disjoint": got[0], "disjoint_eq1_oracle": got[1], "own": C.own_disjoint(F, p, q)})

    out = [
        Query("rdp_split", lambda: oc.rdp_split(space, x1, x2, z), check_split),
        Query("sup_in_X", lambda: oc.sup_in_X(space, [u, v]), check_sup),
        Query(
            "is_disjoint",
            lambda: (oc.is_disjoint(space, p, q), oc.disjoint_eq1_oracle(space, p, q)),
            check_disjoint,
        ),
        Query(
            "modulus_dominates",
            lambda: oc.modulus_dominates(space, p, q),
            lambda got: C.check_modulus(F, p, q, got, simplicial),
        ),
        Query(
            "principal_ideal_member",
            lambda: oc.principal_ideal_member(space, u, x1),
            lambda got: C.check_ideal_member(F, u, x1, got, simplicial),
        ),
        Query(
            "pervasive_witness_check",
            lambda: oc.pervasive_witness_check(space, u),
            lambda got: C.check_witness(F, u, type(got).__name__, getattr(got, "x", None), simplicial),
        ),
    ]
    if simplicial:
        a = frac(rng.choice(G))
        seen = {}

        def check_lambda(lam) -> None:
            C.check_atom_lambda(F, x1, a, lam)
            seen["lam"] = lam

        def check_decomposition(got) -> None:
            C.require(type(got).__name__ == "AtomDecomposition", f"no decomposition in a lattice: {got}")
            C.check_decomposition(F, x1, a, seen.get("lam"), got.lam, got.atom_part, got.disjoint_part)

        out += [
            Query("atom_lambda", lambda: oc.atom_lambda(space, x1, a), check_lambda),
            Query("decompose_by_atom", lambda: oc.decompose_by_atom(space, x1, a), check_decomposition),
        ]
    return out


# --- structure -----------------------------------------------------------------

# Classification from generator lists.  Per space, one query builds it with
# build_space (double description), classifies it and lists its atoms; then
# one query per atom and per sum of two atoms asks is_discrete and is_atom,
# whose 2^k split LPs grow with the support size k of the element (up to m
# for a polygon).  Many small spaces keep the round's total steady from seed
# to seed: with half as many, query_ms_p50 spread 0.085 over ten seeds,
# against 0.059 and 0.047 in two sets with these.
STRUCTURE_SIMPLICIAL = (3, 4, 5) * 2
STRUCTURE_POLYGONS = (4,) * 9 + (5,) * 4
STRUCTURE_SUMS = ((1, 1),) * 3


def structure_setup(oc, rng: random.Random) -> list[Query]:
    cones = (
        [gen.simplicial_cone(rng, n) for n in STRUCTURE_SIMPLICIAL]
        + [gen.polygon_cone(rng, m) for m in STRUCTURE_POLYGONS]
        + [gen.direct_sum_cone(rng, a, b) for a, b in STRUCTURE_SUMS]
    )
    queries = []
    for cone in cones:
        # Feed the generators shuffled and with two redundant interior sums,
        # so build_space must drop them.
        G = cone.generators
        gens = list(G) + [tuple(a + b for a, b in zip(G[i], G[(i + 1) % len(G)])) for i in range(2)]
        rng.shuffle(gens)
        built = {}  # the space the classify query built in this round

        def classify(c=cone, g=tuple(gens), built=built):
            space = built["space"] = build(oc, c, g)
            return space.F, oc.atoms(space), oc.classify(space)

        queries.append(
            Query("classify", classify, lambda got, c=cone: C.check_structure(c, got[0], got[1], got[2].is_lattice))
        )
        for a in G:
            queries.append(
                Query(
                    "is_discrete",
                    lambda a=frac(a), built=built: _discrete(oc, built["space"], a),
                    lambda got, a=a: C.check_discrete_atom(a, *got),
                )
            )
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = frac(x + y for x, y in zip(G[i], G[j]))
                queries.append(
                    Query(
                        "is_discrete",
                        lambda s=s, built=built: _discrete(oc, built["space"], s),
                        lambda got, c=cone, a=G[i], b=G[j]: C.check_discrete_pair(c, a, b, *got),
                    )
                )
    return queries


def _discrete(oc, space, x):
    return oc.is_discrete(space, x), oc.is_atom(space, x)


SETUPS = {"bands": bands_setup, "queries": queries_setup, "structure": structure_setup}
