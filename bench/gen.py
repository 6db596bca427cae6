"""Seeded input generators for the benchmark, independent of `ordercone`.

Every generated cone comes with both of its representations, computed here
in exact integer arithmetic: the generators (which the program is given) and
the facet rows (which the program must rediscover).  The benchmark's checks
read the facets from here, never from the program.

A cone is moved by a random unimodular map U, built together with U^-1:
generators map to U g and facets to f U^-1, which keeps f(g) unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

# The paper's running example: the cone in Q^3 over a square, with four
# extreme rays and four facets.  Not a lattice; only 0 and I project.
FOUR_RAY_GENERATORS = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
FOUR_RAY_FACETS = ((-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1))


@dataclass(frozen=True)
class Cone:
    """A generated cone: its extreme rays, its facets and how it was made.

    `blocks` lists the direct-sum blocks ("four-ray" or "simplicial:<n>");
    `simplicial_atoms` holds the generators that come from simplicial blocks.
    """

    name: str
    dim: int
    generators: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[int, ...], ...]
    blocks: tuple[str, ...]
    simplicial_atoms: frozenset[tuple[int, ...]]


def primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping its direction."""
    v = [Fraction(e) for e in v]
    den = 1
    for e in v:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in v]
    g = 0
    for e in ints:
        g = gcd(g, e)
    return tuple(e // g for e in ints) if g else tuple(ints)


def unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random U = S T with det +-1, together with U^-1.

    T is the fixed shear with ones on the diagonal and the superdiagonal, and
    S a random signed permutation.  T mixes neighbouring coordinates, so no
    coordinate block of a direct sum survives; S only moves and flips the
    entries of U g and of f U^-1.  The size of the numbers, and with it the
    cost of the exact arithmetic, thus depends on the shape and not on the
    seed: with a random T in {-1, 0, 1} the largest facet entry of a
    four-ray (+) four-ray cone ranged from 4 to 7 over five seeds, and
    enumerating its atoms' bands took from 8 to 15 ms.
    """
    # T^-1 is upper triangular with entries (-1)^(j-i).
    Tinv = [[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
    T = [[int(j == i or j == i + 1) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # (S T)[i] = signs[i] * T[perm[i]];  (S T)^-1 = T^-1 S^-1 with S^-1 = S^T.
    U = [[signs[i] * e for e in T[perm[i]]] for i in range(n)]
    Uinv = [[0] * n for _ in range(n)]
    for i in range(n):
        for r in range(n):
            Uinv[r][i] = Tinv[r][perm[i]] * signs[i]
    return U, Uinv


def _apply(U, g):
    return tuple(sum(u * x for u, x in zip(row, g)) for row in U)


def _pull(f, Uinv):
    n = len(Uinv)
    return tuple(sum(f[k] * Uinv[k][j] for k in range(n)) for j in range(n))


def _moved(name, dim, gens, facets, blocks, simplicial, rng) -> Cone:
    U, Uinv = unimodular(rng, dim)
    moved = {g: primitive(_apply(U, g)) for g in gens}
    return Cone(
        name=name,
        dim=dim,
        generators=tuple(moved[g] for g in gens),
        facets=tuple(primitive(_pull(f, Uinv)) for f in facets),
        blocks=tuple(blocks),
        simplicial_atoms=frozenset(moved[g] for g in simplicial),
    )


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def det3(a, b, c) -> int:
    return sum(x * y for x, y in zip(a, cross(b, c)))


def polygon_facets(points) -> tuple[tuple[int, ...], ...]:
    """Facets of the cone over a convex polygon whose vertices are in cyclic order.

    Facet i is spanned by vertices i and i+1: its normal is their cross
    product, turned to be nonnegative on the other vertices.
    """
    m = len(points)
    out = []
    for i in range(m):
        a, b = points[i], points[(i + 1) % m]
        nrm = cross(a, b)
        other = points[(i + 2) % m]
        if sum(x * y for x, y in zip(nrm, other)) < 0:
            nrm = tuple(-e for e in nrm)
        out.append(primitive(nrm))
    return tuple(out)


def facets_in_general_position(facets) -> bool:
    """Every three facet rows are linearly independent (own 3x3 determinants)."""
    return all(det3(a, b, c) != 0 for a, b, c in combinations(facets, 3))


def polygon_cone(rng: random.Random, m: int) -> Cone:
    """Cone over a convex m-gon: parabola points (k, k^2, 1) under a unimodular map.

    The abscissae k come from a window that grows with m, so that the size
    of the numbers depends on m rather than on the seed.  Draws until every
    three facet rows are independent, the condition under which an m-gon
    cone with m >= 5 has exactly the two trivial bands.
    """
    w = max(4, (m + 5) // 2)
    while True:
        ks = sorted(rng.sample(range(-w, w + 1), m))
        points = [(k, k * k, 1) for k in ks]
        facets = polygon_facets(points)
        if m < 5 or facets_in_general_position(facets):
            break
    return _moved(f"polygon:{m}", 3, points, facets, [f"polygon:{m}"], [], rng)


def simplicial_cone(rng: random.Random, n: int) -> Cone:
    """The standard cone of Q^n under a unimodular map."""
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _moved(f"simplicial:{n}", n, eye, eye, [f"simplicial:{n}"], eye, rng)


def direct_sum_cone(rng: random.Random, four_rays: int, singles: int) -> Cone:
    """four-ray^a (+) Q^b, block diagonal, then scrambled by a unimodular map.

    Its bands are the products of the blocks' bands (8 per four-ray block,
    2 per line), and its projection bands likewise (2 per block).
    """
    dim = 3 * four_rays + singles
    gens, facets, simplicial = [], [], []
    blocks = []

    def place(row, offset):
        v = [0] * dim
        v[offset : offset + len(row)] = row
        return tuple(v)

    offset = 0
    for _ in range(four_rays):
        gens += [place(g, offset) for g in FOUR_RAY_GENERATORS]
        facets += [place(f, offset) for f in FOUR_RAY_FACETS]
        blocks.append("four-ray")
        offset += 3
    for _ in range(singles):
        e = place((1,), offset)
        gens.append(e)
        facets.append(e)
        simplicial.append(e)
        blocks.append("simplicial:1")
        offset += 1
    name = "+".join(blocks)
    return _moved(name, dim, gens, facets, blocks, simplicial, rng)


def positive(rng: random.Random, cone: Cone):
    """A nonzero combination of the cone's generators with coefficients 0..3."""
    coeffs = [rng.randint(0, 3) for _ in cone.generators]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return combine(coeffs, cone.generators)


def combine(coeffs, vectors):
    out = [Fraction(0)] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for i, e in enumerate(v):
                out[i] += c * e
    return tuple(out)


def signed(rng: random.Random, n: int):
    """A vector of Q^n with integer entries in [-3, 3]."""
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
