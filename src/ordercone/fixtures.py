"""Built-in spaces plus the randomized generators the test suites draw from."""

from __future__ import annotations

import random

from .cones import MAX_DIM, OrderedSpace, build_space
from .errors import ParseError, UnknownBuiltin
from .linalg import Mat, Vec, mat, mat_vec, vec

# The square-based cone in Q^3 with four extreme rays and four facets, the
# running counterexample: not a lattice, no nontrivial order projections.
FOUR_RAY_GENERATORS = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
FOUR_RAY_FACETS = ((-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1))


def four_ray() -> OrderedSpace:
    return build_space(
        3,
        generators=mat(FOUR_RAY_GENERATORS),
        facets=mat(FOUR_RAY_FACETS),
        name="four-ray",
    )


def simplex(n: int) -> OrderedSpace:
    """Q^n under the coordinatewise order (standard simplicial cone)."""
    if not 1 <= n <= MAX_DIM:
        raise ParseError(f"simplex dimension must be between 1 and {MAX_DIM}, got {n}")
    eye = mat([[1 if j == i else 0 for j in range(n)] for i in range(n)])
    return build_space(n, generators=eye, facets=eye, name=f"simplex:{n}")


def builtin_space(name: str) -> OrderedSpace:
    if name == "four-ray":
        return four_ray()
    if name.startswith("simplex:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad simplex dimension in {name!r}") from None
        return simplex(n)
    raise UnknownBuiltin(f"unknown builtin space {name!r}")


def random_unimodular(rng: random.Random, n: int) -> Mat:
    """Random integer matrix with determinant +-1 (a product of six shear rows)."""
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return mat(rows)


def random_simplicial_space(rng: random.Random, n: int, name: str = "random-simplicial") -> OrderedSpace:
    U = random_unimodular(rng, n)
    gens = [mat_vec(U, e) for e in simplex(n).generators]
    return build_space(n, generators=gens, name=name)


def random_polygon_space(rng: random.Random, m: int) -> OrderedSpace:
    """Cone in Q^3 over a convex m-gon (parabola points are in convex position)."""
    ks = rng.sample(range(-8, 9), m)
    ks.sort()
    gens = [vec([k, k * k, 1]) for k in ks]
    U = random_unimodular(rng, 3)
    return build_space(3, generators=[mat_vec(U, g) for g in gens], name="random-polygon")


def random_space(rng: random.Random) -> OrderedSpace:
    """A small random space: simplicial in dim 2..4 or a polygonal cone in dim 3."""
    if rng.random() < 0.5:
        return random_simplicial_space(rng, rng.randint(2, 4))
    return random_polygon_space(rng, rng.randint(4, 6))


def random_positive(rng: random.Random, space: OrderedSpace, scale: int = 3) -> Vec:
    """Random cone element: a nonnegative integer combination of generators."""
    coeffs = [rng.randint(0, scale) for _ in space.generators]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    out = [0] * space.dim
    for c, g in zip(coeffs, space.generators):
        for i, e in enumerate(g):
            out[i] += c * e
    return vec(out)


def random_vector(rng: random.Random, n: int, lo: int = -4, hi: int = 4) -> Vec:
    return vec([rng.randint(lo, hi) for _ in range(n)])
