"""Order structure of the coordinatewise cover: moduli, modulus domination,
and majorization tests.

The cover of a space is Q^m with the coordinatewise order; an element of the
cover is a plain length-m vector.  The facet embedding makes the space order
dense in its cover: every w in Q^m is the infimum of the images above it,
that is, min{f_j(z) : F z >= w} = w_j for every row j.  Row j bounds the
minimum below by w_j.  The rows are the cone's irredundant facets, so the
sum p of the atoms on facet j has f_j(p) = 0 and f_i(p) > 0 for every i != j
(each other facet misses one of those atoms, or the two facets would be one
face).  For any z0 with f_j(z0) = w_j, z = z0 + t p then has F z >= w and
f_j(z) = w_j once t is large.  So every question about the upper sets
{z : F z >= w} is a pointwise comparison of the bounds w, with no LP.
"""

from __future__ import annotations

from .cones import OrderedSpace, _image, embed
from .errors import ParseError
from .linalg import Vec, mat, vabs, vec
from .lp import Polyhedron, feasible_point


def cover_modulus(space: OrderedSpace, x: Vec) -> Vec:
    """|i(x)| in the cover: the coordinatewise absolute value of the image."""
    return vabs(embed(space, x))


def modulus_dominates(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """Whether every upper bound of {y,-y} bounds {x,-x}: the solid order |x| <= |y|.

    {z : F z >= |F y|} lies inside {z : F z >= |F x|} iff each minimum
    min{f_j(z) : F z >= |F y|} reaches |F x|_j.  By order density that
    minimum is |F y|_j, so the test is |F x| <= |F y| pointwise: with
    S F x and T F y as int sums, |S F x| T <= |T F y| S.
    """
    S, u = _image(space, x)
    T, v = _image(space, y)
    return all(abs(a) * T <= abs(b) * S for a, b in zip(u, v))


def is_majorizing(space: OrderedSpace, basis, J) -> bool:
    """Whether the span of `basis` majorizes the coordinate band with support J.

    True iff some d in the span has f_j(d) >= 1 on J and f_j(d) = 0 off J;
    scaling such a d then dominates every element of the band.  One LP over
    the span coefficients.
    """
    J = frozenset(J)
    if not J <= set(range(1, space.m + 1)):
        raise ParseError(f"J must be a subset of 1..{space.m}")
    basis = tuple(basis)
    if not basis:
        return not J
    d = len(basis)
    rows, rhs = [], []
    for j, coeffs in enumerate(zip(*[embed(space, b) for b in basis])):
        if j + 1 in J:
            rows.append(coeffs)
            rhs.append(1)
        else:
            rows.append(coeffs)
            rhs.append(0)
            rows.append(tuple(-e for e in coeffs))
            rhs.append(0)
    return feasible_point(Polyhedron(mat(rows), vec(rhs), d)) is not None
