"""Polyhedral ordered vector spaces.

A space is Q^n ordered by a pointed generating polyhedral cone, carried in
both representations: extreme rays (generators) and facet functionals.  The
facet matrix doubles as the bipositive embedding into the coordinatewise
lattice Q^m, which is how every order-theoretic question downstream becomes
finite arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotGenerating, NotPointed, ParseError
from .linalg import (
    Mat,
    Vec,
    dot,
    independent_subset,
    invert,
    is_zero_vec,
    mat_vec,
    primitive,
    rank,
    solve_linear,
    transpose,
    vec,
    vmax,
    vsub,
)
from .lp import Polyhedron, upper_set_minima


def extreme_rays(A: Mat) -> tuple[Vec, ...]:
    """Extreme rays of {x : A x >= 0}, assuming the cone is pointed.

    Double description: seed with the first n independent rows (a simplicial
    cone whose rays are the columns of the inverse), then cut with the
    remaining rows in input order.  Adjacency of two rays is decided by the
    rank of their common tight rows among the constraints processed so far.
    Requires rank(A) = n; the output is sorted lexicographically.
    """
    n = len(A[0])
    seed = independent_subset(A)
    if len(seed) < n:
        raise ValueError("extreme_rays needs a pointed cone (rank deficient input)")
    Binv = invert(tuple(A[i] for i in seed))
    rays = [primitive(col) for col in transpose(Binv)]
    active = list(seed)
    seed_set = set(seed)

    def adjacent(r1: Vec, r2: Vec) -> bool:
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


@dataclass(frozen=True)
class OrderedSpace:
    """Q^dim ordered by a cone, given by its extreme rays and its facet rows.

    The facet matrix F doubles as the embedding into Q^m.
    """

    name: str
    dim: int
    generators: Mat
    F: Mat

    @property
    def m(self) -> int:
        return len(self.F)


def _clean_rows(rows, dim: int, what: str) -> Mat:
    out: list[Vec] = []
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


def build_space(dim: int, generators=None, facets=None, name: str = "space") -> OrderedSpace:
    """Construct a space from generators, facets, or both (cross-validated).

    The missing representation is computed by double description.  Computed
    rows come out in lexicographic order; rows the caller supplied keep the
    caller's order whenever they already equal the canonical set.
    """
    if dim < 1:
        raise ParseError("dimension must be at least 1")
    if generators is None and facets is None:
        raise ParseError("need generators or facets")

    gens = _clean_rows(generators, dim, "generator") if generators is not None else None
    face = _clean_rows(facets, dim, "facet") if facets is not None else None

    if gens is not None:
        if rank(gens) < dim:
            raise NotGenerating(f"generators span a rank-{rank(gens)} subspace of Q^{dim}")
        dual = extreme_rays(gens)  # canonical irredundant facets of pos(gens)
        if rank(dual) < dim:
            raise NotPointed("the generated cone contains a line")
        canon_gens = extreme_rays(dual)
        gens = gens if set(gens) == set(canon_gens) else canon_gens
        if face is not None:
            ok = rank(face) == dim
            if ok:
                try:
                    reduced = extreme_rays(extreme_rays(face))
                except ValueError:
                    # the facet system cuts out a degenerate cone
                    reduced = None
                ok = reduced is not None and set(reduced) == set(dual)
            if not ok:
                raise ParseError("facets do not match the cone generated by the generators")
            face = face if set(face) == set(dual) else dual
        else:
            face = dual
    else:
        if rank(face) < dim:
            raise NotPointed(f"facets have rank {rank(face)}; the cone contains a line")
        canon_gens = extreme_rays(face)
        if rank(canon_gens) < dim:
            raise NotGenerating("the facet cone is not full dimensional")
        irred = extreme_rays(canon_gens)
        face = face if set(face) == set(irred) else irred
        gens = canon_gens

    for g in gens:  # cross-check both representations agree
        if any(dot(f, g) < 0 for f in face):
            raise ParseError("internal representation mismatch")

    return OrderedSpace(name=name, dim=dim, generators=gens, F=face)


def leq(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """x <= y in the cone order, i.e. every facet functional is >= on y - x."""
    d = vsub(y, x)
    return all(dot(f, d) >= 0 for f in space.F)


def in_cone(space: OrderedSpace, x: Vec) -> bool:
    return all(dot(f, x) >= 0 for f in space.F)


def embed(space: OrderedSpace, x: Vec) -> Vec:
    """Image of x under the facet embedding into coordinatewise-ordered Q^m."""
    return mat_vec(space.F, x)


def upper_bound_polyhedron(space: OrderedSpace, M) -> Polyhedron:
    """{z : z >= m for all m in M} as {z : F z >= w}, w the max of the images."""
    M = tuple(M)
    if not M:
        raise ParseError("need at least one vector")
    w = embed(space, M[0])
    for v in M[1:]:
        w = vmax(w, embed(space, v))
    return Polyhedron(space.F, w, space.dim)


def sup_in_X(space: OrderedSpace, M) -> Vec | None:
    """Least upper bound of a finite set inside the space, if one exists.

    Any sup s must satisfy F s = t(w) where w is the coordinatewise max of
    the images and t the upper-set tightening; conversely a preimage of t(w)
    is an upper bound dominated by every other one.  So: tighten, then try
    to invert.
    """
    U = upper_bound_polyhedron(space, M)
    w = U.b
    direct = solve_linear(space.F, w)
    if direct is not None:
        return direct
    tight = upper_set_minima(space.F, w)
    if tight == w:
        return None
    return solve_linear(space.F, tight)


def archimedean_certificate(space: OrderedSpace, x: Vec, y: Vec) -> Fraction | None:
    """Threshold witnessing the Archimedean property, or None when x <= 0.

    If some facet functional is strictly positive on x, returns B such that
    n*x <= y fails for every integer n > B; when x <= 0 no such obstruction
    exists and the scaling comparison never terminates the order.
    """
    worst = None
    for f in space.F:
        fx = dot(f, x)
        if fx > 0:
            bound = dot(f, y) / fx
            worst = bound if worst is None else min(worst, bound)
    return worst
