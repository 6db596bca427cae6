"""Disjointness, bands, and ideals through the cover's coordinate supports.

In the coordinatewise cover two images are disjoint exactly when their
supports are, so every disjoint complement is the kernel of a set of facet
rows.  That makes the whole band calculus finite: bands are the fixed points
of the double complement among the row kernels, and the row kernels are the
kernels ker F_L of the flats L of the facet rows' matroid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import OrderedSpace, embed, extreme_rays
from .errors import CapExceeded, ParseError
from .linalg import (
    Mat,
    Vec,
    ZERO,
    canonical_subspace_basis,
    dot,
    in_span,
    mat,
    nullspace,
    rank,
    support,
    vabs,
    vadd,
    vec,
    vsub,
)
from .lp import upper_set_min

DEFAULT_ENUMERATION_CAP = 14


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical form; equality is syntactic."""

    ambient: int
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: Vec) -> bool:
        return in_span(self.basis, x, self.ambient)


def subspace(ambient: int, vectors) -> Subspace:
    vectors = tuple(tuple(v) for v in vectors)
    for v in vectors:
        if len(v) != ambient:
            raise ParseError(f"subspace vector has length {len(v)}, ambient is {ambient}")
    return Subspace(ambient, canonical_subspace_basis(mat(vectors), ambient))


def full_space(ambient: int) -> Subspace:
    eye = mat([[1 if j == i else 0 for j in range(ambient)] for i in range(ambient)])
    return Subspace(ambient, eye)


@dataclass(frozen=True)
class Band:
    """A band B = B^dd, carried with the zero set that cuts it out of X."""

    carrier: Subspace
    zero_set: frozenset[int]
    directed: bool


def is_disjoint(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """Support route: x and y are disjoint iff their images share no support."""
    return all(dot(f, x) == 0 or dot(f, y) == 0 for f in space.F)


def disjoint_eq1_oracle(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """Definition route: {x+y, -x-y} and {x-y, -x+y} have equal upper sets.

    The two upper sets are {z : F z >= |F(x+y)|} and {z : F z >= |F(x-y)|};
    mutual inclusion is checked per coordinate with the upper-set minima LPs.
    Nothing here consults supports, so this is an independent second oracle.
    """
    w1 = vabs(embed(space, vadd(x, y)))
    w2 = vabs(embed(space, vsub(x, y)))
    for j in range(space.m):
        # U(w1) subset of U(w2) needs min over U(w1) of f_j to reach w2_j, and
        # symmetrically; coordinates where the targets already sit below pass free.
        if w2[j] > w1[j] and upper_set_min(space.F, w1, j) < w2[j]:
            return False
        if w1[j] > w2[j] and upper_set_min(space.F, w2, j) < w1[j]:
            return False
    return True


def union_support(space: OrderedSpace, vectors) -> frozenset[int]:
    out: set[int] = set()
    for v in vectors:
        out |= support(embed(space, v))
    return frozenset(out)


def atom_supports(space: OrderedSpace) -> tuple[frozenset[int], ...]:
    """supp(F g) for each atom g, in generator order: the atoms' facet images."""
    return space.atom_supports


def kernel_of_rows(space: OrderedSpace, J) -> Subspace:
    """{x : f_j(x) = 0 for all j in J} as a canonical subspace."""
    J = sorted(set(J))
    if not J:
        return full_space(space.dim)
    return Subspace(space.dim, nullspace(tuple(space.F[j - 1] for j in J)))


def vanish_set(space: OrderedSpace, D: Subspace) -> frozenset[int]:
    """All rows that vanish identically on D (the maximal zero set)."""
    return frozenset(
        j + 1 for j in range(space.m) if all(dot(space.F[j], b) == 0 for b in D.basis)
    )


def _as_vectors(space: OrderedSpace, M) -> tuple[Vec, ...]:
    if isinstance(M, Band):
        return M.carrier.basis
    if isinstance(M, Subspace):
        return M.basis
    return tuple(vec(v) for v in M)


def disjoint_complement(space: OrderedSpace, M) -> Band:
    """M^d = {z : z disjoint from every element of M}, always a band.

    M may be a list of vectors, a Subspace, or a Band; the complement is the
    kernel of the rows supporting M's images (empty M complements to X).
    """
    J = union_support(space, _as_vectors(space, M))
    carrier = kernel_of_rows(space, J)
    return Band(carrier, J, _kernel_is_directed(space, J, carrier))


def band_of(space: OrderedSpace, a: Vec) -> Band:
    """The principal band {a}^dd."""
    return disjoint_complement(space, disjoint_complement(space, [a]))


def is_band(space: OrderedSpace, D) -> bool:
    """Whether D equals its double disjoint complement."""
    if isinstance(D, Band):
        D = D.carrier
    dd = disjoint_complement(space, disjoint_complement(space, D))
    return dd.carrier.basis == D.basis


def _kernel_is_directed(space: OrderedSpace, J, carrier: Subspace) -> bool:
    """Whether the row kernel carrier = ker(F_J) is directed.

    Every f_j is >= 0 on K, so K meets ker(F_J) in a face of K, and a face of
    a pointed polyhedral cone is generated by the atoms it contains: here the
    atoms whose supports miss J.  The carrier is spanned by its positive part
    iff those atoms have rank carrier.dim.
    """
    inside = tuple(g for g, s in zip(space.generators, space.atom_supports) if not s & J)
    return rank(inside) == carrier.dim


def positive_generators(space: OrderedSpace, D: Subspace) -> tuple[Vec, ...]:
    """Generators of the cone D ∩ K, for an arbitrary subspace D.

    Double description of {c : sum c_i b_i in K} in coefficient space, over
    the basis b of D; the rays are mapped back into D.
    """
    if D.dim == 0:
        return ()
    FB = mat([[dot(f, b) for b in D.basis] for f in space.F])
    return tuple(
        tuple(sum((c_i * b[k] for c_i, b in zip(c, D.basis)), start=ZERO) for k in range(space.dim))
        for c in extreme_rays(FB)
    )


def is_directed_subspace(space: OrderedSpace, D: Subspace) -> bool:
    """Whether an arbitrary subspace D is spanned by D's own positive part.

    Row kernels, and so all bands, take the face route of
    `_kernel_is_directed` instead.
    """
    return rank(positive_generators(space, D)) == D.dim


def _flats(space: OrderedSpace):
    """Every flat of the facet rows' matroid with its row kernel, and its covers.

    A flat is a set L of rows closed under linear dependence: L holds every
    row that vanishes on ker F_L.  Restricted to ker F_L, a row j outside L is
    a nonzero functional, and cl(L + j) adds to L exactly the rows whose
    restrictions are multiples of row j's: on the hyperplane of ker F_L that
    row j cuts out, a functional vanishes iff it is a multiple of row j there.
    So the rows outside L fall into parallel classes, one per flat covering L.

    Close-by-one, the depth-first form of Ganter's NextClosure (1984), keeps
    the cover cl(L + j) only when j is the least row it adds, so each flat is
    visited, and its kernel computed, once.  Returns the kernels by flat and,
    for each flat L, the map from each row j outside L to cl(L + j).
    """
    kernels: dict[frozenset[int], Subspace] = {}
    covers: dict[frozenset[int], dict[int, frozenset[int]]] = {}
    todo = [(frozenset(), 1)]  # facet rows are nonzero, so no row vanishes on Q^n
    while todo:
        L, start = todo.pop()
        K = kernels[L] = kernel_of_rows(space, L)
        classes: dict[Vec, set[int]] = {}
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
    return kernels, covers


def enumerate_band_pairs(
    space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[Band, Band], ...]:
    """Every band with its disjoint complement, ordered by (dimension, basis).

    Every disjoint complement is a row kernel, so every band is one too: the
    kernel of a flat L, whose images have support [m] - L.  Its complement is
    the kernel of cl([m] - L), and it is a band iff the complement of that is
    it again: cl([m] - cl([m] - L)) = L.  Closures are walks up the covers,
    and zero sets are reported maximal (they are the flats).
    """
    m = space.m
    if m > cap:
        raise CapExceeded(f"band enumeration refuses {m} facets, more than the cap {cap}")
    kernels, covers = _flats(space)
    full = frozenset(range(1, m + 1))

    def closure(S: frozenset[int]) -> frozenset[int]:
        C = frozenset()
        for j in S:
            if j not in C:
                C = covers[C][j]
        return C

    complement = {L: closure(full - L) for L in kernels}
    bands = {
        L: Band(K, L, _kernel_is_directed(space, L, K))
        for L, K in kernels.items()
        if complement[complement[L]] == L
    }
    pairs = ((band, bands[complement[L]]) for L, band in bands.items())
    return tuple(sorted(pairs, key=lambda p: (p[0].carrier.dim, p[0].carrier.basis)))


def enumerate_bands(space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Band, ...]:
    """All bands, ordered by (dimension, basis), with maximal zero sets.

    Refuses spaces with more than `cap` facets (CapExceeded).
    """
    return tuple(band for band, _ in enumerate_band_pairs(space, cap))


def principal_ideal_member(space: OrderedSpace, x: Vec, a: Vec) -> bool:
    """Whether x lies in the principal ideal of a (some scaling of |a| solidly
    dominates |x|).

    Scaling multiplies the tightened modulus of a, so membership asks that
    |F x| vanish wherever min{f_j(z) : F z >= |F a|} is zero.  For j outside
    supp(F a) that minimum is zero iff supp(F a) lies in the union U_j of
    supp(F g) over the atoms g with f_j(g) = 0.  A z in K with f_j(z) = 0 lies
    in the face K ∩ ker f_j, which those atoms generate, so supp(F z) lies in
    U_j; and F z >= |F a| puts supp(F a) inside supp(F z).  Conversely, a
    large multiple of the sum of those atoms is such a z when supp(F a) lies
    in U_j.  So x is no member iff this holds for some j in supp(F x) outside
    supp(F a).
    """
    fa = support(embed(space, a))
    for j in support(embed(space, x)) - fa:
        if fa <= frozenset().union(*(s for s in space.atom_supports if j not in s)):
            return False
    return True


def extend_band(space: OrderedSpace, B) -> frozenset[int]:
    """Support of the smallest extension band of B in the cover.

    The extension of a band B is i(B)^dd computed in Q^m, the coordinate band
    supported exactly where some element of B has a nonzero image.
    """
    return union_support(space, _as_vectors(space, B))


def restrict_band(space: OrderedSpace, J) -> Subspace:
    """Restriction of the coordinate band with support J: {x : f_j(x)=0, j not in J}.

    A band whenever the space is fordable; in general only a subspace.
    """
    J = set(J)
    if not J <= set(range(1, space.m + 1)):
        raise ParseError(f"J must be a subset of 1..{space.m}")
    return kernel_of_rows(space, set(range(1, space.m + 1)) - J)
