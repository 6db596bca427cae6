"""Disjointness, bands, and ideals through the cover's coordinate supports.

In the coordinatewise cover two images are disjoint exactly when their
supports are, so every disjoint complement is the kernel of a set of facet
rows.  That makes the whole band calculus finite: bands are the fixed points
of the double complement among the 2^m row-kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import OrderedSpace, embed, extreme_rays
from .errors import CapExceeded, ParseError
from .linalg import (
    Mat,
    Vec,
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
    return tuple(support(embed(space, g)) for g in space.generators)


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
    return Band(carrier, J, _kernel_is_directed(space, atom_supports(space), J, carrier))


def band_of(space: OrderedSpace, a: Vec) -> Band:
    """The principal band {a}^dd."""
    return disjoint_complement(space, disjoint_complement(space, [a]))


def is_band(space: OrderedSpace, D) -> bool:
    """Whether D equals its double disjoint complement."""
    if isinstance(D, Band):
        D = D.carrier
    dd = disjoint_complement(space, disjoint_complement(space, D))
    return dd.carrier.basis == D.basis


def _kernel_is_directed(space: OrderedSpace, supports, J, carrier: Subspace) -> bool:
    """Whether the row kernel carrier = ker(F_J) is directed.

    Every f_j is >= 0 on K, so K meets ker(F_J) in a face of K, and a face of
    a pointed polyhedral cone is generated by the atoms it contains: here the
    atoms whose supports miss J.  The carrier is spanned by its positive part
    iff those atoms have rank carrier.dim.
    """
    inside = tuple(g for g, s in zip(space.generators, supports) if not s & J)
    return rank(inside) == carrier.dim


def is_directed_subspace(space: OrderedSpace, D: Subspace) -> bool:
    """Whether an arbitrary subspace D is spanned by D's own positive part.

    Double description of {c : sum c_i b_i in K} in coefficient space; D is
    directed iff those rays span all of D.  Row kernels, and so all bands, take
    the face route of `_kernel_is_directed` instead.
    """
    d = D.dim
    if d == 0:
        return True
    FB = mat([[dot(f, b) for b in D.basis] for f in space.F])
    rays = extreme_rays(FB)
    return rank(rays) == d


def enumerate_bands(space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Band, ...]:
    """All bands, as the double-complement fixed points among row kernels.

    Every disjoint complement is a row kernel, so every band is one too; the
    2^m sweep is exhaustive.  Output is deduplicated by carrier and ordered
    by (dimension, basis).  Zero sets are reported maximal.
    """
    m = space.m
    if m > cap:
        raise CapExceeded(f"band enumeration over 2^{m} subsets exceeds cap {cap}")
    kernels: dict[frozenset[int], Subspace] = {}
    supports: dict[Mat, frozenset[int]] = {}

    def kern(J: frozenset[int]) -> Subspace:
        if J not in kernels:
            kernels[J] = kernel_of_rows(space, J)
        return kernels[J]

    def supp(D: Subspace) -> frozenset[int]:
        if D.basis not in supports:
            supports[D.basis] = union_support(space, D.basis)
        return supports[D.basis]

    atom_supp = atom_supports(space)
    seen: dict[Mat, Band] = {}
    for mask in range(1 << m):
        J = frozenset(j + 1 for j in range(m) if mask >> j & 1)
        carrier = kern(J)
        if carrier.basis in seen:
            continue
        complement = kern(supp(carrier))
        dd = kern(supp(complement))
        if dd.basis != carrier.basis:
            continue
        full = frozenset(range(1, m + 1))
        band = Band(carrier, full - supp(carrier), _kernel_is_directed(space, atom_supp, J, carrier))
        seen[carrier.basis] = band
    return tuple(sorted(seen.values(), key=lambda b: (b.carrier.dim, b.carrier.basis)))


def principal_ideal_member(space: OrderedSpace, x: Vec, a: Vec) -> bool:
    """Whether x lies in the principal ideal of a (some scaling of |a| solidly
    dominates |x|).

    Scaling multiplies the tightened modulus of a, so membership only asks
    that |F x| vanish wherever min{f_j(z) : F z >= |F a|} is zero.
    """
    wa = vabs(embed(space, a))
    wx = vabs(embed(space, x))
    for j in range(space.m):
        if wx[j] == 0:
            continue
        if wa[j] > 0:
            continue
        if upper_set_min(space.F, wa, j) == 0:
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
