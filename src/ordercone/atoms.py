"""Atoms, discreteness, classification, and order projections.

An atom is a generator of an extreme ray, so atom questions reduce to the
cone's canonical generator list.  Discreteness and weak pervasiveness are
read off the atoms' supports in the facet embedding: for b >= 0 the interval
[0,b] is a neighbourhood of 0 in the minimal face F_b, and a face is
generated by the atoms it contains, namely those whose supports lie inside
supp(F b).  Classification leans on the fact that in finite dimension the
pervasive / vector-lattice / RDP properties coincide and hold exactly for
simplicial cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bands import (
    Band,
    DEFAULT_ENUMERATION_CAP,
    Subspace,
    atom_supports,
    band_of,
    disjoint_complement,
    enumerate_bands,
    is_band,
    is_directed_subspace,
    is_disjoint,
    kernel_of_rows,
    vanish_set,
)
from .cones import OrderedSpace, embed, in_cone, leq
from .cover import modulus_dominates
from .errors import (
    NotABand,
    NotAtom,
    NotDirectSum,
    NotPervasive,
    NotPositive,
    PreconditionViolated,
)
from .linalg import (
    Mat,
    Vec,
    ZERO,
    canonical_subspace_basis,
    dot,
    invert,
    is_zero_vec,
    mat,
    mat_vec,
    primitive,
    rank,
    solve_linear,
    support,
    transpose,
    vec,
    vadd,
    vscale,
    vsub,
    zero_vec,
)
from .lp import Infeasible, Optimal, Polyhedron, lp


# --- atoms and discrete elements -------------------------------------------


def atoms(space: OrderedSpace) -> Mat:
    """The atoms up to positive scaling: the canonical extreme-ray generators."""
    return space.generators


def is_atom(space: OrderedSpace, x: Vec) -> bool:
    return not is_zero_vec(x) and in_cone(space, x) and primitive(x) in set(space.generators)


def is_discrete(space: OrderedSpace, x: Vec) -> bool:
    """Whether x > 0 admits no pair of disjoint nonzero parts below it.

    Face rule: x is discrete iff no two atoms whose supports lie inside
    supp(F x), the atoms of the face F_x, have disjoint supports.  If
    0 < u, v <= x are disjoint, u and v lie in F_x and are positive sums of
    atoms of F_x; an atom of u and one of v have supports inside supp(F u)
    and supp(F v), which are disjoint.  Conversely, small multiples of two
    disjoint atoms of F_x lie in [0, x].
    """
    if is_zero_vec(x) or not in_cone(space, x):
        raise NotPositive("is_discrete needs x > 0")
    face = support(embed(space, x))
    inside = [s for s in atom_supports(space) if s <= face]
    return all(s & t for s, t in combinations(inside, 2))


# --- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Holds:
    pass


@dataclass(frozen=True)
class Violated:
    b: Vec
    d: Vec


@dataclass(frozen=True)
class Classification:
    is_lattice: bool
    is_pervasive: bool
    is_fordable: bool
    weakly_pervasive: Holds | Violated
    has_rdp: bool
    atom_count: int


def _is_fordable(space: OrderedSpace) -> bool:
    # Every singleton support must be realizable: some x with f_j(x) != 0 and
    # all other rows zero.
    full = set(range(1, space.m + 1))
    for j in range(1, space.m + 1):
        D = kernel_of_rows(space, full - {j})
        if all(dot(space.F[j - 1], b) == 0 for b in D.basis):
            return False
    return True


def _image_box(space: OrderedSpace, upper: Vec) -> tuple[list, list]:
    """Rows for 0 <= F u <= upper in u-space."""
    rows, rhs = [], []
    for f, cap in zip(space.F, upper):
        rows.append(f)
        rhs.append(ZERO)
        rows.append(tuple(-e for e in f))
        rhs.append(-cap)
    return rows, rhs


def _order_interval_probe(space: OrderedSpace, bound: Vec):
    """max of the image coordinate sum over {x : 0 <= F x <= bound}."""
    rows, rhs = _image_box(space, bound)
    c = [sum(f[i] for f in space.F) for i in range(space.dim)]
    res = lp(vec(c), Polyhedron(mat(rows), vec(rhs), space.dim))
    assert isinstance(res, Optimal)
    return res


def _is_simplicial(space: OrderedSpace) -> bool:
    """As many atoms as dimensions; the atoms span Q^n, so they are a basis."""
    return len(space.generators) == space.dim


def classify(space: OrderedSpace) -> Classification:
    """Lattice / pervasive / fordable / weakly-pervasive / RDP flags.

    In finite dimension the lattice, pervasive and RDP flags coincide and hold
    exactly when the cone is simplicial.  Weak pervasiveness is decided on the
    atoms' supports and is equivalent to them:
    - two distinct atoms a, b with overlapping supports are not disjoint, yet
      [0,a] and [0,b] are segments on different rays and meet only in 0, so
      (a, b) violates weak pervasiveness;
    - if distinct atoms are pairwise disjoint, a facet positive on an atom a
      vanishes on every other atom, so no atom lies in the span of the others
      and the cone is simplicial.
    The violation reported is the first such pair in generator order.
    """
    gens = space.generators
    lattice = _is_simplicial(space)
    pairs = combinations(zip(gens, atom_supports(space)), 2)
    overlap = next(((a, b) for (a, s), (b, t) in pairs if s & t), None)
    return Classification(
        is_lattice=lattice,
        is_pervasive=lattice,
        is_fordable=_is_fordable(space),
        weakly_pervasive=Holds() if overlap is None else Violated(*overlap),
        has_rdp=lattice,
        atom_count=len(gens),
    )


@dataclass(frozen=True)
class Witness:
    x: Vec


@dataclass(frozen=True)
class NoWitness:
    pass


@dataclass(frozen=True)
class Inapplicable:
    pass


def pervasive_witness_check(space: OrderedSpace, b: Vec):
    """Look for 0 < x <= (b joined with 0) in the cover, per the pervasive test.

    Inapplicable when the join is 0 (b <= 0); NoWitness certifies that this b
    falsifies pervasiveness.
    """
    p = tuple(max(e, ZERO) for e in embed(space, b))
    if all(e == 0 for e in p):
        return Inapplicable()
    res = _order_interval_probe(space, p)
    if res.value > 0:
        return Witness(res.point)
    return NoWitness()


# --- atomic scaling coefficient and decomposition ----------------------------


def atom_lambda(space: OrderedSpace, x: Vec, a: Vec, cross_check: bool = True) -> Fraction:
    """The greatest lambda with lambda*a <= x, for an atom a and x >= 0.

    Closed form: the minimum of f_j(x)/f_j(a) over rows with f_j(a) > 0.
    Optionally cross-checked against the one-variable LP max{mu : F(x - mu a) >= 0}.
    Zero exactly when x and a are disjoint.
    """
    if not _is_simplicial(space):
        raise NotPervasive("the atomic scaling coefficient needs a pervasive space")
    if not is_atom(space, a):
        raise NotAtom("a must generate an extreme ray")
    if not in_cone(space, x):
        raise NotPositive("x must be in the cone")
    ratios = [dot(f, x) / dot(f, a) for f in space.F if dot(f, a) > 0]
    lam = min(ratios)
    if cross_check:
        ia = embed(space, a)
        ix = embed(space, x)
        rows = mat([[-e] for e in ia])
        rhs = vec([-e for e in ix])
        res = lp(vec([1]), Polyhedron(rows, rhs, 1))
        assert isinstance(res, Optimal) and res.value == lam
    return lam


@dataclass(frozen=True)
class AtomDecomposition:
    lam: Fraction
    atom_part: Vec
    disjoint_part: Vec


@dataclass(frozen=True)
class NoDecomposition:
    reason: str


def decompose_by_atom(space: OrderedSpace, x: Vec, a: Vec):
    """Split x = lambda*a + w with w disjoint from the atom a, when possible.

    Requires the principal band of a and its complement to decompose the
    space; the split itself solves x against [a | basis of the complement].
    """
    if not is_atom(space, a):
        raise NotAtom("a must generate an extreme ray")
    Ba = band_of(space, a)
    Bd = disjoint_complement(space, Ba)
    n = space.dim
    if Ba.carrier.dim + Bd.carrier.dim != n:
        return NoDecomposition(
            f"principal band and complement have dimensions "
            f"{Ba.carrier.dim} + {Bd.carrier.dim} != {n}"
        )
    cols = (a,) + Bd.carrier.basis
    coeffs = solve_linear(transpose(cols), x)
    if coeffs is None:
        return NoDecomposition("x is not a combination of the atom and its disjoint complement")
    lam = coeffs[0]
    atom_part = vscale(lam, a)
    w = vsub(x, atom_part)
    assert is_disjoint(space, atom_part, w)
    return AtomDecomposition(lam, atom_part, w)


# --- projection bands and order projections ----------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    band: Band
    is_projection_band: bool
    matrix: Mat | None


def is_projection_band(space: OrderedSpace, B: Band) -> ProjectionReport:
    """Whether X = B + B^d directly; if so, build and verify the band projection.

    Distinct bands always meet their complement in 0, so the direct-sum test
    is a dimension count.  The projection is checked idempotent and positive
    together with its complement (positivity on the generators suffices for a
    polyhedral cone).
    """
    if not is_band(space, B):
        raise NotABand("is_projection_band needs a band")
    carrier = B.carrier if isinstance(B, Band) else B
    comp = disjoint_complement(space, carrier)
    n = space.dim
    if carrier.dim + comp.carrier.dim != n:
        return ProjectionReport(B, False, None)
    cols = carrier.basis + comp.carrier.basis
    Minv = invert(transpose(cols))
    assert Minv is not None  # trivial intersection + full dimension count
    k = carrier.dim
    # P = (columns of the B-basis) . (first k rows of M^{-1})
    P = tuple(
        tuple(
            sum((carrier.basis[t][r] * Minv[t][c] for t in range(k)), start=ZERO)
            for c in range(n)
        )
        for r in range(n)
    )
    P2 = tuple(
        tuple(sum((P[r][t] * P[t][c] for t in range(n)), start=ZERO) for c in range(n))
        for r in range(n)
    )
    assert P2 == P  # idempotent
    for g in space.generators:
        assert in_cone(space, mat_vec(P, g))
        assert in_cone(space, vsub(g, mat_vec(P, g)))
    return ProjectionReport(B, True, P)


def enumerate_order_projections(space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP):
    """One report per projection band; the trivial pair {0, X} always appears."""
    reports = []
    for band in enumerate_bands(space, cap=cap):
        rep = is_projection_band(space, band)
        if rep.is_projection_band:
            reports.append(rep)
    return tuple(reports)


# --- Riesz decomposition probes ----------------------------------------------


@dataclass(frozen=True)
class Split:
    z1: Vec
    z2: Vec


@dataclass(frozen=True)
class NoSplit:
    pass


def rdp_split(space: OrderedSpace, x1: Vec, x2: Vec, z: Vec):
    """Find z = z1 + z2 with 0 <= z1 <= x1, 0 <= z2 <= x2, or certify none exists."""
    if not (in_cone(space, x1) and in_cone(space, x2) and in_cone(space, z)):
        raise PreconditionViolated("x1, x2, z must lie in the cone")
    if not leq(space, z, vadd(x1, x2)):
        raise PreconditionViolated("need z <= x1 + x2")
    rows, rhs = [], []
    for f, c1, cz, c2 in zip(space.F, embed(space, x1), embed(space, z), embed(space, x2)):
        neg = tuple(-e for e in f)
        rows.append(f)
        rhs.append(ZERO)  # f(z1) >= 0
        rows.append(neg)
        rhs.append(-c1)  # f(z1) <= f(x1)
        rows.append(neg)
        rhs.append(-cz)  # f(z - z1) >= 0
        rows.append(f)
        rhs.append(cz - c2)  # f(z - z1) <= f(x2)
    res = lp(zero_vec(space.dim), Polyhedron(mat(rows), vec(rhs), space.dim))
    if isinstance(res, Infeasible):
        return NoSplit()
    assert isinstance(res, Optimal)
    z1 = res.point
    return Split(z1, vsub(z, z1))


# --- ideal decompositions (direct sums against the calculus) ------------------


@dataclass(frozen=True)
class DecompositionConfirmed:
    tier: str
    complement_matches: bool
    projection: ProjectionReport


@dataclass(frozen=True)
class HypothesesNotMet:
    reason: str


def _is_coordinate_ideal(space: OrderedSpace, D: Subspace) -> bool:
    """Whether D is spanned by the atoms it contains."""
    inside = tuple(g for g in space.generators if D.contains(g))
    return canonical_subspace_basis(inside, space.dim) == D.basis


def _solidity_witness(space: OrderedSpace, D: Subspace):
    """Sampled falsification of solidity: x dominated by some d in D, x outside D."""
    samples = list(D.basis)
    for i in range(len(D.basis)):
        for j in range(i + 1, len(D.basis)):
            samples.append(vadd(D.basis[i], D.basis[j]))
    candidates = list(space.generators) + [
        vadd(a, b) for i, a in enumerate(space.generators) for b in space.generators[i + 1 :]
    ]
    for d in samples:
        for x in candidates:
            if not D.contains(x) and modulus_dominates(space, x, d):
                return x, d
    return None


def check_ideal_decomposition(space: OrderedSpace, B: Subspace, D: Subspace):
    """Validate a claimed direct decomposition X = B + D against the band laws.

    Raises when the sum is not direct.  With the hypotheses of one of the two
    decomposition guarantees satisfied (pervasive with coordinate ideals, or a
    weakly pervasive space with directed sampled-solid ideals), asserts that
    D is the disjoint complement of B and that B projects; otherwise reports
    which hypothesis failed.
    """
    n = space.dim
    if B.dim + D.dim != n or rank(B.basis + D.basis) != n:
        raise NotDirectSum(f"dim {B.dim} + {D.dim} with combined rank {rank(B.basis + D.basis)}")
    cls = classify(space)

    def directed_ideal(S: Subspace, label: str):
        if not is_directed_subspace(space, S):
            return f"{label} is not directed"
        w = _solidity_witness(space, S)
        if w is not None:
            return f"{label} is not solid (modulus of {w[0]} is dominated by {w[1]})"
        return None

    if cls.is_pervasive and _is_coordinate_ideal(space, B) and _is_coordinate_ideal(space, D):
        tier = "pervasive-coordinate-ideals"
    elif not isinstance(cls.weakly_pervasive, Holds):
        return HypothesesNotMet("space is not weakly pervasive")
    else:
        bad = directed_ideal(B, "B") or directed_ideal(D, "D")
        if bad:
            return HypothesesNotMet(bad)
        tier = "weakly-pervasive-directed-ideals"

    comp = disjoint_complement(space, B)
    matches = comp.carrier.basis == D.basis
    assert matches, "decomposition guarantee violated: D != B^d under satisfied hypotheses"
    target = Band(B, vanish_set(space, B), is_directed_subspace(space, B))
    report = is_projection_band(space, target)
    assert report.is_projection_band
    return DecompositionConfirmed(tier, matches, report)
