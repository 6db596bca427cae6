"""Checks of the program's answers against the benchmark's own computations.

No check consults `ordercone`.  Each one compares an answer with a value
computed here from the generated data (facets, generators, block structure),
or with a property that any correct answer must have.  A check returns None
or raises CheckFailed naming what went wrong.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """An answer of the program contradicts the benchmark's own computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- exact helpers -------------------------------------------------------------


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v, strict=True)), Fraction(0))


def image(facets, x) -> tuple[Fraction, ...]:
    return tuple(dot(f, x) for f in facets)


def in_cone(facets, x) -> bool:
    return all(e >= 0 for e in image(facets, x))


def leq(facets, x, y) -> bool:
    return in_cone(facets, tuple(b - a for a, b in zip(x, y, strict=True)))


def support(facets, x) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(image(facets, x)) if e != 0)


def parallel(u, v) -> bool:
    """u and v are nonzero multiples of each other (all 2x2 minors vanish)."""
    return any(u) and any(v) and all(
        Fraction(u[i]) * v[j] == Fraction(u[j]) * v[i] for i in range(len(u)) for j in range(i + 1, len(u))
    )


def matmul(A, B):
    return tuple(
        tuple(sum((Fraction(A[r][t]) * B[t][c] for t in range(len(B))), Fraction(0)) for c in range(len(B[0])))
        for r in range(len(A))
    )


def matvec(A, x):
    return tuple(dot(row, x) for row in A)


def identity(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def as_int_rows(rows) -> frozenset[tuple[int, ...]]:
    """Rows as a set of integer tuples; the program's rows are primitive Fractions."""
    out = set()
    for row in rows:
        require(all(Fraction(e).denominator == 1 for e in row), f"row {row} is not integral")
        out.add(tuple(int(e) for e in row))
    return frozenset(out)


# --- bands ---------------------------------------------------------------------


def expected_band_counts(cone) -> tuple[int, int]:
    """(bands, projection bands) from the cone's make-up alone.

    A direct sum of a four-ray blocks and b lines has 8^a * 2^b bands and
    2^a * 2^b projection bands (product rule on the paper's four-ray space,
    whose 8 bands include only 0 and X as projection bands).  A polygon cone
    with m >= 5 facets, every three of them independent, has just 0 and X.
    """
    if cone.blocks[0].startswith("polygon:"):
        m = len(cone.facets)
        require(m >= 5, "the polygon rule needs m >= 5")
        return 2, 2
    bands = projections = 1
    for block in cone.blocks:
        if block == "four-ray":
            bands, projections = bands * 8, projections * 2
        else:
            n = int(block.split(":")[1])
            bands, projections = bands * 2**n, projections * 2**n
    return bands, projections


def check_count(what: str, got: int, expected: int) -> None:
    require(got == expected, f"{what}: got {got}, expected {expected}")


def check_projection(P, generators, facets) -> None:
    """P is a band projection: P^2 = P, and P g and g - P g lie in the cone."""
    require(matmul(P, P) == tuple(tuple(Fraction(e) for e in row) for row in P), "P^2 != P")
    for g in generators:
        Pg = matvec(P, g)
        require(in_cone(facets, Pg), f"P g outside the cone for g = {g}")
        require(in_cone(facets, tuple(a - b for a, b in zip(g, Pg))), f"g - P g outside the cone for g = {g}")


def check_complementary_pairs(matrices, n: int) -> None:
    """Every projection has its complement I - P among the projections."""
    eye = identity(n)
    have = {tuple(tuple(Fraction(e) for e in row) for row in P) for P in matrices}
    for P in have:
        comp = tuple(tuple(i - p for i, p in zip(ri, rp)) for ri, rp in zip(eye, P))
        require(comp in have, "a projection band's complement does not project")


def check_atom_band(cone, atom, carrier_basis, projects: bool) -> None:
    """The principal band of an atom, against the cone's make-up.

    In a direct sum the band is the atom's ray, and it projects exactly when
    the atom comes from a simplicial block.  In a polygon cone (m >= 5) no
    nonzero element is disjoint from an atom, so its band is all of X.
    """
    if cone.blocks[0].startswith("polygon:"):
        require(len(carrier_basis) == cone.dim and projects, f"band of {atom} should be X")
        return
    require(len(carrier_basis) == 1, f"band of {atom} has dimension {len(carrier_basis)}, expected 1")
    require(parallel(carrier_basis[0], atom), f"band of {atom} is not its ray")
    expected = tuple(atom) in cone.simplicial_atoms
    require(projects == expected, f"band of {atom}: projects={projects}, expected {expected}")


# --- order queries -------------------------------------------------------------


def check_split(facets, x1, x2, z, z1, z2) -> None:
    """z1 + z2 = z with 0 <= z1 <= x1 and 0 <= z2 <= x2."""
    require(tuple(a + b for a, b in zip(z1, z2)) == tuple(z), "z1 + z2 != z")
    require(in_cone(facets, z1) and leq(facets, z1, x1), "z1 outside [0, x1]")
    require(in_cone(facets, z2) and leq(facets, z2, x2), "z2 outside [0, x2]")


def own_disjoint(facets, x, y) -> bool:
    """Disjoint iff the images in the coordinatewise cover have disjoint supports."""
    return not (support(facets, x) & support(facets, y))


def check_disjoint(verdicts: dict) -> None:
    require(len(set(verdicts.values())) == 1, f"disjointness verdicts disagree: {verdicts}")


def simplicial_sup(generators, facets, xs):
    """F^-1 max(F x) on a simplicial cone, with facet i dual to generator i."""
    s = [Fraction(0)] * len(generators[0])
    for f, g in zip(facets, generators):
        w = max(dot(f, x) for x in xs)
        c = w / dot(f, g)
        for i, e in enumerate(g):
            s[i] += c * e
    return tuple(s)


def check_upper_bound(facets, s, xs) -> None:
    for x in xs:
        require(leq(facets, x, s), "the supremum does not bound its inputs")


def check_equal(what: str, got, expected) -> None:
    require(tuple(got) == tuple(expected), f"{what}: got {got}, expected {expected}")


def check_atom_lambda(facets, x, a, lam) -> None:
    """lam a <= x, with some facet tight where f(a) > 0, so no larger lam fits."""
    rest = tuple(xi - lam * ai for xi, ai in zip(x, a))
    require(in_cone(facets, rest), "lambda a is not below x")
    require(any(dot(f, a) > 0 and dot(f, rest) == 0 for f in facets), "no facet is tight: lambda is not maximal")


def check_decomposition(facets, x, a, lam, dec_lam, atom_part, disjoint_part) -> None:
    """x = lam a + w with w disjoint from a, and the same lam as atom_lambda."""
    require(dec_lam == lam, f"decompose_by_atom lambda {dec_lam} != atom_lambda {lam}")
    require(tuple(a_ + d for a_, d in zip(atom_part, disjoint_part)) == tuple(x), "the parts do not add up to x")
    require(tuple(atom_part) == tuple(dec_lam * ai for ai in a), "the atom part is not lambda a")
    require(own_disjoint(facets, atom_part, disjoint_part), "the parts are not disjoint")


def check_modulus(facets, x, y, got: bool, simplicial: bool) -> None:
    """|F x| <= |F y| pointwise implies |x| <= |y|; in a lattice the converse holds too."""
    pointwise = all(abs(a) <= abs(b) for a, b in zip(image(facets, x), image(facets, y)))
    if simplicial:
        require(got == pointwise, f"modulus_dominates={got}, expected {pointwise}")
    elif pointwise:
        require(got, "modulus_dominates=False although |F x| <= |F y| pointwise")


def check_ideal_member(facets, x, a, got: bool, simplicial: bool) -> None:
    """supp F x within supp F a implies membership; in a lattice the converse holds too."""
    inside = support(facets, x) <= support(facets, a)
    if simplicial:
        require(got == inside, f"principal_ideal_member={got}, expected {inside}")
    elif inside:
        require(got, "principal_ideal_member=False although supp F x lies in supp F a")


def check_witness(facets, b, kind: str, x, simplicial: bool) -> None:
    """A witness x has 0 < F x <= max(F b, 0); none is needed iff F b <= 0."""
    cap = tuple(max(e, Fraction(0)) for e in image(facets, b))
    if not any(cap):
        require(kind == "Inapplicable", f"expected Inapplicable, got {kind}")
        return
    if kind == "Witness":
        fx = image(facets, x)
        require(any(fx) and all(0 <= e <= c for e, c in zip(fx, cap)), "the witness is not in (0, b+]")
        return
    require(kind == "NoWitness" and not simplicial, f"{kind} on a {'lattice' if simplicial else 'space'} with b+ > 0")


# --- structure -----------------------------------------------------------------


def check_structure(cone, got_facets, got_atoms, is_lattice: bool) -> None:
    """Facets and atoms equal the generated ones; lattice iff #atoms = dim.

    For a polygon cone each facet must vanish on exactly two generators.
    """
    require(as_int_rows(got_facets) == frozenset(cone.facets), "facets differ from the generated ones")
    require(as_int_rows(got_atoms) == frozenset(cone.generators), "atoms differ from the generated rays")
    require(is_lattice == (len(cone.generators) == cone.dim), f"is_lattice={is_lattice} with {len(cone.generators)} atoms in dim {cone.dim}")
    if cone.blocks[0].startswith("polygon:"):
        for f in got_facets:
            zeros = sum(1 for g in cone.generators if dot(f, g) == 0)
            require(zeros == 2, f"facet {f} vanishes on {zeros} generators, expected 2")


def check_discrete_atom(a, discrete: bool, atom: bool) -> None:
    require(atom, f"{a} is not recognised as an atom")
    require(discrete, f"atom {a} is not discrete")


def check_discrete_pair(cone, a, b, discrete: bool, atom: bool) -> None:
    """a + b for distinct atoms is no atom.  When a and b are disjoint (a lattice,
    or different blocks of a direct sum) a + b has two disjoint parts below it,
    so it is not discrete either."""
    require(not atom, f"{a} + {b} is reported as an atom")
    if own_disjoint(cone.facets, a, b):
        require(not discrete, f"{a} + {b} is a sum of disjoint atoms but reported discrete")
