"""Exact order-structure computations on polyhedral ordered vector spaces.

The package decides order, disjointness, band, atom, and decomposition
questions for cones given by generators or facet functionals, entirely in
rational arithmetic, and ships a small symbolic sequence space whose
eventually-zero subspace fails to be directed.  Every predicate is paired
with certificates or independent cross-checks; `run_selftest` (or the
`ordercone selftest` verb) replays the full verification suite.
"""

import importlib

from .atoms import (
    AtomDecomposition,
    Classification,
    DecompositionConfirmed,
    Holds,
    HypothesesNotMet,
    Inapplicable,
    NoDecomposition,
    NoSplit,
    NoWitness,
    ProjectionReport,
    Split,
    Violated,
    Witness,
    atom_lambda,
    atoms,
    check_ideal_decomposition,
    classify,
    decompose_by_atom,
    enumerate_order_projections,
    is_atom,
    is_discrete,
    is_projection_band,
    pervasive_witness_check,
    rdp_split,
)
from .bands import (
    Band,
    Subspace,
    band_of,
    disjoint_complement,
    disjoint_eq1_oracle,
    enumerate_bands,
    extend_band,
    is_band,
    is_directed_subspace,
    is_disjoint,
    principal_ideal_member,
    restrict_band,
    restriction_is_projection_band,
    subspace,
    vanish_set,
)
from .cones import (
    OrderedSpace,
    build_space,
    embed,
    in_cone,
    leq,
    sup_in_X,
    upper_bound_polyhedron,
)
from .cover import (
    cover_modulus,
    is_majorizing,
    modulus_dominates,
)
from .errors import (
    CapExceeded,
    CertificateError,
    NotABand,
    NotAtom,
    NotDirectSum,
    NotGenerating,
    NotInC,
    NotMember,
    NotPervasive,
    NotPointed,
    NotPositive,
    OrderConeError,
    ParseError,
    PreconditionViolated,
    UnknownBuiltin,
)
from .fixtures import builtin_space, four_ray, simplex
from .linalg import as_fraction, mat, nullspace, solve_linear, vec
from .lp import Infeasible, Optimal, Polyhedron, Unbounded, feasible_point, lp

__all__ = [
    # spaces and order
    "OrderedSpace",
    "build_space",
    "leq",
    "in_cone",
    "embed",
    "upper_bound_polyhedron",
    "sup_in_X",
    # cover diagnostics
    "cover_modulus",
    "modulus_dominates",
    "is_majorizing",
    # bands
    "Band",
    "Subspace",
    "subspace",
    "vanish_set",
    "is_disjoint",
    "disjoint_eq1_oracle",
    "disjoint_complement",
    "band_of",
    "is_band",
    "enumerate_bands",
    "principal_ideal_member",
    "is_directed_subspace",
    "extend_band",
    "restrict_band",
    "restriction_is_projection_band",
    # atoms and decompositions
    "atoms",
    "is_atom",
    "is_discrete",
    "classify",
    "Classification",
    "Holds",
    "Violated",
    "pervasive_witness_check",
    "Witness",
    "NoWitness",
    "Inapplicable",
    "atom_lambda",
    "decompose_by_atom",
    "AtomDecomposition",
    "NoDecomposition",
    "is_projection_band",
    "ProjectionReport",
    "enumerate_order_projections",
    "rdp_split",
    "Split",
    "NoSplit",
    "check_ideal_decomposition",
    "DecompositionConfirmed",
    "HypothesesNotMet",
    # exact solvers
    "solve_linear",
    "nullspace",
    "as_fraction",
    "mat",
    "vec",
    "lp",
    "Polyhedron",
    "Optimal",
    "Unbounded",
    "Infeasible",
    "feasible_point",
    # sequence space
    "SeqElement",
    "seq",
    "seq_is_member",
    "seq_in_subspace",
    "seq_decompose_BC",
    "seq_is_disjoint",
    "seq_join_in_C",
    "seq_B_upper_bound",
    "seq_nonpervasive_witness",
    "seq_B_complement_witness",
    "seq_to_json",
    "Some",
    "ProvedNone",
    "NonDirected",
    "NonPervasive",
    "NonDisjoint",
    "b_element",
    "c_element",
    # fixtures
    "four_ray",
    "simplex",
    "builtin_space",
    # front end
    "Command",
    "Report",
    "parse_space_source",
    "execute",
    "main",
    "run_selftest",
    # errors
    "OrderConeError",
    "ParseError",
    "UnknownBuiltin",
    "NotPointed",
    "NotGenerating",
    "NotPositive",
    "NotPervasive",
    "NotAtom",
    "NotDirectSum",
    "PreconditionViolated",
    "NotABand",
    "CapExceeded",
    "CertificateError",
    "NotMember",
    "NotInC",
]

# The front end, the self-test and the sequence space load on first use of
# one of their names, so that `import ordercone` stays light.
_LAZY = {
    "cli": ("Command", "Report", "parse_space_source", "execute", "main"),
    "selftest": ("run_selftest",),
    "seqspace": (
        "SeqElement",
        "seq",
        "seq_is_member",
        "seq_in_subspace",
        "seq_decompose_BC",
        "seq_is_disjoint",
        "seq_join_in_C",
        "seq_B_upper_bound",
        "seq_nonpervasive_witness",
        "seq_B_complement_witness",
        "seq_to_json",
        "Some",
        "ProvedNone",
        "NonDirected",
        "NonPervasive",
        "NonDisjoint",
        "b_element",
        "c_element",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
