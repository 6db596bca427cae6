"""Command-line front end: parse space specs, dispatch queries, emit reports.

Every value is exact: vectors on the command line are JSON arrays whose
entries are integers or rational strings like "3/4"; decimal floats are
rejected.  Each argument is declared once, on the parser, with the converter
that parses it; the space is built the same way, so each verb's handler
takes converted values by name.  Machine output (--json) is deterministic,
a single JSON object per invocation with all rationals rendered as strings;
timing of the query appears only in text mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .atoms import (
    AtomDecomposition,
    DecompositionConfirmed,
    Holds,
    NoWitness,
    Split,
    Witness,
    atom_lambda,
    atoms,
    check_ideal_decomposition,
    classify,
    decompose_by_atom,
    enumerate_order_projections,
    is_atom,
    is_discrete,
    pervasive_witness_check,
    rdp_split,
)
from .bands import (
    DEFAULT_ENUMERATION_CAP,
    Band,
    _kernel_is_directed,
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
from .cones import OrderedSpace, build_space, leq, sup_in_X, upper_bound_polyhedron
from .cover import cover_modulus, is_majorizing, modulus_dominates
from .errors import OrderConeError, ParseError
from .fixtures import builtin_space
from .linalg import Vec, as_fraction, vec
from .selftest import run_selftest
from .seqspace import (
    NonPervasive,
    Some,
    b_element,
    c_element,
    seq_add,
    seq_B_complement_witness,
    seq_decompose_BC,
    seq_in_subspace,
    seq_is_disjoint,
    seq_is_member,
    seq_join_in_C,
    seq_nonpervasive_witness,
    seq_to_json,
)


@dataclass(frozen=True)
class Command:
    verb: str
    args: dict  # the handler's keyword arguments, already converted
    output_mode: str  # "text" | "json"


@dataclass(frozen=True)
class Report:
    verb: str
    inputs: dict
    result: dict
    certificates: dict
    timing_ms: float


# --- exact parsing helpers -----------------------------------------------------


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_fraction(value)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"not an exact rational: {value!r} (floats are rejected)")


def _json_literal(text: str, kind: str):
    """json.loads, raising ParseError for every way a literal can fail.

    Besides malformed JSON, json.loads raises a plain ValueError for an
    integer of more than sys.get_int_max_str_digits() digits and
    RecursionError for arrays nested about a thousand deep.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {kind} literal {text!r}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad {kind} literal: {exc}") from None


def parse_vector(text: str) -> Vec:
    data = _json_literal(text, "vector")
    if not isinstance(data, list) or not data:
        raise ParseError(f"a vector is a nonempty JSON array, got {text!r}")
    return vec([_parse_rational(e) for e in data])


def parse_matrix(text: str) -> tuple[Vec, ...]:
    data = _json_literal(text, "vector-list")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"expected a JSON array of vectors, got {text!r}")
    return tuple(vec([_parse_rational(e) for e in row]) for row in data)


def parse_index_set(text: str) -> frozenset[int]:
    data = _json_literal(text, "index-set")
    if not isinstance(data, list):
        raise ParseError(f"an index set is a JSON array of integers, got {text!r}")
    out = set()
    for e in data:
        if isinstance(e, bool) or not isinstance(e, int):
            raise ParseError(f"index {e!r} is not an integer")
        out.add(e)
    return frozenset(out)


def _load_space_file(path: str) -> OrderedSpace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read space file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"cannot parse space file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("a space file holds a JSON object")
    extra = set(data) - {"dim", "generators", "facets", "name"}
    if extra:
        raise ParseError(f"unknown space fields {sorted(extra)}")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError("space field 'dim' must be an integer")
    name = data.get("name", os.path.basename(path))
    if not isinstance(name, str):
        raise ParseError("space field 'name' must be a string")

    def rows(field):
        raw = data.get(field)
        if raw is None:
            return None
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise ParseError(f"space field {field!r} must be an array of vectors")
        return tuple(vec([_parse_rational(e) for e in row]) for row in raw)

    return build_space(dim, generators=rows("generators"), facets=rows("facets"), name=name)


def parse_space_source(source: str) -> OrderedSpace:
    """Load a space from a builtin name or from a JSON file path."""
    if source == "four-ray" or source.startswith("simplex:"):
        return builtin_space(source)
    return _load_space_file(source)


def _band_cap() -> int:
    raw = os.environ.get("ORDERCONE_BAND_CAP")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"ORDERCONE_BAND_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ParseError("ORDERCONE_BAND_CAP must be nonnegative")
    return cap


# --- JSON payload builders -------------------------------------------------------


def _rat(x) -> str:
    return str(Fraction(x))


def _vec_json(v: Vec) -> list[str]:
    return [_rat(e) for e in v]


def _mat_json(rows) -> list[list[str]]:
    return [_vec_json(r) for r in rows]


def _band_json(band: Band) -> dict:
    return {
        "zeroSet": sorted(band.zero_set),
        "basis": _mat_json(band.carrier.basis),
        "directed": band.directed,
    }


def _classification_json(cls) -> dict:
    if isinstance(cls.weakly_pervasive, Holds):
        wp: dict = {"holds": True}
    else:
        wp = {"violated": [_vec_json(cls.weakly_pervasive.b), _vec_json(cls.weakly_pervasive.d)]}
    return {
        "lattice": cls.is_lattice,
        "pervasive": cls.is_pervasive,
        "fordable": cls.is_fordable,
        "weaklyPervasive": wp,
        "rdp": cls.has_rdp,
        "atoms": cls.atom_count,
    }


def _space_inputs(space: OrderedSpace) -> dict:
    return {"space": space.name, "dim": space.dim, "facetCount": space.m}


# --- verb handlers ---------------------------------------------------------------


def _cmd_classify(space, witness_probe):
    result = _classification_json(classify(space))
    certificates = {}
    if witness_probe is not None:
        res = pervasive_witness_check(space, witness_probe)
        if isinstance(res, Witness):
            certificates["witnessProbe"] = {"witness": _vec_json(res.x)}
        elif isinstance(res, NoWitness):
            certificates["witnessProbe"] = {"noWitness": True}
        else:
            certificates["witnessProbe"] = {"inapplicable": True}
    return _space_inputs(space), result, certificates


def _cmd_atoms(space, probe):
    result = {"atoms": _mat_json(atoms(space))}
    if probe is not None:
        result["probe"] = {
            "vector": _vec_json(probe),
            "isAtom": is_atom(space, probe),
            "isDiscrete": is_discrete(space, probe),
        }
    return _space_inputs(space), result, {}


def _cmd_disjoint(space, x, y):
    d = is_disjoint(space, x, y)
    oracle = disjoint_eq1_oracle(space, x, y)
    result = {
        "disjoint": d,
        "modulusX": _vec_json(cover_modulus(space, x)),
        "modulusY": _vec_json(cover_modulus(space, y)),
        "modulusXBelowY": modulus_dominates(space, x, y),
        "modulusYBelowX": modulus_dominates(space, y, x),
    }
    inputs = dict(_space_inputs(space), x=_vec_json(x), y=_vec_json(y))
    return inputs, result, {"upperBoundSetTestAgrees": oracle == d}


def _cmd_dcomp(space, vectors, check):
    band = disjoint_complement(space, vectors)
    result = {"band": _band_json(band)}
    if check is not None:
        B = subspace(space.dim, vectors)
        D = subspace(space.dim, check)
        verdict = check_ideal_decomposition(space, B, D)
        if isinstance(verdict, DecompositionConfirmed):
            result["idealCheck"] = {
                "confirmed": {
                    "tier": verdict.tier,
                    "complementMatches": verdict.complement_matches,
                }
            }
        else:
            result["idealCheck"] = {"hypothesesNotMet": verdict.reason}
    inputs = dict(_space_inputs(space), vectors=_mat_json(vectors))
    return inputs, result, {}


def _cmd_band(space, vector, span, member):
    if (vector is None) == (span is None):
        raise ParseError("band needs either a vector or --span, not both")
    if span is not None:
        if member is not None:
            raise ParseError("--member only applies to a principal band")
        D = subspace(space.dim, span)
        result = {
            "basis": _mat_json(D.basis),
            "dim": D.dim,
            "isBand": is_band(space, D),
            "directed": is_directed_subspace(space, D),
            "vanishSet": sorted(vanish_set(space, D)),
        }
        inputs = dict(_space_inputs(space), span=_mat_json(span))
        return inputs, result, {}
    band = band_of(space, vector)
    result = {"band": _band_json(band)}
    if member is not None:
        result["memberOfPrincipalIdeal"] = principal_ideal_member(space, member, vector)
    inputs = dict(_space_inputs(space), vector=_vec_json(vector))
    return inputs, result, {}


def _cmd_bands(space):
    found = enumerate_bands(space, cap=_band_cap())
    result = {"count": len(found), "bands": [_band_json(b) for b in found]}
    return _space_inputs(space), result, {}


def _cmd_projections(space):
    reps = enumerate_order_projections(space, cap=_band_cap())
    result = {
        "count": len(reps),
        "projections": [
            {"band": _band_json(r.band), "matrix": _mat_json(r.matrix)} for r in reps
        ],
    }
    return _space_inputs(space), result, {}


def _cmd_lambda(space, x, atom):
    lam = atom_lambda(space, x, atom)
    inputs = dict(_space_inputs(space), x=_vec_json(x), atom=_vec_json(atom))
    return inputs, {"lambda": _rat(lam)}, {}


def _cmd_decompose(space, x, atom):
    res = decompose_by_atom(space, x, atom)
    if isinstance(res, AtomDecomposition):
        result = {
            "lambda": _rat(res.lam),
            "atomPart": _vec_json(res.atom_part),
            "disjointPart": _vec_json(res.disjoint_part),
        }
    else:
        result = {"noDecomposition": res.reason}
    inputs = dict(_space_inputs(space), x=_vec_json(x), atom=_vec_json(atom))
    return inputs, result, {}


def _cmd_rdp(space, x1, x2, z):
    res = rdp_split(space, x1, x2, z)
    if isinstance(res, Split):
        result = {"split": {"z1": _vec_json(res.z1), "z2": _vec_json(res.z2)}}
    else:
        result = {"noSplit": True}
    inputs = dict(_space_inputs(space), x1=_vec_json(x1), x2=_vec_json(x2), z=_vec_json(z))
    return inputs, result, {}


def _cmd_sup(space, vectors):
    s = sup_in_X(space, vectors)
    w = upper_bound_polyhedron(space, vectors).b
    result = {
        "sup": _vec_json(s) if s is not None else None,
        "maxImage": _vec_json(w),
        # The space is order dense in its cover, so w is already tight.
        "tightenedImage": _vec_json(w),
        "imageOrderDense": True,
    }
    certificates = {}
    if s is not None:
        certificates["boundsEveryInput"] = all(leq(space, v, s) for v in vectors)
    inputs = dict(_space_inputs(space), vectors=_mat_json(vectors))
    return inputs, result, certificates


def _cmd_extend(space, vectors):
    J = extend_band(space, vectors)
    D = subspace(space.dim, vectors)
    result = {
        "support": sorted(J),
        "majorizesSupport": is_majorizing(space, D.basis, J),
    }
    inputs = dict(_space_inputs(space), vectors=_mat_json(vectors))
    return inputs, result, {}


def _cmd_restrict(space, indices):
    D = restrict_band(space, indices)
    result = {
        "basis": _mat_json(D.basis),
        "dim": D.dim,
        "isBand": is_band(space, D),
        "directed": _kernel_is_directed(space, frozenset(range(1, space.m + 1)) - indices, D.dim),
        "isProjectionBand": restriction_is_projection_band(space, indices),
    }
    inputs = dict(_space_inputs(space), support=sorted(indices))
    return inputs, result, {}


def _cmd_seq_demo():
    x1, x2 = c_element(1), c_element(2)
    join = seq_join_in_C(x1, x2)
    if isinstance(join, Some):
        join_json = {"some": seq_to_json(join.value)}
    else:
        join_json = {"provedNone": {"infimumOfCandidates": _rat(join.witness.infimum)}}

    member = seq_add(b_element(), c_element(2))
    b, c = seq_decompose_BC(member)
    result = {
        "probes": {"first": seq_to_json(x1), "second": seq_to_json(x2)},
        "joinInEventuallyZero": join_json,
        "sampleDecomposition": {
            "member": seq_to_json(member),
            "isMember": seq_is_member(member),
            "shallowPart": seq_to_json(b),
            "deepPart": seq_to_json(c),
            "shallowInB": seq_in_subspace(b, "B"),
            "deepInC": seq_in_subspace(c, "C"),
        },
        "disjointness": {
            "firstProbeVsShallowGenerator": seq_is_disjoint(x1, b_element()),
            "secondProbeVsShallowGenerator": seq_is_disjoint(x2, b_element()),
        },
        "witnesses": {
            "noPositiveElementUnderUnitBox": isinstance(
                seq_nonpervasive_witness(), NonPervasive
            ),
            "complementGapIndex": seq_B_complement_witness().index,
        },
    }
    return {}, result, {}


def _cmd_selftest(filter_substring, debug_corrupt_facet):
    report = run_selftest(filter_substring=filter_substring, corrupt=debug_corrupt_facet)
    result = {
        "checks": [
            {"suite": c.suite, "name": c.name, "ok": c.ok} for c in report.checks
        ],
        "passed": report.passed,
        "failed": report.failed,
    }
    certificates = {
        "failures": [
            {"suite": c.suite, "name": c.name, "detail": c.detail}
            for c in report.checks
            if not c.ok
        ],
        "suiteSeconds": {name: secs for name, secs in report.suite_times},
    }
    return {}, result, certificates


_HANDLERS = {
    "classify": _cmd_classify,
    "atoms": _cmd_atoms,
    "disjoint": _cmd_disjoint,
    "dcomp": _cmd_dcomp,
    "band": _cmd_band,
    "bands": _cmd_bands,
    "projections": _cmd_projections,
    "lambda": _cmd_lambda,
    "decompose": _cmd_decompose,
    "rdp": _cmd_rdp,
    "sup": _cmd_sup,
    "extend": _cmd_extend,
    "restrict": _cmd_restrict,
    "seq-demo": _cmd_seq_demo,
    "selftest": _cmd_selftest,
}


def _check_lengths(args: dict) -> None:
    """Refuse a vector argument whose length is not the space's dimension."""
    space = args.get("space")
    for name, value in args.items():
        if space is None or not isinstance(value, (list, tuple)):
            continue  # not a vector, or no space to measure it against
        # A vector is a tuple of Fractions; --span, --check and nargs="+" give several.
        for v in value if isinstance(value[0], tuple) else (value,):
            if len(v) != space.dim:
                raise ParseError(f"{name}: vector of length {len(v)} in a space of dimension {space.dim}")


def execute(cmd: Command) -> Report:
    """Dispatch a parsed command to its module operation and time it."""
    if cmd.verb not in _HANDLERS:
        raise ParseError(f"unknown verb {cmd.verb!r}")
    _check_lengths(cmd.args)
    start = time.perf_counter()
    inputs, result, certificates = _HANDLERS[cmd.verb](**cmd.args)
    elapsed = (time.perf_counter() - start) * 1000.0
    return Report(cmd.verb, inputs, result, certificates, elapsed)


# --- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordercone",
        description="Exact order-structure queries on polyhedral ordered vector spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(verb, help_text, space=True):
        p = sub.add_parser(verb, help=help_text)
        if space:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument(
                "--example", dest="space", type=builtin_space, metavar="NAME",
                help="builtin space: four-ray or simplex:<n>",
            )
            grp.add_argument(
                "--space", type=parse_space_source, metavar="FILE",
                help="JSON space file with dim/generators/facets",
            )
        p.add_argument("--json", action="store_true", help="emit one deterministic JSON object")
        return p

    p = add("classify", "order-structure flags of a space")
    p.add_argument(
        "--witness-probe", type=parse_vector, metavar="VEC",
        help="also probe a pervasiveness witness below this vector",
    )

    p = add("atoms", "extreme-ray atoms of the cone")
    p.add_argument(
        "--probe", type=parse_vector, metavar="VEC", help="report atomicity and discreteness of this vector"
    )

    p = add("disjoint", "disjointness of two vectors, with cover moduli")
    p.add_argument("x", type=parse_vector, help="vector, e.g. '[1,0,1]'")
    p.add_argument("y", type=parse_vector, help="vector")

    p = add("dcomp", "disjoint complement of a finite set of vectors")
    p.add_argument("vectors", nargs="+", type=parse_vector, help="one or more vectors")
    p.add_argument(
        "--check", type=parse_matrix, metavar="VECLIST",
        help="validate span(vectors) + span(VECLIST) as an ideal direct sum",
    )

    p = add("band", "principal band of a vector, or band test of a span")
    p.add_argument("vector", nargs="?", type=parse_vector, help="vector generating the principal band")
    p.add_argument(
        "--span", nargs="+", type=parse_vector, metavar="VEC", help="test the span of these vectors instead"
    )
    p.add_argument(
        "--member", type=parse_vector, metavar="VEC",
        help="with a principal band: test membership in the principal ideal",
    )

    add("bands", "enumerate all bands (cap via ORDERCONE_BAND_CAP)")
    add("projections", "enumerate all order projections")

    p = add("lambda", "greatest scale of an atom below a positive vector")
    p.add_argument("x", type=parse_vector, help="positive vector")
    p.add_argument("atom", type=parse_vector, help="atom vector")

    p = add("decompose", "split a vector along an atom and its disjoint complement")
    p.add_argument("x", type=parse_vector, help="vector to split")
    p.add_argument("atom", type=parse_vector, help="atom vector")

    p = add("rdp", "interval decomposition probe: z = z1 + z2 within [0,x1] + [0,x2]")
    p.add_argument("x1", type=parse_vector, help="first positive bound")
    p.add_argument("x2", type=parse_vector, help="second positive bound")
    p.add_argument("z", type=parse_vector, help="vector with 0 <= z <= x1 + x2")

    p = add("sup", "least upper bound of finitely many vectors, if it exists")
    p.add_argument("vectors", nargs="+", type=parse_vector, help="two or more vectors")

    p = add("extend", "support of the smallest cover band extending a span")
    p.add_argument("vectors", nargs="+", type=parse_vector, help="vectors spanning the subspace")

    p = add("restrict", "restriction of a cover band with the given support")
    p.add_argument("indices", type=parse_index_set, help="JSON array of facet indices, e.g. '[2,3]'")

    add("seq-demo", "worked sequence-space example with certificates", space=False)

    p = add("selftest", "run the verification suites", space=False)
    p.add_argument(
        "--filter", dest="filter_substring", metavar="SUBSTRING",
        help="run only suites whose name contains this",
    )
    p.add_argument(
        "--debug-corrupt-facet",
        action="store_true",
        help="debug hook: run only a deliberately corrupted fixture probe (must fail)",
    )
    return parser


# --- rendering -------------------------------------------------------------------


def _text_lines(value, indent: int = 0, key: str | None = None):
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            yield f"{pad}{key}:"
        for k, v in value.items():
            yield from _text_lines(v, indent + (key is not None), k)
    elif isinstance(value, list) and any(isinstance(e, (dict, list)) for e in value):
        if key is not None:
            yield f"{pad}{key}:"
        for i, e in enumerate(value):
            yield from _text_lines(e, indent + (key is not None), f"[{i}]")
    elif isinstance(value, list):
        yield f"{pad}{label}[{', '.join(str(e) for e in value)}]"
    else:
        yield f"{pad}{label}{value}"


def render(report: Report, mode: str) -> str:
    if mode == "json":
        return json.dumps(report.result)
    lines = [f"verb: {report.verb}"]
    if report.inputs:
        lines.extend(_text_lines(report.inputs, 0, "inputs"))
    lines.extend(_text_lines(report.result, 0, "result"))
    if report.certificates:
        lines.extend(_text_lines(report.certificates, 0, "certificates"))
    lines.append(f"elapsed: {report.timing_ms:.1f} ms")
    return "\n".join(lines)


def _render_selftest_text(report: Report) -> str:
    lines = []
    for check in report.result["checks"]:
        mark = "PASS" if check["ok"] else "FAIL"
        lines.append(f"[{mark}] {check['suite']}: {check['name']}")
    for failure in report.certificates["failures"]:
        lines.append(f"  failure detail ({failure['suite']}: {failure['name']}): {failure['detail']}")
    for name, secs in report.certificates["suiteSeconds"].items():
        lines.append(f"  {name}: {secs:.2f}s")
    lines.append(f"passed: {report.result['passed']}  failed: {report.result['failed']}")
    lines.append(f"elapsed: {report.timing_ms:.1f} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        # The converters on the parser's arguments build the space and parse
        # every literal, so parse_args raises ParseError and OrderConeError too.
        args = vars(_build_parser().parse_args(argv))
        verb, mode = args.pop("verb"), "json" if args.pop("json") else "text"
        cmd = Command(verb, args, mode)
        report = execute(cmd)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrderConeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        if cmd.verb == "selftest" and cmd.output_mode == "text":
            print(_render_selftest_text(report))
        else:
            print(render(report, cmd.output_mode))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so that the flush at
        # exit cannot fail again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if cmd.verb == "selftest" and report.result["failed"] > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
