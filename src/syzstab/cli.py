"""Command-line interface.

Families come from a JSON document (stdin or --file), or inline via
--monomials / --degrees.  Output is human-readable text by default; --json
emits a stable machine schema in which every rational appears as
{"num": ..., "den": ...} and the normalized input document is echoed back
under "input", so a run can be reproduced byte for byte from its own output.

Exit codes: 0 for any completed computation (verdicts live in the payload),
1 for malformed input, 2 for a violated precondition.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    MAX_VARIABLES,
    Monomial,
    MonomialFamily,
    Polynomial,
    PolynomialFamily,
    PreconditionError,
    SectionWitness,
    StabilityVerdict,
    SubsetWitness,
    _as_polynomials,
)
from . import generic_line, monomial_stability, numeric_bounds, search, sections

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed document, flag value or monomial string (exit code 1)."""


# ---------------------------------------------------------------------------
# input parsing

_NAMED_VARS = {"X": 0, "Y": 1, "Z": 2, "W": 3}
_FACTOR_RE = re.compile(r"^([A-Za-z][0-9]*)(?:\^([0-9]+))?$")


def parse_monomial_text(text: str) -> dict[int, int]:
    """Parse one monomial like X^4*Y*Z^2 or X0^3*X2 into {var index: exponent}.

    Strict grammar: factors joined by '*', each NAME or NAME^INT; names are
    X, Y, Z, W or X0..Xn (the two styles cannot be mixed in one monomial).
    """
    exps: dict[int, int] = {}
    indexed = None
    for raw in text.split("*"):
        factor = raw.strip()
        match = _FACTOR_RE.match(factor)
        if not match:
            raise InputError(f"cannot parse monomial factor {factor!r}")
        name, power = match.group(1), match.group(2)
        exponent = _digits_int(power, "exponent") if power is not None else 1
        if name in _NAMED_VARS:
            use_indexed = False
            index = _NAMED_VARS[name]
        elif re.fullmatch(r"X[0-9]+", name):
            use_indexed = True
            index = _digits_int(name[1:], "variable index")
        else:
            raise InputError(f"unknown variable {name!r} (use X,Y,Z,W or X0..Xn)")
        if indexed is None:
            indexed = use_indexed
        elif indexed != use_indexed:
            raise InputError(f"mixed variable styles in {text!r}")
        exps[index] = exps.get(index, 0) + exponent
    if not exps:
        raise InputError("empty monomial")
    return exps


def _digits_int(digits: str, field: str) -> int:
    """The integer spelled by a run of decimal digits; one longer than the
    interpreter's integer string-conversion limit is refused."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"{field} has too many digits ({len(digits)})")


def parse_monomial_list(text: str, variables: Optional[int]) -> dict:
    parsed = [parse_monomial_text(part) for part in text.split(",") if part.strip()]
    if not parsed:
        raise InputError("no monomials given")
    needed = max(max(e) for e in parsed) + 1
    if needed > MAX_VARIABLES:
        raise InputError(f"monomials use {needed} variables; at most {MAX_VARIABLES} are supported")
    if variables is None:
        variables = needed
    elif variables < needed:
        raise InputError(f"--vars {variables} is too small; monomials use {needed} variables")
    elif variables > MAX_VARIABLES:
        raise InputError(f"--vars {variables} is too large; at most {MAX_VARIABLES} are supported")
    vectors = [[e.get(j, 0) for j in range(variables)] for e in parsed]
    return {"variables": variables, "monomials": vectors}


def load_document(args: argparse.Namespace) -> dict:
    """Normalized FamilyDocument from --monomials, --file or stdin."""
    if args.monomials:
        return parse_monomial_list(args.monomials, args.vars)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}")
    else:
        raw = sys.stdin.read()
    if not raw.strip():
        raise InputError("no input document (use --monomials, --file or stdin)")
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past the interpreter's
        # string-conversion limit
        raise InputError(f"invalid JSON document: {exc}")
    return normalize_document(doc)


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is refused
    rather than truncated, naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def normalize_document(doc) -> dict:
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if "variables" not in doc:
        raise InputError("document needs a 'variables' field")
    variables = _json_int(doc["variables"], "'variables'")
    has_mono = "monomials" in doc
    has_poly = "polynomials" in doc
    if has_mono == has_poly:
        raise InputError("document needs exactly one of 'monomials' or 'polynomials'")
    if has_mono:
        vectors = doc["monomials"]
        if not isinstance(vectors, list) or not vectors:
            raise InputError("'monomials' must be a nonempty list of exponent vectors")
        out = []
        for vec in vectors:
            if not isinstance(vec, list) or len(vec) != variables:
                raise InputError(f"exponent vector {vec!r} does not have length {variables}")
            out.append([_json_int(e, f"exponent in {vec!r}") for e in vec])
        return {"variables": variables, "monomials": out}
    polys = doc["polynomials"]
    if not isinstance(polys, list) or not polys:
        raise InputError("'polynomials' must be a nonempty list")
    out_polys = []
    for entry in polys:
        if not isinstance(entry, dict) or not isinstance(entry.get("terms"), list):
            raise InputError("each polynomial needs a 'terms' list")
        terms = []
        for term in entry["terms"]:
            if not isinstance(term, list) or len(term) != 3 or not isinstance(term[2], list):
                raise InputError(f"bad term {term!r}; expected [num, den, exponents]")
            num = _json_int(term[0], f"'num' of term {term!r}")
            den = _json_int(term[1], f"'den' of term {term!r}")
            vec = [_json_int(e, f"exponent in term {term!r}") for e in term[2]]
            if len(vec) != variables:
                raise InputError(f"exponent vector {vec!r} does not have length {variables}")
            terms.append([num, den, vec])
        out_polys.append({"terms": terms})
    return {"variables": variables, "polynomials": out_polys}


def family_from_document(doc: dict):
    try:
        if "monomials" in doc:
            return MonomialFamily.from_exponents(doc["monomials"], doc["variables"])
        members = []
        for entry in doc["polynomials"]:
            terms = tuple(
                (Fraction(num, den), Monomial(tuple(vec))) for num, den, vec in entry["terms"]
            )
            members.append(Polynomial(terms))
        return PolynomialFamily(doc["variables"], tuple(members))
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise InputError(str(exc))


def parse_degrees(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"cannot parse degree list {text!r}")
    if not values:
        raise InputError("empty degree list")
    return values


# ---------------------------------------------------------------------------
# rendering

def frac_json(value: Fraction) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


# six significant digits, as ``:g`` prints a float, at any magnitude
_APPROX = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def frac_text(value: Fraction) -> str:
    """The exact value and an approximation, also past the float range."""
    f = Fraction(value)
    try:
        approx = float(f)
    except OverflowError:
        approx = _APPROX.divide(f.numerator, f.denominator).normalize(_APPROX)
    return f"{f} ({approx:g})"


def monomial_names(family: MonomialFamily, indices: Sequence[int]) -> str:
    return "{" + ", ".join(str(family[i]) for i in indices) + "}"


def witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, SubsetWitness):
        return {
            "type": "subset",
            "indices": list(w.indices),
            "gcd": list(w.gcd_monomial.exponents),
            "gcd_degree": w.gcd_degree,
            "slope": frac_json(w.slope),
        }
    if isinstance(w, SectionWitness):
        return {
            "type": "section",
            "twist": w.twist,
            "section_dim": w.section_dim,
            "sheaf_degree": w.sheaf_degree,
        }
    raise TypeError(f"unknown witness {w!r}")


def verdict_json(v: StabilityVerdict) -> dict:
    return {
        "kind": v.kind.value,
        "witness": witness_json(v.witness),
        "notes": list(v.notes),
    }


def payload_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands
#
# Each handler takes the parsed arguments and returns (input, result, text
# lines): the normalized input echoed under "input", the "result" object of
# the --json payload, and the lines of the text output.

def _verdict_line(label: str, v: StabilityVerdict) -> str:
    return f"{label}: {v.kind.value} [{', '.join(v.notes)}]"


def _subset_text(family: MonomialFamily, w: SubsetWitness) -> str:
    return f"{list(w.indices)} = {monomial_names(family, w.indices)}"


def cmd_check(args):
    doc = load_document(args)
    family = family_from_document(doc)
    if not isinstance(family, MonomialFamily):
        raise PreconditionError("monomial-family", "this command needs a monomial family")
    result = monomial_stability.slope_summary(family, brute=args.command == "oracle")
    v = monomial_stability._classify(family, result)
    fam_slope = monomial_stability.family_slope(family)
    proper, pw = result.max_proper_slope, result.proper_witness
    out = {
        "verdict": verdict_json(v),
        "family_slope": frac_json(fam_slope),
        "max_slope": frac_json(result.max_slope),
        "max_slope_witness": witness_json(result.witness),
        "max_proper_slope": None if proper is None else frac_json(proper),
        "proper_witness": witness_json(pw),
    }
    lines = [
        _verdict_line("verdict", v),
        f"family slope: {frac_text(fam_slope)}",
        f"max subset slope: {frac_text(result.max_slope)} at "
        + _subset_text(family, result.witness),
    ]
    if proper is not None:
        lines.append(f"max proper subset slope: {frac_text(proper)} at {_subset_text(family, pw)}")
    if isinstance(v.witness, SubsetWitness):
        w = v.witness
        lines.append(
            f"witness subfamily: {_subset_text(family, w)}, "
            f"gcd {w.gcd_monomial} (degree {w.gcd_degree}), slope {frac_text(w.slope)}"
        )
    return doc, out, lines


def cmd_sections(args):
    doc = load_document(args)
    family = family_from_document(doc)
    if args.twist is None:
        raise PreconditionError("twist-required", "sections needs --twist")
    dim = sections.syzygy_section_dim(family, args.twist)
    result = {"twist": args.twist, "section_dim": dim}
    lines = [f"section dimension at twist {args.twist}: {dim}"]
    if isinstance(family, MonomialFamily):
        mindeg = sections.min_section_degree_monomial(family)
        result["min_section_degree"] = mindeg
        lines.append(f"smallest twist with a section: {mindeg}")
    return doc, result, lines


def cmd_lowrank(args):
    doc = load_document(args)
    polys, _ = _as_polynomials(family_from_document(doc))
    if len(polys) == 3:
        v = sections.rank2_verdict(*polys)
        rank = 2
    elif len(polys) == 4:
        v = sections.rank3_verdict(*polys)
        rank = 3
    else:
        raise PreconditionError(
            "lowrank-size", "the low-rank criteria need exactly 3 or 4 members"
        )
    lines = [_verdict_line(f"rank-{rank} verdict", v)]
    if isinstance(v.witness, SectionWitness):
        w = v.witness
        lines.append(
            f"destabilizing section at twist {w.twist}: dimension {w.section_dim}, "
            f"twisted sheaf degree {w.sheaf_degree}"
        )
    return doc, {"rank": rank, "verdict": verdict_json(v)}, lines


def _degrees_for(args, need_vars: bool = True):
    """(input, degrees, dimension N, family) from --degrees/--vars or a document.

    The family is None for --degrees, where N is unknown without --vars: a
    violated precondition when ``need_vars``.  A --vars below 1 given with
    --degrees is out of range in every command.
    """
    if args.degrees:
        degrees = parse_degrees(args.degrees)
        if args.vars is not None and args.vars < 1:
            raise PreconditionError("vars-range", f"--vars must be at least 1, got {args.vars}")
        N = None if args.vars is None else args.vars - 1
        if N is None and need_vars:
            raise PreconditionError(
                "vars-required", f"{args.command} needs --vars with --degrees"
            )
        return {"degrees": degrees, "variables": args.vars}, degrees, N, None
    doc = load_document(args)
    family = family_from_document(doc)
    return doc, list(family.degrees()), doc["variables"] - 1, family


def cmd_necessary(args):
    doc, degrees, _, _ = _degrees_for(args, need_vars=False)
    degrees.sort()
    holds, failing = numeric_bounds.necessary_condition(degrees)
    result = {"degrees": degrees, "holds": holds, "first_failing_r": failing}
    if holds:
        return doc, result, [f"degree condition holds for {degrees}"]
    return doc, result, [f"degree condition fails for {degrees} (smallest violated r = {failing})"]


def cmd_bounds(args):
    doc, degrees, N, _ = _degrees_for(args)
    report = numeric_bounds.bounds_report(degrees, N)
    return doc, _report_json(report), _report_lines(report)


def _report_json(report) -> dict:
    return {
        "variables": report.variables,
        "degrees": list(report.degrees),
        "rank": report.rank,
        "tight_closure_bound": frac_json(report.tight_closure_bound),
        "flenner_degree": report.flenner_degree,
        "discriminant": report.discriminant,
        "bogomolov_min_degree": report.bogomolov_min_degree,
        "generic_forms": report.generic_forms,
        "generic_forms_applicable": report.generic_forms_applicable,
        "notes": list(report.notes),
    }


def _report_lines(report) -> list[str]:
    lines = [
        f"degrees {list(report.degrees)} in {report.variables} variables "
        f"(syzygy rank {report.rank})",
        f"tight-closure degree bound: {frac_text(report.tight_closure_bound)}",
        f"discriminant: {report.discriminant}",
    ]
    if report.flenner_degree is not None:
        lines.append(
            f"generic complete-intersection curve degree: >= {report.flenner_degree}"
        )
    if report.bogomolov_min_degree is not None:
        lines.append(
            f"every smooth plane curve of degree >= {report.bogomolov_min_degree} "
            "(stable bundles)"
        )
    if report.generic_forms is not None:
        lines.append(f"generic forms of this degree: {report.generic_forms}")
    lines.extend(f"note: {note}" for note in report.notes)
    return lines


def cmd_line_test(args):
    doc = load_document(args)
    result = generic_line.line_independence_test(
        family_from_document(doc), trials=args.trials, seed=args.seed, exhaustive=args.exhaustive
    )
    out = {
        "status": result.status,
        "trials_used": result.trials_used,
        "notes": list(result.notes),
        "witness": None,
    }
    lines = [f"line-independence: {result.status} (trials used: {result.trials_used})"]
    if result.witness is not None:
        out["witness"] = {
            "u": [frac_json(x) for x in result.witness.u],
            "v": [frac_json(x) for x in result.witness.v],
        }
        u = ", ".join(str(x) for x in result.witness.u)
        v = ", ".join(str(x) for x in result.witness.v)
        lines.append(f"witness map coefficients: U <- ({u}); V <- ({v})")
    lines.extend(f"note: {n}" for n in result.notes)
    return doc, out, lines


def cmd_search(args):
    spec = search.SearchSpec(
        variables=args.vars,
        degree=args.degree,
        count=args.count,
        budget=args.budget,
        require="stable" if args.stable else "semistable",
        primary_only=args.primary_only,
    )
    doc = dataclasses.asdict(spec)
    result = search.find_semistable_family(spec)
    out = {"status": result.status, "nodes": result.nodes, "family": None}
    lines = [f"search: {result.status} after {result.nodes} nodes"]
    if result.family is not None:
        out["family"] = {
            "variables": result.family.variables,
            "monomials": [list(m.exponents) for m in result.family.members],
        }
        names = ", ".join(str(m) for m in result.family.members)
        lines.append(f"family: {names}")
    return doc, out, lines


def cmd_report(args):
    doc, degrees, N, family = _degrees_for(args)
    lines: list[str] = []
    result: dict = {}
    if isinstance(family, MonomialFamily):
        v = monomial_stability.verdict(family)
        result["verdict"] = verdict_json(v)
        lines.append(_verdict_line("verdict", v))
    sorted_degrees = sorted(degrees)
    holds, failing = numeric_bounds.necessary_condition(sorted_degrees)
    result["necessary"] = {"holds": holds, "first_failing_r": failing}
    lines.append(
        "degree condition: " + ("holds" if holds else f"fails at r = {failing}")
    )
    report = numeric_bounds.bounds_report(sorted_degrees, N)
    result["bounds"] = _report_json(report)
    lines.extend(_report_lines(report))
    lines.append(report.statement())
    result["statement"] = report.statement()
    return doc, result, lines


# ---------------------------------------------------------------------------
# wiring

_FAMILY_FLAGS = (
    ("--file", {"help": "JSON FamilyDocument path (default: stdin)"}),
    ("--monomials", {"help": "inline monomials, e.g. 'X^4,Y^4,Z^4,X*Y*Z^2'"}),
    ("--vars", {"type": int, "help": "number of variables (overrides inference)"}),
    ("--json", {"action": "store_true", "help": "emit machine-readable JSON"}),
)
_DEGREES = ("--degrees", {"help": "comma-separated degree list"})

# command -> (handler, help text, flags as (name, add_argument keywords) pairs)
_COMMANDS = {
    "check": (cmd_check, "semistability verdict for a monomial family", _FAMILY_FLAGS),
    "oracle": (cmd_check, "verdict recomputed with the exhaustive subset engine", _FAMILY_FLAGS),
    "sections": (cmd_sections, "syzygy section dimension at a twist", _FAMILY_FLAGS + (
        ("--twist", {"type": int, "help": "twist m of the syzygy sheaf"}),
    )),
    "lowrank": (cmd_lowrank, "rank-2/rank-3 section criteria", _FAMILY_FLAGS),
    "necessary": (cmd_necessary, "necessary degree condition", _FAMILY_FLAGS + (
        ("--degrees", {"help": "comma-separated degree list, e.g. 2,2,2"}),
    )),
    "bounds": (cmd_bounds, "restriction and tight-closure thresholds", _FAMILY_FLAGS + (_DEGREES,)),
    "line-test": (cmd_line_test, "generic-line independence certificate", _FAMILY_FLAGS + (
        ("--trials", {"type": int, "default": 64}),
        ("--seed", {"type": int, "default": 0}),
        ("--exhaustive", {"action": "store_true"}),
    )),
    "search": (cmd_search, "search for a semistable family", (
        ("--vars", {"type": int, "required": True, "help": "number of variables"}),
        ("--degree", {"type": int, "required": True}),
        ("--count", {"type": int, "required": True}),
        ("--budget", {"type": int, "default": search.DEFAULT_BUDGET}),
        ("--stable", {"action": "store_true", "help": "demand a stable family"}),
        ("--primary-only", {"action": "store_true"}),
        ("--json", {"action": "store_true"}),
    )),
    "report": (cmd_report, "composite verdict + bounds report", _FAMILY_FLAGS + (_DEGREES,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzstab",
        description="Slope-semistability of syzygy bundles of monomial and polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


_PARSER = build_parser()  # built once per process, not per request


def run(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    args = _PARSER.parse_args(argv)
    try:
        doc, result, lines = _COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated [{exc.criterion}]: {exc}", file=sys.stderr)
        return 2
    if args.json:
        out.write(payload_dump(
            {"schema": SCHEMA_VERSION, "command": args.command, "input": doc, "result": result}
        ))
    else:
        out.write("\n".join(lines) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
