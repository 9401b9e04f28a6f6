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
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Monomial,
    MonomialFamily,
    Polynomial,
    PolynomialFamily,
    PreconditionError,
    SectionWitness,
    StabilityVerdict,
    SubsetWitness,
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
        exponent = int(power) if power is not None else 1
        if name in _NAMED_VARS:
            use_indexed = False
            index = _NAMED_VARS[name]
        elif re.fullmatch(r"X[0-9]+", name):
            use_indexed = True
            index = int(name[1:])
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


def parse_monomial_list(text: str, variables: Optional[int]) -> dict:
    parsed = [parse_monomial_text(part) for part in text.split(",") if part.strip()]
    if not parsed:
        raise InputError("no monomials given")
    needed = max(max(e) for e in parsed) + 1
    if variables is None:
        variables = needed
    elif variables < needed:
        raise InputError(f"--vars {variables} is too small; monomials use {needed} variables")
    vectors = [[e.get(j, 0) for j in range(variables)] for e in parsed]
    return {"variables": variables, "monomials": vectors}


def load_document(args: argparse.Namespace) -> dict:
    """Normalized FamilyDocument from --monomials, --file or stdin."""
    if getattr(args, "monomials", None):
        return parse_monomial_list(args.monomials, getattr(args, "vars", None))
    if getattr(args, "file", None):
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
    except json.JSONDecodeError as exc:
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


def frac_text(value: Fraction) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return f"{f.numerator} ({float(f):g})"
    return f"{f} ({float(f):g})"


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

def _monomial_family_or_die(doc: dict) -> MonomialFamily:
    family = family_from_document(doc)
    if not isinstance(family, MonomialFamily):
        raise PreconditionError("monomial-family", "this command needs a monomial family")
    return family


def _slope_lines(family: MonomialFamily, result, fam_slope: Fraction) -> list[str]:
    lines = [f"family slope: {frac_text(fam_slope)}"]
    lines.append(
        f"max subset slope: {frac_text(result.max_slope)} at "
        f"{list(result.witness.indices)} = {monomial_names(family, result.witness.indices)}"
    )
    if result.max_proper_slope is not None:
        pw = result.proper_witness
        lines.append(
            f"max proper subset slope: {frac_text(result.max_proper_slope)} at "
            f"{list(pw.indices)} = {monomial_names(family, pw.indices)}"
        )
    return lines


def cmd_check(args, doc, payload) -> list[str]:
    family = _monomial_family_or_die(doc)
    result = monomial_stability.slope_summary(family, brute=args.command == "oracle")
    v = monomial_stability._classify(family, result)
    fam_slope = monomial_stability.family_slope(family)
    payload["result"] = {
        "verdict": verdict_json(v),
        "family_slope": frac_json(fam_slope),
        "max_slope": frac_json(result.max_slope),
        "max_slope_witness": witness_json(result.witness),
        "max_proper_slope": (
            frac_json(result.max_proper_slope)
            if result.max_proper_slope is not None
            else None
        ),
        "proper_witness": witness_json(result.proper_witness),
    }
    lines = [f"verdict: {v.kind.value} [{', '.join(v.notes)}]"]
    lines += _slope_lines(family, result, fam_slope)
    if isinstance(v.witness, SubsetWitness):
        w = v.witness
        lines.append(
            f"witness subfamily: {list(w.indices)} = {monomial_names(family, w.indices)}, "
            f"gcd {w.gcd_monomial} (degree {w.gcd_degree}), slope {frac_text(w.slope)}"
        )
    return lines


def cmd_sections(args, doc, payload) -> list[str]:
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
    payload["result"] = result
    return lines


def cmd_lowrank(args, doc, payload) -> list[str]:
    family = family_from_document(doc)
    if isinstance(family, MonomialFamily):
        polys = [Polynomial.from_monomial(m) for m in family.members]
    else:
        polys = list(family.members)
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
    payload["result"] = {"rank": rank, "verdict": verdict_json(v)}
    lines = [f"rank-{rank} verdict: {v.kind.value} [{', '.join(v.notes)}]"]
    if isinstance(v.witness, SectionWitness):
        w = v.witness
        lines.append(
            f"destabilizing section at twist {w.twist}: dimension {w.section_dim}, "
            f"twisted sheaf degree {w.sheaf_degree}"
        )
    return lines


def _degrees_for(args, payload) -> tuple[list[int], Optional[int]]:
    """Degrees and dimension N from --degrees/--vars or from a family document."""
    if getattr(args, "degrees", None):
        degrees = parse_degrees(args.degrees)
        variables = getattr(args, "vars", None)
        payload["input"] = {"degrees": degrees, "variables": variables}
        return degrees, (variables - 1 if variables else None)
    doc = load_document(args)
    payload["input"] = doc
    family = family_from_document(doc)
    return list(family.degrees()), doc["variables"] - 1


def cmd_necessary(args, _doc, payload) -> list[str]:
    degrees, _ = _degrees_for(args, payload)
    degrees.sort()
    holds, failing = numeric_bounds.necessary_condition(degrees)
    payload["result"] = {"degrees": degrees, "holds": holds, "first_failing_r": failing}
    if holds:
        return [f"degree condition holds for {degrees}"]
    return [f"degree condition fails for {degrees} (smallest violated r = {failing})"]


def cmd_bounds(args, _doc, payload) -> list[str]:
    degrees, N = _degrees_for(args, payload)
    if N is None:
        raise PreconditionError("vars-required", "bounds needs --vars with --degrees")
    report = numeric_bounds.bounds_report(degrees, N)
    payload["result"] = _report_json(report)
    return _report_lines(report)


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


def cmd_line_test(args, doc, payload) -> list[str]:
    family = family_from_document(doc)
    result = generic_line.line_independence_test(
        family, trials=args.trials, seed=args.seed, exhaustive=args.exhaustive
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
    payload["result"] = out
    return lines


def cmd_search(args, _doc, payload) -> list[str]:
    spec = search.SearchSpec(
        variables=args.vars,
        degree=args.degree,
        count=args.count,
        budget=args.budget,
        require="stable" if args.stable else "semistable",
        primary_only=args.primary_only,
    )
    payload["input"] = {
        "variables": spec.variables,
        "degree": spec.degree,
        "count": spec.count,
        "budget": spec.budget,
        "require": spec.require,
        "primary_only": spec.primary_only,
    }
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
    payload["result"] = out
    return lines


def cmd_report(args, _doc, payload) -> list[str]:
    lines: list[str] = []
    result: dict = {}
    if getattr(args, "degrees", None):
        degrees, N = _degrees_for(args, payload)
        if N is None:
            raise PreconditionError("vars-required", "report needs --vars with --degrees")
        family = None
    else:
        doc = load_document(args)
        payload["input"] = doc
        family = family_from_document(doc)
        degrees, N = list(family.degrees()), doc["variables"] - 1
    if family is not None and isinstance(family, MonomialFamily):
        v = monomial_stability.verdict(family)
        result["verdict"] = verdict_json(v)
        lines.append(f"verdict: {v.kind.value} [{', '.join(v.notes)}]")
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
    payload["result"] = result
    return lines


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzstab",
        description="Slope-semistability of syzygy bundles of monomial and polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p):
        p.add_argument("--file", help="JSON FamilyDocument path (default: stdin)")
        p.add_argument("--monomials", help="inline monomials, e.g. 'X^4,Y^4,Z^4,X*Y*Z^2'")
        p.add_argument("--vars", type=int, help="number of variables (overrides inference)")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    for name, text in (
        ("check", "semistability verdict for a monomial family"),
        ("oracle", "verdict recomputed with the exhaustive subset engine"),
    ):
        p = sub.add_parser(name, help=text)
        add_family_flags(p)

    p = sub.add_parser("sections", help="syzygy section dimension at a twist")
    add_family_flags(p)
    p.add_argument("--twist", type=int, help="twist m of the syzygy sheaf")

    p = sub.add_parser("lowrank", help="rank-2/rank-3 section criteria")
    add_family_flags(p)

    p = sub.add_parser("necessary", help="necessary degree condition")
    add_family_flags(p)
    p.add_argument("--degrees", help="comma-separated degree list, e.g. 2,2,2")

    p = sub.add_parser("bounds", help="restriction and tight-closure thresholds")
    add_family_flags(p)
    p.add_argument("--degrees", help="comma-separated degree list")

    p = sub.add_parser("line-test", help="generic-line independence certificate")
    add_family_flags(p)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("search", help="search for a semistable family")
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--stable", action="store_true", help="demand a stable family")
    p.add_argument("--primary-only", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="composite verdict + bounds report")
    add_family_flags(p)
    p.add_argument("--degrees", help="comma-separated degree list")

    return parser


_FAMILY_COMMANDS = {
    "check": cmd_check,
    "oracle": cmd_check,
    "sections": cmd_sections,
    "lowrank": cmd_lowrank,
    "line-test": cmd_line_test,
}
_FREE_COMMANDS = {
    "necessary": cmd_necessary,
    "bounds": cmd_bounds,
    "search": cmd_search,
    "report": cmd_report,
}


def run(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    payload: dict = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        if args.command in _FAMILY_COMMANDS:
            doc = load_document(args)
            payload["input"] = doc
            lines = _FAMILY_COMMANDS[args.command](args, doc, payload)
        else:
            lines = _FREE_COMMANDS[args.command](args, None, payload)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated [{exc.criterion}]: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        out.write(payload_dump(payload))
    else:
        out.write("\n".join(lines) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
