"""Independent checks of the benchmark's CLI outputs.

Each check recomputes what it can without the engine under test and returns a
list of problems (empty when the output agrees):

* ``check`` / ``report``: the maximal and maximal proper subset slopes from
  this module's own incremental meet closure, every reported witness slope
  recomputed from its indices, the verdict kind from those slopes, and for
  families of at most 16 members the full result of ``oracle --json`` (the
  exhaustive subset engine).
* ``sections`` / ``lowrank`` on monomials: the combinatorial nullity
  sum dim R_{m-d_i} - #(degree-m monomials in the ideal), which replays the
  whole section scan, plus ``powers_check`` on pure-power triples.
* ``sections`` on polynomials: only the dimension bounds of the evaluation
  map; ``lowrank`` on polynomials has no independent oracle.
* ``line-test``: a CertifiedYes witness is re-checked by restricting the
  family to the witness line with this module's own expansion and rank.
* ``search``: the returned family has the requested shape and the verdict
  engine accepts it.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from math import comb

from workloads import Request, degree_vectors

ORACLE_MAX_MEMBERS = 16


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _vmeet(a, b):
    return tuple(x if x < y else y for x, y in zip(a, b))


def _closure(vectors) -> set:
    """All gcds of nonempty subfamilies, built one member at a time."""
    closure: set = set()
    for v in vectors:
        closure |= {_vmeet(v, g) for g in closure}
        closure.add(v)
    return closure


def subset_extrema(vectors) -> tuple[Fraction, Fraction]:
    """Maximal subset slope and maximal proper subset slope.

    For a gcd g and a size k, taking the k lowest-degree multiples of g
    maximises (deg g - sum of degrees) / (k - 1) among subsets whose gcd g
    divides, and every candidate value is attained by a subset.
    """
    n = len(vectors)
    best = proper = None
    for g in _closure(vectors):
        degs = sorted(sum(v) for v in vectors if all(x <= y for x, y in zip(g, v)))
        total = degs[0] if degs else 0
        for k in range(2, len(degs) + 1):
            total += degs[k - 1]
            val = Fraction(sum(g) - total, k - 1)
            best = val if best is None or val > best else best
            if k < n:
                proper = val if proper is None or val > proper else proper
    return best, proper


def _witness_problems(vectors, w, label) -> list[str]:
    idx = w["indices"]
    if len(idx) < 2 or idx != sorted(set(idx)) or idx[-1] >= len(vectors):
        return [f"{label}: bad indices {idx}"]
    g = vectors[idx[0]]
    for i in idx:
        g = _vmeet(g, vectors[i])
    slope = Fraction(sum(g) - sum(sum(vectors[i]) for i in idx), len(idx) - 1)
    if list(g) != w["gcd"] or slope != _frac(w["slope"]):
        return [f"{label}: witness {idx} has gcd {g} and slope {slope}"]
    return []


def _is_primary(vectors) -> bool:
    return all(
        any(v[j] > 0 and sum(v) == v[j] for v in vectors) for j in range(len(vectors[0]))
    )


def _check_family(req: Request, result: dict, run) -> list[str]:
    vectors = [tuple(v) for v in req.doc["monomials"]]
    n = len(vectors)
    problems = []
    best, proper = subset_extrema(vectors)
    g = vectors[0]
    for v in vectors:
        g = _vmeet(g, v)
    family_slope = Fraction(sum(g) - sum(map(sum, vectors)), n - 1)
    if not _is_primary(vectors):
        return ["benchmark families are primary"]
    if proper > family_slope:
        kind = "Unstable"
    elif proper == family_slope:
        kind = "SemistableNotStable"
    else:
        kind = "Stable"
    verdict = result["verdict"]
    if verdict["kind"] != kind:
        problems.append(f"verdict {verdict['kind']}, slopes give {kind}")
    if req.argv[0] == "check":
        if _frac(result["max_slope"]) != best:
            problems.append(f"max slope {result['max_slope']} != {best}")
        if _frac(result["max_proper_slope"]) != proper:
            problems.append(f"max proper slope {result['max_proper_slope']} != {proper}")
        if _frac(result["family_slope"]) != family_slope:
            problems.append("family slope")
        problems += _witness_problems(vectors, result["max_slope_witness"], "max witness")
        problems += _witness_problems(vectors, result["proper_witness"], "proper witness")
        if kind != "Stable" and verdict["witness"] != result["proper_witness"]:
            problems.append("verdict witness differs from the proper witness")
    elif verdict["witness"] is not None:
        problems += _witness_problems(vectors, verdict["witness"], "verdict witness")
    if n <= ORACLE_MAX_MEMBERS:
        code, text = run(("oracle", "--json"), req.stdin)
        oracle = json.loads(text)["result"] if code == 0 else None
        mine = result if req.argv[0] == "check" else {"verdict": result["verdict"]}
        if oracle is None or any(oracle[k] != v for k, v in mine.items()):
            problems.append("differs from oracle --json")
    return problems


def nullity(vectors, m: int) -> int:
    """Syzygy section dimension of a monomial family at twist m."""
    nv = len(vectors[0])
    domain = sum(comb(m - sum(v) + nv - 1, nv - 1) for v in vectors if m >= sum(v))
    in_ideal = sum(
        1 for u in degree_vectors(nv, m)
        if any(all(a <= b for a, b in zip(v, u)) for v in vectors)
    ) if m >= 0 else 0
    return domain - in_ideal


def _check_monomial_sections(req: Request, result: dict) -> list[str]:
    vectors = [tuple(v) for v in req.doc["monomials"]]
    problems = []
    m = result["twist"]
    if result["section_dim"] != nullity(vectors, m):
        problems.append(f"section dim {result['section_dim']} != {nullity(vectors, m)}")
    first = result["min_section_degree"]
    if not (nullity(vectors, first) > 0 and nullity(vectors, first - 1) == 0):
        problems.append(f"no first section at twist {first}")
    return problems


def _check_monomial_lowrank(req: Request, result: dict, powers_check) -> list[str]:
    vectors = [tuple(v) for v in req.doc["monomials"]]
    degs = sorted(map(sum, vectors))
    total = sum(degs)
    rank = len(vectors) - 1
    expected = {"rank": rank, "verdict": None}
    for m in range(max(0, degs[0]), (total + rank - 1) // rank):
        dim = nullity(vectors, m)
        if dim:
            witness = {"type": "section", "twist": m, "section_dim": dim,
                       "sheaf_degree": rank * m - total}
            expected["verdict"] = {"kind": "Unstable", "witness": witness,
                                   "notes": ["destabilizing-section"]}
            break
    else:
        if rank == 2:
            expected["verdict"] = {"kind": "Semistable", "witness": None,
                                   "notes": ["no-sections-below-slope-bound"]}
        elif not _is_primary(vectors):
            expected["verdict"] = {"kind": "Inconclusive", "witness": None,
                                   "notes": ["not-primary"]}
        elif 2 * degs[3] <= sum(degs[:3]):
            expected["verdict"] = {"kind": "Semistable", "witness": None, "notes": [
                "no-sections-below-slope-bound", "dual-degree-condition"]}
        else:
            expected["verdict"] = {"kind": "Inconclusive", "witness": None,
                                   "notes": ["dual-degree-condition-fails"]}
    problems = [] if result == expected else [f"lowrank {result} != scan {expected}"]
    if rank == 2 and all(sum(1 for e in v if e) == 1 for v in vectors):
        if powers_check(degs) != (result["verdict"]["kind"] == "Semistable"):
            problems.append("disagrees with powers_check")
    return problems


def _check_polynomial_sections(req: Request, result: dict) -> list[str]:
    m = result["twist"]
    nv = req.doc["variables"]
    degs = [sum(p["terms"][0][2]) for p in req.doc["polynomials"]]
    domain = sum(comb(m - d + nv - 1, nv - 1) for d in degs if m >= d)
    lowest = domain - comb(m + nv - 1, nv - 1)
    if not max(0, lowest) <= result["section_dim"] <= domain:
        return [f"section dim {result['section_dim']} outside [{lowest}, {domain}]"]
    return []


def _binary_image(terms, u, v, d) -> list[Fraction]:
    """Coefficients of sum c * prod (u_j U + v_j V)^e_j in U^k V^(d-k)."""
    out = [Fraction(0)] * (d + 1)
    for num, den, exps in terms:
        poly = [Fraction(num, den)]  # coefficient of U^k
        for j, e in enumerate(exps):
            for _ in range(e):
                nxt = [Fraction(0)] * (len(poly) + 1)
                for k, c in enumerate(poly):
                    nxt[k + 1] += c * u[j]
                    nxt[k] += c * v[j]
                poly = nxt
        for k, c in enumerate(poly):
            out[k] += c
    return out


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_line_test(req: Request, result: dict) -> list[str]:
    if result["status"] != "CertifiedYes":
        return []
    u = [_frac(x) for x in result["witness"]["u"]]
    v = [_frac(x) for x in result["witness"]["v"]]
    vectors = req.doc["monomials"]
    d = sum(vectors[0])
    images = [_binary_image([(1, 1, vec)], u, v, d) for vec in vectors]
    if _rank(images) != len(vectors):
        return ["line-test witness does not make the images independent"]
    return []


def _check_search(req: Request, result: dict, verdict) -> list[str]:
    p = req.props
    if result["status"] != "Found":
        return [f"search status {result['status']}; every pooled spec has a family"]
    fam = result["family"]
    vectors = [tuple(v) for v in fam["monomials"]]
    if (fam["variables"] != p["variables"] or len(set(vectors)) != p["count"]
            or len(vectors) != p["count"] or any(sum(v) != p["degree"] for v in vectors)):
        return ["search family has the wrong shape"]
    if p["primary_only"] and not _is_primary(vectors):
        return ["search family is not primary"]
    accepted = ("Stable",) if p["stable"] else ("Stable", "SemistableNotStable")
    family = sys.modules["syzstab.core"].MonomialFamily.from_exponents(vectors, p["variables"])
    if verdict(family).kind.value not in accepted:
        return ["verdict rejects the returned family"]
    return []


def check(req: Request, output: str) -> list[str]:
    """Problems with one request's ``--json`` output (empty list: agrees)."""
    cli = sys.modules["syzstab.cli"]
    ms = sys.modules["syzstab.monomial_stability"]

    def run(argv, stdin):
        saved = sys.stdin
        sys.stdin, buf = io.StringIO(stdin), io.StringIO()
        try:
            return cli.run(list(argv), stdout=buf), buf.getvalue()
        finally:
            sys.stdin = saved

    try:
        result = json.loads(output)["result"]
    except (ValueError, KeyError):
        return ["output is not a --json payload"]
    command = req.argv[0]
    if command in ("check", "report"):
        return _check_family(req, result, run)
    monomial = req.doc is not None and "monomials" in req.doc
    if command == "sections":
        return (_check_monomial_sections if monomial else _check_polynomial_sections)(req, result)
    if command == "lowrank":
        return _check_monomial_lowrank(req, result, ms.powers_check) if monomial else []
    if command == "line-test":
        return _check_line_test(req, result)
    if command == "search":
        return _check_search(req, result, ms.verdict)
    return [f"no check for {command}"]
