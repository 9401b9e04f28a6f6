import argparse
import gc
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import syzstab
from syzstab import monomial_stability, sections
from syzstab.cli import normalize_document, parse_monomial_text, payload_dump, run
from syzstab.core import MAX_VARIABLES
from syzstab.monomial_stability import degree_vectors
from strategies import degree_vector


def capture(argv, stdin=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        rc = run(argv, stdout=buf)
    finally:
        sys.stdin = old_stdin
    return rc, buf.getvalue()


def test_parse_monomial_text():
    assert parse_monomial_text("X^4*Y^2") == {0: 4, 1: 2}
    assert parse_monomial_text("Z") == {2: 1}
    assert parse_monomial_text("X0^3*X2") == {0: 3, 2: 1}
    assert parse_monomial_text("X*X") == {0: 2}
    with pytest.raises(ValueError):
        parse_monomial_text("XY")  # implicit multiplication is rejected
    with pytest.raises(ValueError):
        parse_monomial_text("X^")
    with pytest.raises(ValueError):
        parse_monomial_text("X0*Y")  # mixed naming styles


def test_monomial_formatting_roundtrips_through_parser():
    import random

    from syzstab.core import Monomial

    rng = random.Random(13)
    for _ in range(100):
        nvars = rng.randint(1, 4)
        exps = tuple(rng.randint(0, 6) for _ in range(nvars))
        if sum(exps) == 0:
            continue
        text = str(Monomial(exps))
        parsed = parse_monomial_text(text)
        assert all(parsed.get(j, 0) == e for j, e in enumerate(exps))


def test_normalize_document_validation():
    with pytest.raises(ValueError):
        normalize_document({"variables": 3})
    with pytest.raises(ValueError):
        normalize_document({"variables": 3, "monomials": [[1, 0]]})
    with pytest.raises(ValueError):
        normalize_document(
            {"variables": 2, "monomials": [[1, 0]], "polynomials": []}
        )
    doc = normalize_document({"variables": 2, "monomials": [[1, 0], [0, 1]]})
    assert doc == {"variables": 2, "monomials": [[1, 0], [0, 1]]}


def _poly_doc(term):
    return {"variables": 2, "polynomials": [{"terms": [term]}, {"terms": [[1, 1, [0, 1]]]}]}


# Each non-integer JSON number used to be truncated by int(): 1.5 became 1,
# 0.1 became a zero coefficient, 2.7 became 2 and true became 1.  A "terms"
# value that is not a list used to crash with a TypeError.
@pytest.mark.parametrize(
    "doc, field",
    [
        ({"variables": 2.0, "monomials": [[1, 0], [0, 1]]}, "'variables'"),
        ({"variables": True, "monomials": [[1], [1]]}, "'variables'"),
        ({"variables": 2, "monomials": [[2.7, 0], [0, 1]]}, "exponent in [2.7, 0]"),
        ({"variables": 2, "monomials": [[True, 0], [0, 1]]}, "exponent in [True, 0]"),
        (_poly_doc([1.5, 1, [1, 0]]), "'num' of term"),
        (_poly_doc([0.1, 1, [1, 0]]), "'num' of term"),
        (_poly_doc([1, 2.5, [1, 0]]), "'den' of term"),
        (_poly_doc([1, True, [1, 0]]), "'den' of term"),
        (_poly_doc([1, 1, [2.7, 0]]), "exponent in term"),
        (_poly_doc([1, 1, ["1", 0]]), "exponent in term"),
        ({"variables": 2, "polynomials": [{"terms": 5}]}, "'terms' list"),
    ],
)
def test_malformed_document_fields_are_refused(doc, field, capsys):
    with pytest.raises(ValueError, match=re.escape(field)):
        normalize_document(doc)
    rc, out = capture(["sections", "--twist", "2", "--json"], stdin=json.dumps(doc))
    assert rc == 1 and out == ""
    assert field in capsys.readouterr().err


def test_check_text_output():
    rc, out = capture(["check", "--monomials", "X^5,X^4*Z,Y^5,Y^4*Z,Z^5"])
    assert rc == 0
    assert "Unstable" in out
    assert "-25/4" in out and "-6.25" in out


def test_check_json_stable_kind():
    rc, out = capture(["check", "--monomials", "X^2,Y^2,Z^2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"]["verdict"]["kind"] == "Stable"


def test_json_roundtrip_is_byte_identical(tmp_path):
    rc, out1 = capture(
        ["check", "--monomials", "X^6,Y^6,Z^6,X^2*Y^2*Z^2,X*Y^2*Z^3", "--json"]
    )
    assert rc == 0
    doc = json.loads(out1)["input"]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    rc, out2 = capture(["check", "--file", str(path), "--json"])
    assert rc == 0 and out1 == out2
    rc, out3 = capture(["check", "--json"], stdin=json.dumps(doc))
    assert rc == 0 and out1 == out3


def test_check_and_oracle_agree():
    for text in ("X^4,Y^4,Z^4,X*Z^3", "X^2,Y^2,Z^2", "X^5,X^4*Y,X^3*Y^2"):
        rc1, out1 = capture(["check", "--monomials", text, "--json"])
        rc2, out2 = capture(["oracle", "--monomials", text, "--json"])
        assert rc1 == rc2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert a["result"] == b["result"]


def test_exit_codes():
    rc, _ = capture(["check"], stdin="{not json")
    assert rc == 1
    rc, _ = capture(["check", "--monomials", "X^2,X^2"])
    assert rc == 1  # duplicate member: malformed family document
    polydoc = {
        "variables": 2,
        "polynomials": [
            {"terms": [[1, 1, [1, 0]]]},
            {"terms": [[1, 1, [0, 1]]]},
        ],
    }
    rc, _ = capture(["check"], stdin=json.dumps(polydoc))
    assert rc == 2  # verdicts need monomials


# all_monomials_family(2, 5): 21 members, one above the oracle ceiling
OVER_CEILING = json.dumps(
    {"variables": 3, "monomials": [list(v) for v in degree_vectors(3, 5)]}
)


def test_oracle_ceiling_env(monkeypatch, capsys):
    # SYZSTAB_ORACLE_CEILING is not read: even a value that is no integer
    # leaves the fixed ceiling in force
    monkeypatch.setenv("SYZSTAB_ORACLE_CEILING", "not-a-number")
    for flags in ([], ["--json"]):
        rc, out = capture(["oracle"] + flags, stdin=OVER_CEILING)
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == (
            "precondition violated [oracle-ceiling]: "
            "family of size 21 exceeds the brute-force ceiling 20\n"
        )


def test_oracle_ignores_ceiling_env(monkeypatch):
    argv = ["oracle", "--monomials", "X^2,Y^2,Z^2,X*Y", "--json"]
    monkeypatch.delenv("SYZSTAB_ORACLE_CEILING", raising=False)
    plain = capture(argv)
    monkeypatch.setenv("SYZSTAB_ORACLE_CEILING", "3")
    assert capture(argv) == plain
    assert plain[0] == 0


def count_engine_runs(monkeypatch) -> dict:
    calls = {"_pruned_extrema": 0, "_brute_extrema": 0}
    for name in calls:
        engine = getattr(monomial_stability, name)

        def counted(*args, _name=name, _engine=engine):
            calls[_name] += 1
            return _engine(*args)

        monkeypatch.setattr(monomial_stability, name, counted)
    return calls


@pytest.mark.parametrize(
    "command, engine", [("check", "_pruned_extrema"), ("oracle", "_brute_extrema")]
)
def test_check_runs_the_engine_once(monkeypatch, command, engine):
    calls = count_engine_runs(monkeypatch)
    rc, _ = capture([command, "--monomials", "X^4,Y^4,Z^4,X*Y*Z^2,X^2*Y", "--json"])
    assert rc == 0
    assert calls[engine] == 1 and sum(calls.values()) == 1


def test_oracle_over_ceiling_runs_no_engine(monkeypatch):
    calls = count_engine_runs(monkeypatch)
    rc, _ = capture(["oracle", "--json"], stdin=OVER_CEILING)
    assert rc == 2
    assert calls == {"_pruned_extrema": 0, "_brute_extrema": 0}
    rc, _ = capture(["check", "--json"], stdin=OVER_CEILING)
    assert rc == 0
    assert calls == {"_pruned_extrema": 1, "_brute_extrema": 0}


def test_sections_command():
    rc, out = capture(
        ["sections", "--monomials", "X^3,X*Y^2,Z*Y^2", "--twist", "4", "--json"]
    )
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["section_dim"] == 1
    assert result["min_section_degree"] == 4


def test_sections_of_monomials_with_a_plane_of_common_zeros(monkeypatch):
    # X0^3, X0*X1, X1^4 in 5 variables vanish on the plane X0 = X1 = 0, so
    # dim (R/I)_m grows with m and twist 200 is decided at the twist itself.
    # R/I = k[x0, x1]/(x0^3, x0*x1, x1^4) (x) k[x2, x3, x4] has h-vector
    # (1, 2, 2, 1), so the count is checked by hand.  No basis of a degree
    # above 20 may be enumerated on the way.
    real = sections.degree_vectors

    def small(nvars, degree):
        if degree > 20:
            raise AssertionError(f"enumerated the degree-{degree} monomials")
        return real(nvars, degree)

    monkeypatch.setattr(sections, "degree_vectors", small)
    rc, out = capture(["sections", "--monomials", "X0^3,X0*X1,X1^4", "--vars", "5", "--twist", "200"])
    quotient = sum(h * comb(202 - i, 2) for i, h in enumerate((1, 2, 2, 1)))
    excess = comb(201, 4) + comb(202, 4) + comb(200, 4) - comb(204, 4)
    assert excess + quotient == 128076201
    assert rc == 0
    assert out.splitlines()[0] == "section dimension at twist 200: 128076201"


def test_lowrank_command():
    rc, out = capture(["lowrank", "--monomials", "X^3,X*Y^2,Z*Y^2", "--json"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["rank"] == 2
    assert result["verdict"]["kind"] == "Unstable"
    assert result["verdict"]["witness"]["twist"] == 4


def test_bounds_and_necessary_commands():
    rc, out = capture(["bounds", "--degrees", "2,2,2", "--vars", "3", "--json"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["flenner_degree"] == 2
    assert result["bogomolov_min_degree"] == 7
    assert result["tight_closure_bound"] == {"num": 3, "den": 1}
    rc, out = capture(["necessary", "--degrees", "3,1,1", "--json"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["holds"] is False and result["first_failing_r"] == 1


def test_report_command():
    rc, out = capture(["report", "--degrees", "2,2,2", "--vars", "3"])
    assert rc == 0
    assert "degree >= 3" in out
    assert ">= 2" in out and ">= 7" in out
    rc, out = capture(["report", "--monomials", "X^2,Y^2,Z^2", "--json"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["verdict"]["kind"] == "Stable"
    assert result["bounds"]["bogomolov_min_degree"] == 7


def test_search_command():
    rc, out = capture(
        ["search", "--vars", "3", "--degree", "4", "--count", "5", "--json"]
    )
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["status"] == "Found"
    assert len(result["family"]["monomials"]) == 5


def test_sections_requires_twist():
    rc, _ = capture(["sections", "--monomials", "X^2,Y^2"])
    assert rc == 2


def test_bounds_requires_vars_with_degrees():
    rc, _ = capture(["bounds", "--degrees", "2,2,2"])
    assert rc == 2


@pytest.mark.parametrize("command", ["bounds", "report", "necessary"])
@pytest.mark.parametrize("variables", ["0", "-3"])
def test_vars_below_one_is_out_of_range(command, variables, capsys):
    rc, out = capture([command, "--degrees", "2,2,2", "--vars", variables, "--json"])
    assert rc == 2 and out == ""
    assert "[vars-range]" in capsys.readouterr().err


def test_report_on_polynomial_family():
    doc = {
        "variables": 3,
        "polynomials": [
            {"terms": [[1, 1, [2, 0, 0]], [1, 1, [0, 2, 0]]]},
            {"terms": [[1, 1, [0, 2, 0]]]},
            {"terms": [[1, 1, [0, 0, 2]]]},
        ],
    }
    rc, out = capture(["report", "--json"], stdin=json.dumps(doc))
    assert rc == 0
    result = json.loads(out)["result"]
    assert "verdict" not in result  # verdicts need monomial families
    assert result["bounds"]["tight_closure_bound"] == {"num": 3, "den": 1}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        # one variable: the sampler used to loop forever
        (
            ["line-test"],
            '{"variables":1,"polynomials":[{"terms":[[1,1,[2]]]},{"terms":[[2,1,[2]]]}]}',
        ),
        # negative trials used to report "ProbablyNo (trials used: -5)"
        (["line-test", "--monomials", "X^3,Y^3,Z^3,X^2*Y", "--trials", "-5"], None),
    ],
)
def test_line_test_preconditions_exit_2(argv, stdin):
    rc, out = capture(argv, stdin=stdin)
    assert rc == 2 and out == ""


def test_line_test_accepts_zero_trials():
    rc, out = capture(["line-test", "--monomials", "X^4,Y^4,Z^4,X^3*Y,X^3*Z", "--trials", "0"])
    assert rc == 0 and out.startswith("line-independence: ProbablyNo (trials used: 0)")


def test_line_test_command_deterministic():
    args = ["line-test", "--monomials", "X^4,Y^4,Z^4,X^3*Y,X^3*Z", "--json"]
    outs = {capture(args)[1] for _ in range(3)}
    assert len(outs) == 1
    payload = json.loads(next(iter(outs)))
    assert payload["result"]["status"] == "ProbablyNo"
    rc, out = capture(args[:-1] + ["--exhaustive", "--json"])
    assert json.loads(out)["result"]["status"] == "CertifiedNo"


# The eleven CLI examples of README.md with the sha256 of their exact output
# in text mode and with --json, captured before the command table replaced the
# per-command parser blocks (the two above the Macaulay bound before the
# excess rule, respectively the persistence rule, that now decides them); any
# byte of drift in a renderer shows up here.
README_EXAMPLES = [
    (
        'check --monomials "X^6,Y^6,Z^6,X^2*Y^2*Z^2,X*Y^2*Z^3"',
        "098f69b9467bd3672257a806a4e32d6d061c4a305bb315c7158f430ae39179cf",
        "d75e6a0916a9b518c0543962973df8107ec548fe042271795767749e76bfafbb",
    ),
    (
        'oracle --monomials "X^2,Y^2,Z^2"',
        "76e08673b830af3a547d02dfb594de93ec8a92d3ad4cbb12bc4870975c3635e0",
        "dba7c00c13d9c9f4dfa159a0b8f92a5932366945ad7dd3ef14e7480284527e47",
    ),
    (
        'sections --monomials "X^3,X*Y^2,Z*Y^2" --twist 4',
        "6d7b35fe2d89de709c537ba41f35cb316c54e6e547b918d206d1bdbd4e92b2cb",
        "87fe78b4a7df7eb3fc11e1ad110e6ee5febe1dfaacd9c274170dc9025212ff58",
    ),
    (
        'sections --monomials "X^3,Y^3,Z^3,X*Y*Z" --twist 9',
        "0be3576f464b2dc47d784b34941c51d17b4bf1aa14ba0321106854153ae0f63e",
        "bfb14f78ca3e356d742bd1befafe9564eced4760a217c158107da87cca70bcbd",
    ),
    (
        'sections --vars 3 --monomials "X^2,X*Y,Y^2" --twist 9',
        "5c9dbfd8c4711696deae74056a3e5d5fe40f1ad3e363519aa2dbadccd4cdcccf",
        "4b9e6335495734b4ae9e8c3653afc1a205742b2bddd90621d80d156b624f627f",
    ),
    (
        'lowrank --monomials "X^3,X*Y^2,Z*Y^2"',
        "0fee105bcbb1da08e8ce054fa821a3fb893e2db45dd21483fdf4cae140240a73",
        "6512e64782785e9f8b613fa80decbd21776415a0dfe2a96a5803120d6e66ed19",
    ),
    (
        "necessary --degrees 1,1,3",
        "ec80e9d4060794489cabf2eeaf459054358b72f02a5a1746a7e0e2d78aad2c7d",
        "c76e808ef1fd58917086b741c74b00ce7861661de55cc73a7cd7059e726b269d",
    ),
    (
        "bounds --degrees 2,2,2 --vars 3",
        "fbd630f46e5d1a905875280e1adc3235ec2d081821584b09e83d1032d7e650d0",
        "18294b15a5f14c586ea1761e6564898af576665059f9d302c696164b5e9f86d0",
    ),
    (
        'report --monomials "X^2,Y^2,Z^2"',
        "04283a1caf20d0e300b3654a2dc584d32da86ace6f73f7a8441f207a159c6897",
        "68eaa532f002b9e6d0f2f56f335e87a4fb4c033d0931884a75a59031169e8597",
    ),
    (
        'line-test --monomials "X^3,Y^3,Z^3,X^2*Y" --trials 64 --seed 0',
        "f7a63a91da6dbb45844a493a398dee6530e836692a6f35e950cc3ada61dc582f",
        "d51bc0477f94cf9cc0be47e444629d4d5aceac71760718febd395003d015a44e",
    ),
    (
        'search --vars 3 --degree 4 --count 5',
        "0e627bb2f32e1251b8509facfe86f036c8745a5e79a16a956980f18b42d548c8",
        "8973682b019ac586044c0dd9339e22a863e2846fd4ef0a32d338dc128beccf5e",
    ),
]


@pytest.mark.parametrize("example, text_sha, json_sha", README_EXAMPLES)
def test_readme_examples_are_byte_identical(example, text_sha, json_sha):
    argv = shlex.split(example)
    for flags, expected in (([], text_sha), (["--json"], json_sha)):
        rc, out = capture(argv + flags)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, out


def _terms(*terms):
    return {"terms": [[num, den, list(exps)] for num, den, *exps in terms]}


# Rational-coefficient documents for the line test: the --json bytes are
# pinned so the scaling of rational images to integers cannot drift.
RATIONAL_LINE_DOCS = {
    # X^3, Y^3, Z^3, X^2*Y mixed: every projection loses one image, so the
    # witness comes from a sample or from the first nonzero minor
    "cubics": {"variables": 3, "polynomials": [
        _terms((1, 2, 3, 0, 0), (-2, 3, 2, 1, 0)),
        _terms((3, 4, 0, 3, 0), (5, 6, 2, 1, 0)),
        _terms((-7, 5, 0, 0, 3), (1, 9, 2, 1, 0)),
        _terms((2, 7, 2, 1, 0)),
    ]},
    # X^3, Y^3, Z^3, X*Y*Z mixed: on a line Z restricts to a combination of
    # X and Y, so the four images are always dependent
    "product": {"variables": 3, "polynomials": [
        _terms((1, 2, 3, 0, 0), (-2, 3, 1, 1, 1)),
        _terms((3, 4, 0, 3, 0), (5, 6, 1, 1, 1)),
        _terms((-7, 5, 0, 0, 3), (1, 9, 1, 1, 1)),
        _terms((2, 7, 1, 1, 1)),
    ]},
    "quadrics": {"variables": 4, "polynomials": [
        _terms((1, 3, 1, 0, 0, 1), (-5, 2, 0, 1, 1, 0)),
        _terms((2, 9, 0, 1, 0, 1), (4, 7, 1, 0, 1, 0)),
        _terms((-3, 8, 0, 0, 1, 1), (1, 6, 1, 1, 0, 0)),
    ]},
}


@pytest.mark.parametrize(
    "name, flags, status, json_sha",
    [
        ("cubics", "--exhaustive", "CertifiedYes",
         "37a8194ce1a3a4813232f3b8ff267f11dcad50a01e273d15274ef0ec986ac467"),
        ("cubics", "--exhaustive --trials 0", "CertifiedYes",
         "7e44bb095a6049a683a343a1066a25aa9ca5b52446c8c04232a214df4a07c286"),
        ("cubics", "--trials 8 --seed 3", "CertifiedYes",
         "adf2f7a4d68ab6d18223678fe11cece06367062bede618528c6375b84db8b0f1"),
        ("product", "--exhaustive", "CertifiedNo",
         "048492572599dbb484a235ebfc96d46144261479b44930480f710fc3f972b90b"),
        ("product", "--exhaustive --trials 0", "CertifiedNo",
         "048492572599dbb484a235ebfc96d46144261479b44930480f710fc3f972b90b"),
        ("product", "--trials 8 --seed 3", "ProbablyNo",
         "bdc1bf853cf464ff29938be4e9eeaef0d3a5e7c299e545d216b4e11dca48b750"),
        ("quadrics", "--exhaustive", "CertifiedYes",
         "7540d9a72fc7a65bfd0c8f2ce22ff427c96d8443efaca4a1784551bb73d8289a"),
        ("quadrics", "--exhaustive --trials 0", "CertifiedYes",
         "132b3a4bad9d28a6cd84c6ebd8b135607062b3292aacaf38e7674385fbc59f90"),
        ("quadrics", "--trials 8 --seed 3", "CertifiedYes",
         "63af7843a7279ebc6333c204c842cc9f034f2616adaddbcdd50287c0ed8fc9fb"),
    ],
)
def test_rational_line_test_json_is_byte_identical(name, flags, status, json_sha):
    argv = ["line-test", *flags.split(), "--json"]
    rc, out = capture(argv, stdin=json.dumps(RATIONAL_LINE_DOCS[name]))
    assert rc == 0
    assert json.loads(out)["result"]["status"] == status
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha, out


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert capture(["check", "--monomials", "X^2,Y^2,Z^2,X*Y"])[0] == 0
    assert capture(["check"], stdin="{not json")[0] == 1
    assert capture(["sections", "--monomials", "X^2,Y^2"])[0] == 2
    with pytest.raises(SystemExit) as info:
        capture(["check", "--no-such-flag"])
    assert info.value.code == 2
    argv = ["search", "--vars", "3", "--degree", "2", "--count", "4", "--json"]
    rc, out = capture(argv)
    capsys.readouterr()
    assert built == []
    src = Path(syzstab.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "syzstab", *argv],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src)},
    )
    assert (rc, out) == (fresh.returncode, fresh.stdout)


HUGE = 10**400


@pytest.mark.parametrize(
    "argv, approx",
    [
        (["check", "--monomials", f"X^{HUGE},Y^2,X*Y"], "(-5e+399)"),
        (["bounds", "--degrees", f"{HUGE},{HUGE},{HUGE}", "--vars", "3"], "(1.5e+400)"),
        (["report", "--degrees", f"{HUGE},{HUGE},{HUGE}", "--vars", "3"], "(1.5e+400)"),
        (["report", "--monomials", f"X^{HUGE},Y^2,X*Y"], "(5e+399)"),
    ],
)
def test_slopes_past_the_float_range_are_printed(argv, approx):
    rc, out = capture(argv)
    assert rc == 0 and approx in out
    rc, out = capture(argv + ["--json"])
    assert rc == 0 and json.loads(out)["result"]


# An integer longer than Python's string-conversion limit (4300 digits by
# default) makes int() raise ValueError; the monomial parser and json.loads
# let it escape as a traceback instead of exiting 1.
OVERLONG = "1" + "0" * 5000


@pytest.mark.parametrize(
    "monomials, message",
    [
        (f"X^{OVERLONG},Y^2,X*Y", "error: exponent has too many digits (5001)"),
        (f"X{OVERLONG},Y^2,X*Y", "error: variable index has too many digits (5001)"),
    ],
    ids=["exponent", "variable-index"],
)
def test_overlong_integers_in_monomial_text_exit_1(monomials, message, capsys):
    for flags in ([], ["--json"]):
        rc, out = capture(["check", "--monomials", monomials] + flags)
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == message + "\n"


OVERLONG_DOCS = {
    "exponent": f'{{"variables": 2, "monomials": [[{OVERLONG}, 0], [0, 2], [1, 1]]}}',
    "num": '{"variables": 2, "polynomials": [{"terms": [[%s, 1, [1, 0]]]}, '
    '{"terms": [[1, 1, [0, 1]]]}]}' % OVERLONG,
}


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("name", sorted(OVERLONG_DOCS))
def test_overlong_integers_in_documents_exit_1(name, source, tmp_path, capsys):
    argv, stdin = ["sections", "--twist", "2"], OVERLONG_DOCS[name]
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_text(stdin)
        argv, stdin = argv + ["--file", str(path)], None
    for flags in ([], ["--json"]):
        rc, out = capture(argv + flags, stdin=stdin)
        assert (rc, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON document: ") and "4300" in err


# Exponent vectors are dense, so a variable count past the limit is refused
# before any is built: at 10^8 variables, building them runs out of memory.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--monomials", "X100000000,Y^2,X*Y"],
         f"error: monomials use 100000001 variables; at most {MAX_VARIABLES} are supported"),
        (["--vars", "100000000", "--monomials", "X^2,Y^2"],
         f"error: --vars 100000000 is too large; at most {MAX_VARIABLES} are supported"),
        (["--monomials", f"X{MAX_VARIABLES},Y^2,X*Y"],
         f"error: monomials use {MAX_VARIABLES + 1} variables; at most {MAX_VARIABLES} are supported"),
        (["--vars", str(MAX_VARIABLES + 1), "--monomials", "X^2,Y^2"],
         f"error: --vars {MAX_VARIABLES + 1} is too large; at most {MAX_VARIABLES} are supported"),
    ],
    ids=["index", "vars", "index-past-limit", "vars-past-limit"],
)
def test_variable_counts_past_the_limit_exit_1(argv, message, capsys):
    for flags in ([], ["--json"]):
        rc, out = capture(["check"] + argv + flags)
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == message + "\n"


def test_variable_count_at_the_limit_is_accepted():
    top = MAX_VARIABLES - 1
    rc, out = capture(["check", "--monomials", f"X{top}^2,X0^2", "--json"])
    assert rc == 0
    assert json.loads(out)["input"]["variables"] == MAX_VARIABLES
    rc, out = capture(["check", "--vars", str(MAX_VARIABLES), "--monomials", "X^2,Y^2"])
    assert rc == 0


@pytest.mark.parametrize("variables", [MAX_VARIABLES + 1, 100_000_000])
def test_search_past_the_variable_limit_is_refused(variables, capsys):
    argv = ["search", "--vars", str(variables), "--degree", "1", "--count", "2"]
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err.startswith("precondition violated [search-range]")


def test_search_at_the_variable_limit_runs():
    argv = ["search", "--vars", str(MAX_VARIABLES), "--degree", "1", "--count", "2", "--json"]
    rc, out = capture(argv)
    assert rc == 0
    result = json.loads(out)["result"]
    assert (result["status"], result["nodes"]) == ("Found", 3)


# Quotes, backslashes, control characters, DEL, a line separator, non-ASCII
# and astral characters (escaped as surrogate pairs), and a lone surrogate.
_AWKWARD = st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\xe9\u20ac\U0001f600\ud800')
_STRINGS = st.text(st.one_of(_AWKWARD, st.characters()), max_size=8)
_INTS = st.one_of(
    st.integers(),
    st.integers(10**3999, 10**4000 - 1).flatmap(lambda x: st.sampled_from([x, -x])),
)


def _containers(inner):
    return (
        st.lists(_INTS, max_size=4)
        | st.lists(inner, max_size=4)
        | st.dictionaries(_STRINGS, inner, max_size=4)
    )


_PAYLOADS = st.recursive(st.none() | st.booleans() | _INTS | _STRINGS, _containers, max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PAYLOADS)
def test_payload_dump_matches_json_dumps(payload):
    assert payload_dump(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1}, {1: "key not a str"}])
def test_payload_dump_refuses_values_outside_the_grammar(value):
    for payload in (value, {"result": [value]}):
        with pytest.raises(TypeError):
            payload_dump(payload)


def test_json_request_leaves_no_reference_cycle():
    # json.dumps(payload, indent=2) runs the pure-Python encoder, whose nested
    # closures left a 33-object cycle behind every --json request
    argvs = [
        ["search", "--vars", "3", "--degree", "4", "--count", "5", "--json"],
        ["check", "--monomials", "X^2,Y^2,X*Y", "--json"],
    ]
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            assert capture(argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# Sizes stay small (polynomials of degree <= 3 at twists <= 8 in <= 4
# variables), so the whole property runs in a few seconds.
_FAMILY_COMMANDS = ["check", "oracle", "sections", "lowrank", "bounds", "line-test", "report"]


@st.composite
def _family_source(draw, variables, low_rank):
    """(flags, stdin) of one family: inline monomials, or a document of
    2-14 monomials or of 2-4 polynomials of degree <= 3 with <= 4 terms;
    3 or 4 members of either kind when ``low_rank``.  Half the families
    have members of one degree, as the line test needs."""
    kind = draw(st.sampled_from(["inline", "monomials", "polynomials"]))
    degrees = st.integers(0, 3) if kind == "polynomials" else st.integers(1, 6)
    if draw(st.booleans()):
        degrees = st.just(draw(degrees))
    low, high = (3, 4) if low_rank else (2, 4 if kind == "polynomials" else 14)
    if kind == "polynomials":
        polys = []
        for _ in range(draw(st.integers(low, high))):
            d = draw(degrees)
            terms = draw(st.lists(degree_vector(variables, d), min_size=1, max_size=4, unique=True))
            coefficients = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3))
            polys.append({"terms": [[*draw(coefficients), list(v)] for v in terms]})
        return [], json.dumps({"variables": variables, "polynomials": polys})
    members = draw(st.lists(
        degrees.flatmap(lambda e: degree_vector(variables, e)),
        min_size=low, max_size=high, unique=True,
    ))
    if kind == "monomials":
        return [], json.dumps({"variables": variables, "monomials": [list(v) for v in members]})
    names = ["*".join(f"X{j}^{e}" for j, e in enumerate(v) if e) for v in members]
    return ["--vars", str(variables), "--monomials", ",".join(names)], None


@st.composite
def cli_requests(draw):
    """(argv, stdin) of one request without --json."""
    command = draw(st.sampled_from(_FAMILY_COMMANDS + ["necessary", "search"]))
    if command == "search":
        argv = ["search", "--vars", str(draw(st.integers(1, 4))), "--degree",
                str(draw(st.integers(1, 4))), "--count", str(draw(st.integers(2, 8))),
                "--budget", str(draw(st.integers(1, 300)))]
        argv += draw(st.sampled_from([[], ["--stable"]]))
        return argv + draw(st.sampled_from([[], ["--primary-only"]])), None
    variables = draw(st.integers(1, 4))
    if command in ("bounds", "necessary", "report") and draw(st.booleans()):
        degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
        argv = [command, "--degrees", ",".join(map(str, degrees))]
        return argv + draw(st.sampled_from([[], ["--vars", str(variables)]])), None
    flags, stdin = draw(_family_source(variables, command == "lowrank"))
    if command == "sections":
        flags += ["--twist", str(draw(st.integers(-2, 8)))]
    elif command == "line-test":
        flags += draw(st.sampled_from(
            [["--exhaustive"], *(["--trials", str(t)] for t in range(5))]
        ))
    return [command, *flags], stdin


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cli_requests())
def test_cli_requests_exit_cleanly_and_agree_across_formats(request):
    argv, stdin = request
    rc, text = capture(argv, stdin)
    assert rc in (0, 1, 2)
    rc_json, out = capture(argv + ["--json"], stdin)
    assert rc_json == rc
    if rc != 0:
        return
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    result = payload["result"]
    kinds = [result["verdict"]["kind"]] if result.get("verdict") else []
    assert re.findall(r"verdict: (\w+) \[", text) == kinds
    if "status" in result:
        assert f": {result['status']} " in text.splitlines()[0]
