"""Command-line interface: exit codes, payloads, and JSON stability."""

import json

import pytest

from knotpoly import cli, pretzel, verify
from knotpoly.cli import (QTORUS_N_MAX, TRACE_MAX_LETTERS, TWOBRIDGE_P_MAX,
                          VERIFY_P_MAX, main)
from knotpoly.exactpoly import EXPONENT_BOUND, InexactDivisionError, MultiPoly
from knotpoly.report import InternalInconsistencyError
from knotpoly.twobridge import all_knots


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr()


def run_json(capsys, *args):
    code, captured = run(capsys, *args, "--json")
    return code, json.loads(captured.out), captured.out


# -- exit codes ------------------------------------------------------------

def test_twobridge_passes(capsys):
    code, captured = run(capsys, "twobridge", "--p", "7", "--m", "3")
    assert code == 0
    assert "0 failing" in captured.out


def test_pretzel_honest_failure(capsys):
    # n = 7 has a repeated slice factor, so its distinctness report fails
    code, captured = run(capsys, "pretzel", "--n", "7")
    assert code == 1
    assert "1 failing" in captured.out


def test_invalid_bridge_parameters(capsys):
    code, captured = run(capsys, "twobridge", "--p", "6", "--m", "1")
    assert code == 2
    assert "error:" in captured.err


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag(capsys):
    assert run(capsys, "pretzel")[0] == 2


def test_verify_qtorus_suite(capsys):
    code, captured = run(capsys, "verify", "--suite", "qtorus")
    assert code == 0
    assert "0 failing" in captured.out


def test_verify_pretzel_suite_small_window(capsys):
    code, captured = run(capsys, "verify", "--suite", "pretzel",
                         "--n-range", "-2", "2")
    assert code == 0


@pytest.mark.parametrize("p", ["0", "2", "-7"])
def test_verify_rejects_p_below_three(capsys, p):
    code, captured = run(capsys, "verify", "--suite", "twobridge", "--p", p)
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_verify_rejects_inverted_n_range(capsys):
    code, captured = run(capsys, "verify", "--suite", "pretzel",
                         "--n-range", "5", "-5")
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_qtorus_rejects_inverted_n_range(capsys):
    code, captured = run(capsys, "qtorus", "--n-range", "20", "-20")
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lo, hi", [(-QTORUS_N_MAX - 1, 0),
                                    (0, QTORUS_N_MAX + 1)])
def test_qtorus_rejects_n_range_over_the_cap(capsys, lo, hi):
    code, captured = run(capsys, "qtorus", "--n-range", str(lo), str(hi))
    assert code == 2
    assert "error:" in captured.err
    assert str(QTORUS_N_MAX) in captured.err
    assert captured.out == ""


def test_trace_rejects_oversized_word(capsys):
    # the second letter count does not fit an index-sized int
    for word in ("a^10000", "a^99999999999999999999"):
        code, captured = run(capsys, "trace", "--word", word)
        assert code == 2, word
        assert "error:" in captured.err
        assert captured.out == ""


def test_trace_names_a_malformed_exponent(capsys):
    code, captured = run(capsys, "trace", "--word", "a^")
    assert code == 2
    assert captured.err == "error: malformed token 'a^'\n"
    assert captured.out == ""


def test_pretzel_rejects_oversized_n(capsys):
    code, captured = run(capsys, "pretzel", "--n", "5000")
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "pretzel", "--n-range", "20", "25"),
    ("pretzel", "--n", "3")])
def test_tol_flag_is_a_usage_error(capsys, args):
    # a caller-chosen tolerance could turn honest numeric failures into
    # passes, so the numeric checks keep one fixed tolerance
    code, captured = run(capsys, *args, "--tol", "1")
    assert code == 2
    assert "--tol" in captured.err
    assert captured.out == ""


def test_verify_accepts_seed(capsys):
    code, captured = run(capsys, "verify", "--suite", "qtorus", "--seed", "1")
    assert code == 0
    assert "0 failing" in captured.out


@pytest.mark.parametrize("args", [
    ("twobridge", "--p", "7", "--m", "3"), ("pretzel", "--n", "3"),
    ("trace", "--word", "a b"), ("qtorus", "demo-unknot")])
def test_seed_flag_outside_verify_is_a_usage_error(capsys, args):
    # only verify draws random words and ring elements; elsewhere the
    # flag would change nothing
    code, captured = run(capsys, *args, "--seed", "1")
    assert code == 2
    assert "--seed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lo, hi", [("-5000", "5"), ("-5", "5000")])
def test_verify_rejects_oversized_n_range(capsys, lo, hi):
    code, captured = run(capsys, "verify", "--suite", "pretzel",
                         "--n-range", lo, hi)
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_trace_accepts_word_at_the_cap(capsys):
    half = TRACE_MAX_LETTERS // 2
    code, captured = run(capsys, "trace", "--word", f"a^{half} b^-{half}")
    assert code == 0
    assert captured.err == ""
    code, captured = run(capsys, "trace", "--word", f"a^{half + 1} b^-{half}")
    assert code == 2
    assert "error:" in captured.err


def test_twobridge_rejects_p_over_the_cap(capsys):
    code, captured = run(capsys, "twobridge", "--p", str(TWOBRIDGE_P_MAX + 2),
                         "--m", "1")
    assert code == 2
    assert "error:" in captured.err
    assert str(TWOBRIDGE_P_MAX) in captured.err
    assert captured.out == ""


def test_verify_rejects_p_over_the_cap(capsys):
    code, captured = run(capsys, "verify", "--suite", "twobridge",
                         "--p", str(VERIFY_P_MAX + 1))
    assert code == 2
    assert "error:" in captured.err
    assert str(VERIFY_P_MAX) in captured.err
    assert captured.out == ""


def test_verify_twobridge_checks_leading_terms_and_irreducibility_to_p(
        capsys):
    # both claims follow --p: one leading-terms report per knot and one
    # irreducibility cross-check per odd p, with no cap of their own
    code, doc, _ = run_json(capsys, "verify", "--suite", "twobridge",
                            "--p", "15")
    assert code == 0
    subjects = {}
    for r in doc["reports"]:
        subjects.setdefault(r["claim_id"], []).append(r["subject"])
    assert sorted(subjects["leading-terms"]) == \
        sorted(k.label() for k in all_knots(15))
    assert sorted(subjects["irreducibility-crosscheck"]) == \
        sorted(f"p={p}" for p in range(3, 16, 2))


@pytest.mark.parametrize("args", [
    ("--suite", "qtorus", "--n-range", "-5", "5"),
    ("--suite", "twobridge", "--n-range", "-5", "5"),
    ("--suite", "pretzel", "--p", "71"),
    ("--suite", "qtorus", "--p", "71"),
    ("--suite", "twobridge", "--seed", "3"),
    ("--suite", "pretzel", "--seed", "3"),
])
def test_verify_option_its_suite_never_reads_is_a_usage_error(capsys, args):
    code, captured = run(capsys, "verify", *args, "--json")
    assert code == 2
    assert "error:" in captured.err
    assert "applies to --suite" in captured.err
    assert captured.out == ""


def test_exponent_overflow_exits_three(capsys, monkeypatch):
    # [n] replaced by a sequence at the top of the exponent range: the
    # action multiplies it by t^(2 + 4n), which leaves the field
    top = MultiPoly(("t",), {(EXPONENT_BOUND - 1,): 1}, (True,))
    monkeypatch.setattr(verify, "jones_unknot", lambda n: top)
    code, captured = run(capsys, "qtorus", "--n-range", "1", "2", "--json")
    assert code == 3
    assert captured.err.startswith("internal error: OverflowError:")
    assert captured.out == ""


@pytest.mark.parametrize("exc", [
    InternalInconsistencyError("slice factor lost"),
    InexactDivisionError("x does not divide 1"),
    ZeroDivisionError("division by the zero polynomial"),
])
def test_internal_fault_exits_three(capsys, monkeypatch, exc):
    def broken(args):
        raise exc
    monkeypatch.setitem(cli._DISPATCH, "pretzel", broken)
    code, captured = run(capsys, "pretzel", "--n", "1")
    assert code == 3
    assert captured.err.startswith("internal error:")
    assert str(exc) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("as_json", [False, True])
def test_run_with_no_reports_is_not_a_pass(capsys, monkeypatch, as_json):
    monkeypatch.setitem(cli._DISPATCH, "verify",
                        lambda args: ("suite:empty", {"suite": "empty"}, []))
    args = ("verify", "--suite", "qtorus") + (("--json",) if as_json else ())
    code, captured = run(capsys, *args)
    assert code == 1
    assert "no claim was checked" in captured.err


# -- payloads --------------------------------------------------------------

def test_trace_plain_output(capsys):
    code, captured = run(capsys, "trace", "--word", "a b^-1")
    assert code == 0
    assert captured.out.strip() == "x*y - z"


def test_trace_json_payload(capsys):
    code, doc, _ = run_json(capsys, "trace", "--word", "a b a^-1 b^-1")
    assert code == 0
    assert doc["trace"] == "-x*y*z + x^2 + y^2 + z^2 - 2"
    assert doc["word"] == "a b a^-1 b^-1"


def test_twobridge_json_payload(capsys):
    code, doc, _ = run_json(capsys, "twobridge", "--p", "7", "--m", "3")
    assert code == 0
    assert doc["subject"] == "b(7,3)"
    assert doc["z_degree"] == 3
    assert doc["irreducibility"] == "guaranteed-irreducible-over-C"
    assert set(doc) >= {"phi", "gamma", "reports", "tool_version"}


def test_qtorus_json_payload(capsys):
    code, doc, _ = run_json(capsys, "qtorus", "demo-unknot")
    assert code == 0
    assert doc["alpha"] == "(M^2 - 1)*L + (-t^2*M^2 + t^-2)"
    assert doc["aj_unknot"]["quotient_by_l_minus_1"] == "M^2 - 1"
    assert doc["sigma_factor"]["h"] == "t^2*M^2"
    assert doc["sigma_factor"]["ordering"] == "LdLeft"


def test_pretzel_json_payload(capsys):
    code, doc, _ = run_json(capsys, "pretzel", "--n", "2")
    assert code == 0
    assert doc["subject"] == "pretzel(-2,3,5)"
    assert set(doc["x0"]) == {"a_n", "b_n", "u_n"}
    assert {r["claim_id"] for r in doc["reports"]} >= {
        "closed-vs-traced", "x0-slice", "resultant-structure"}


def test_pretzel_reports_the_resultant_once_for_every_n(capsys, monkeypatch):
    built = []
    build = pretzel.pq_resultant

    def counted(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(cli, "pq_resultant", counted)
    monkeypatch.setattr(pretzel, "pq_resultant", counted)
    code, doc, _ = run_json(capsys, "pretzel", "--n", "-19")
    assert code == 0
    assert doc["resultant"] == build(-19).to_text()
    assert ("resultant-structure", "n=-19", "pass") in {
        (r["claim_id"], r["subject"], r["status"]) for r in doc["reports"]}
    assert built == [-19]


def test_pretzel_reports_closed_forms_and_witnesses_past_the_old_caps(
        capsys):
    # a silent cap on n would drop the closed-form and witness reports;
    # n = 19 is 1 mod 3, so only its known distinctness report fails
    code, doc, _ = run_json(capsys, "pretzel", "--n", "19")
    assert code == 1
    statuses = {r["claim_id"]: r["status"] for r in doc["reports"]
                if r["subject"] == "n=19"}
    assert [c for c, st in statuses.items() if st == "fail"] == [
        "x0-seidenberg"]
    for claim in ("closed-vs-traced", "witness-generic-y", "witness-y-two",
                  "witness-y-minus-two"):
        assert statuses.get(claim) == "pass", claim


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


# -- JSON discipline -------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("trace", "--word", "a b"),
    ("twobridge", "--p", "5", "--m", "3"),
    ("pretzel", "--n", "1"),
    ("qtorus", "demo-unknot"),
])
def test_json_round_trip_is_byte_identical(capsys, args):
    _, doc, raw = run_json(capsys, *args)
    assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# the float residuals of the x = 0 slice; once those verdicts are exact,
# this set becomes empty
FLOAT_DETAIL_CLAIMS = ("x0-cosine-roots", "x0-seidenberg")


def _has_float(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_has_float, value))
    return isinstance(value, float)


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "pretzel", "--n-range", "-2", "22"),
    ("pretzel", "--n", "5"),
    ("twobridge", "--p", "7", "--m", "3"),
    ("qtorus",),
])
def test_floats_only_in_the_numeric_x0_details(capsys, args):
    _, doc, _ = run_json(capsys, *args)
    reports = doc.pop("reports")
    assert not _has_float(doc)
    for rep in reports:
        details = rep.pop("details")
        assert not _has_float(rep), rep
        if _has_float(details):
            assert rep["claim_id"] in FLOAT_DETAIL_CLAIMS, rep
            assert rep["status"] in ("numeric-pass", "fail"), rep


def test_reports_sorted_by_claim_then_subject(capsys):
    _, doc, _ = run_json(capsys, "verify", "--suite", "pretzel",
                         "--n-range", "-2", "2")
    keys = [(r["claim_id"], r["subject"]) for r in doc["reports"]]
    assert keys == sorted(keys)
    assert len(keys) > 10
