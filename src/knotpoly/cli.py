"""Command-line front end: per-knot reports, suites, canonical JSON.

Exit codes follow the report statuses: 0 when every report passes, 1 when
any fails or when a command that checks claims produced no report, 2 on
usage errors (including inputs past the size caps below), and 3 on an
internal fault: an InternalInconsistencyError, or an ArithmeticError such
as an inexact exact division.  JSON output is a single document with
sorted keys and two-space indentation, so re-serializing a parsed
document reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .pretzel import (PretzelKnot, closed_form_report, defining_p,
                      defining_q, pq_resultant, radical_slice_report,
                      resultant_report, seidenberg_report, traced_qs,
                      witness_reports, x0_report, x0_slice,
                      RADICAL_DIRECT_NS)
from .qtorus import alpha_unknot, qt_text
from .report import InternalInconsistencyError, all_passed, sort_reports
from .sl2trace import (DEFAULT_SEED, trace_poly, word_from_string,
                       word_to_string)
from .twobridge import (TwoBridgeKnot, character_polynomial,
                        irreducibility_certificate, leading_term_report,
                        structural_reports)
from . import verify

# Input size caps: past them a query runs for minutes, so it is refused.
TRACE_MAX_LETTERS = 120
PRETZEL_N_MAX = 100
TWOBRIDGE_P_MAX = 151
VERIFY_P_MAX = 71
QTORUS_N_MAX = 500


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")

    parser = argparse.ArgumentParser(
        prog="knotpoly",
        description="Exact character-variety and recurrence checks for "
                    "two-bridge and pretzel knots.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    tb = sub.add_parser("twobridge", parents=[common],
                        help="per-knot report for b(p, m)")
    tb.add_argument("--p", type=int, required=True)
    tb.add_argument("--m", type=int, required=True)

    pz = sub.add_parser("pretzel", parents=[common],
                        help="per-knot report for the (-2,3,2n+1) pretzel")
    pz.add_argument("--n", type=int, required=True)

    qt = sub.add_parser("qtorus", parents=[common],
                        help="quantum-torus demonstration for the unknot")
    qt.add_argument("action", nargs="?", choices=["demo-unknot"],
                    default="demo-unknot")
    qt.add_argument("--n-range", type=int, nargs=2, metavar=("A", "B"),
                    help="annihilation window (default -20 20)")

    tr = sub.add_parser("trace", parents=[common],
                        help="trace polynomial of a two-generator word")
    tr.add_argument("--word", required=True,
                    help='word such as "a b^-1"')

    vf = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    vf.add_argument("--suite", default="all",
                    choices=["all", "twobridge", "pretzel", "qtorus"])
    vf.add_argument("--n-range", type=int, nargs=2, metavar=("A", "B"),
                    help="pretzel parameter range override")
    vf.add_argument("--p", type=int, default=None,
                    help="two-bridge p cap override")
    vf.add_argument("--seed", type=int, default=None,
                    help="seed for the trace-oracle words and the "
                         "quantum-torus ring elements")
    return parser


def _run_twobridge(args):
    if args.p > TWOBRIDGE_P_MAX:
        raise ValueError(f"--p {args.p} is out of range: p must be at most "
                         f"{TWOBRIDGE_P_MAX}")
    knot = TwoBridgeKnot(args.p, args.m)
    phi = character_polynomial(knot)
    gamma = phi.substitute_square("x", "X")
    payload = {
        "phi": phi.to_text(),
        "gamma": gamma.to_text(),
        "z_degree": knot.d,
        "irreducibility": irreducibility_certificate(knot).value,
    }
    reports = (structural_reports(knot, phi, gamma)
               + [leading_term_report(knot)])
    return knot.label(), payload, reports


def _check_pretzel_n(n, flag):
    if abs(n) > PRETZEL_N_MAX:
        raise ValueError(f"{flag} {n} is out of range: |n| must be at most "
                         f"{PRETZEL_N_MAX}")


def _run_pretzel(args):
    n = args.n
    _check_pretzel_n(n, "--n")
    knot = PretzelKnot(n)
    data = x0_slice(n)
    res = pq_resultant(n)
    reports = [x0_report(data), seidenberg_report(data),
               resultant_report(n, res),
               closed_form_report(n, traced_qs(n, n)[n]),
               *witness_reports(n)]
    if n in RADICAL_DIRECT_NS:
        reports.append(radical_slice_report(data))
    payload = {
        "p": defining_p().to_text(),
        "q_n": defining_q(n).to_text(),
        "x0": {"a_n": data.a_n.to_text(), "b_n": data.b_n.to_text(),
               "u_n": data.u_n.to_text()},
        "resultant": res.to_text(),
    }
    return knot.label(), payload, reports


def _n_range(args):
    """The --n-range pair, or None; an inverted range is a usage error."""
    if args.n_range is None:
        return None
    lo, hi = args.n_range
    if lo > hi:
        raise ValueError(f"--n-range {lo} {hi} is empty")
    return lo, hi


def _run_qtorus(args):
    window = _n_range(args) or verify.QT_WINDOW
    for n in window:
        if abs(n) > QTORUS_N_MAX:
            raise ValueError(f"--n-range {n} is out of range: |n| must be at "
                             f"most {QTORUS_N_MAX}")
    reports = verify.unknot_reports(window)
    by_claim = {r.claim_id: r for r in reports}
    shape = by_claim["aj-shape-unknot"].details
    payload = {
        "alpha": qt_text(alpha_unknot()),
        "epsilon_alpha": shape["epsilon_alpha"],
        "aj_unknot": {"quotient_by_l_minus_1": shape["quotient_by_l_minus_1"],
                      "m_only": shape["m_only"]},
        "sigma_factor": by_claim["sigma-factor-unknot"].details,
    }
    return "unknot", payload, reports


def _run_trace(args):
    word, names = word_from_string(args.word)
    # counted as an int before any fold step, so a huge exponent is refused
    letters = sum(abs(exp) for _, exp in word.letters)
    if letters > TRACE_MAX_LETTERS:
        raise ValueError(f"--word has {letters} letters, more than "
                         f"{TRACE_MAX_LETTERS}")
    names = tuple(names) + ("a", "b")[len(names):]
    payload = {
        "word": word_to_string(word, names),
        "trace": trace_poly(word).to_text(),
    }
    return payload["word"], payload, []


# The suites that read each verify option; elsewhere it is a usage error.
_VERIFY_OPTION_SUITES = {"n_range": ("pretzel", "all"),
                         "p": ("twobridge", "all"),
                         "seed": ("qtorus", "all")}


def _run_verify(args):
    for option, suites in _VERIFY_OPTION_SUITES.items():
        if getattr(args, option) is not None and args.suite not in suites:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} applies to --suite "
                             f"{' or '.join(suites)}, not {args.suite}")
    n_range = _n_range(args)
    for n in n_range or ():
        _check_pretzel_n(n, "--n-range")
    p_max = verify.TWOBRIDGE_P_MAX if args.p is None else args.p
    if p_max < 3:
        raise ValueError(f"--p must be at least 3, got {p_max}")
    if p_max > VERIFY_P_MAX:
        raise ValueError(f"--p {p_max} is out of range: p must be at most "
                         f"{VERIFY_P_MAX}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.suite == "twobridge":
        reports = verify.suite_twobridge(p_max)
    elif args.suite == "pretzel":
        reports = verify.suite_pretzel(n_range)
    elif args.suite == "qtorus":
        reports = verify.suite_qtorus(seed)
    else:
        reports = verify.suite_all(n_range, p_max, seed)
    return f"suite:{args.suite}", {"suite": args.suite}, reports


_DISPATCH = {
    "twobridge": _run_twobridge,
    "pretzel": _run_pretzel,
    "qtorus": _run_qtorus,
    "trace": _run_trace,
    "verify": _run_verify,
}


def render_json(subject: str, payload: dict, reports) -> str:
    doc = {"tool_version": __version__, "subject": subject, **payload,
           "reports": [r.as_dict() for r in sort_reports(reports)]}
    return json.dumps(doc, indent=2, sort_keys=True)


def _render_table(subject: str, payload: dict, reports) -> str:
    lines = [subject]
    for key, value in payload.items():
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"  {key}: {value}")
    ordered = sort_reports(reports)
    if ordered:
        lines.append("")
        width = max(len(r.claim_id) for r in ordered)
        for r in ordered:
            lines.append(f"  {r.status:<12} {r.claim_id:<{width}} {r.subject}")
        failing = sum(1 for r in ordered if not r.passed)
        lines.append("")
        lines.append(f"  {len(ordered)} reports, {failing} failing")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else exc.code
    try:
        subject, payload, reports = _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(render_json(subject, payload, reports))
    elif args.command == "trace":
        print(payload["trace"])
    else:
        print(_render_table(subject, payload, reports))
    if args.command == "trace":
        return 0
    if not reports:
        print(f"{subject}: no claim was checked", file=sys.stderr)
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
