"""Aggregated verification suites over every exactly checkable claim.

Each check_* function covers one acceptance surface and returns a list of
VerificationReport records; the suite_* functions compose them with the
default ranges, so one call reproduces the full ledger.  Passing an
explicit n_range narrows or widens every pretzel surface to exactly that
range.
"""

from __future__ import annotations

import random

from . import pretzel, twobridge
from .exactpoly import MultiPoly
from .qtorus import (LAURENT_ML, LAURENT_QT, VARS_ML, VARS_QT, alpha_unknot,
                     annihilation_check, epsilon_eval, jones_unknot, qt_mul,
                     qt_sigma, sigma_symmetry_factor)
from .report import VerificationReport, sort_reports, status_of
from .sl2trace import (DEFAULT_SEED, random_reduced_word, trace_proved,
                       word_to_string)

CLOSED_RANGE = (-6, 6)
RESULTANT_RANGE = (-8, 8)
X0_RANGE = (-6, 12)
WITNESS_RANGE = (-4, 4)

TWOBRIDGE_P_MAX = 45

QT_RANDOM_CASES = 200
QT_WINDOW = (-20, 20)

ORACLE_WORDS = 500
ORACLE_MAX_LEN = 12


def _span(n_range, default):
    lo, hi = default if n_range is None else n_range
    return range(lo, hi + 1)


def check_closed_forms(n_range=None) -> list:
    """Closed P, Q_n against the trace-engine rebuilds, every traced Q_n
    stepped once in one sweep over the range."""
    span = _span(n_range, CLOSED_RANGE)
    traced = pretzel.traced_qs(span.start, span.stop - 1)
    return [pretzel.closed_form_report(n, traced[n]) for n in span]


def check_resultants(n_range=None) -> list:
    """Leading coefficient and degree of Res_z(P, Q_n), and the closed
    bracket identity, at every n of the range."""
    return [pretzel.resultant_report(n, pretzel.pq_resultant(n))
            for n in _span(n_range, RESULTANT_RANGE)]


def check_x0_slices(n_range=None) -> list:
    """Slice identity and square-freeness at x = 0, cosine-root residuals,
    and the direct radical certificates at the three smallest knots."""
    slices = {n: pretzel.x0_slice(n) for n in _span(n_range, X0_RANGE)}
    reports = [pretzel.x0_report(data) for data in slices.values()]
    for n in slices:
        details = {"tol": pretzel.RESIDUAL_TOL}
        worst = 0.0
        if n >= 1:
            worst = max(pretzel.u_root_residuals(n), default=0.0)
            details["u_max_residual"] = worst
        if n >= 3:
            a_worst = max(pretzel.a_root_residuals(n), default=0.0)
            details["a_max_residual"] = a_worst
            worst = max(worst, a_worst)
        if len(details) == 1:
            continue
        reports.append(VerificationReport(
            "x0-cosine-roots", f"n={n}",
            status_of(worst < pretzel.RESIDUAL_TOL, numeric=True), details))
    for n in pretzel.RADICAL_DIRECT_NS:
        if n in slices:
            reports.append(pretzel.radical_slice_report(slices[n]))
    return reports


def check_witnesses(n_range=None) -> list:
    """All three representation-witness lemmas, exactly, including the
    determinant-one checks."""
    reports = []
    for n in _span(n_range, WITNESS_RANGE):
        reports.extend(pretzel.witness_reports(n))
    return reports


def check_two_bridge(p_max: int = TWOBRIDGE_P_MAX) -> list:
    """Structural suite and per-slice leading terms for every valid (p, m)
    with p <= p_max: phi is decoded once per knot, and no slice at all."""
    reports = []
    for knot in twobridge.all_knots(p_max):
        reports.extend(twobridge.structural_reports(knot))
        reports.append(twobridge.leading_term_report(knot))
    return reports


def check_irreducibility(p_max: int = TWOBRIDGE_P_MAX) -> list:
    """Primality verdict for S_d - S_(d-1) against its exact factorization
    into the Psi_q(-z), q | p; one factor exactly when p is prime."""
    reports = []
    for p in range(3, p_max + 1, 2):
        d = (p - 1) // 2
        factors = twobridge.chebyshev_difference_factors(p)
        prime = twobridge.is_prime(p)
        agree = (len(factors) == 1) == prime
        reports.append(VerificationReport(
            "irreducibility-crosscheck", f"p={p}", status_of(agree),
            {"p": p, "d": d, "prime": prime,
             "factor_degrees": [f.degree_in("z") for f in factors]}))
    return reports


def _random_qt_elem(rng: random.Random) -> MultiPoly:
    """Three random terms.  Each term draws its coefficient, then its t, M
    and L exponents; that order fixes which elements a seed gives."""
    terms: dict = {}
    for _ in range(3):
        c = rng.randint(-4, 4)
        e = (rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-2, 2))
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(VARS_QT, terms, LAURENT_QT)


def unknot_reports(window=QT_WINDOW) -> list:
    """The three headline unknot checks: annihilation of [n], the shape of
    the t = -1 specialization, and the symmetry factor."""
    alpha = alpha_unknot()
    reports = [annihilation_check(alpha, jones_unknot, window)]

    eps = epsilon_eval(alpha)
    m = MultiPoly.variable("M", VARS_ML, LAURENT_ML)
    el = MultiPoly.variable("L", VARS_ML, LAURENT_ML)
    m_only_factor = m ** 2 - 1
    shape_ok = eps == m_only_factor * (el - 1)
    reports.append(VerificationReport(
        "aj-shape-unknot", "alpha", status_of(shape_ok),
        {"epsilon_alpha": eps.to_text(),
         "quotient_by_l_minus_1": m_only_factor.to_text(),
         "m_only": m_only_factor.degree_in("L") == 0}))

    factor = sigma_symmetry_factor(alpha)
    factor_ok = (factor is not None and factor.ordering == "LdLeft"
                 and factor.den == 1
                 and factor.num == MultiPoly(VARS_QT, {(2, 2, 0): 1},
                                             LAURENT_QT))
    reports.append(VerificationReport(
        "sigma-factor-unknot", "alpha", status_of(factor_ok),
        factor.as_dict() if factor else {"found": False}))
    return reports


def check_quantum_torus(seed: int = DEFAULT_SEED) -> list:
    """Ring laws on QT_RANDOM_CASES random elements, the unknot annihilator
    on QT_WINDOW, its shape at t = -1, and its symmetry factor."""
    rng = random.Random(seed)
    failures = {"qt-associativity": [], "qt-sigma-automorphism": [],
                "qt-epsilon-multiplicative": []}
    for i in range(QT_RANDOM_CASES):
        p, q, r = (_random_qt_elem(rng) for _ in range(3))
        pq = qt_mul(p, q)
        if qt_mul(pq, r) != qt_mul(p, qt_mul(q, r)):
            failures["qt-associativity"].append(i)
        if (qt_sigma(qt_sigma(p)) != p
                or qt_sigma(pq) != qt_mul(qt_sigma(p), qt_sigma(q))):
            failures["qt-sigma-automorphism"].append(i)
        if epsilon_eval(pq) != epsilon_eval(p) * epsilon_eval(q):
            failures["qt-epsilon-multiplicative"].append(i)
    return [VerificationReport(claim, f"random x{QT_RANDOM_CASES}",
                               status_of(not failed),
                               {"cases": QT_RANDOM_CASES,
                                "failed_at": failed[:5]})
            for claim, failed in failures.items()] + unknot_reports()


def check_trace_oracle(seed: int = DEFAULT_SEED) -> list:
    """Trace polynomials of ORACLE_WORDS random words, the seed drawing the
    words, each proved equal to the word's trace by trace_proved.  A word
    drawn again reuses its verdict, and a failing word is listed once per
    draw."""
    rng = random.Random(seed)
    proved = {}
    bad = []
    for _ in range(ORACLE_WORDS):
        word = random_reduced_word(rng, ORACLE_MAX_LEN)
        ok = proved.get(word)
        if ok is None:
            ok = proved[word] = trace_proved(word)
        if not ok:
            bad.append(word_to_string(word))
    return [VerificationReport(
        "trace-oracle", f"words={ORACLE_WORDS} seed={seed}",
        status_of(not bad),
        {"words": ORACLE_WORDS, "failed_words": bad[:5]})]


def suite_twobridge(p_max: int = TWOBRIDGE_P_MAX) -> list:
    return sort_reports(check_two_bridge(p_max) + check_irreducibility(p_max))


def suite_pretzel(n_range=None) -> list:
    return sort_reports(check_closed_forms(n_range)
                        + check_resultants(n_range)
                        + check_x0_slices(n_range)
                        + check_witnesses(n_range))


def suite_qtorus(seed: int = DEFAULT_SEED) -> list:
    return sort_reports(check_quantum_torus(seed=seed))


def suite_all(n_range=None, p_max: int = TWOBRIDGE_P_MAX,
              seed: int = DEFAULT_SEED) -> list:
    return sort_reports(suite_twobridge(p_max)
                        + suite_pretzel(n_range)
                        + suite_qtorus(seed)
                        + check_trace_oracle(seed=seed))
