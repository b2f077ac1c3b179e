"""Defining polynomials, slice certificates, and witnesses for the
(-2, 3, 2n+1) pretzel family."""

import random
import sys
from fractions import Fraction
from operator import sub

import pytest

from knotpoly import exactpoly, pretzel
from knotpoly.exactpoly import (MultiPoly, RationalFunction, exact_div,
                                is_squarefree_in)
from knotpoly.pretzel import (PretzelKnot, a_poly, b_poly,
                              closed_form_report, defining_p, defining_q,
                              membership_certificate, pq_resultant,
                              radical_slice_report, resultant_closed_rhs,
                              resultant_report, seidenberg_report,
                              shared_square_factor,
                              traced_p, traced_qs, u_poly, witness_reports,
                              x0_report, x0_slice, a_root_residuals,
                              u_root_residuals, word_e, word_f,
                              y_minus_two_generators, _integer_solve,
                              _relation_difference, _relation_parts)
from knotpoly.report import InternalInconsistencyError
from knotpoly.sl2trace import (FreeWord, GENERATOR_A, GENERATOR_B,
                               mat2_mul, reduce_word, trace_poly,
                               word_matrix)
from knotpoly.verify import (check_closed_forms, check_resultants,
                             check_witnesses, check_x0_slices)

VARS_XYZ = ("x", "y", "z")
VARS_XY = ("x", "y")


# -- defining polynomials --------------------------------------------------

def test_defining_p_text():
    assert defining_p().to_text() == \
        "-x*y*z^2 + x^2*z + y^2*z + z^3 - x*y + x - 3*z"


def test_defining_q_small_values():
    assert defining_q(1).to_text() == "-x*y*z + y^2 + z^2 + y - 2"
    assert defining_q(2).to_text() == "x*y*z - x^2 - x*z - z^2 + y + 2"


def test_closed_forms_match_traced_rebuild():
    assert traced_p() == defining_p()
    traced = traced_qs(-100, 100)
    for n in range(-100, 101):
        assert traced[n] == defining_q(n), n


def test_traced_q_matches_a_fold_of_the_whole_word():
    # the recurrence against tr(w^n E a) - tr(w^n a F) folded letter by
    # letter, w^n included
    a = ((GENERATOR_A, 1),)
    traced = traced_qs(-12, 12)
    for n in range(-12, 13):
        w_n = ((GENERATOR_B, n),)
        whole = (trace_poly(reduce_word(w_n + word_e().letters + a))
                 - trace_poly(reduce_word(w_n + a + word_f().letters)))
        assert traced[n] == whole, n


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("n", [300, -300])
def test_cold_traced_q_steps_in_a_loop(n):
    # a recursive step per n would need about |n| frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        q = traced_qs(n, n)[n]
    finally:
        sys.setrecursionlimit(limit)
    assert q == defining_q(n)


def test_closed_form_report_passes():
    rep = closed_form_report(3, traced_qs(3, 3)[3])
    assert rep.status == "pass"
    assert rep.details == {"p_ok": True, "q_ok": True}


def test_closed_forms_past_the_old_word_cap():
    # past |n| = 8: a silent cap on the range would drop these reports
    reports = check_closed_forms((7, 12))
    assert [r.subject for r in reports] == [f"n={n}" for n in range(7, 13)]
    assert all(r.status == "pass" for r in reports)


def test_label():
    assert PretzelKnot(3).label() == "pretzel(-2,3,7)"
    assert PretzelKnot(-2).label() == "pretzel(-2,3,-3)"


# -- resultant -------------------------------------------------------------

def test_resultant_leading_coefficient_and_degree():
    for n in (4, 5, 6):
        res = pq_resultant(n)
        d = res.degree_in("y")
        assert d == 3 * n - 2
        top = {e: c for e, c in res.exponent_terms().items() if e[1] == d}
        assert top == {(0, d): 1}
    res = pq_resultant(-5)
    assert res.degree_in("y") == 16


def test_resultant_closed_identity():
    x = MultiPoly.variable("x", VARS_XY)
    y = MultiPoly.variable("y", VARS_XY)
    lhs_factor = (y ** 2 - 4) * (y + 2)
    rhs_factor = y + 2 - x ** 2
    for n in range(-5, 7):
        res = pq_resultant(n)
        assert lhs_factor * res == rhs_factor * resultant_closed_rhs(n), n


def test_resultant_report_shape():
    rep = resultant_report(5, pq_resultant(5))
    assert rep.status == "pass"
    assert rep.details["monic_ok"] and rep.details["identity_ok"]
    assert rep.details["deg_y"] == rep.details["expected_deg_y"] == 13
    assert rep.details["leading_coeff"] == "1"


def test_resultant_identity_catches_a_low_order_term_at_every_n(
        monkeypatch):
    # degree and monicity cannot see 7x^2y; the closed identity can, and
    # verify checks it at every n of the range, not only near 0
    build = pretzel.pq_resultant
    fault = MultiPoly(VARS_XY, {(2, 1): 7})
    monkeypatch.setattr(pretzel, "pq_resultant", lambda n: build(n) + fault)
    reports = {r.subject: r for r in check_resultants((-20, 20))}
    for n in (-20, 20):
        rep = reports[f"n={n}"]
        assert rep.claim_id == "resultant-structure"
        assert rep.status == "fail", n
        assert rep.details["identity_ok"] is False, n
        assert rep.details["monic_ok"], n


def test_resultant_identity_catches_a_decode_past_its_slots(monkeypatch):
    # a bound of 1 gives resultant_in one-byte slots, far narrower than
    # the coefficients of Res_z(P, Q_n) at |n| = 20, so its decode reads
    # digits that have carried into each other; the closed identity,
    # which does not go through resultant_in, must see that
    monkeypatch.setattr(exactpoly, "_bezout_bound", lambda u, v: 1)
    assert exactpoly.slot_bytes(exactpoly._bezout_bound([], []).bit_length()
                                + 1) == 1
    reports = {r.subject: r for r in check_resultants((-20, 20))}
    for n in (-20, 20):
        rep = reports[f"n={n}"]
        assert rep.claim_id == "resultant-structure"
        assert rep.status == "fail", n
        assert rep.details["identity_ok"] is False, n


def test_resultant_frozen_small_case():
    assert pq_resultant(2).to_text() == (
        "-x^6 + 3*x^4*y^2 - x^2*y^4 - x^4*y - 5*x^2*y^3 + y^5 + 4*x^4 "
        "- 3*x^2*y^2 + 4*y^4 + 4*x^2*y + 3*y^3 - 5*x^2 - 4*y^2 - 3*y + 2")


# -- x = 0 slice -----------------------------------------------------------

def test_slice_polynomials():
    y = MultiPoly.variable("y", ("y", "z"))
    z = MultiPoly.variable("z", ("y", "z"))
    data = x0_slice(2)
    assert data.p0 == z * (y ** 2 + z ** 2 - 3)
    a = a_poly(2).extend_to(("y", "z"))
    b = b_poly(2).extend_to(("y", "z"))
    assert data.q0 == a + b * z ** 2


def test_slice_coefficient_values():
    assert a_poly(3).to_text() == "y + 2"
    assert b_poly(3).to_text() == "-y - 1"
    assert u_poly(3).to_text() == "y^3 + y^2 - 2*y - 1"
    assert a_poly(4).to_text() == "y^2 + y - 2"


def test_slice_identity_holds_widely():
    for n in range(-6, 13):
        data = x0_slice(n)
        assert data.identity_ok and data.squarefree_ok, n


def test_x0_report():
    rep = x0_report(x0_slice(5))
    assert rep.status == "pass"
    assert rep.details["identity_ok"] and rep.details["squarefree_ok"]


def test_cosine_root_residuals():
    for n in (1, 5, 12):
        assert max(u_root_residuals(n)) < 1e-9
    for n in (3, 8, 12):
        assert max(a_root_residuals(n)) < 1e-9


# -- shared square factor and the seidenberg reports -----------------------

def test_shared_square_factor_arises_periodically():
    # the z-side slice product acquires a repeated factor exactly when
    # n = 1 (mod 3) and n >= 4; the collision is the exact gcd y^2 - 1
    for n in (3, 5, 6, 8, 9, -2, -5):
        assert shared_square_factor(n) is None, n
    for n in (4, 7, 10, 13):
        factor = shared_square_factor(n)
        assert factor is not None and factor.to_text() == "y^2 - 1", n


def test_seidenberg_passes_off_the_collision_set():
    rep = seidenberg_report(x0_slice(3))
    assert rep.status == "numeric-pass"
    assert rep.details["membership_ok"] and rep.details["squarefree_y_ok"]
    assert rep.details["root_count"] == 9
    assert rep.details["min_separation"] > 0.4


def test_seidenberg_fails_honestly_on_the_collision_set():
    for n in (4, 7):
        rep = seidenberg_report(x0_slice(n))
        assert rep.status == "fail", n
        assert rep.details["membership_ok"]
        assert rep.details["min_separation"] <= 1e-9
        assert rep.details["shared_square_factor"] == "y^2 - 1"


def test_seidenberg_trivial_negative_case():
    rep = seidenberg_report(x0_slice(-2))
    assert rep.status == "numeric-pass"


# -- direct radical certificates ------------------------------------------

def test_radical_slice_reports():
    for n in (0, 1, 2):
        rep = radical_slice_report(x0_slice(n))
        assert rep.status == "pass", (n, rep.details)
        assert rep.details["identity_ok"] and rep.details["squarefree_y_ok"]
        assert "z_generator" in rep.details and "z_cofactors" in rep.details
    with pytest.raises(ValueError):
        radical_slice_report(x0_slice(3))


def test_radical_slice_certificate_values():
    rep = radical_slice_report(x0_slice(1))
    assert rep.details["z_generator"] == "z^3 - 2*z"
    # re-check the exhibited cofactors against the generators
    cof_texts = rep.details["z_cofactors"]
    assert len(cof_texts) == 2


def test_slice_fault_in_p_reaches_every_slice_check(monkeypatch):
    # y*z is free of x, so it lands in p0; every slice check reads p0 from
    # the one X0SliceData that x0_slice builds, so each must see it
    build = pretzel.defining_p
    fault = MultiPoly(VARS_XYZ, {(0, 1, 1): 1})
    monkeypatch.setattr(pretzel, "defining_p", lambda: build() + fault)
    slices = [r for r in check_x0_slices((-6, 12))
              if r.claim_id == "x0-slice"]
    assert sorted(r.subject for r in slices) == sorted(
        f"n={n}" for n in range(-6, 13))
    for rep in slices:
        assert rep.status == "fail", rep.subject
        assert rep.details["identity_ok"] is False, rep.subject
    assert seidenberg_report(x0_slice(3)).details["membership_ok"] is False
    assert radical_slice_report(x0_slice(1)).status == "fail"


def test_membership_certificate_round_trip():
    data = x0_slice(1)
    p0, q0 = data.p0, data.q0
    z = MultiPoly.variable("z", ("y", "z"))
    target = (z ** 3 - 2 * z).extend_to(("y", "z"))
    cof = membership_certificate(target, (p0, q0))
    assert cof is not None
    rebuilt = cof[0] * p0 + cof[1] * q0
    assert rebuilt == target


def test_membership_certificate_rejects_a_non_integral_cofactor():
    # z = (1/2) * 2z has only a rational cofactor
    z = MultiPoly.variable("z", ("y", "z"))
    with pytest.raises(InternalInconsistencyError, match="non-integral"):
        membership_certificate(z, (2 * z,))


def _fraction_solve(rows, rhs):
    # the reference: Gauss-Jordan elimination over Fraction, free unknowns
    # set to zero, None when the system is inconsistent
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r][c]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / lead
                row_i, row_r = aug[i], aug[r]
                for j in range(c, ncols + 1):
                    row_i[j] -= f * row_r[j]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for rr, cc in pivots:
        sol[cc] = aug[rr][ncols] / aug[rr][cc]
    return sol


def _random_system(rng, kind):
    # a small integer system: consistent (rhs = rows * c), inconsistent (a
    # row repeated with another rhs), or rank-deficient (a row that is a
    # combination of two others, and a zero column)
    m, ncols = rng.randint(2, 6), rng.randint(2, 6)
    rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(m)]
    if kind == "rank-deficient":
        k = rng.randint(-2, 2)
        rows.append([a + k * b for a, b in zip(rows[0], rows[1])])
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = 0
    c = [rng.randint(-4, 4) for _ in range(ncols)]
    rhs = [sum(a * b for a, b in zip(row, c)) for row in rows]
    if kind == "inconsistent":
        rows.append(list(rows[0]))
        rhs.append(rhs[0] + rng.choice((-3, -1, 1, 2)))
    return rows, rhs


@pytest.mark.parametrize("kind", ["consistent", "inconsistent",
                                  "rank-deficient"])
def test_integer_solver_matches_the_fraction_reference(kind):
    # equal solutions or both None; where the reduced echelon solution is
    # not integral, the integer solver raises instead of returning it
    rng = random.Random(kind)
    seen = set()
    for _ in range(300):
        rows, rhs = _random_system(rng, kind)
        want = _fraction_solve(rows, rhs)
        if want is not None and any(v.denominator != 1 for v in want):
            with pytest.raises(InternalInconsistencyError,
                               match="non-integral"):
                _integer_solve(rows, rhs)
            seen.add("non-integral")
        else:
            assert _integer_solve(rows, rhs) == want, (rows, rhs)
            seen.add("none" if want is None else "integral")
    expected = {"inconsistent": {"none"}}.get(kind,
                                              {"integral", "non-integral"})
    assert seen >= expected


def test_membership_certificate_returns_none_when_unreachable():
    p0 = x0_slice(0).p0
    one = MultiPoly.const(("y", "z"), 1)
    # 1 is not in the ideal generated by a single non-unit
    assert membership_certificate(one, (p0,)) is None


# -- representation witnesses ----------------------------------------------

@pytest.mark.parametrize("n", [-100, -40, -7, -2, 0, 1, 3, 7, 40, 100])
def test_witness_reports_pass(n):
    for rep in witness_reports(n):
        assert rep.status == "pass", (n, rep.claim_id, rep.details)


def test_witness_details_include_determinants():
    by_claim = {r.claim_id: r for r in witness_reports(2)}
    assert by_claim["witness-generic-y"].details["det_ok"]
    assert by_claim["witness-y-two"].details["det_ok"]
    assert by_claim["witness-y-minus-two"].details["det_ok"]
    assert by_claim["witness-y-two"].details["scalar_subcases_ok"]
    assert by_claim["witness-y-minus-two"].details["diagonal_subcase_ok"]


def _spelled_relation_words(n):
    # w^n E and F w^n as words, freely reduced
    wn = ((GENERATOR_B, n),)
    return (reduce_word(wn + word_e().letters),
            reduce_word(word_f().letters + wn))


def _witness_generator_pairs():
    # (r(a), r(w)) of every branch and subcase the witnesses check
    suv, laurent = ("s", "u", "v"), (True, False, False)
    s, u, v = (MultiPoly.variable(name, suv, laurent) for name in suv)
    one, zero = s ** 0, s * 0
    z = MultiPoly.variable("z", ("z",), (True,))
    ident, minus = (1, 0, 0, 1), (-1, 0, 0, -1)
    return [((u, one, u * v - 1, v), (s, zero, zero, s ** -1)),
            ((z, z * 0, -(z ** -1), z ** -1),
             (z ** 0, z ** 0, z * 0, z ** 0)),
            y_minus_two_generators(),
            (ident, ident), (minus, ident),
            ((0, 1, -1, 0), minus)]


@pytest.mark.parametrize("pair", range(6))
def test_relation_parts_match_the_spelled_words(pair):
    # r is a homomorphism, so r(w)^n r(E) - r(F) r(w)^n is
    # r(w^n E) - r(F w^n) however the words reduce
    ra, rw = mats = _witness_generator_pairs()[pair]
    parts = _relation_parts(ra, rw)
    assert parts[1] == word_matrix(word_e().letters, mats)
    assert parts[2] == word_matrix(word_f().letters, mats)
    for n in range(-8, 9):
        wn, diff = _relation_difference(parts, n)
        left, right = _spelled_relation_words(n)
        assert wn == word_matrix(reduce_word(((GENERATOR_B, n),)).letters,
                                 mats)
        assert diff == tuple(map(sub, word_matrix(left.letters, mats),
                                 word_matrix(right.letters, mats))), n


def _paper_y_minus_two_generators():
    # the y = -2 pair as the paper writes it, over the fraction field
    vars = ("x", "z")
    x = MultiPoly.variable("x", vars)
    z = MultiPoly.variable("z", vars)

    def rf(num, den=1):
        return RationalFunction(num * x ** 0, den * x ** 0)

    return ((rf(x, 2), rf(4 - x ** 2, 4 * (x + z)), rf(-(x + z)), rf(x, 2)),
            (rf(-1), rf(-1), rf(0), rf(-1)))


@pytest.mark.parametrize("n", [-2, 3])
def test_y_minus_two_conjugation_matches_the_paper(n):
    # each integer matrix N is C M C^-1 for the paper's M, with
    # C = [[2(x+z), x], [0, 2]]; it is checked as C M = N C over the
    # fraction field, so C is never inverted
    paper = _paper_y_minus_two_generators()
    x = MultiPoly.variable("x", ("x", "z"))
    z = MultiPoly.variable("z", ("x", "z"))

    def rf(p):
        return RationalFunction.from_poly(p * x ** 0)

    c = (rf(2 * (x + z)), rf(x), rf(0), rf(2))
    words = [FreeWord(((GENERATOR_A, 1),)), FreeWord(((GENERATOR_B, 1),)),
             *_spelled_relation_words(n)]
    for word in words:
        m = word_matrix(word.letters, paper)
        ints = word_matrix(word.letters, y_minus_two_generators())
        assert mat2_mul(c, m) == mat2_mul(tuple(map(rf, ints)), c)


@pytest.fixture
def fresh_y_minus_two_parts():
    pretzel._y_minus_two_parts.cache_clear()
    yield
    pretzel._y_minus_two_parts.cache_clear()


@pytest.mark.parametrize("n", [-3, 0, 4])
def test_y_minus_two_witness_fails_at_determinant_two(
        monkeypatch, fresh_y_minus_two_parts, n):
    # mat2_pow inverts by the adjugate, which is the inverse only at
    # det 1, so det_ok is the guard: a det-2 pair must fail, not pass
    # and not raise
    x = MultiPoly.variable("x", ("x", "z"))
    z = MultiPoly.variable("z", ("x", "z"))
    one, zero = x ** 0, x * 0
    monkeypatch.setattr(pretzel, "y_minus_two_generators", lambda: (
        (zero, one, -2 * one, x), (-one, -(x + z), zero, -one)))
    report = pretzel.witness_y_minus_two(n)
    assert report.status == "fail"
    assert report.details["det_ok"] is False


def test_witnesses_past_the_old_witness_cap():
    # past |n| = 6: a silent cap on the range would drop these reports
    reports = check_witnesses((-9, -7))
    assert sorted((r.claim_id, r.subject) for r in reports) == sorted(
        (claim, f"n={n}") for n in (-9, -8, -7)
        for claim in ("witness-generic-y", "witness-y-two",
                      "witness-y-minus-two"))
    assert all(r.status == "pass" for r in reports)


# -- slice products stay square-free where claimed -------------------------

def test_au_squarefree_on_the_stated_range():
    for n in list(range(3, 13)) + list(range(-6, 0)):
        au = a_poly(n) * u_poly(n)
        assert is_squarefree_in(au, "y"), n


def test_resultant_between_the_degree_ranges():
    # small |n| sits outside the stated degree formulas but stays monic
    rep = resultant_report(1, pq_resultant(1))
    assert rep.status == "pass"
    assert rep.details["deg_y"] == 4
    assert rep.details["expected_deg_y"] is None
    assert rep.details["monic_ok"] and rep.details["identity_ok"]
