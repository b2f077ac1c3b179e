"""Character polynomials and certificates for the two-bridge family."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from knotpoly import cli, twobridge, verify
from knotpoly.exactpoly import (MultiPoly, even_slots, from_kronecker,
                                newton_polygon, slot_bytes)
from knotpoly.report import InternalInconsistencyError
from knotpoly.sl2trace import (FreeWord, GENERATOR_A, GENERATOR_B,
                               _nested_traces, _trace_norms,
                               nested_slice_images, trace_poly_with)
from knotpoly.twobridge import (IrreducibilityCertificate, TwoBridgeKnot,
                                VARS_XZ, _check_packed_top, _meridian_trace,
                                all_knots, bridge_word,
                                character_polynomial,
                                chebyshev_difference,
                                chebyshev_difference_factors,
                                irreducibility_certificate,
                                is_prime,
                                leading_term_report, newton_vertex_report,
                                riley_check, sign_sequence,
                                structural_reports,
                                x_zero_profile)


def knot(p, m):
    return TwoBridgeKnot(p, m)


def decode(image, width, row):
    """The polynomial in (x, z) packed in image."""
    return from_kronecker(even_slots(image, width, row), VARS_XZ, width, row)


def decoded_slices(k):
    """The cached packed slice traces of k, each decoded."""
    images, width, row = _meridian_trace(bridge_word(k).letters)
    return [decode(t, width, row) for t in images]


def even_form(phi):
    """phi with x^2 collapsed to X."""
    return phi.substitute_square("x", "X")


# -- normal form -----------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        knot(4, 1)
    with pytest.raises(ValueError):
        knot(5, 2)
    with pytest.raises(ValueError):
        knot(5, 7)
    with pytest.raises(ValueError):
        knot(9, 3)
    k = knot(7, 3)
    assert (k.d, k.c) == (3, 1)
    assert k.label() == "b(7,3)"


def test_all_knots_enumeration():
    assert [(k.p, k.m) for k in all_knots(9)] == [
        (3, 1), (5, 1), (5, 3), (7, 1), (7, 3), (7, 5),
        (9, 1), (9, 5), (9, 7)]


def test_sign_sequences():
    assert sign_sequence(knot(3, 1)) == (1, 1)
    assert sign_sequence(knot(5, 3)) == (1, -1, -1, 1)
    assert sign_sequence(knot(7, 3)) == (1, 1, -1, -1, 1, 1)


def test_sign_sequence_is_palindromic():
    for k in all_knots(17):
        eps = sign_sequence(k)
        assert eps == eps[::-1]
        assert len(eps) == 2 * k.d


def test_bridge_word_alternates_generators():
    word = bridge_word(knot(7, 3))
    gens = [g for g, _ in word.letters]
    assert gens == [g % 2 for g in range(len(gens))]


# -- character polynomials -------------------------------------------------

def test_small_character_polynomials():
    assert character_polynomial(knot(3, 1)).to_text() == "z - 1"
    assert character_polynomial(knot(5, 1)).to_text() == "z^2 - z - 1"
    assert character_polynomial(knot(5, 3)).to_text() == \
        "-x^2*z + 2*x^2 + z^2 - z - 1"


def test_seven_three_character_polynomial():
    k = knot(7, 3)
    phi = character_polynomial(k)
    assert phi.to_text() == \
        "-x^2*z^2 + 3*x^2*z + z^3 - 2*x^2 - z^2 - 2*z + 1"
    assert even_form(phi).to_text() == \
        "-X*z^2 + z^3 + 3*X*z - z^2 - 2*X - 2*z + 1"


def test_bridge_word_slices_match_per_slice_folds():
    # Differential check over the whole acceptance range, plus two knots
    # at the twobridge --p cap: the inside-out fold against a fresh fold
    # of every slice letters[j:2d-j].  Knots with equal p share many
    # slices; each distinct one is folded once.
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    folded = {}
    for k in (*all_knots(45), knot(97, 41), knot(151, 1)):
        letters = bridge_word(k).letters
        traces = decoded_slices(k)
        assert len(traces) == k.d
        for j, tr in enumerate(traces):
            sliced = letters[j:2 * k.d - j]
            if sliced not in folded:
                folded[sliced] = trace_poly_with(FreeWord(sliced), x, x, z)
            assert tr == folded[sliced], (k.label(), j)


def test_trace_norm_bound_covers_every_slice_coefficient():
    # The slot width of the packed fold comes from _trace_norms.  Check
    # each bound against its slice trace folded by the same table over
    # MultiPoly, with no packing, and the norms summed plus one against
    # every coefficient of phi, which is decoded from one summed image.
    # b(97,41) and b(151,1) take slots wider than 8 bytes, which
    # memoryview cannot read.
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    widths = {}
    for k in (*all_knots(45), knot(97, 41), knot(151, 1)):
        letters = bridge_word(k).letters
        norms = _trace_norms(letters)
        traces = list(_nested_traces(letters, x ** 0, x * 0, x.__mul__,
                                     z.__mul__))
        assert len(norms) == len(traces) == k.d
        for j, (bound, tr) in enumerate(zip(norms, traces)):
            assert max(map(abs, tr.exponent_terms().values())) <= bound, \
                (k.label(), j)
        phi = character_polynomial(k)
        assert max(map(abs, phi.terms.values())) <= sum(norms) + 1, k.label()
        widths[k] = slot_bytes((sum(norms) + 1).bit_length() + 1)
        assert nested_slice_images(letters)[1] == widths[k]
    assert max(widths[k] for k in all_knots(45)) == 8
    assert widths[knot(97, 41)] > 8 and widths[knot(151, 1)] > 8


def test_leading_term_slices_are_cached_nested_slices():
    # leading_term_report reads its slice j as entry j-1.  Its word always
    # starts with generator a; for even j the nested slice starts with b.
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    for k in all_knots(21):
        eps = sign_sequence(k)
        traces = decoded_slices(k)
        for j in range(1, k.d + 1):
            word = FreeWord(tuple(
                (GENERATOR_A if i % 2 == 0 else GENERATOR_B, e)
                for i, e in enumerate(eps[j - 1:2 * k.d + 1 - j])))
            assert trace_poly_with(word, x, x, z) == traces[j - 1]
    assert _meridian_trace.cache_info().maxsize is not None


def test_packed_phi_matches_the_sum_of_decoded_slices():
    # phi is decoded once from the alternating sum of the slice images;
    # the reference decodes every slice and sums the polynomials.  From
    # p = 63 on, and at b(97,41) and b(151,1), the slots are wider than
    # 8 bytes.
    for k in (*all_knots(71), knot(97, 41), knot(151, 1)):
        total = MultiPoly.const(VARS_XZ, (-1) ** k.d)
        for j, tr in enumerate(decoded_slices(k)):
            total = total + tr if j % 2 == 0 else total - tr
        assert character_polynomial(k) == total, k.label()


def test_even_form_substitutes_back():
    for k in (knot(5, 3), knot(9, 5), knot(11, 7)):
        phi = character_polynomial(k)
        gamma = even_form(phi)
        i = gamma.vars.index("X")
        assert gamma.vars[:i] + ("x",) + gamma.vars[i + 1:] == phi.vars
        lifted = MultiPoly(phi.vars,
                           {e[:i] + (2 * e[i],) + e[i + 1:]: c
                            for e, c in gamma.exponent_terms().items()},
                           phi.laurent)
        assert lifted == phi


def test_character_polynomial_structure():
    for k in all_knots(15):
        phi = character_polynomial(k)
        d = k.d
        assert phi.degree_in("z") == d
        # monic in z: coefficient of z^d is 1
        top = {e: c for e, c in phi.exponent_terms().items() if e[1] == d}
        assert top == {(0, d): 1}
        # only even x powers
        assert all(e[0] % 2 == 0 for e in phi.exponent_terms())


def test_x_zero_slice_is_chebyshev_difference():
    for k in all_knots(13):
        rep = x_zero_profile(k, character_polynomial(k))
        assert rep.status == "pass", rep.details


def test_newton_vertices_present():
    for k in all_knots(13):
        phi = character_polynomial(k)
        rep = newton_vertex_report(k, even_form(phi))
        assert rep.status == "pass", rep.details
    hull = newton_polygon(even_form(character_polynomial(knot(7, 3))))
    assert (0, 3) in hull and (1, 2) in hull


def _hull_of_every_term(p):
    """The reference: the monotone chain over every term of the support."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(p.exponent_terms())
    if len(pts) == 1:
        return tuple(pts)
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for pt in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], pt) <= 0:
                chain.pop()
            chain.append(pt)
        chains.append(chain[:-1])
    return tuple(chains[0] + chains[1])


def test_newton_polygon_of_column_ends_is_the_hull_of_every_term():
    # newton_polygon chains only the least and greatest z-power of each
    # X-power; every gamma with p <= 45 gets the same vertices, in the
    # same order, as the chain over all its terms
    for k in all_knots(45):
        gamma = even_form(character_polynomial(k))
        assert newton_polygon(gamma) == _hull_of_every_term(gamma), k.label()


def test_leading_terms_of_nested_words():
    for k in (knot(7, 3), knot(9, 5), knot(13, 7)):
        rep = leading_term_report(k)
        assert rep.status == "pass", rep.details


def test_structural_reports_bundle(monkeypatch):
    built = []
    build = twobridge.character_polynomial
    monkeypatch.setattr(twobridge, "character_polynomial",
                        lambda k: built.append(k) or build(k))
    reports = structural_reports(knot(7, 3))
    assert [r.claim_id for r in reports] == [
        "character-structure", "x0-chebyshev", "newton-vertices"]
    assert all(r.status == "pass" for r in reports)
    assert built == [knot(7, 3)]
    phi = build(knot(7, 3))
    gamma = even_form(phi)
    assert structural_reports(knot(7, 3), phi, gamma) == reports
    assert structural_reports(knot(7, 3), phi) == reports
    assert built == [knot(7, 3)]


def test_structural_reports_reject_a_phi_of_another_knot():
    # gamma is built from the given phi inside the check, and Riley's
    # identity for the knot rejects it, so a phi of another knot becomes
    # a failing report
    phi = character_polynomial(knot(5, 1))
    reports = structural_reports(knot(7, 3), phi)
    assert [(r.claim_id, r.status) for r in reports] == [
        ("character-structure", "fail")]
    assert "Riley" in reports[0].details["error"]


def test_an_odd_x_slot_fails_the_reports(monkeypatch, capsys):
    # 2^s is the slot of x^1: added to b(7,3)'s first slice image, and so
    # to the summed image of phi, it decoded to the same phi before the
    # odd slots were checked.  Now it is the odd x-power inconsistency: a
    # failed character-structure report and a failed slice, so verify
    # exits 1 and the twobridge query 3, never the bad-input 2.
    k = knot(7, 3)
    target = bridge_word(k).letters
    images, width, row = _meridian_trace(target)
    bad = (images[0] + (1 << 8 * width),) + images[1:]
    real = twobridge._meridian_trace
    monkeypatch.setattr(twobridge, "_meridian_trace",
                        lambda letters: (bad, width, row)
                        if letters == target else real(letters))
    with pytest.raises(InternalInconsistencyError,
                       match=r"odd x-power in character polynomial of b\("):
        character_polynomial(k)
    reports = structural_reports(k)
    assert [(r.claim_id, r.status) for r in reports] == [
        ("character-structure", "fail")]
    assert "odd x-power" in reports[0].details["error"]
    assert leading_term_report(k).details == {
        "c_j": [1, 1, 0],
        "failed": [{"j": 1, "error": "odd x-power in b(7,3) slice 1"}]}
    assert cli.main(["verify", "--suite", "twobridge", "--p", "7"]) == 1
    assert cli.main(["twobridge", "--p", "7", "--m", "3"]) == 3
    assert "odd x-power" in capsys.readouterr().err


def total_degree(poly):
    """The largest exponent sum over poly's terms; None for 0."""
    return max(map(sum, poly.exponent_terms()), default=None)


def _top_part_by_expansion(poly, degree, c):
    # the reference: z^(degree-c) (z-X)^c expanded with MultiPoly powers
    # and subtracted from poly, whose top part it is when the difference
    # has lower total degree
    if total_degree(poly) != degree:
        raise InternalInconsistencyError("total degree")
    z = MultiPoly.variable("z", poly.vars)
    cap_x = MultiPoly.variable("X", poly.vars)
    rest = poly - z ** (degree - c) * (z - cap_x) ** c
    if not rest.is_zero() and total_degree(rest) >= degree:
        raise InternalInconsistencyError("leading part")


def _wrong_tops(width, row, degree, c):
    """Slot perturbations of an image whose top part is z^(degree-c)
    (z-X)^c: a changed binomial coefficient, an extra top-degree term
    (when c < degree), its z^degree term dropped, and a term above
    degree."""
    def slot(i, j):  # the slot of X^i z^j, that is of x^(2i) z^j
        return 1 << (8 * width * (2 * i + row * j))
    yield slot(c // 2, degree - c // 2)
    if c < degree:
        yield slot(c + 1, degree - c - 1)
    yield -slot(0, degree)
    yield slot(0, degree + 1)


def test_top_part_check_reads_slots_like_the_expansion():
    # every phi sum and every slice with p <= 45: the packed check passes
    # each image, rejects each wrong top planted in its slots, and agrees
    # with the expansion of the decoded polynomial
    for k in all_knots(45):
        images, width, row = _meridian_trace(bridge_word(k).letters)
        eps = sign_sequence(k)
        cases = [(sum(images[::2]) - sum(images[1::2]) + (-1) ** k.d,
                  k.d, k.c)]
        cases += [(image, k.d + 1 - j,
                   sum(1 for i in range(j - 1, k.d) if eps[i] != eps[i + 1]))
                  for j, image in enumerate(images, start=1)]
        for image, degree, c in cases:
            _check_packed_top(image, width, row, degree, c, "case")
            _top_part_by_expansion(
                even_form(decode(image, width, row)),
                degree, c)
            for delta in _wrong_tops(width, row, degree, c):
                wrong = image + delta
                with pytest.raises(InternalInconsistencyError):
                    _check_packed_top(wrong, width, row, degree, c, "case")
                with pytest.raises(InternalInconsistencyError):
                    _top_part_by_expansion(
                        even_form(decode(wrong, width, row)),
                        degree, c)


def test_leading_terms_catch_an_anti_diagonal_slot_past_p_31(monkeypatch):
    # +-1 in the slot of X z^(D-1), D = d + 1 - j, of slice j of b(45,7):
    # the slice's top part is read from its image, and leading terms run
    # at every p, so the suite fails that knot's report and names j alone
    k, j = knot(45, 7), 5
    target = bridge_word(k).letters
    images, width, row = _meridian_trace(target)
    degree = k.d + 1 - j
    for sign in (1, -1):
        bad = list(images)
        bad[j - 1] += sign << (8 * width * (2 + row * (degree - 1)))
        monkeypatch.setattr(twobridge, "_meridian_trace",
                            lambda letters, bad=tuple(bad):
                            (bad, width, row) if letters == target
                            else _meridian_trace(letters))
        reports = {(r.claim_id, r.subject): r
                   for r in verify.check_two_bridge(45)}
        rep = reports[("leading-terms", "b(45,7)")]
        assert rep.status == "fail"
        assert [e["j"] for e in rep.details["failed"]] == [j]
        assert rep.details["failed"][0]["error"].startswith(
            f"leading part of b(45,7) slice {j} ")
        assert all(r.passed for key, r in reports.items()
                   if key[1] != "b(45,7)")


def test_riley_oracle_catches_a_perturbed_gamma():
    # gamma + X*z differs from gamma at every point with X z != 0, and the
    # oracle's point has X = (p^2 + 1)^2 and z = p^4 + 1 - m p^2 > 0
    for k in (knot(5, 3), knot(7, 3), knot(13, 5), knot(45, 7)):
        phi = character_polynomial(k)
        gamma = even_form(phi)
        riley_check(k, gamma)
        cap_x = MultiPoly.variable("X", gamma.vars)
        z = MultiPoly.variable("z", gamma.vars)
        with pytest.raises(InternalInconsistencyError, match="Riley"):
            riley_check(k, gamma + cap_x * z)
        reports = structural_reports(k, phi, gamma + cap_x * z)
        assert [(r.claim_id, r.status) for r in reports] == [
            ("character-structure", "fail")]
        assert "Riley" in reports[0].details["error"]


def test_riley_oracle_rejects_each_changed_coefficient():
    for k in (knot(7, 3), knot(13, 5), knot(21, 13)):
        gamma = even_form(character_polynomial(k))
        for exps in gamma.exponent_terms():
            with pytest.raises(InternalInconsistencyError, match="Riley"):
                riley_check(k, gamma + MultiPoly(gamma.vars, {exps: 1}))


def test_riley_oracle_rejects_a_term_above_degree_d():
    k = knot(7, 3)
    gamma = even_form(character_polynomial(k))
    z = MultiPoly.variable("z", gamma.vars)
    with pytest.raises(InternalInconsistencyError, match="above degree"):
        riley_check(k, gamma + z ** (k.d + 1))


# -- irreducibility --------------------------------------------------------

def test_chebyshev_difference_markers():
    assert chebyshev_difference(1).to_text() == "z - 1"
    assert chebyshev_difference(4).to_text() == "z^4 - z^3 - 3*z^2 + 2*z + 1"


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_chebyshev_difference_factor_counts():
    assert len(chebyshev_difference_factors(7)) == 1
    assert len(chebyshev_difference_factors(13)) == 1
    assert len(chebyshev_difference_factors(9)) > 1
    assert len(chebyshev_difference_factors(15)) > 1
    with pytest.raises(ValueError):
        chebyshev_difference_factors(8)


def test_factor_oracle_on_composite_difference():
    factors = chebyshev_difference_factors(9)
    assert [f.to_text() for f in factors] == ["z - 1", "z^3 - 3*z - 1"]


@pytest.mark.parametrize("p, texts", [
    (15, ["z - 1", "z^2 - z - 1", "z^4 + z^3 - 4*z^2 - 4*z + 1"]),
    (21, ["z - 1", "z^3 - z^2 - 2*z + 1",
          "z^6 + z^5 - 6*z^4 - 6*z^3 + 8*z^2 + 8*z + 1"]),
    (45, ["z - 1", "z^2 - z - 1", "z^3 - 3*z - 1",
          "z^4 + z^3 - 4*z^2 - 4*z + 1",
          "z^12 - 12*z^10 + z^9 + 54*z^8 - 9*z^7 - 112*z^6 + 27*z^5"
          " + 105*z^4 - 31*z^3 - 36*z^2 + 12*z + 1"]),
])
def test_exact_factorization_of_composite_differences(p, texts):
    assert [f.to_text() for f in chebyshev_difference_factors(p)] == texts


def test_exact_factorization_below_one_hundred():
    for p in range(3, 100, 2):
        factors = chebyshev_difference_factors(p)
        product = MultiPoly.const(("z",), 1)
        for f in factors:
            product = product * f
        assert product == chebyshev_difference((p - 1) // 2), p
        divisors = [q for q in range(3, p + 1, 2) if p % q == 0]
        half_phis = sorted(sum(1 for k in range(1, q) if gcd(k, q) == 1) // 2
                           for q in divisors)
        assert sorted(f.degree_in("z") for f in factors) == half_phis, p
        assert (len(factors) == 1) == is_prime(p), p


def test_exact_factorization_rejects_a_wrong_factor(monkeypatch):
    z = MultiPoly.variable("z", ("z",))
    monkeypatch.setattr(twobridge, "_primitive_part", lambda q: 2 * z - 1)
    with pytest.raises(InternalInconsistencyError):
        chebyshev_difference_factors(9)


def test_irreducibility_check_runs_without_mpmath():
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "from knotpoly import verify\n"
            "reports = verify.check_irreducibility()\n"
            "assert reports and all(r.passed for r in reports)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_certificates():
    assert irreducibility_certificate(knot(7, 3)) is \
        IrreducibilityCertificate.GUARANTEED_IRREDUCIBLE_OVER_C
    assert irreducibility_certificate(knot(9, 5)) is \
        IrreducibilityCertificate.UNKNOWN
