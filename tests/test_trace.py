"""Trace calculus on two-generator words and the Chebyshev families."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotpoly import pretzel, sl2trace, verify
from knotpoly.exactpoly import MultiPoly, from_kronecker, row_slots
from knotpoly.sl2trace import (DEFAULT_SEED, FreeWord, GENERATOR_A,
                               GENERATOR_B, VARS_XYZ, VARS_XZ, _mul_left,
                               chebyshev_s, chebyshev_t, mat2_mul, mat2_pow,
                               nested_slice_images, random_reduced_word,
                               reduce_word, trace_poly, trace_poly_with,
                               trace_proved, word_from_string, word_matrix,
                               word_to_string)
from knotpoly.twobridge import TwoBridgeKnot, _riley_row, bridge_word
from knotpoly.verify import check_trace_oracle

X = MultiPoly.variable("x", ("x", "y", "z"))
Y = MultiPoly.variable("y", ("x", "y", "z"))
Z = MultiPoly.variable("z", ("x", "y", "z"))


def w(text):
    return word_from_string(text)[0]


@st.composite
def words(draw, max_len=8, exponents=(-2, -1, 1, 2)):
    n = draw(st.integers(0, max_len))
    letters = [(draw(st.sampled_from((GENERATOR_A, GENERATOR_B))),
                draw(st.sampled_from(exponents)))
               for _ in range(n)]
    return reduce_word(letters)


# -- word plumbing ---------------------------------------------------------

def test_reduce_word_merges_and_cancels():
    word = reduce_word([(0, 1), (0, 1), (1, -1), (1, 1), (0, -2)])
    assert word.letters == ()
    assert reduce_word([(0, 1), (1, 2), (1, -1)]).letters == ((0, 1), (1, 1))


def test_free_word_validation():
    with pytest.raises(ValueError, match="^zero exponent letter$"):
        FreeWord(((0, 0),))
    with pytest.raises(ValueError,
                       match="^adjacent letters share a generator$"):
        FreeWord(letters=((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="^unknown generator 2$"):
        FreeWord(((2, 1),))


def test_free_word_is_a_value():
    # check_trace_oracle keys a dict on words: a word built twice must
    # find the same entry, and a word is not the tuple of its letters
    letters = ((GENERATOR_A, 1), (GENERATOR_B, -2))
    seen = {FreeWord(letters): "first"}
    again = reduce_word([(GENERATOR_A, 1), (GENERATOR_B, -1),
                         (GENERATOR_B, -1)])
    assert again is not next(iter(seen))
    assert seen[again] == "first"
    assert again == FreeWord(letters=letters)
    assert again != FreeWord(((GENERATOR_A, 1),))
    assert again != (letters,) and again != letters
    assert repr(again) == "FreeWord(letters=((0, 1), (1, -2)))"
    with pytest.raises(AttributeError):
        again.letters = ()
    with pytest.raises(AttributeError):
        del again.letters
    assert again.letters == letters


def test_word_string_round_trip():
    word = w("a b^-2 a^3 b")
    assert word_to_string(word) == "a b^-2 a^3 b"
    assert word_to_string(FreeWord(())) == "1"


def test_word_from_string_rejects_three_generators():
    with pytest.raises(ValueError):
        word_from_string("a b c")


@pytest.mark.parametrize("token", ["a^", "a^x", "b^1.5", "^2", "a^1_0",
                                   "b^+2", "a^\u0661"])
def test_word_from_string_names_a_malformed_token(token):
    # "^2" has no name; the others have an exponent that is not an
    # optional "-" and ASCII digits, though int() takes the last three
    with pytest.raises(ValueError,
                       match=f"^malformed token {re.escape(repr(token))}$"):
        word_from_string(f"a b {token}")


@settings(max_examples=50, deadline=None)
@given(words())
def test_word_round_trip_property(word):
    # names are assigned by first appearance, so the round trip is textual
    text = word_to_string(word)
    if word.is_empty():
        return
    back, names = word_from_string(text)
    assert word_to_string(back, names + ("a", "b")[len(names):]) == text


# -- basic traces ----------------------------------------------------------

def test_generator_traces():
    assert trace_poly(w("a")) == X
    assert trace_poly(FreeWord(((GENERATOR_B, 1),))) == Y
    assert trace_poly(w("a b")) == Z
    assert trace_poly(FreeWord(())) == 2
    # parsing assigns indices by first appearance, so a lone "b" is the
    # first generator and still traces to x
    assert trace_poly(w("b")) == X


def test_trace_of_a_reduced_raw_letter_sequence():
    raw = [(GENERATOR_A, 1), (GENERATOR_A, 1), (GENERATOR_B, -1),
           (GENERATOR_B, 1), (GENERATOR_B, 0)]
    assert trace_poly(reduce_word(raw)) == trace_poly(w("a^2")) == X ** 2 - 2


def test_inverse_pair_trace():
    assert trace_poly(w("a b^-1")) == X * Y - Z


def test_commutator_trace():
    expected = X ** 2 + Y ** 2 + Z ** 2 - X * Y * Z - 2
    assert trace_poly(w("a b a^-1 b^-1")) == expected


def test_power_traces_are_chebyshev():
    # tr(a^k) = T_k(x)
    for k in range(-4, 5):
        word = reduce_word([(GENERATOR_A, k)])
        assert trace_poly(word) == chebyshev_t(k, "x").extend_to(
            ("x", "y", "z"))


# -- invariance properties -------------------------------------------------

def reverse_word(word: FreeWord) -> FreeWord:
    return FreeWord(tuple(reversed(word.letters)))


def inverse_word(word: FreeWord) -> FreeWord:
    return FreeWord(tuple((g, -e) for g, e in reversed(word.letters)))


def rotate_word(word: FreeWord, k: int) -> FreeWord:
    """Cyclic rotation by k letters (re-reduced at the seam)."""
    letters = word.letters
    if not letters:
        return word
    k %= len(letters)
    return reduce_word(letters[k:] + letters[:k])


@settings(max_examples=50, deadline=None)
@given(words())
def test_trace_invariant_under_inverse(word):
    assert trace_poly(inverse_word(word)) == trace_poly(word)


@settings(max_examples=50, deadline=None)
@given(words())
def test_trace_invariant_under_reversal(word):
    assert trace_poly(reverse_word(word)) == trace_poly(word)


@settings(max_examples=40, deadline=None)
@given(words(), st.integers(-3, 3))
def test_trace_invariant_under_rotation(word, k):
    assert trace_poly(rotate_word(word, k)) == trace_poly(word)


# -- nested slices ---------------------------------------------------------

@st.composite
def symmetric_words(draw, max_half=7):
    """Alternating words whose second half is the first reversed with the
    generators swapped: even length, palindromic exponents."""
    first = draw(st.sampled_from((GENERATOR_A, GENERATOR_B)))
    exps = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                         max_size=max_half))
    half = [((first + i) % 2, e) for i, e in enumerate(exps)]
    return FreeWord(tuple(half) + tuple((1 - g, e) for g, e in half[::-1]))


def decode_slices(letters):
    """The packed nested slice traces of letters, each decoded."""
    images, width, row = nested_slice_images(letters)
    return [from_kronecker(row_slots(t, width, row), VARS_XZ, width, row)
            for t in images]


@settings(max_examples=60, deadline=None)
@given(symmetric_words())
def test_nested_slice_traces_match_per_slice_folds(word):
    letters = word.letters
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    traces = decode_slices(letters)
    assert len(traces) == len(letters) // 2
    for j, tr in enumerate(traces):
        sliced = FreeWord(letters[j:len(letters) - j])
        assert tr == trace_poly_with(sliced, x, x, z)


@pytest.mark.parametrize("letters", [
    ((0, 1),),                               # odd length: a
    ((0, 1), (1, 1), (0, 1)),                # odd length, palindromic
    ((0, 1), (1, 2), (0, 1), (1, -1)),       # exponents 1, 2, 1, -1
    ((0, 2), (1, 1)),                        # exponents 2, 1
    ((0, 1), (0, 1)),                        # raw letters, one generator
])
def test_nested_slice_traces_reject_asymmetric_words(letters):
    with pytest.raises(ValueError):
        nested_slice_images(letters)


def _coeff_matrix(coeffs, ma, mb):
    """alpha*1 + beta*A + gamma*B + delta*AB as a row-major 4-tuple."""
    al, be, ga, de = coeffs
    return tuple(al * i + be * a + ga * b + de * ab for i, a, b, ab
                 in zip((1, 0, 0, 1), ma, mb, mat2_mul(ma, mb)))


def test_multiplication_tables_match_matrix_products():
    # Each row of the table, proved as an identity of matrices over
    # Z[s^+-1, t^+-1, u] at the generic pair A = (s, 1, 0, 1/s),
    # B = (t, 0, u, 1/t): the table's coefficients of g^k*E against the
    # product itself.  The rows are linear in E, so the four unit vectors
    # cover every coefficient vector.
    vars, laurent = ("s", "t", "u"), (True, True, False)
    s, t, u = (MultiPoly.variable(v, vars, laurent) for v in vars)
    ma, mb = (s, 1, 0, s ** -1), (t, 0, u, t ** -1)
    x, y, z = s + s ** -1, t + t ** -1, s * t + (s * t) ** -1 + u
    for unit in range(4):
        coeffs = tuple(int(i == unit) for i in range(4))
        e = _coeff_matrix(coeffs, ma, mb)
        for gen, base in ((GENERATOR_A, ma), (GENERATOR_B, mb)):
            for exp in (1, -1, 2, -3):
                got = _coeff_matrix(
                    _mul_left(gen, exp, coeffs, x.__mul__, y.__mul__,
                              z.__mul__), ma, mb)
                assert got == mat2_mul(mat2_pow(base, exp), e), \
                    (unit, gen, exp)


# -- chebyshev families ----------------------------------------------------

# every k the CLI reaches: 3|n| + 5 at the input bound |n| <= 100
CHEBYSHEV_K_MAX = 3 * 100 + 5


def test_chebyshev_seeds_and_recurrence():
    # with the negative-index rules below, a proof by induction that the
    # closed coefficients give S_k and T_k for every |k| <= CHEBYSHEV_K_MAX
    y = MultiPoly.variable("y", ("y",))
    assert chebyshev_s(0) == 1
    assert chebyshev_s(1) == y
    assert chebyshev_t(0) == 2
    assert chebyshev_t(1) == y
    for k in range(2, CHEBYSHEV_K_MAX + 1):
        assert chebyshev_s(k) == y * chebyshev_s(k - 1) - chebyshev_s(k - 2)
        assert chebyshev_t(k) == y * chebyshev_t(k - 1) - chebyshev_t(k - 2)


def test_chebyshev_negative_index_rules():
    for k in range(0, CHEBYSHEV_K_MAX + 1):
        assert chebyshev_s(-k) == -chebyshev_s(k - 2)
        assert chebyshev_t(-k) == chebyshev_t(k)


def test_chebyshev_t_from_s():
    for k in range(-5, 9):
        assert chebyshev_t(k) == chebyshev_s(k) - chebyshev_s(k - 2)


def test_chebyshev_trigonometric_values():
    for k in range(-6, 7):
        for theta in (0.3, 1.1, 2.5):
            val = chebyshev_t(k).evaluate({"y": 2 * math.cos(theta)})
            assert abs(val - 2 * math.cos(k * theta)) < 1e-9
            sval = chebyshev_s(k).evaluate({"y": 2 * math.cos(theta)})
            expected = math.sin((k + 1) * theta) / math.sin(theta)
            assert abs(sval - expected) < 1e-9


# -- exact oracle ----------------------------------------------------------

def test_rewrite_table_spot_check():
    basics = [FreeWord(()), FreeWord(((GENERATOR_A, 1),)),
              FreeWord(((GENERATOR_B, 1),)), w("a b"), w("a b^-1"),
              w("a b a^-1 b^-1")]
    for word in basics:
        assert trace_proved(word)
    rng = random.Random(DEFAULT_SEED)
    for _ in range(25):
        assert trace_proved(random_reduced_word(rng))


def test_exact_oracle_on_sample_words():
    for text in ("a b", "a b^-1 a b", "a^2 b^-3 a^-1 b",
                 "b a b a^-1 b^-1 a"):
        assert trace_proved(w(text))


def test_exact_oracle_catches_wrong_polynomial(monkeypatch):
    # z + 1 is not tr(ab)
    monkeypatch.setattr(sl2trace, "trace_poly", lambda word: Z + 1)
    assert not trace_proved(w("a b"))


def test_exact_oracle_catches_a_perturbation_vanishing_at_small_traces(
        monkeypatch):
    # q vanishes at every integer trace in [-34, 34].  A sampled oracle at
    # products of four elementary matrices [[1, k], [0, 1]] and
    # [[1, 0], [k, 1]], |k| <= 2, passed this perturbation at every seed:
    # every such matrix has |tr| <= 34, so q(tr A) = 0 at each sample.
    q = MultiPoly.const(VARS_XYZ, 1)
    for c in range(-34, 35):
        q *= X - c
    perturbed = w("a b^-1 a^2 b")
    assert trace_proved(perturbed)
    real = sl2trace.trace_poly
    monkeypatch.setattr(sl2trace, "trace_poly", lambda word: real(word) + q
                        if word == perturbed else real(word))
    assert not trace_proved(perturbed)
    assert trace_proved(w("a b^-1 a^2 b^-1"))


def test_every_word_of_at_most_six_letters_is_proved():
    # the 4 * 3^(n-1) sequences of n = 1..6 single letters with no letter
    # beside its inverse reduce to 1,456 distinct words
    singles = [(gen, e) for gen in (GENERATOR_A, GENERATOR_B)
               for e in (1, -1)]
    found = {reduce_word(seq) for n in range(1, 7)
             for seq in itertools.product(singles, repeat=n)
             if all(a != (b[0], -b[1]) for a, b in zip(seq, seq[1:]))}
    assert len(found) == 1456
    assert all(map(trace_proved, found))


def _proved_at_the_generic_pair(word, poly):
    """The reference identity: poly at the traces of the generic pair
    A = (s, 1, 0, 1/s), B = (t, 0, u, 1/t) against the trace of the
    word's matrix there, both in Z[s^+-1, t^+-1, u]."""
    vars, laurent = ("s", "t", "u"), (True, True, False)
    s, t, u = (MultiPoly.variable(v, vars, laurent) for v in vars)
    m = word_matrix(word.letters, ((s, 1, 0, s ** -1), (t, 0, u, t ** -1)))
    point = {"x": s + s ** -1, "y": t + t ** -1,
             "z": s * t + (s * t) ** -1 + u}
    return poly.evaluate(point) == m[0] + m[3]


def test_kronecker_proof_agrees_with_the_generic_pair(monkeypatch):
    # the default seed's words, with their trace polynomials and with one
    # wrong term added: the two proofs give the same verdict on each
    rng = random.Random(DEFAULT_SEED)
    sample = {random_reduced_word(rng, verify.ORACLE_MAX_LEN)
              for _ in range(verify.ORACLE_WORDS)}
    real = sl2trace.trace_poly
    for k, word in enumerate(sorted(sample, key=word_to_string)):
        wrong = real(word) + [X, Y * Z, 2 * X ** 3 - 1][k % 3]
        for poly, verdict in ((real(word), True), (wrong, False)):
            monkeypatch.setattr(sl2trace, "trace_poly", lambda _: poly)
            assert _proved_at_the_generic_pair(word, poly) == verdict, word
            assert trace_proved(word) == verdict, word


def wrong_mul_left(gen, exp, coeffs, mx, my, mz):
    """_mul_left with one wrong entry in the b^-1 row."""
    if gen == GENERATOR_A or exp > 0:
        return _mul_left(gen, exp, coeffs, mx, my, mz)
    al, be, ga, de = coeffs
    for _ in range(-exp):
        # the b^-1 row with the sign of mz(de) flipped
        al, be, ga, de = (my(al) - mz(be) + mx(my(be)) + ga + mx(de),
                          -de,
                          -al - mx(be) + mz(de),
                          my(de) + be)
    return al, be, ga, de


def test_trace_oracle_catches_a_wrong_table_row(monkeypatch):
    monkeypatch.setattr(sl2trace, "_mul_left", wrong_mul_left)
    report, = check_trace_oracle()
    assert report.status == "fail"
    failed = report.details["failed_words"]
    assert failed and all("b^-" in word for word in failed)


@pytest.fixture
def fresh_pretzel_traces():
    pretzel.traced_p.cache_clear()
    yield
    pretzel.traced_p.cache_clear()


def test_traced_q_steps_a_wrong_table_row_forward(monkeypatch,
                                                  fresh_pretzel_traces):
    # Q_7 is stepped from the folds of Q_0 and Q_1 by the recurrence, so
    # an error in the table reaches it through them and is not hidden
    monkeypatch.setattr(sl2trace, "_mul_left", wrong_mul_left)
    report = pretzel.closed_form_report(7, pretzel.traced_qs(7, 7)[7])
    assert report.status == "fail"
    assert report.details["q_ok"] is False


def test_trace_oracle_proves_each_distinct_word_once(monkeypatch):
    # the default seed draws some words many times; each is proved once,
    # and a failing word is still listed once per draw
    rng = random.Random(DEFAULT_SEED)
    words = [random_reduced_word(rng, verify.ORACLE_MAX_LEN)
             for _ in range(verify.ORACLE_WORDS)]
    (target, draws), = Counter(words).most_common(1)
    assert draws > 1
    proved = []
    monkeypatch.setattr(verify, "trace_proved",
                        lambda word: proved.append(word) or word != target)
    report, = check_trace_oracle()
    assert len(proved) == len(set(proved)) == len(set(words))
    assert report.status == "fail"
    assert report.details["failed_words"] == \
        [word_to_string(target)] * min(draws, 5)


def test_random_reduced_word_respects_length_bound():
    rng = random.Random(1)
    for _ in range(200):
        word = random_reduced_word(rng, 12)
        assert sum(abs(exp) for _, exp in word.letters) <= 12


# -- 2x2 matrices as 4-tuples ---------------------------------------------

def test_letter_product_matches_trace():
    # exact dual route on a concrete integer representation; no letters
    # give the int identity, of trace 2
    ma = (1, 1, 0, 1)
    mb = (1, 0, 1, 1)
    prod = mat2_mul(ma, mb)
    point = {"x": ma[0] + ma[3], "y": mb[0] + mb[3], "z": prod[0] + prod[3]}
    for text in ("a b a^-1 b^-1", "a^3 b^-2 a^-1", ""):
        word = w(text)
        m = word_matrix(word.letters, (ma, mb))
        assert m[0] + m[3] == trace_poly(word).evaluate(point), text
    assert word_matrix((), (ma, mb)) == (1, 0, 0, 1)


def test_mat2_pow_is_one_product_per_power():
    # det 1 over Z[x]: a negative power is a power of the adjugate, and
    # every power equals |k| plain products from the identity
    x = MultiPoly.variable("x", ("x",))
    one = x ** 0
    m = (x, one, x - 1, one)
    adj = (one, -one, 1 - x, x)
    for k in range(-9, 10):
        expect = (1, 0, 0, 1)
        for _ in range(abs(k)):
            expect = mat2_mul(expect, m if k > 0 else adj)
        assert mat2_pow(m, k) == expect, k
        assert mat2_mul(mat2_pow(m, k), mat2_pow(m, -k)) == (1, 0, 0, 1), k
    assert mat2_pow(m, 0) == (1, 0, 0, 1)
    assert all(type(e) is int for e in mat2_pow(m, 0))
    # a power of +-1 is the factor itself, with no product into the identity
    assert mat2_pow(m, 1) is m
    assert mat2_pow(m, -1) == adj


def test_mat2_pow_negative_is_the_adjugate_at_any_determinant():
    # the inverse only at det 1: at det 2 the -1 power is the adjugate,
    # and a caller that needs an inverse checks the determinant itself
    m = (2, 1, 0, 1)
    assert mat2_pow(m, -1) == (1, -1, 0, 2)
    assert mat2_mul(m, mat2_pow(m, -1)) == (2, 0, 0, 2)
    assert mat2_pow(m, -2) == mat2_mul((1, -1, 0, 2), (1, -1, 0, 2))


@pytest.mark.parametrize("p, m", [(5, 3), (7, 3), (13, 5)])
def test_riley_letters_scale_the_bridge_matrix(p, m):
    # riley_check multiplies the integer letters s*A, s*B, whose
    # adjugates are s*A^-1, s*B^-1, by shifts at s = 2^a, u = 2^b: the
    # first row of the product is that of word_matrix there, and that
    # product is M = s^(2d) W, for W the bridge word at
    # A = [[s, 1], [0, 1/s]], B = [[s, 0], [-u, 1/s]], here over Q
    knot = TwoBridgeKnot(p, m)
    letters = bridge_word(knot).letters
    for a, b in ((1, 3), (2, 1), (5, 11)):
        s, u = 1 << a, 1 << b
        scaled = word_matrix(letters,
                             ((s * s, s, 0, 1), (s * s, 0, -u * s, 1)))
        assert _riley_row(letters, a, b) == scaled[:2], (a, b)
        a_q = (Fraction(s), Fraction(1), Fraction(0), Fraction(1, s))
        b_q = (Fraction(s), Fraction(0), Fraction(-u), Fraction(1, s))
        exact = word_matrix(letters, (a_q, b_q))
        assert scaled == tuple(s ** (2 * knot.d) * e for e in exact), (a, b)
