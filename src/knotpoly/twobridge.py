"""Character-variety polynomials of two-bridge knots.

A two-bridge knot is indexed by coprime odd integers (p, m) with
0 < m < p.  The meridian pair (a, b) satisfies the single relation
w a = b w for the alternating word w determined by the sign sequence
eps_j = (-1)^floor(j*m/p).  The nonabelian character variety is cut out
by an alternating sum of subword traces; with both meridian traces
identified (x = tr a = tr b) the result lives in Z[x^2, z].

Everything here is exact, with no floating point.  Irreducibility of the
x = 0 slice S_d - S_(d-1) of b(p, 1) is read off its factorization into
the Psi_q(-z), q | p, where Psi_q is the minimal polynomial of
2cos(2 pi/q); the factors are built by exact division.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb, gcd

from .exactpoly import (MultiPoly, exact_div, exponent_reader,
                        from_kronecker, kronecker_point, newton_polygon,
                        row_slots, top_part_from_kronecker)
from .report import (FrozenRecord, InternalInconsistencyError, STATUS_FAIL,
                     STATUS_PASS, VerificationReport, status_of)
from .sl2trace import (FreeWord, GENERATOR_A, GENERATOR_B, VARS_XZ,
                       chebyshev_s, nested_slice_images)

MERIDIAN_CACHE_SIZE = 4


class IrreducibilityCertificate(Enum):
    GUARANTEED_IRREDUCIBLE_OVER_C = "guaranteed-irreducible-over-C"
    UNKNOWN = "unknown"


class TwoBridgeKnot(FrozenRecord):
    """Normal form b(p, m): p, m odd, coprime, 0 < m < p."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int):
        if p < 3 or p % 2 == 0:
            raise ValueError(f"p must be odd and >= 3, got {p}")
        if m % 2 == 0 or not 0 < m < p:
            raise ValueError(f"m must be odd with 0 < m < p, got {m}")
        if gcd(p, m) != 1:
            raise ValueError(f"p and m must be coprime, got ({p}, {m})")
        self._init(p, m)

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    @property
    def c(self) -> int:
        return (self.m - 1) // 2

    def label(self) -> str:
        return f"b({self.p},{self.m})"


def all_knots(p_max: int):
    """Every valid (p, m) with p <= p_max, ordered by (p, m)."""
    for p in range(3, p_max + 1, 2):
        for m in range(1, p, 2):
            if gcd(p, m) == 1:
                yield TwoBridgeKnot(p, m)


def sign_sequence(knot: TwoBridgeKnot) -> tuple:
    """eps_j = (-1)^floor(j*m/p) for j = 1..p-1; always a palindrome."""
    p, m = knot.p, knot.m
    eps = tuple(-1 if ((j * m) // p) % 2 else 1 for j in range(1, p))
    if eps != eps[::-1]:
        raise InternalInconsistencyError(
            f"sign sequence of {knot.label()} is not palindromic")
    return eps


def bridge_word(knot: TwoBridgeKnot) -> FreeWord:
    """w = a^eps1 b^eps2 ... a^eps(p-2) b^eps(p-1)."""
    eps = sign_sequence(knot)
    letters = tuple((GENERATOR_A if j % 2 == 0 else GENERATOR_B, e)
                    for j, e in enumerate(eps))
    return FreeWord(letters)


@lru_cache(maxsize=MERIDIAN_CACHE_SIZE)
def _meridian_trace(letters) -> tuple:
    """The packed fold (images, width, row) of nested_slice_images: the
    Kronecker images of the traces of the nested slices
    letters[j:len(letters)-j], outermost first, with both generator traces
    bound to x.  Each image holds one slot per X^k z^j, X = x^2, and
    from_kronecker decodes the row_slots of a slice, or of any signed sum
    of slices and +-1.

    A bridge word alternates a and b with palindromic signs, so the fold
    builds each slice from the next inner one by its reversal symmetry.
    Binding y to x also makes each trace symmetric under swapping the
    generators, so a slice's trace does not depend on which generator it
    starts with.  The images stay packed: character_polynomial decodes
    only their sum, and leading_term_report reads just each slice's top
    part, with top_part_from_kronecker.  The cache holds a few bridge
    words: every report of one knot reads the same entry.
    """
    return nested_slice_images(letters)


def _check_packed_top(image: int, width: int, row: int, degree: int,
                      c: int, what: str) -> bytes:
    """The image's row_slots, which from_kronecker decodes;
    InternalInconsistencyError unless the top part of the polynomial in
    X = x^2 and z that image packs, at total degree degree, is z^(degree-c)
    (z-X)^c = sum_k C(c, k) (-1)^k X^k z^(degree-k)."""
    slots = row_slots(image, width, row)
    try:
        top = top_part_from_kronecker(slots, width, row, degree)
    except ValueError as err:
        raise InternalInconsistencyError(f"{err} in {what}") from None
    if top != [(-1) ** k * comb(c, k) for k in range(c + 1)] \
            + [0] * (degree - c):
        raise InternalInconsistencyError(
            f"leading part of {what} is not z^{degree - c} (z-X)^{c}")
    return slots


def character_polynomial(knot: TwoBridgeKnot) -> MultiPoly:
    """Alternating sum of end-deleted subword traces, in Z[x^2, z].

    The j-th summand deletes j letters from each end of the bridge word;
    alternating generators cannot cancel, so slices stay reduced.  The sum
    is taken over the slices' Kronecker images as ints, with (-1)^d in
    slot 0: the slot holds the slices' coefficient norms summed plus one,
    a bound on every coefficient of phi.  The packed sum is biased to
    slots once, checked to have top part z^(d-c) (z-X)^c, X = x^2, and
    then decoded from the same slots.  Nothing
    here can tell an odd x-power from a garbled digit; riley_check, which
    proves every coefficient, is what rejects either.
    """
    images, width, row = _meridian_trace(bridge_word(knot).letters)
    total = sum(images[::2]) - sum(images[1::2]) + (-1) ** knot.d
    slots = _check_packed_top(total, width, row, knot.d, knot.c,
                              f"character polynomial of {knot.label()}")
    return from_kronecker(slots, VARS_XZ, width, row)


def x_zero_profile(knot: TwoBridgeKnot, phi: MultiPoly) -> VerificationReport:
    """Check phi(0, z) = S_d(z) - S_(d-1)(z) for the knot's character
    polynomial phi."""
    at_zero = phi.coeff_in("x", 0).restrict(("z",))
    expected = chebyshev_difference(knot.d, "z")
    ok = at_zero == expected
    return VerificationReport(
        "x0-chebyshev", knot.label(), status_of(ok),
        {"phi_at_x0": at_zero.to_text(), "expected": expected.to_text()})


def newton_vertex_report(knot: TwoBridgeKnot,
                         gamma: MultiPoly) -> VerificationReport:
    """Both predicted hull corners must be vertices of the Newton polygon
    of the knot's even-form character polynomial gamma."""
    hull = newton_polygon(gamma)
    want = [(0, knot.d), (knot.c, (knot.p - knot.m) // 2)]
    present = [v in hull for v in want]
    return VerificationReport(
        "newton-vertices", knot.label(), status_of(all(present)),
        {"vertices": [list(v) for v in hull],
         "expected": [list(v) for v in want]})


def leading_term_report(knot: TwoBridgeKnot) -> VerificationReport:
    """Degrees and leading parts of the nested palindromic subwords.

    With nu = sign sequence (indices 1..2d), the j-th word alternates
    a, b starting from a with exponents nu_j .. nu_(2d+1-j).  Its trace,
    with x^2 collapsed to X, must have total degree d+1-j and leading
    part z^(d+1-j-c_j) (z - X)^(c_j) where c_j counts sign changes
    mu_k = nu_k nu_(k+1) = -1 over k in [j, d].  That word is the j-th
    nested slice of the bridge word, up to swapping the generators; its
    top part is read from the packed slice image, which is not decoded.
    """
    eps = sign_sequence(knot)
    d = knot.d
    mu = [eps[k] * eps[k + 1] for k in range(d)]  # mu_j for j = 1..d
    images, width, row = _meridian_trace(bridge_word(knot).letters)
    c_js = [sum(1 for k in range(j - 1, d) if mu[k] == -1)
            for j in range(1, d + 1)]
    failed = []
    for j, c_j in enumerate(c_js, start=1):
        try:
            _check_packed_top(images[j - 1], width, row, d + 1 - j, c_j,
                              f"{knot.label()} slice {j}")
        except InternalInconsistencyError as err:
            failed.append({"j": j, "error": str(err)})
    return VerificationReport("leading-terms", knot.label(),
                              status_of(not failed),
                              {"c_j": c_js, "failed": failed})


def _riley_row(letters, a: int, b: int) -> tuple:
    """(M11, M12), the first row of the product M of the letters s*A =
    [[s^2, s], [0, 1]], s*B = [[s^2, 0], [-u s, 1]] and, for an inverse
    letter, their adjugates [[1, -s], [0, s^2]], [[1, 0], [u s, s^2]], at
    s = 2^a and u = 2^b; every product by an entry is a shift."""
    m1, m2 = 1, 0
    for gen, exp in letters:
        if gen == GENERATOR_A:
            m1, m2 = ((m1 << 2 * a, (m1 << a) + m2) if exp > 0
                      else (m1, (m2 << 2 * a) - (m1 << a)))
        elif exp > 0:
            m1 = (m1 << 2 * a) - (m2 << a + b)
        else:
            m1, m2 = m1 + (m2 << a + b), m2 << 2 * a
    return m1, m2


def riley_check(knot: TwoBridgeKnot, gamma: MultiPoly) -> None:
    """Prove gamma equal to the polynomial Riley's representation gives;
    InternalInconsistencyError when it is not.

    With A = [[s, 1], [0, 1/s]], B = [[s, 0], [-u, 1/s]] and W the bridge
    word's matrix, phi(s + 1/s, s^2 + s^-2 - u) = W11 + (1/s - s)*W12, the
    (1,2) entry of WA - BW (R. Riley, Quart. J. Math. Oxford 35, 1984).
    The letters s*A = [[s^2, s], [0, 1]] and s*B = [[s^2, 0], [-u s, 1]]
    are integer matrices of determinant s^2, and their adjugates are s*A^-1
    and s*B^-1; so their product over the bridge word's 2d letters, each of
    exponent +-1, is M = s^(2d) W.  With X' = (s^2 + 1)^2, z' = s^4 + 1 -
    u s^2 and gamma = sum c_ij X^i z^j of total degree d, the identity
    times s^(2d+1) is s * sum c_ij X'^i z'^j s^(2(d-i-j)) = s*M11 + (1 -
    s^2)*M12 in Z[s, u].

    (s, u) -> (s + 1/s, s^2 + s^-2 - u) is onto C^2, so that identity in
    Z[s, u] is gamma's identity in (X, z), not a sample.  Both sides have
    degree at most 4d + 2 in s.  The left side has 1-norm at most sum
    |c_ij| 4^i 3^j.  Every entry of a letter has 1-norm at most 1, so each
    entry of M has 1-norm at most 2^(2d-1), and the right side at most
    3 * 2^(2d-1).  Their sum bounds the difference, so the two sides are
    compared as ints at kronecker_point of that bound and degrees
    (4d + 2, d), where s = 2^a and u = 2^b and every product by X', z' or a
    letter is a shift.  The left side runs Horner's scheme in z' over
    homogeneous Horner sums in X' and s^2.
    """
    d = knot.d
    read_x, read_z = (exponent_reader(gamma.vars, v) for v in ("X", "z"))
    cols = [[0] * (d + 1 - j) for j in range(d + 1)]  # cols[j][i] = c_ij
    norm = 3 << 2 * d - 1
    for key, c in gamma.terms.items():
        i, j = read_x(key), read_z(key)
        if i + j > d:
            raise InternalInconsistencyError(
                f"term X^{i}*z^{j} of {knot.label()} is above degree {d}")
        cols[j][i] = c
        norm += (abs(c) << 2 * i) * 3 ** j
    s, u = kronecker_point(norm, (4 * d + 2, d))
    a, b = s.bit_length() - 1, u.bit_length() - 1
    value = 0
    for j in range(d, -1, -1):
        # sum_i c_ij X'^i s^(2(d-j-i)), then value * z' plus that sum
        part = 0
        for i in range(d - j, -1, -1):
            part += part << 2 * a
            part += (part << 2 * a) + (cols[j][i] << 2 * a * (d - j - i))
        value += (value << 4 * a) - (value << 2 * a + b) + part
    m1, m2 = _riley_row(bridge_word(knot).letters, a, b)
    if value << a != (m1 << a) + m2 - (m2 << 2 * a):
        raise InternalInconsistencyError(
            f"gamma of {knot.label()} disagrees with Riley's representation")


# -- irreducibility -------------------------------------------------------


def chebyshev_difference(d: int, var: str = "z") -> MultiPoly:
    """S_d - S_(d-1); the x = 0 character polynomial of b(p, 1)."""
    return chebyshev_s(d, var) - chebyshev_s(d - 1, var)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def irreducibility_certificate(knot: TwoBridgeKnot) -> IrreducibilityCertificate:
    """Guaranteed C-irreducibility needs p prime and gcd(d, c) = 1, where
    gcd(d, 0) = d."""
    if is_prime(knot.p) and gcd(knot.d, knot.c) == 1:
        return IrreducibilityCertificate.GUARANTEED_IRREDUCIBLE_OVER_C
    return IrreducibilityCertificate.UNKNOWN


@lru_cache(maxsize=None)
def _primitive_part(q: int) -> MultiPoly:
    """Psi_q(-z) for odd q > 1, Psi_q the minimal polynomial of 2cos(2pi/q).

    S_d - S_(d-1) with d = (q-1)/2 is the product of Psi_e(-z) over the
    divisors e > 1 of q, so dividing out the smaller divisors' parts leaves
    this one.
    """
    f = chebyshev_difference((q - 1) // 2, "z")
    for e in range(3, q, 2):
        if q % e == 0:
            f = exact_div(f, _primitive_part(e))
    return f


def chebyshev_difference_factors(p: int) -> list:
    """Irreducible factors over Q of S_d - S_(d-1) for d = (p-1)/2.

    They are the Psi_q(-z) over the divisors q > 1 of p, irreducible by
    Watkins-Zeitlin (Amer. Math. Monthly 1993), sorted by (degree, text).
    Each is checked to be monic over Z of degree phi(q)/2.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")
    factors = []
    for q in range(3, p + 1, 2):
        if p % q:
            continue
        f = _primitive_part(q)
        half_phi = sum(1 for k in range(1, q) if gcd(k, q) == 1) // 2
        if f.degree_in("z") != half_phi or f.coeff_in("z", half_phi) != 1:
            raise InternalInconsistencyError(
                f"factor of S_d - S_(d-1) for q={q} is not monic over Z "
                f"of degree {half_phi}")
        factors.append(f)
    return sorted(factors, key=lambda f: (f.degree_in("z"), f.to_text()))


# -- aggregated per-knot reports -----------------------------------------


def structural_reports(knot: TwoBridgeKnot, phi: MultiPoly = None,
                       gamma: MultiPoly = None) -> list:
    """Construction-time checks plus the hull and slice claims.

    phi and gamma are the knot's character polynomial and its even form,
    built here unless the caller has built them already.
    """
    reports = []
    try:
        if phi is None:
            phi = character_polynomial(knot)
        if gamma is None:
            gamma = phi.substitute_square("x", "X")
        riley_check(knot, gamma)
        reports.append(VerificationReport(
            "character-structure", knot.label(), STATUS_PASS,
            {"phi": phi.to_text(), "gamma": gamma.to_text(),
             "z_degree": knot.d}))
    except InternalInconsistencyError as err:
        reports.append(VerificationReport(
            "character-structure", knot.label(), STATUS_FAIL,
            {"error": str(err)}))
        return reports
    reports.append(x_zero_profile(knot, phi))
    reports.append(newton_vertex_report(knot, gamma))
    return reports
