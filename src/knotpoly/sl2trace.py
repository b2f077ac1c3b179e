"""Trace polynomials of words in a rank-2 free group.

For matrices A, B in SL2 every word trace is a polynomial in
x = tr(A), y = tr(B), z = tr(AB).  Left multiplication by a generator maps
the module spanned by {1, A, B, AB} to itself, so a word is folded one
letter at a time, from its right end, through a 4-tuple of coefficients;
the trace is then 2*alpha + x*beta + y*gamma + z*delta.  The one rewrite
table, _mul_left, follows from Cayley-Hamilton, A^2 = xA - 1,
B^2 = yB - 1, and the Fricke identity AB + BA = yA + xB + (z - xy).  It
takes multiplication by x, y and z as callables, so one table serves
every ring it runs over: MultiPoly products, left shifts of Kronecker
images, and the coefficient-norm bounds of _Norm.

trace_poly_with folds a whole word over MultiPoly, and trace_poly is that
fold with tr(A), tr(B), tr(AB) bound to x, y, z; neither keeps a cache.
nested_slice_images folds the traces of all the nested slices
word[j:len-j] in one pass over the letters, for a word fixed by st, where
t reverses a word and s swaps the generators (an even-length alternating
word with palindromic exponents, such as a two-bridge word).  Each slice
is then S_j = g_j * S_(j+1) * s(g_j) and is itself fixed by st, so
S_j = g_j * st(g_j * S_(j+1)).  On a vector, t sends AB to BA and s sends
BA back to AB while swapping x and y in the coefficients; with tr(B) bound
to tr(A), st just swaps beta and gamma.  That fold, nested_slice_images,
runs on the Kronecker images x = 2^(s/2), z = 2^(s*row) over Z (Harvey,
J. Symb. Comput. 2009), with s taken from a proven bound on the sum of the
slices' coefficient norms, so a slice trace, even in x, takes one s-bit
slot per power of x^2.  The images stay packed: a caller adds and
subtracts them as ints, decodes only the sums it reads, with row_slots
and from_kronecker, and reads a slice's top part, undecoded, with
top_part_from_kronecker.

2x2 matrices are row-major 4-tuples (a, b, c, d) over any ring, such as
int, MultiPoly or RationalFunction.  The package has one product,
mat2_mul, one power, mat2_pow, and one word evaluator, word_matrix, the
product of the letters' powers.  A negative power is taken of the
adjugate (d, -b, -c, a), so it is an inverse power only at determinant
one; a caller that needs inverses checks the determinant itself.

Generators are indexed 0 ("a") and 1 ("b").  The rewrite table is not
taken on faith.  The oracle, trace_proved, proves a word's trace
polynomial rather than sampling it.  At the generic pair
A = (s, 1, 0, 1/s), B = (t, 0, u, 1/t) the traces are
(tr A, tr B, tr AB) = (s + 1/s, t + 1/t, st + 1/(st) + u), and that map
(s, t, u) -> (x, y, z) is onto C^3, so by Fricke-Vogt an equality of
Laurent polynomials in (s, t, u) is an identity in (x, y, z), not a
sample.  Scaled by powers of s and t, both sides are integer polynomials:
word_matrix at the integer letters s*A and t*B, and the trace polynomial
at (s^2 + 1, t^2 + 1, s^2 t^2 + 1 + ust) padded term by term.  Their
1-norms have proven bounds, so the identity is proved by comparing two
ints at one Kronecker point whose digit width holds the bounds' sum.  The
test suite proves the table entry by entry against matrix products at
the generic pair.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from math import comb
from operator import mul

from .exactpoly import (MultiPoly, exponent_reader, kronecker_point,
                        slot_bytes)
from .report import FrozenRecord

VARS_XYZ = ("x", "y", "z")
VARS_XZ = ("x", "z")

DEFAULT_SEED = 20231115

GENERATOR_A = 0
GENERATOR_B = 1


class FreeWord(FrozenRecord):
    """Freely reduced word; letters are (generator, nonzero exponent)."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple):
        for gen, exp in letters:
            if gen not in (GENERATOR_A, GENERATOR_B):
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                raise ValueError("zero exponent letter")
        for (g1, _), (g2, _) in zip(letters, letters[1:]):
            if g1 == g2:
                raise ValueError("adjacent letters share a generator")
        self._init(letters)

    def is_empty(self) -> bool:
        return not self.letters


def reduce_word(letters: Iterable) -> FreeWord:
    """Freely reduce a letter sequence, merging and cancelling as needed."""
    stack: list[list[int]] = []
    for gen, exp in letters:
        gen = int(gen)
        exp = int(exp)
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return FreeWord(tuple((g, e) for g, e in stack))


def word_from_string(text: str) -> tuple[FreeWord, tuple[str, ...]]:
    """Parse a word like "a b^-1 a" with caller-chosen generator names; an
    exponent is an optional "-" followed by ASCII digits.

    Returns the reduced word and the generator names in order of first
    appearance (at most two distinct names are allowed).
    """
    names: list[str] = []
    letters = []
    for token in text.split():
        if "^" in token:
            name, _, raw = token.partition("^")
            # an optional "-" and ASCII digits: int() would also take "+",
            # "_" and non-ASCII digits
            digits = raw[1:] if raw.startswith("-") else raw
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"malformed token {token!r}")
            exp = int(raw)
        else:
            name, exp = token, 1
        if not name:
            raise ValueError(f"malformed token {token!r}")
        if name not in names:
            if len(names) == 2:
                raise ValueError("more than two distinct generators")
            names.append(name)
        letters.append((names.index(name), exp))
    return reduce_word(letters), tuple(names)


def word_to_string(word: FreeWord, names=("a", "b")) -> str:
    """Inverse of word_from_string; the empty word prints as "1"."""
    if word.is_empty():
        return "1"
    return " ".join(names[gen] if exp == 1 else f"{names[gen]}^{exp}"
                    for gen, exp in word.letters)


# -- symbolic fold --------------------------------------------------------


def _mul_left(gen: int, exp: int, coeffs, mx, my, mz):
    """Coefficients of g^exp * E on {1, A, B, AB}, for E given by coeffs;
    mx, my and mz multiply a coefficient by x, y and z."""
    al, be, ga, de = coeffs
    step = abs(exp)
    if gen == GENERATOR_A and exp > 0:
        for _ in range(step):
            al, be, ga, de = -be, al + mx(be), -de, ga + mx(de)
    elif gen == GENERATOR_A:
        for _ in range(step):
            al, be, ga, de = mx(al) + be, -al, mx(ga) + de, -ga
    elif exp > 0:
        # b*A = BA = yA + xB + (z - xy) - AB, by the Fricke identity
        for _ in range(step):
            al, be, ga, de = (mz(be) - mx(my(be)) - ga - mx(de),
                              my(be) + de,
                              al + mx(be) + my(ga) + mz(de),
                              -be)
    else:
        for _ in range(step):
            al, be, ga, de = (my(al) - mz(be) + mx(my(be)) + ga + mx(de),
                              -de,
                              -al - mx(be) - mz(de),
                              my(de) + be)
    return al, be, ga, de


def _trace_of(coeffs, mx, my, mz):
    al, be, ga, de = coeffs
    return 2 * al + mx(be) + my(ga) + mz(de)


def _fold(letters, px: MultiPoly, py: MultiPoly, pz: MultiPoly):
    """Coefficients (alpha, beta, gamma, delta) of the word on {1,A,B,AB}."""
    zero = px * 0
    coeffs = px ** 0, zero, zero, zero
    for gen, exp in reversed(letters):
        coeffs = _mul_left(gen, exp, coeffs, px.__mul__, py.__mul__,
                           pz.__mul__)
    return coeffs


def trace_poly_with(word: FreeWord, px: MultiPoly, py: MultiPoly,
                    pz: MultiPoly) -> MultiPoly:
    """Trace of the word with tr(A), tr(B), tr(AB) bound to given polynomials."""
    return _trace_of(_fold(word.letters, px, py, pz), px.__mul__,
                     py.__mul__, pz.__mul__)


class _Norm:
    """A bound on the sum of a polynomial's |coefficients|, folded in
    place of the polynomial: a sum or difference adds the bounds, and
    multiplying by a monomial keeps the bound."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __add__(self, other):
        return _Norm(self.n + other.n)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __rmul__(self, k: int):
        return _Norm(abs(k) * self.n)


def _nested_traces(letters, one, zero, mx, mz):
    """Traces of the nested slices letters[j:len(letters)-j], innermost
    first, in the ring of one and zero, with tr(A) = tr(B) = x and
    tr(AB) = z; a generator, checking each pair of letters as it goes."""
    n = len(letters)
    if n % 2:
        raise ValueError(f"nested slices need an even-length word, got {n} "
                         "letters")
    coeffs = one, zero, zero, zero
    for j in range(n // 2 - 1, -1, -1):
        gen, exp = letters[j]
        if letters[n - 1 - j] != (1 - gen, exp):
            raise ValueError(f"letters {j} and {n - 1 - j} break the "
                             "symmetry: the exponents are not a palindrome "
                             "or the generators do not alternate")
        al, be, ga, de = _mul_left(gen, exp, coeffs, mx, mx, mz)
        coeffs = _mul_left(gen, exp, (al, ga, be, de), mx, mx, mz)
        yield _trace_of(coeffs, mx, mx, mz)


def _keep(v):
    """Multiplication by x or z on a _Norm: |x * a| = |a|."""
    return v


def _trace_norms(letters) -> list:
    """A bound on the largest |coefficient| of each nested slice trace,
    innermost first: the fold run over _Norm, so any edit to the table
    moves the bound with it."""
    return [t.n for t in _nested_traces(letters, _Norm(1), _Norm(0),
                                        _keep, _keep)]


def nested_slice_images(letters) -> tuple:
    """(images, width, row): the Kronecker images over Z of the traces of
    the nested slices letters[j:len(letters)-j], outermost first, with
    tr(A) and tr(B) both bound to x, at x = 2^(s/2) and z = 2^(s*row),
    s = 8 * width.

    The word must have even length and end in its first half reversed with
    the generators swapped (for an alternating word: palindromic
    exponents); else ValueError.  One image per nonempty slice.  Each level
    multiplies letters[j] on the left, swaps beta and gamma (the map st of
    the module docstring) and multiplies letters[j] on the left again, so
    the whole tuple costs one fold step per letter.

    Multiplying by x or z is a left shift, and the int arithmetic is exact.
    A slice trace has only even powers of x, since each slice has even
    exponent sum and so keeps its trace when A, B become -A, -B; so its
    image is that of its polynomial in X = x^2 and z at X = 2^s, one s-bit
    slot per X^k z^j.  Coefficients of odd x-power appear only on the way,
    half a slot up.  The word's length L = sum |exponent| is even and
    bounds the x-degree, so the X-degree is below row = L/2 + 2.
    _trace_norms bounds each slice's coefficients, so their sum plus one
    bounds every coefficient of any signed sum of the slice traces and
    +-1; s is the slot of that bound plus a sign bit, so from_kronecker
    reads back any such sum of images from its row_slots.
    """
    norms = _trace_norms(letters)
    width = slot_bytes((sum(norms) + 1).bit_length() + 1)
    s = 8 * width
    row = sum(abs(e) for _, e in letters) // 2 + 2
    sx, sz = s // 2, s * row
    images = list(_nested_traces(letters, 1, 0, lambda v: v << sx,
                                 lambda v: v << sz))
    return tuple(reversed(images)), width, row


def trace_poly(word: FreeWord) -> MultiPoly:
    """Trace polynomial in (x, y, z) of a FreeWord."""
    x, y, z = (MultiPoly.variable(v, VARS_XYZ) for v in VARS_XYZ)
    return trace_poly_with(word, x, y, z)


# -- Chebyshev-like polynomials ------------------------------------------


@lru_cache(maxsize=None)
def chebyshev_s(k: int, var: str = "y") -> MultiPoly:
    """S_k: S_0 = 1, S_1 = y, S_(k+1) = y*S_k - S_(k-1), both directions.

    Built from its closed coefficients, S_k = sum_j (-1)^j C(k-j, j)
    y^(k-2j) for k >= -1 (the sum is empty at k = -1, so S_(-1) = 0), and
    S_(-k-2) = -S_k below that; S_k(2 cos t) = sin((k+1)t) / sin t (J. C.
    Mason and D. C. Handscomb, Chebyshev Polynomials, 2003).
    """
    if k < -1:
        return -chebyshev_s(-k - 2, var)
    return MultiPoly((var,), {(k - 2 * j,): (-1) ** j * comb(k - j, j)
                              for j in range(k // 2 + 1)})


def chebyshev_t(k: int, var: str = "y") -> MultiPoly:
    """T_k = S_k - S_(k-2); T_0 = 2, T_1 = y, T_(-k) = T_k."""
    return chebyshev_s(k, var) - chebyshev_s(k - 2, var)


# -- 2x2 matrices ----------------------------------------------------------


def mat2_mul(m, n) -> tuple:
    """Product of two 2x2 matrices given as row-major 4-tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def mat2_pow(m, k: int) -> tuple:
    """m^k by repeated squaring.  A negative k powers the adjugate
    (d, -b, -c, a), which is the inverse only at determinant one; k = 0
    gives the int identity, and k = +-1 costs no product."""
    if k < 0:
        a, b, c, d = m
        m, k = (d, -b, -c, a), -k
    result = None
    while k:
        if k & 1:
            result = m if result is None else mat2_mul(result, m)
        k >>= 1
        if k:
            m = mat2_mul(m, m)
    return (1, 0, 0, 1) if result is None else result


def word_matrix(letters, mats) -> tuple:
    """The product of mat2_pow(mats[gen], exp) over the letters (gen, exp);
    the int identity for no letters."""
    result = None
    for gen, exp in letters:
        m = mat2_pow(mats[gen], exp)
        result = m if result is None else mat2_mul(result, m)
    return (1, 0, 0, 1) if result is None else result


# -- exact oracle ---------------------------------------------------------


def trace_proved(word: FreeWord) -> bool:
    """Whether trace_poly(word) is the trace of the word, as an identity.

    The generic pair A = (s, 1, 0, 1/s), B = (t, 0, u, 1/t) has traces
    x = s + 1/s, y = t + 1/t, z = st + 1/(st) + u, and (s, t, u) -> (x, y, z)
    is onto C^3, so equal Laurent polynomials in (s, t, u) mean equal
    polynomials in (x, y, z).  Scaled by s^Ds t^Dt both sides lie in
    Z[s, t, u]: the trace of word_matrix at the integer letters
    s*A = (s^2, s, 0, 1), t*B = (t^2, 0, tu, 1), whose adjugates are
    s*A^-1 and t*B^-1, is s^ka t^kb tr(W) for ka, kb the a- and b-letter
    counts, and each term c x^i y^j z^k becomes
    c (s^2 + 1)^i (t^2 + 1)^j (s^2 t^2 + 1 + ust)^k s^(Ds-i-k) t^(Dt-j-k).
    Ds is the largest of ka and every i + k, Dt likewise, so the degrees
    are at most 2Ds in s, 2Dt in t and Dt in u.  Every scaled letter has
    entries of 1-norm at most 1, so each entry of a product of L letters has
    1-norm at most 2^(L-1) and the trace at most 2^L (2 for no letters);
    the other side has 1-norm at most sum |c| 2^i 2^j 3^k.  Their sum
    bounds the difference, so the two sides are compared as ints at
    kronecker_point of that bound and those degrees."""
    ka = sum(abs(e) for g, e in word.letters if g == GENERATOR_A)
    kb = sum(abs(e) for g, e in word.letters if g == GENERATOR_B)
    reads = [exponent_reader(VARS_XYZ, v) for v in VARS_XYZ]
    terms = [(c, *(read(key) for read in reads))
             for key, c in trace_poly(word).terms.items()]
    ds = max([ka, *(i + k for _, i, _, k in terms)])
    dt = max([kb, *(j + k for _, _, j, k in terms)])
    norm = 2 ** max(ka + kb, 1) + sum((abs(c) << i + j) * 3 ** k
                                      for c, i, j, k in terms)
    s, t, u = kronecker_point(norm, (2 * ds, 2 * dt, dt))
    m = word_matrix(word.letters, ((s * s, s, 0, 1), (t * t, 0, t * u, 1)))
    # s = 2^ls and t = 2^lt, so the padding powers are shifts
    ls, lt = s.bit_length() - 1, t.bit_length() - 1
    xs, ys = (list(accumulate(repeat(b, d), mul, initial=1))
              for b, d in ((s * s + 1, ds), (t * t + 1, dt)))
    # the terms summed by z-power k, then by Horner's scheme in that power
    by_k = [0] * (dt + 1)
    for c, i, j, k in terms:
        pad = ls * (ds - i - k) + lt * (dt - j - k)
        by_k[k] += c * xs[i] * ys[j] << pad
    z = s * s * t * t + 1 + u * s * t
    value = reduce(lambda acc, part: acc * z + part, reversed(by_k))
    return value == (m[0] + m[3]) << ls * (ds - ka) + lt * (dt - kb)


def random_reduced_word(rng: random.Random, max_len: int = 12) -> FreeWord:
    """Random freely reduced word with at most max_len single letters."""
    n = rng.randint(1, max_len)
    letters = [(rng.randrange(2), rng.choice((-1, 1))) for _ in range(n)]
    return reduce_word(letters)
