"""Exact sparse multivariate polynomial arithmetic over the integers.

A polynomial carries a fixed, ordered tuple of variable names and a sparse
term map from packed monomial keys to coefficients.  Every stored
coefficient is a nonzero ``int``; the public constructor takes
``{exponent tuple: coefficient}`` and raises ``TypeError`` for any other
coefficient, a rational one included, or for an exponent that is not an
``int``.  Equality is therefore plain dict comparison, and ``+``, ``-``
and a product by one term build their result directly, dropping zeros as
they merge.  Per-variable Laurent flags admit negative exponents; only a
monomial with coefficient +1 or -1 is a unit.

Monomial keys (Monagan & Pearce, CASC 2007).  Over n variables the key of
x_0^e_0 ... x_(n-1)^e_(n-1) is one int: a field of ``_FIELD_BITS`` = 16
bits per variable, variable 0 in the highest, holding e_i + 2^14, and
above them the total degree sum(e_i), signed and unbounded.  So every
exponent lies in [-2^14, 2^14); the top bit of each field is a guard
that a valid key leaves clear.  Key order is graded-lex order, ties broken
lexicographically on the exponent tuple; the product of two monomials is
the sum of their keys less the key of 1; and multiplying by v^k adds k
times the step of v, the field's unit plus the degree's.  An operation
whose result leaves a field raises ``OverflowError``, never wraps: the
constructor checks every exponent, and a product or shift checks the
guard bits of every key it makes.  ``MultiPoly.exponent_terms`` reads
exponent tuples back and ``exponent_reader`` one variable's exponent of a
key; code outside this module decodes keys only through these two.

A product with at least ``_PACK_MIN_PRODUCTS`` term products is computed
by Kronecker substitution (Harvey, J. Symb. Comput. 2009) when the dense
box of its exponents has no more slots than there are term products: each
operand is packed into one Python int, one slot of bytes per monomial of
the box, and the two ints are multiplied once.  Other products, small or
sparse, take the dict double loop.  The packing is private; the term map
stays the only representation.  ``row_slots`` biases a bivariate image
packed elsewhere (the two-bridge slice fold) to bytes once;
``from_kronecker`` decodes them through the product's unpack helper, and
``top_part_from_kronecker`` reads only their top-degree slots.
``kronecker_point`` gives the point, for a coefficient bound and degree
bounds, at which an identity of integer polynomials is proved by
comparing two ints.  ``resultant_in`` and the heuristic gcd take images at
y = 2^s, y one variable, through one helper, and read the results back
through the unpack helper.

``MultiPoly.evaluate`` runs Horner's scheme in the arithmetic of the
point's values: exact at integer, rational or ``MultiPoly`` values (the
last a substitution), complex at complex ones; it takes no negative
exponent, so it never divides.  The module also provides
rational functions (integer numerator and denominator, always reduced,
Laurent variables allowed), gcds, Bezout-matrix resultants, Newton
polygons via monotone chain, and a canonical text form.

Exact division, which the gcds lean on, takes leading terms from a heap of
the remainder's keys and divides over Z: a leading coefficient that
does not divide is a remainder.  Every division in the package is by a
primitive or monic polynomial, so by Gauss's lemma it divides over Z
whenever it divides over Q.

``poly_gcd`` is the one gcd.  It first tries the heuristic gcd GCDHEU
(Char, Geddes & Gonnet, J. Symb. Comput. 1989) when the two operands
together involve one variable y.  Each operand is divided by its least
power of y, and the primitive parts A, B of the quotients are taken at
xi = 2^(8w), w = slot_bytes of the bits of 2 * min(|A|_inf, |B|_inf) + 2;
the integer gcd of the two images, read back in balanced base xi by the
unpack helper, gives a candidate.  Above that bound a candidate whose
primitive part divides both A and B is their gcd, and exact_div must
divide it into both before it is returned, times the lesser power of y,
so the result is exact (Char, Geddes & Gonnet 1989, Theorem 1) and a
digit past its slot only rejects a candidate.  A rejected candidate is
retried at width w + 1, a few times; after that, and for every other
input, the primitive PRS computes the gcd.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Mapping, Sequence
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, product, repeat
from math import gcd as _int_gcd, prod
from operator import mul as _mul, or_ as _or

class AlignmentError(ValueError):
    """Raised when an operation mixes polynomials over different variables."""


class LaurentInputError(ValueError):
    """Raised when an operation does not support negative exponents."""


class UndefinedGcdError(ValueError):
    """Raised for gcd(0, 0)."""


class UndefinedResultantError(ValueError):
    """Raised when a resultant input is zero or degenerate."""


class EmptyPolynomialError(ValueError):
    """Raised when a nonzero polynomial is required."""


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class EvaluationError(ValueError):
    """Raised when a numeric evaluation point misses a variable."""


# -- packed monomial keys -------------------------------------------------

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# Every exponent lies in [-EXPONENT_BOUND, EXPONENT_BOUND).
EXPONENT_BOUND = 1 << (_FIELD_BITS - 2)
# Field value of exponent 0.
_BIAS = EXPONENT_BOUND


@cache
def _one_key(n: int) -> int:
    """Key of the monomial 1 over n variables: _BIAS in every field.
    Twice it is the mask of the guard bits."""
    return _BIAS * (((1 << (_FIELD_BITS * n)) - 1) // _FIELD_MASK)


def _field_shifts(n: int) -> range:
    """Bit offset of each variable's field, variable 0 first."""
    return range(_FIELD_BITS * (n - 1), -1, -_FIELD_BITS)


def _step(i: int, n: int) -> int:
    """What multiplying by the i-th of n variables adds to a key."""
    return (1 << (_FIELD_BITS * (n - 1 - i))) + (1 << (_FIELD_BITS * n))


def monomial_key(exps) -> int:
    """The key of an exponent tuple, for key arithmetic on hot paths: the
    key of a product of monomials is the sum of their keys less the key
    of 1, so the keys of one variable's powers step evenly.  Raises
    OverflowError outside the field range."""
    if exps and (min(exps) < -_BIAS or max(exps) >= _BIAS):
        raise OverflowError(
            f"exponent {tuple(exps)} is outside [{-_BIAS}, {_BIAS})")
    k = d = 0
    for e in exps:
        k = (k << _FIELD_BITS) + e + _BIAS
        d += e
    return (d << (_FIELD_BITS * len(exps))) + k


def _exponents(key: int, n: int) -> tuple:
    """Exponent tuple of a key over n variables."""
    return tuple([((key >> s) & _FIELD_MASK) - _BIAS
                  for s in _field_shifts(n)])


def exponent_reader(vars, var):
    """The function from a key over vars to the exponent of var in it, for
    code that walks a term map by keys."""
    s = _field_shifts(len(vars))[vars.index(var)]
    return lambda key: ((key >> s) & _FIELD_MASK) - _BIAS


def _check_fields(keys, one: int) -> None:
    """Raise OverflowError when a key made by adding or shifting valid keys
    (one = _one_key(n)) has left a field: the lowest field that did holds
    a guard bit, whether it overflowed or borrowed."""
    if reduce(_or, keys, 0) & (one << 1):
        raise OverflowError(
            f"an exponent left the field range [{-_BIAS}, {_BIAS})")


def _used_vars(vars, *term_maps) -> list:
    """The variables with a nonzero exponent in some key of the term maps:
    a key's field differs from the bias exactly where its exponent is not
    zero, so one pass of XOR with the key of 1 and OR finds them all."""
    one = _one_key(len(vars))
    used = reduce(_or, map(one.__xor__, chain(*term_maps)), 0)
    return [v for v, s in zip(vars, _field_shifts(len(vars)))
            if (used >> s) & _FIELD_MASK]


# -- Kronecker-packed products of integer term maps -------------------------

# Fewer term products than this go through the dict double loop, whose
# cost per product is lower than the packed path's fixed cost.
_PACK_MIN_PRODUCTS = 64
# Slot widths (bytes) that memoryview can read as native unsigned ints.
_SLOT_FORMATS = {struct.calcsize(f): f for f in "BHIQ"}
_ORDER = sys.byteorder


def _pack(rows, coeffs, lo, hi, strides, width):
    """One int holding every coefficient, each in its own width-byte slot
    at sum((f - lo) * strides) for its row f of fields; negative
    coefficients are packed apart and subtracted."""
    off = sum(map(_mul, lo, strides))
    size = (sum(map(_mul, hi, strides)) - off + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for f, c in zip(rows, coeffs):
        i = (sum(map(_mul, f, strides)) - off) * width
        if c > 0:
            pos[i:i + width] = c.to_bytes(width, _ORDER)
        else:
            neg[i:i + width] = (-c).to_bytes(width, _ORDER)
    return int.from_bytes(pos, _ORDER) - int.from_bytes(neg, _ORDER)


def _packed_product(a, b, n):
    """Product of two term maps over n variables by Kronecker substitution
    (one big-int multiplication), or None when the dense box is too large.

    Each operand's fields are read from its keys and shifted so that each
    variable starts at 0.  A product coefficient is bounded by max|a| *
    max|b| * min(#a, #b), so a slot of that many bits plus a sign bit
    cannot carry, and _unpack reads the digits back.
    """
    shifts = _field_shifts(n)
    cols_a = [[(k >> s) & _FIELD_MASK for k in a] for s in shifts]
    cols_b = [[(k >> s) & _FIELD_MASK for k in b] for s in shifts]
    lo_a, hi_a = list(map(min, cols_a)), list(map(max, cols_a))
    lo_b, hi_b = list(map(min, cols_b)), list(map(max, cols_b))
    # exponent ranges of the product, variable by variable
    ranges = [range(la + lb - 2 * _BIAS, ha + hb - 2 * _BIAS + 1)
              for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
    if any(r.start < -_BIAS or r.stop > _BIAS for r in ranges):
        raise OverflowError(
            f"an exponent left the field range [{-_BIAS}, {_BIAS})")
    box = prod(map(len, ranges))
    # At most one slot of the dense box per term product, which bounds the
    # unpack loop and the memory by those of the dict loop.
    if box > len(a) * len(b):
        return None
    strides = [1] * len(ranges)
    for i in range(len(ranges) - 1, 0, -1):
        strides[i - 1] = strides[i] * len(ranges[i])
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) \
        * min(len(a), len(b))
    width = slot_bytes(bound.bit_length() + 1)
    packed = _pack(zip(*cols_a), a.values(), lo_a, hi_a, strides, width) \
        * _pack(zip(*cols_b), b.values(), lo_b, hi_b, strides, width)
    # the keys of the box in slot order: the key of the box's lowest
    # corner plus each variable's offset times its step.  The variables
    # with one exponent only shift that corner, and the fastest of the
    # others gives each run of consecutive slots a range of keys.
    steps = [_step(i, n) for i in range(n)]
    corner = _one_key(n) + sum(map(_mul, (r.start for r in ranges), steps))
    *heads, last = [range(0, len(r) * s, s)
                    for r, s in zip(ranges, steps) if len(r) > 1] or [range(1)]
    starts = [corner + sum(t) for t in product(*heads)]
    stops = [h + last.stop for h in starts]
    keys = chain.from_iterable(map(range, starts, stops, repeat(last.step)))
    return _unpack(_biased_slots(packed, width, box), width, keys)


def slot_bytes(bits: int) -> int:
    """Bytes of the slot that packs a signed digit of bits bits, sign
    bit included: the narrowest width memoryview reads as a native int
    when one is wide enough, else the exact byte count."""
    return next((w for w in _SLOT_FORMATS if 8 * w >= bits),
                (bits + 7) // 8)


def _biased_slots(value: int, width: int, count: int) -> bytes:
    """The first count balanced digits of a packed int in base 2^(8 *
    width), each plus half = 2^(8 * width - 1), as count slots of bytes.

    Every digit must lie in [-half, half).  Adding half to every slot then
    makes each digit nonnegative without a carry, and a slot that reads
    exactly half is a zero coefficient.
    """
    zero = (1 << (8 * width - 1)).to_bytes(width, _ORDER)
    bias = int.from_bytes(zero * count, _ORDER)
    return (value + bias).to_bytes(count * width, _ORDER)


def _unpack(raw: bytes, width: int, keys) -> dict:
    """Term map of the biased slots raw of _biased_slots: each slot less
    half, paired with the next of keys; zero digits are dropped.  Native
    widths are read through memoryview, wider ones by int.from_bytes.
    """
    half = 1 << (8 * width - 1)
    if width in _SLOT_FORMATS:
        slots = memoryview(raw).cast(_SLOT_FORMATS[width])
    else:
        slots = (int.from_bytes(raw[i:i + width], _ORDER)
                 for i in range(0, len(raw), width))
    return {k: v - half for k, v in zip(keys, slots) if v != half}


def row_slots(value: int, width: int, row: int) -> bytes:
    """The _biased_slots of the rows z^0 .. z^k, k the highest z-exponent,
    of the image value of a polynomial at X = 2^s, z = 2^(s * row), s = 8 *
    width, with every coefficient strictly between -2^(s - 1) and
    2^(s - 1), every exponent nonnegative and every X-exponent below row.
    """
    # the top digit sits in slot bit_length // s: the lower digits add up
    # to less than half its unit, so they cannot move the bit length out
    # of that slot
    rows = (value.bit_length() // (8 * width)) // row + 1
    return _biased_slots(value, width, rows * row)


def from_kronecker(slots: bytes, vars, width: int, row: int) -> "MultiPoly":
    """The polynomial in vars = (x, z), even in x, whose image at X = x^2
    = 2^s, z = 2^(s * row), s = 8 * width, row_slots read into slots: slot
    k of the row of z^j holds the coefficient of x^(2k) z^j."""
    rows = len(slots) // (row * width)
    if 2 * row > _BIAS or rows > _BIAS:
        raise OverflowError(
            f"an exponent left the field range [{-_BIAS}, {_BIAS})")
    sx, sz = _step(0, 2), _step(1, 2)
    one = _one_key(2)
    keys = chain.from_iterable(range(r, r + 2 * row * sx, 2 * sx)
                               for r in range(one, one + rows * sz, sz))
    return MultiPoly._new(tuple(vars), (False, False),
                          _unpack(slots, width, keys))


def top_part_from_kronecker(slots: bytes, width: int, row: int,
                            degree: int) -> list:
    """[c_0, ..., c_D], c_k the coefficient of X^k z^(D - k) and D =
    degree, of the polynomial in (X, z) whose image row_slots read into
    slots; only those D + 1 slots are decoded.  ValueError when a slot of
    a term of total degree above D (a row past z^D, or one bytes compare
    per row) is not zero.
    """
    rows = len(slots) // (row * width)
    if rows > degree + 1:
        raise ValueError(f"term above total degree {degree}")
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, _ORDER)
    top = [0] * (degree + 1)
    # the row of z^j holds X^0 .. X^(row - 1): X^(D - j) z^j has a slot,
    # and the row slots past it, when D - j < row; the rows past the
    # slots are zero
    for j in range(max(degree + 1 - row, 0), rows):
        e = degree - j
        i = (j * row + e) * width
        if slots[i + width:(j + 1) * row * width] != zero * (row - e - 1):
            raise ValueError(f"term above total degree {degree}")
        top[e] = int.from_bytes(slots[i:i + width], _ORDER) - half
    return top


def _image(p: "MultiPoly", y, lo: int, s: int) -> "MultiPoly":
    """The Kronecker image of p times y^-lo at y = 2^s, lo at most every
    y-exponent of p: a polynomial over p.vars free of y, each coefficient
    the int sum of c * 2^(s * (e - lo)) over p's terms c * y^e * m with
    one monomial m in the other variables."""
    field, step = p._field(y)
    out: dict = {}
    for k, c in p.terms.items():
        e = ((k >> field) & _FIELD_MASK) - _BIAS
        key = k - e * step
        out[key] = out.get(key, 0) + (c << (s * (e - lo)))
    return MultiPoly._make(p.vars, p.laurent, out)


def kronecker_point(norm: int, degrees) -> tuple:
    """The point (2^a, 2^(a*r_0), 2^(a*r_0*r_1), ...), one entry per
    variable, with a = norm.bit_length() + 1 and r_i = degrees[i] + 1: at
    it, an identity of integer polynomials is proved by comparing two ints.

    Condition: a nonzero integer polynomial with nonnegative exponents, of
    degree at most degrees[i] in variable i for every i but the last, and
    every |coefficient| at most norm (a bound on its 1-norm is one) does
    not vanish at the point.  The point sends its monomials to distinct
    powers of 2^a, so its value is congruent, modulo 2^a times the lowest
    of them, to the lowest term c * 2^(a*e), and 0 < |c| < 2^a.  The last
    variable's degree enters no entry; a coefficient of 2^a can vanish:
    2^a - u_0 does.
    """
    a = norm.bit_length() + 1
    shifts = accumulate((d + 1 for d in degrees[:-1]), _mul, initial=a)
    return tuple(1 << e for e in shifts)


class MultiPoly:
    """Sparse polynomial with int coefficients over an ordered variable
    tuple, keyed by packed monomials (see the module docstring)."""

    __slots__ = ("vars", "laurent", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping | None = None,
                 laurent: Sequence[bool] | None = None):
        vars = tuple(vars)
        n = len(vars)
        if len(set(vars)) != n:
            raise ValueError(f"duplicate variable names in {vars}")
        laurent = (False,) * n if laurent is None \
            else tuple(map(bool, laurent))
        if len(laurent) != n:
            raise ValueError("laurent flags must match the variable list")
        one, degree_shift = _one_key(n), _FIELD_BITS * n
        tt = {}
        for exp, c in (terms or {}).items():
            if len(exp) != n:
                raise ValueError(f"exponent {exp} does not match {vars}")
            if type(c) is not int:
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an int")
                c = int(c)
            key = degree = 0
            try:
                for e in exp:
                    key = (key << _FIELD_BITS) + e
                    degree += e
            except TypeError:
                degree = None
            # a float, rational or str exponent leaves no int sum
            if type(degree) is not int:
                raise TypeError(f"exponent {exp!r} is not all ints")
            if not c:
                continue
            if n and min(exp) < 0:
                for e, flag in zip(exp, laurent):
                    if e < 0 and not flag:
                        raise LaurentInputError(
                            f"negative exponent {exp} without Laurent flag")
                if min(exp) < -_BIAS:
                    raise OverflowError(
                        f"exponent {exp} is outside [{-_BIAS}, {_BIAS})")
            if n and max(exp) >= _BIAS:
                raise OverflowError(
                    f"exponent {exp} is outside [{-_BIAS}, {_BIAS})")
            # the signed fields plus the key of 1 are the biased fields;
            # distinct exponent tuples have distinct keys
            tt[key + one + (degree << degree_shift)] = c
        self.vars = vars
        self.laurent = laurent
        self.terms = tt

    @classmethod
    def _make(cls, vars, laurent, terms):
        """Fast internal constructor; trusts the keys and int
        coefficients, and drops zeros."""
        return cls._new(vars, laurent,
                        {e: c for e, c in terms.items() if c})

    @classmethod
    def _new(cls, vars, laurent, terms):
        """Internal constructor that also trusts every coefficient to be a
        nonzero int."""
        obj = object.__new__(cls)
        obj.vars = vars
        obj.laurent = laurent
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, vars, laurent=None):
        return cls(vars, {}, laurent)

    @classmethod
    def const(cls, vars, value, laurent=None):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value}, laurent)

    @classmethod
    def variable(cls, name, vars, laurent=None):
        vars = tuple(vars)
        exp = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise ValueError(f"{name!r} not in {vars}")
        return cls(vars, {exp: 1}, laurent)

    def exponent_terms(self) -> dict:
        """The term map keyed by exponent tuples, as the constructor takes
        it: MultiPoly(p.vars, p.exponent_terms(), p.laurent) == p."""
        n = len(self.vars)
        return {_exponents(k, n): c for k, c in self.terms.items()}

    # -- predicates and shape helpers ------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and
                                  _one_key(len(self.vars)) in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError(f"{self.to_text()} is not constant")
        return next(iter(self.terms.values()))

    def _index(self, var) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise AlignmentError(f"{var!r} not in {self.vars}") from None

    def _field(self, var):
        """(bit offset of var's field, step of var) in this layout."""
        i = self._index(var)
        n = len(self.vars)
        return _FIELD_BITS * (n - 1 - i), _step(i, n)

    def degree_in(self, var):
        """Largest exponent of var, or None for the zero polynomial."""
        if not self.terms:
            return None
        s = self._field(var)[0]
        return max((k >> s) & _FIELD_MASK for k in self.terms) - _BIAS

    def min_degree_in(self, var):
        if not self.terms:
            return None
        s = self._field(var)[0]
        return min((k >> s) & _FIELD_MASK for k in self.terms) - _BIAS

    def coeff_in(self, var, k: int) -> "MultiPoly":
        """Coefficient of var**k, on the same variable list (var zeroed)."""
        s, step = self._field(var)
        field = k + _BIAS
        drop = k * step
        return MultiPoly._new(self.vars, self.laurent,
                              {e - drop: c for e, c in self.terms.items()
                               if (e >> s) & _FIELD_MASK == field})

    def leading_coeff_in(self, var) -> "MultiPoly":
        d = self.degree_in(var)
        if d is None:
            return MultiPoly.zero(self.vars, self.laurent)
        return self.coeff_in(var, d)

    def as_univariate(self, var) -> dict:
        """Split into {exponent of var: coefficient polynomial}."""
        s, step = self._field(var)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            f = (e >> s) & _FIELD_MASK
            bucket = buckets.get(f)
            if bucket is None:
                buckets[f] = bucket = {}
            bucket[e - (f - _BIAS) * step] = c
        return {f - _BIAS: MultiPoly._new(self.vars, self.laurent, t)
                for f, t in sorted(buckets.items())}

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars or other.laurent != self.laurent:
                raise AlignmentError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return MultiPoly._make(self.vars, self.laurent,
                                   {_one_key(len(self.vars)): int(other)})
        return None

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other, self.laurent)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._new(self.vars, self.laurent,
                              _merge(self.terms, other.terms, False))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._new(self.vars, self.laurent,
                              {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._new(self.vars, self.laurent,
                              _merge(self.terms, other.terms, True))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly._new(self.vars, self.laurent, {})
        if len(a) > len(b):
            a, b = b, a
        one = _one_key(len(self.vars))
        if len(a) == 1:
            (ka, ca), = a.items()
            shift = ka - one
            if shift:
                out = {k + shift: ca * c for k, c in b.items()}
                _check_fields(out, one)
            else:
                out = {k: ca * c for k, c in b.items()}
            return MultiPoly._new(self.vars, self.laurent, out)
        if len(a) * len(b) >= _PACK_MIN_PRODUCTS:
            out = _packed_product(a, b, len(self.vars))
            if out is not None:
                return MultiPoly._new(self.vars, self.laurent, out)
        out = {}
        get = out.get
        b = list(b.items())
        for ka, ca in a.items():
            shift = ka - one
            for kb, cb in b:
                e = kb + shift
                v = get(e)
                out[e] = ca * cb if v is None else v + ca * cb
        _check_fields(out, one)
        return MultiPoly._make(self.vars, self.laurent, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._monomial_inverse() ** (-n)
        result = MultiPoly.const(self.vars, 1, self.laurent)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _monomial_inverse(self) -> "MultiPoly":
        """Inverse of a unit: a monomial with coefficient +1 or -1, on
        Laurent variables only."""
        if len(self.terms) != 1 or abs(next(iter(self.terms.values()))) != 1:
            raise InexactDivisionError(
                f"{self.to_text()} is not an invertible monomial")
        (key, c), = self.terms.items()
        for e, flag in zip(_exponents(key, len(self.vars)), self.laurent):
            if e > 0 and not flag:
                raise LaurentInputError(
                    "monomial inverse needs a Laurent variable")
        one = _one_key(len(self.vars))
        inverse = 2 * one - key
        _check_fields((inverse,), one)
        return MultiPoly._new(self.vars, self.laurent, {inverse: c})

    def mul_var_power(self, var, k: int) -> "MultiPoly":
        """Multiply by var**k (k may be negative on a Laurent variable)."""
        if k == 0 or not self.terms:
            return self
        s, step = self._field(var)
        if k < 0 and not self.laurent[self._index(var)]:
            if self.min_degree_in(var) + k < 0:
                raise LaurentInputError(
                    f"shift by {var}^{k} leaves the polynomial ring")
        # a shift by 2 * _BIAS or more leaves the field from any exponent;
        # a smaller one lands in the guard bit or borrows from it
        if not -2 * _BIAS < k < 2 * _BIAS:
            raise OverflowError(
                f"shift by {var}^{k} leaves the field range "
                f"[{-_BIAS}, {_BIAS})")
        shift = k * step
        out = {e + shift: c for e, c in self.terms.items()}
        _check_fields(out, _one_key(len(self.vars)))
        return MultiPoly._new(self.vars, self.laurent, out)

    # -- calculus and substitution ---------------------------------------

    def derivative(self, var) -> "MultiPoly":
        """Formal derivative; rejects negative exponents in var."""
        s, step = self._field(var)
        out = {}
        for key, c in self.terms.items():
            e = ((key >> s) & _FIELD_MASK) - _BIAS
            if e < 0:
                raise LaurentInputError(
                    f"derivative in {var} undefined for exponent {e}")
            if e:
                out[key - step] = c * e
        return MultiPoly._new(self.vars, self.laurent, out)

    def substitute_square(self, var, new_name) -> "MultiPoly":
        """Rewrite even powers var**(2k) as new_name**k."""
        s, step = self._field(var)
        if new_name in self.vars:
            raise ValueError(f"{new_name!r} already present")
        out = {}
        for key, c in self.terms.items():
            e = ((key >> s) & _FIELD_MASK) - _BIAS
            if e % 2 != 0:
                raise ValueError(
                    f"odd exponent of {var} in {self.to_text()}")
            out[key - (e // 2) * step] = c
        i = self._index(var)
        vars = self.vars[:i] + (new_name,) + self.vars[i + 1:]
        return MultiPoly._new(vars, self.laurent, out)

    def extend_to(self, vars) -> "MultiPoly":
        """Re-express over a superset (or reordering) of the variables; each
        keeps its Laurent flag, and a new one has none."""
        vars = tuple(vars)
        for v in self.vars:
            if v not in vars:
                raise AlignmentError(f"{v!r} missing from target {vars}")
        laurent = tuple(self.laurent[self.vars.index(v)] if v in self.vars
                        else False for v in vars)
        return MultiPoly._new(vars, laurent, self._relayout(vars))

    def restrict(self, vars) -> "MultiPoly":
        """Drop variables that appear with exponent zero everywhere."""
        vars = tuple(vars)
        for v in _used_vars(self.vars, self.terms):
            if v not in vars:
                raise ValueError(f"{v!r} occurs with nonzero exponent")
        laurent = tuple(self.laurent[self.vars.index(v)] for v in vars)
        return MultiPoly._new(vars, laurent, self._relayout(vars))

    def _relayout(self, vars) -> dict:
        """The term map over vars: each variable that vars lists keeps its
        exponent, moved to its field there; the others are dropped, and a
        variable new in vars has exponent 0."""
        n = len(vars)
        moves = [(s, _step(vars.index(v), n))
                 for s, v in zip(_field_shifts(len(self.vars)), self.vars)
                 if v in vars]
        one = _one_key(n)
        out = {}
        for key, c in self.terms.items():
            new = one
            for s, step in moves:
                new += (((key >> s) & _FIELD_MASK) - _BIAS) * step
            out[new] = c
        return out

    # -- evaluation -------------------------------------------------------

    def evaluate(self, point: Mapping[str, object]):
        """Horner-style evaluation in the arithmetic of the point's values:
        exact at integer, rational or MultiPoly values, complex at complex
        ones.  A negative exponent raises LaurentInputError."""
        for v in self.vars:
            if v not in point:
                raise EvaluationError(f"no value for {v!r}")

        if not self.terms:
            return 0
        values = [point[v] for v in self.vars]
        shifts = _field_shifts(len(self.vars))
        last = len(self.vars) - 1
        if last < 0:
            return self.constant_value()

        def rec(items, depth):
            # Horner in the depth-th variable over the items' fields; at the
            # last variable each field holds a single term
            s = shifts[depth]
            groups: dict[int, list] = {}
            for key, c in items:
                groups.setdefault((key >> s) & _FIELD_MASK, []).append(
                    (key, c))
            z = values[depth]
            acc = 0
            prev = None
            for f in sorted(groups, reverse=True):
                if prev is not None:
                    acc *= z ** (prev - f)
                group = groups[f]
                acc += group[0][1] if depth == last else rec(group, depth + 1)
                prev = f
            low = prev - _BIAS
            if low < 0:
                raise LaurentInputError(
                    f"cannot evaluate {self.vars[depth]}^{low}")
            return acc * z ** low

        return rec(list(self.terms.items()), 0)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, descending graded-lexicographic order."""
        if not self.terms:
            return "0"
        terms = self.terms
        texts = _MONOMIAL_TEXT.setdefault(self.vars, {})
        parts = []
        for key in sorted(terms, reverse=True):
            c = terms[key]
            mono = texts.get(key)
            if mono is None:
                mono = texts[key] = _monomial_text(self.vars, key)
            if c < 0:
                parts.append(" - ")
                c = -c
            else:
                parts.append(" + ")
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        # the leading term's sign has no spaces, and "+" is left out
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self):
        return f"<MultiPoly {self.to_text()}>"


# The text of each monomial met by to_text, by variable tuple and key.  It
# is kept for the life of the process and never evicted, because the
# monomials repeat far more than they vary: verify --suite all leaves 597
# entries, and verify --suite twobridge --p 71 leaves 1,366 (its 1,052 φ
# and γ hold 244,044 terms but 1,330 monomials).  The largest query the CLI
# admits, twobridge --p 151 --m 75, leaves 4,446.
_MONOMIAL_TEXT: dict = {}


def _monomial_text(vars, key: int) -> str:
    """The monomial of a key as to_text prints it: "x^2*z", or "" for 1."""
    factors = []
    for v, e in zip(vars, _exponents(key, len(vars))):
        if e:
            factors.append(v if e == 1 else f"{v}^{e}")
    return "*".join(factors)


def _merge(a, b, negate):
    """The canonical term map of a + b (a - b when negate)."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e)
        if v is None:
            out[e] = -c if negate else c
            continue
        v = v - c if negate else v + c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


# -- exact division and gcd ----------------------------------------------


def _laurent_mins(p: MultiPoly) -> list:
    """Least exponent of each Laurent variable over p's terms (p nonzero),
    and 0 for each other variable, whose exponents are never negative."""
    return [min((k >> s) & _FIELD_MASK for k in p.terms) - _BIAS
            if flag else 0
            for s, flag in zip(_field_shifts(len(p.vars)), p.laurent)]


def _divide_monomial(p: MultiPoly, exps) -> MultiPoly:
    """p divided by the monomial with exponent tuple exps."""
    n = len(p.vars)
    shift = sum(e * _step(i, n) for i, e in enumerate(exps))
    if not shift:
        return p
    out = {k - shift: c for k, c in p.terms.items()}
    _check_fields(out, _one_key(n))
    return MultiPoly._new(p.vars, p.laurent, out)


def _nonnegative(p: MultiPoly) -> MultiPoly:
    """p shifted by a Laurent monomial so that no exponent is negative and
    each variable with a negative exponent gets least exponent 0."""
    if not p.terms:
        return p
    return _divide_monomial(p, [min(e, 0) for e in _laurent_mins(p)])


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact quotient p/q over Z; raises InexactDivisionError on any
    remainder.

    Division by leading terms in graded-lex order, with the remainder's
    keys kept in a max-heap (Monagan & Pearce, CASC 2007), so each step
    finds its leading term without scanning the remainder.  An entry
    whose monomial has since cancelled out of the remainder is skipped.
    A remainder whose leading coefficient is not a multiple of q's is not
    divisible over Z: exact_div(x + 1, 2x + 2) raises.  A Laurent variable
    is a unit, so q is first divided by its least power of each Laurent
    variable, positive or not: exact_div(1, t) is t^-1.  A remainder term
    outside the field range raises OverflowError.
    """
    if not isinstance(q, MultiPoly):
        q = MultiPoly.const(p.vars, q, p.laurent)
    if q.vars != p.vars:
        raise AlignmentError(f"variable mismatch: {p.vars} vs {q.vars}")
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    sq = _laurent_mins(q)
    sp = [min(e, 0) for e in _laurent_mins(p)]
    shift = [a - b for a, b in zip(sp, sq)]
    if any(s < 0 and not flag for s, flag in zip(shift, p.laurent)):
        raise InexactDivisionError("quotient leaves the polynomial ring")
    p0, q0 = _divide_monomial(p, sp), _divide_monomial(q, sq)

    one = _one_key(len(p.vars))
    guards = one << 1
    lead_q = max(q0.terms)
    cq = q0.terms[lead_q]
    # tail keys less the key of 1, so that a tail term times a quotient
    # monomial is one addition
    tail_q = [(e - one, c) for e, c in q0.terms.items() if e != lead_q]
    quot: dict = {}
    rem = dict(p0.terms)
    heap = [-e for e in rem]
    heapify(heap)
    while rem:
        lead_r = -heappop(heap)
        cr = rem.pop(lead_r, None)
        if cr is None:
            continue
        # every field of lead_r and lead_q lies in [_BIAS, 2 * _BIAS), so
        # each field of diff is positive and is at least _BIAS exactly
        # when that exponent of the quotient monomial is nonnegative
        diff = lead_r - lead_q + one
        c, r = divmod(cr, cq)
        if r or diff & one != one:
            raise InexactDivisionError(
                f"{q.to_text()} does not divide {p.to_text()}")
        quot[diff] = c
        for eq, cc in tail_q:
            e = diff + eq
            v = rem.get(e)
            if v is None:
                if e & guards:
                    raise OverflowError(
                        f"dividing {p.to_text()} by {q.to_text()} leaves "
                        f"the field range [{-_BIAS}, {_BIAS})")
                rem[e] = -c * cc
                heappush(heap, -e)
                continue
            v -= c * cc
            if v:
                rem[e] = v
            else:
                del rem[e]
    quot = MultiPoly._new(p.vars, p.laurent, quot)
    return _divide_monomial(quot, [-s for s in shift])


def _scalar_content(p: MultiPoly) -> int:
    """The gcd of the coefficients; 0 for the zero polynomial."""
    return _int_gcd(*p.terms.values())


def _divide_scalar(p: MultiPoly, k: int) -> MultiPoly:
    """p with every coefficient divided by k, which divides them all."""
    if k == 1:
        return p
    return MultiPoly._new(p.vars, p.laurent,
                          {e: c // k for e, c in p.terms.items()})


def rational_normalize(p: MultiPoly) -> MultiPoly:
    """The primitive part: coprime coefficients, positive leading term."""
    if p.is_zero():
        return p
    content = _scalar_content(p)
    if p.terms[max(p.terms)] < 0:
        content = -content
    return _divide_scalar(p, content)


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The gcd of p and q, normalized via rational_normalize.

    Laurent exponents are shifted to nonnegative ones first.  Operands
    that together involve one variable go to the heuristic gcd (GCDHEU,
    as the module docstring describes it).  Every other pair, and one the
    heuristic gives up on, runs the primitive PRS in the first variable of
    positive degree; a normalized gcd is unique, so that choice cannot
    change the result.
    """
    if p.vars != q.vars:
        raise AlignmentError(f"variable mismatch: {p.vars} vs {q.vars}")
    if p.is_zero() and q.is_zero():
        raise UndefinedGcdError("gcd(0, 0) is undefined")
    p, q = _nonnegative(p), _nonnegative(q)
    if p.is_zero() or q.is_zero():
        return rational_normalize(q if p.is_zero() else p)
    g = _heuristic_gcd(p, q)
    if g is not None:
        return g
    for v in p.vars:
        if (p.degree_in(v) or 0) > 0 or (q.degree_in(v) or 0) > 0:
            return _prs_gcd(p, q, v)
    return MultiPoly.const(p.vars, 1, p.laurent)


def _content_and_primitive(p: MultiPoly, var):
    coeffs = list(p.as_univariate(var).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)
        if content.is_constant():
            break
    content = rational_normalize(content)
    # the gcd is normalized to be primitive, so the integer content does
    # not change it; taking it out keeps the remainder sequence small
    return content, rational_normalize(exact_div(p, content))


def _prem(a: MultiPoly, b: MultiPoly, var) -> MultiPoly:
    """Pseudo-remainder style reduction of a by b in var (up to units)."""
    db = b.degree_in(var)
    lb = b.leading_coeff_in(var)
    r = a
    while not r.is_zero():
        dr = r.degree_in(var)
        if dr < db:
            break
        lr = r.leading_coeff_in(var)
        r = lb * r - (lr * b).mul_var_power(var, dr - db)
    return r


def _prs_gcd(p: MultiPoly, q: MultiPoly, var) -> MultiPoly:
    """The primitive PRS gcd of nonzero p and q with main variable var."""
    cp, pp = _content_and_primitive(p, var)
    cq, qq = _content_and_primitive(q, var)
    cont = poly_gcd(cp, cq)
    a, b = pp, qq
    if (a.degree_in(var) or 0) < (b.degree_in(var) or 0):
        a, b = b, a
    while not b.is_zero():
        if b.degree_in(var) == 0:
            a = MultiPoly.const(p.vars, 1, p.laurent)
            break
        r = _prem(a, b, var)
        if r.is_zero():
            a = b
            break
        a, b = b, _content_and_primitive(r, var)[1]
    return rational_normalize(cont * a)


# Slot widths the heuristic gcd tries before poly_gcd falls back to the
# primitive PRS.
_GCDHEU_TRIES = 6


def _heuristic_gcd(p: MultiPoly, q: MultiPoly):
    """GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989), as
    poly_gcd describes it: the normalized gcd of p and q, or None when the
    heuristic does not apply or none of _GCDHEU_TRIES slot widths gives a
    candidate that exact_div divides into both primitive parts.

    p and q are nonzero with nonnegative exponents, as poly_gcd leaves
    them; the heuristic applies when together they involve exactly one
    variable, read off their exponents.
    """
    live = _used_vars(p.vars, p.terms, q.terms)
    if len(live) != 1:
        return None
    y = live[0]
    one, step = _one_key(len(p.vars)), p._field(y)[1]
    # at a power-of-2 point a factor y of one operand meets the powers of
    # 2 in the other's value at every width, so the powers of y go first
    kp, kq = p.min_degree_in(y), q.min_degree_in(y)
    a = rational_normalize(p.mul_var_power(y, -kp))
    b = rational_normalize(q.mul_var_power(y, -kq))
    bound = 2 * min(max(map(abs, f.terms.values())) for f in (a, b)) + 2
    first = slot_bytes(bound.bit_length())
    for width in range(first, first + _GCDHEU_TRIES):
        s = 8 * width
        gamma = _int_gcd(_image(a, y, 0, s).constant_value(),
                         _image(b, y, 0, s).constant_value())
        # gamma's digits are not bounded, so its top balanced digit may
        # carry into the slot above its top bit
        count = gamma.bit_length() // s + 2
        g = rational_normalize(MultiPoly._new(p.vars, p.laurent, _unpack(
            _biased_slots(gamma, width, count), width,
            range(one, one + count * step, step))))
        try:
            exact_div(a, g)
            exact_div(b, g)
        except InexactDivisionError:
            continue
        return g.mul_var_power(y, min(kp, kq))
    return None


def is_squarefree_in(p: MultiPoly, var) -> bool:
    """True when gcd(p, dp/dvar) is constant in var."""
    if p.is_zero():
        raise EmptyPolynomialError("square-freeness of 0 is undefined")
    d = p.derivative(var)
    if d.is_zero():
        return p.degree_in(var) == 0
    g = poly_gcd(p, d)
    return g.degree_in(var) == 0


def squarefree_part_in(p: MultiPoly, var) -> MultiPoly:
    """p with repeated factors in var collapsed (p / gcd(p, p'))."""
    if p.is_zero():
        raise EmptyPolynomialError("square-free part of 0 is undefined")
    d = p.derivative(var)
    if d.is_zero():
        return rational_normalize(p)
    g = poly_gcd(p, d)
    return rational_normalize(exact_div(p, g))


# -- resultants -----------------------------------------------------------


def resultant_in(p: MultiPoly, q: MultiPoly, var) -> MultiPoly:
    """Resultant in var from the Bezout matrix, with at most one division,
    its determinant taken in the Kronecker image of one more variable.

    With m = deg p, n = deg q, N = max(m, n), and u, v the coefficients of
    p, q in ascending powers of var padded with zeros to length N + 1, the
    symmetric N x N Bezout matrix is B[a][b] = sum over k = 0 ..
    min(a, N-1-b) of u[b+k+1] v[a-k] - u[a-k] v[b+k+1].  Its determinant,
    expanded in minors without division, is (-1)^(N(N-1)/2) Res(p, q) when
    m >= n, times a further (-1)^((m+1)(n-m)) when n > m.  When m != n the
    padding also multiplies it by lc^(N - min(m, n)), lc the leading
    coefficient of the operand of higher degree, which one exact division
    takes out unless it is 1 (a monic operand).

    The determinant is taken in the Kronecker image of one variable y,
    the last of p.vars other than var (var itself, which the split into
    u, v has cleared, when no other is left).  p and q are first shifted
    by y^-a and y^-b, a and b their least y-exponents, so that no
    y-exponent is negative.  That multiplies every entry of B by
    y^-(a + b), so the determinant by y^-(N(a + b)): it is homogeneous of
    degree N in the entries, as Res(y^-a p, y^-b q) = y^-(an + bm) Res(p,
    q) is in the coefficients.  Each shifted u[k], v[k] is mapped to its
    image at y = 2^s, a polynomial in the other variables with int
    coefficients; the Bezout loop and _minor_det run on those, and each
    term of the image determinant is read back once, as the balanced
    base-2^s digits of its coefficient, one per power of y, shifted back
    by y^(N(a + b)).  y -> 2^s is a ring homomorphism, so the image is
    exact, and the digits are det B's coefficients because s = 8 *
    slot_bytes(bound.bit_length() + 1) holds _bezout_bound, a proven
    bound on each of them, and a sign bit.  Only the last variable is
    packed: the others keep the sparsity of the entries (each B[a][b] of
    the pretzel P and Q_n has x-parity a + b), which the products skip
    and a slot for every monomial of the dense box would multiply.
    """
    if p.vars != q.vars:
        raise AlignmentError(f"variable mismatch: {p.vars} vs {q.vars}")
    if p.is_zero() or q.is_zero():
        raise UndefinedResultantError("resultant of the zero polynomial")
    i = p._index(var)
    if p.laurent[i] and (p.min_degree_in(var) < 0 or q.min_degree_in(var) < 0):
        raise LaurentInputError("resultant requires ordinary exponents in var")
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m == 0 and n == 0:
        raise UndefinedResultantError("both inputs constant in " + str(var))
    size = max(m, n)
    pu, qu = p.as_univariate(var), q.as_univariate(var)
    rest = [w for w in p.vars if w != var]
    y = rest[-1] if rest else var
    field, step = p._field(y)
    lo_p, lo_q = (min((k >> field) & _FIELD_MASK
                      for c in split.values() for k in c.terms) - _BIAS
                  for split in (pu, qu))

    def norms(split):
        return [sum(map(abs, split[k].terms.values())) if k in split else 0
                for k in range(size + 1)]

    width = slot_bytes(_bezout_bound(norms(pu), norms(qu)).bit_length() + 1)
    s = 8 * width
    zero = MultiPoly.zero(p.vars, p.laurent)
    u, v = ([_image(f[k], y, lo, s) if k in f else zero
             for k in range(size + 1)] for f, lo in ((pu, lo_p), (qu, lo_q)))
    bez = [[zero] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            bez[a][b] = bez[b][a] = sum(
                (u[b + k + 1] * v[a - k] - u[a - k] * v[b + k + 1]
                 for k in range(min(a, size - 1 - b) + 1)), zero)
    # det B has a y-exponent of at least low, one per digit upwards; the
    # top digit of a coefficient c sits in digit c.bit_length() // s (see
    # row_slots)
    low = size * (lo_p + lo_q)
    terms: dict = {}
    for k, c in _minor_det(bez, zero + 1).terms.items():
        count = c.bit_length() // s + 1
        if low < -_BIAS or low + count > _BIAS:
            raise OverflowError(
                f"an exponent left the field range [{-_BIAS}, {_BIAS})")
        first = k + low * step
        terms.update(_unpack(_biased_slots(c, width, count), width,
                             range(first, first + count * step, step)))
    det = MultiPoly._new(p.vars, p.laurent, terms)
    flips = size * (size - 1) // 2 + (m + 1) * (n - m) * (n > m)
    if flips % 2:
        det = -det
    if m != n:
        pad = (pu[m] if m > n else qu[n]) ** (size - min(m, n))
        if pad != 1:
            det = exact_div(det, pad)
    return det


def _bezout_bound(u_norms, v_norms) -> int:
    """A bound on every |coefficient| of det B, B the Bezout matrix of
    resultant_in, from the 1-norms of the coefficients u[k], v[k]: the
    1-norm of B[a][b] is at most the sum over its k of |u[b+k+1]|_1
    |v[a-k]|_1 + |u[a-k]|_1 |v[b+k+1]|_1, and the 1-norm of a determinant
    at most the product over its rows of their summed entry norms."""
    size = len(u_norms) - 1
    bound = 1
    for a in range(size):
        bound *= sum(u_norms[b + k + 1] * v_norms[a - k]
                     + u_norms[a - k] * v_norms[b + k + 1]
                     for b in range(size)
                     for k in range(min(a, size - 1 - b) + 1))
    return bound


def _minor_det(mat, one) -> MultiPoly:
    """Determinant by expansion in minors from the last row up: each minor
    on the bottom rows and a column set (a bit mask) is built once, from
    the minors one row smaller, by products and sums only."""
    minors = {0: one}
    for row in reversed(mat):
        grown: dict = {}
        for cols, minor in minors.items():
            for c, entry in enumerate(row):
                bit = 1 << c
                if cols & bit or entry.is_zero():
                    continue
                term = entry * minor
                if (cols & (bit - 1)).bit_count() % 2:
                    term = -term
                key = cols | bit
                grown[key] = grown[key] + term if key in grown else term
        minors = {k: d for k, d in grown.items() if not d.is_zero()}
    return minors.get((1 << len(mat)) - 1, one * 0)


# -- Newton polygon -------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(p: MultiPoly) -> tuple:
    """Vertices of the convex hull of a bivariate support,
    counterclockwise, by monotone chain; collinear points are dropped.

    A vertex has the least or the greatest second exponent among the
    points with its first exponent, so the chain runs over those column
    ends alone: at most two points per first exponent, same hull."""
    if len(p.vars) != 2:
        raise ValueError("Newton polygon requires exactly two variables")
    if any(p.laurent):
        raise LaurentInputError("Newton polygon requires ordinary exponents")
    if p.is_zero():
        raise EmptyPolynomialError("Newton polygon of 0 is undefined")
    read_i, read_j = (exponent_reader(p.vars, v) for v in p.vars)
    lo, hi = {}, {}
    for key in p.terms:
        i, j = read_i(key), read_j(key)
        if j < lo.get(i, j + 1):
            lo[i] = j
        if j > hi.get(i, j - 1):
            hi[i] = j
    pts = sorted({*lo.items(), *hi.items()})
    if len(pts) == 1:
        return (pts[0],)
    lower = []
    for pt in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper = []
    for pt in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    # two or more distinct points give each chain two distinct ends, so
    # the hull has at least two vertices and does not repeat its first
    return tuple(lower[:-1] + upper[:-1])


# -- rational functions ---------------------------------------------------


class RationalFunction:
    """Reduced fraction of integer polynomials, the one fraction type.

    The normal form divides out the gcd, shifts each Laurent variable so
    that its least exponent in the denominator is 0, and scales the pair
    so that numerator and denominator together have content 1 and the
    denominator's graded-lex leading coefficient is positive, so the
    representation is canonical and structural equality is valid.
    Arithmetic returns the type of its left operand, so subclasses that
    add constraints in __init__ keep them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if not isinstance(num, MultiPoly) or not isinstance(den, MultiPoly):
            raise TypeError("numerator and denominator must be MultiPoly")
        if num.vars != den.vars or num.laurent != den.laurent:
            raise AlignmentError(
                f"variable mismatch: {num.vars} vs {den.vars}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.vars, 1, num.laurent)
        elif not den.is_constant():
            # a constant denominator has a constant gcd with num and no
            # Laurent shift, so only the scaling below applies to it
            g = poly_gcd(num, den)
            if not (g.is_constant() and g.constant_value() == 1):
                num = exact_div(num, g)
                den = exact_div(den, g)
            for var, flag in zip(den.vars, den.laurent):
                shift = den.min_degree_in(var) if flag else 0
                if shift:
                    num = num.mul_var_power(var, -shift)
                    den = den.mul_var_power(var, -shift)
        content = _int_gcd(_scalar_content(num), _scalar_content(den))
        if den.terms[max(den.terms)] < 0:
            content = -content
        self.num = _divide_scalar(num, content)
        self.den = _divide_scalar(den, content)

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RationalFunction":
        return cls(p, MultiPoly.const(p.vars, 1, p.laurent))

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.num.vars != self.num.vars:
                raise AlignmentError("variable mismatch")
            return other
        if isinstance(other, int):
            other = MultiPoly.const(self.num.vars, other, self.num.laurent)
        if isinstance(other, MultiPoly):
            return type(self).from_poly(other)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return type(self)(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return type(self)(self.den, self.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        result = self._coerce(1)
        for _ in range(n):
            result = result * self
        return result

    def to_text(self) -> str:
        if self.den == 1:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()}>"
