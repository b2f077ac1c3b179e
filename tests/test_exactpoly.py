"""Ring, gcd, resultant, and serialization behavior of the exact core."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from knotpoly import cli, exactpoly
from knotpoly.exactpoly import (AlignmentError, EvaluationError,
                                InexactDivisionError, LaurentInputError,
                                MultiPoly, RationalFunction, exact_div,
                                is_squarefree_in, newton_polygon, poly_gcd,
                                UndefinedResultantError, rational_normalize,
                                resultant_in, squarefree_part_in)
from knotpoly.pretzel import pq_resultant
from knotpoly.qtorus import (LAURENT_T, VARS_T, act, alpha_unknot,
                             jones_unknot)
from knotpoly.sl2trace import trace_poly, word_from_string
from knotpoly.twobridge import TwoBridgeKnot, character_polynomial

XY = ("x", "y")


def poly(terms, vars=XY, laurent=None):
    return MultiPoly(vars, terms, laurent)


def var(name, vars=XY):
    return MultiPoly.variable(name, vars)


@st.composite
def small_polys(draw, vars=XY, max_exp=3, max_terms=4,
                coeffs=st.integers(-9, 9)):
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, max_exp) for _ in vars)),
        coeffs, max_size=max_terms))
    return MultiPoly(vars, terms)


TM = ("t", "M")
TM_LAURENT = (True, False)


@st.composite
def laurent_polys(draw, coeffs=st.integers(-9, 9), max_terms=4):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(0, 2)),
        coeffs, max_size=max_terms))
    return MultiPoly(TM, terms, TM_LAURENT)


# -- construction and canonical form --------------------------------------

def test_zero_coefficients_are_dropped():
    assert poly({(1, 0): 0, (0, 1): 2}).exponent_terms() == {(0, 1): 2}
    assert poly({}).is_zero()


def test_fraction_coefficients_and_scalars_are_type_errors():
    x = var("x")
    for c in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError):
            poly({(1, 0): c})
        with pytest.raises(TypeError):
            MultiPoly.const(XY, c)
    half = Fraction(1, 2)
    for op in (lambda: x * half, lambda: half * x, lambda: x + half,
               lambda: half - x, lambda: exact_div(x, half),
               lambda: RationalFunction.from_poly(x) * half):
        with pytest.raises(TypeError):
            op()
    assert poly({(1, 0): True}).exponent_terms() == {(1, 0): 1}


def test_negative_exponent_requires_laurent_flag():
    with pytest.raises(LaurentInputError):
        poly({(-1, 0): 1})
    p = poly({(-1, 0): 1}, laurent=(True, False))
    assert p.min_degree_in("x") == -1


def test_variable_and_const_helpers():
    x = var("x")
    assert x.exponent_terms() == {(1, 0): 1}
    assert MultiPoly.const(XY, 5).exponent_terms() == {(0, 0): 5}
    assert MultiPoly.const(XY, 0).is_zero()


# -- packed monomial keys ----------------------------------------------------

LIMIT = exactpoly.EXPONENT_BOUND


def test_non_int_exponents_are_type_errors():
    for vars, terms in ((("x",), {(1.5,): 1}), (XY, {(2.9, "3"): 4}),
                        (XY, {(2.0, 1): 1}), (XY, {(Fraction(1), 0): 1}),
                        (("x",), {(1.5,): 0})):
        with pytest.raises(TypeError):
            MultiPoly(vars, terms)
    assert MultiPoly(("x",), {(True,): 1}) == MultiPoly.variable("x", ("x",))


def test_exponents_past_the_field_raise_overflow_error():
    x = MultiPoly.variable("x", ("x",))
    t = MultiPoly.variable("t", ("t",), (True,))
    top = MultiPoly(("x",), {(LIMIT - 1,): 1})
    bottom = MultiPoly(("t",), {(-LIMIT,): 1}, (True,))
    assert top.degree_in("x") == LIMIT - 1
    assert bottom * MultiPoly(("t",), {(LIMIT - 1,): 1}, (True,)) == t ** -1
    with pytest.raises(OverflowError):
        MultiPoly(("x",), {(LIMIT,): 1})
    with pytest.raises(OverflowError):
        MultiPoly(("t",), {(-LIMIT - 1,): 1}, (True,))
    # products: by one term, through the dict loop, and Kronecker-packed
    dense = sum((x ** i for i in range(12)), x * 0)
    for overflow in (lambda: top * x, lambda: (top + 1) * (x + 1),
                     lambda: (top + dense) * dense,
                     lambda: bottom * t ** -1,
                     lambda: (bottom + t) * (t ** -1 + 1),
                     lambda: MultiPoly(("x",), {(200,): 1}) ** 100,
                     lambda: t ** -(LIMIT + 1),
                     lambda: top.mul_var_power("x", 1),
                     lambda: bottom.mul_var_power("t", -1),
                     lambda: x.mul_var_power("x", 10 ** 9),
                     lambda: t.mul_var_power("t", -10 ** 9),
                     lambda: exact_div(bottom, t ** (LIMIT - 1))):
        with pytest.raises(OverflowError):
            overflow()


def test_overflow_of_a_middle_field_is_not_carried_away():
    vars = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(v, vars, (True,) * 3) for v in vars)
    high = MultiPoly(vars, {(0, LIMIT - 1, 0): 1}, (True,) * 3)
    low = MultiPoly(vars, {(0, -LIMIT, 0): 1}, (True,) * 3)
    for overflow in (lambda: high * y, lambda: high * (x * y * z),
                     lambda: low * y ** -1,
                     lambda: low * x * z ** -1 * y ** -1):
        with pytest.raises(OverflowError):
            overflow()
    assert high * low == y ** -1
    assert (high * x * z ** -1).exponent_terms() == {
        (1, LIMIT - 1, -1): 1}


def test_keys_round_trip_at_the_cli_caps():
    """Exponent tuples survive packing at the largest exponents the
    command line lets a query reach."""
    one = MultiPoly.const(VARS_T, 1, LAURENT_T)
    reach = cli.QTORUS_N_MAX + 1
    word = " ".join(["a b^-1"] * (cli.TRACE_MAX_LETTERS // 2))
    polys = [jones_unknot(reach), jones_unknot(-reach),
             act(alpha_unknot(), lambda n: one, cli.QTORUS_N_MAX),
             act(alpha_unknot(), lambda n: one, -cli.QTORUS_N_MAX),
             pq_resultant(cli.PRETZEL_N_MAX), pq_resultant(-cli.PRETZEL_N_MAX),
             character_polynomial(TwoBridgeKnot(cli.TWOBRIDGE_P_MAX, 75)),
             trace_poly(word_from_string(word)[0]),
             trace_poly(word_from_string(f"a^{cli.TRACE_MAX_LETTERS}")[0])]
    assert pq_resultant(-cli.PRETZEL_N_MAX).degree_in("y") == 301
    assert jones_unknot(reach).degree_in("t") == 2 * reach - 2
    for p in polys:
        terms = p.exponent_terms()
        assert MultiPoly(p.vars, terms, p.laurent) == p
        for i, v in enumerate(p.vars):
            assert max(e[i] for e in terms) == p.degree_in(v)
            assert min(e[i] for e in terms) == p.min_degree_in(v)


class TupleRef:
    """Test-local reference: a term map keyed by exponent tuples, with a
    dict double loop for products and a (sum(e), e) sort for text."""

    def __init__(self, vars, terms, laurent):
        self.vars, self.laurent = vars, laurent
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def of(cls, p):
        return cls(p.vars, p.exponent_terms(), p.laurent)

    def _new(self, terms):
        return TupleRef(self.vars, terms, self.laurent)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._new(out)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return self._new(out)

    def __pow__(self, n):
        result = self._new({(0,) * len(self.vars): 1})
        for _ in range(n):
            result = result * self
        return result

    def coeff_in(self, i, k):
        return self._new({e[:i] + (0,) + e[i + 1:]: c
                          for e, c in self.terms.items() if e[i] == k})

    def as_univariate(self, i):
        return {k: self.coeff_in(i, k) for k in sorted({e[i] for e in self.terms})}

    def mul_var_power(self, i, k):
        return self._new({e[:i] + (e[i] + k,) + e[i + 1:]: c
                          for e, c in self.terms.items()})

    def evaluate(self, values):
        return sum(c * prod(Fraction(v) ** e for v, e in zip(values, exp))
                   for exp, c in self.terms.items())

    def lead(self):
        """The graded-lex leading exponent."""
        return max(self.terms, key=lambda e: (sum(e), e))

    def to_text(self):
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e),
                          reverse=True):
            c = self.terms[exp]
            mono = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip(self.vars, exp) if e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if parts:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
            else:
                parts.append(f"-{body}" if c < 0 else body)
        return " ".join(parts) or "0"


@st.composite
def reference_pairs(draw):
    """Two polynomials in 1-3 variables, some Laurent, with their tuple
    references; coefficients small (for cancellation) or large."""
    nvars = draw(st.integers(1, 3))
    vars = ("x", "y", "z")[:nvars]
    laurent = tuple(draw(st.booleans()) for _ in vars)
    exps = st.tuples(*(st.integers(-3 if flag else 0, 3) for flag in laurent))
    coeffs = st.one_of(st.integers(-4, 4), st.integers(-2 ** 70, 2 ** 70))

    def one():
        return MultiPoly(vars, draw(st.dictionaries(exps, coeffs, max_size=9)),
                         laurent)
    return one(), one()


@settings(max_examples=200, deadline=None)
@given(reference_pairs(), st.integers(0, 3), st.integers(-3, 3),
       st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3))
def test_packed_kernel_matches_the_tuple_reference(pair, n, k, point):
    a, b = pair
    ra, rb = TupleRef.of(a), TupleRef.of(b)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (b * a, rb * ra), (-a, -ra), (a ** n, ra ** n)):
        assert got.exponent_terms() == want.terms
    assert a.to_text() == ra.to_text()
    assert (a * b).to_text() == (ra * rb).to_text()
    if any(e < 0 for exp in ra.terms for e in exp):
        # evaluate takes no negative exponent, so it never divides
        with pytest.raises(LaurentInputError):
            a.evaluate(dict(zip(a.vars, point)))
    else:
        assert a.evaluate(dict(zip(a.vars, point))) == ra.evaluate(point)
    for i, v in enumerate(a.vars):
        assert a.coeff_in(v, k).exponent_terms() == ra.coeff_in(i, k).terms
        assert {e: p.exponent_terms() for e, p in a.as_univariate(v).items()} \
            == {e: p.terms for e, p in ra.as_univariate(i).items()}
        if a.laurent[i] or k >= 0:
            assert a.mul_var_power(v, k).exponent_terms() \
                == ra.mul_var_power(i, k).terms
    if not b.is_zero():
        assert exact_div(a * b, b).exponent_terms() == ra.terms
    if not (a * b).is_zero():
        # rational_normalize makes the key-order leading term positive
        lead = (ra * rb).lead()
        assert rational_normalize(a * b).exponent_terms()[lead] > 0


# -- ring laws -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * 1 == a and a * 0 == 0


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_subtraction_and_scalars(a, b):
    assert a - b == a + (-b)
    assert 2 * a == a + a


def is_canonical(p):
    """Every stored coefficient is a nonzero int."""
    return all(type(c) is int and c != 0 for c in p.terms.values())


# Small coefficients cancel often; large ones take the packed product.
INT_COEFFS = st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=80, deadline=None)
@given(small_polys(coeffs=INT_COEFFS, max_terms=12),
       small_polys(coeffs=INT_COEFFS, max_terms=12), st.integers(0, 3))
def test_arithmetic_keeps_coefficients_canonical(a, b, k):
    for p in (a + b, a - b, -a, a * b, b * a, 2 * a, a - a, a ** k):
        assert is_canonical(p)
    if not b.is_zero():
        assert is_canonical(exact_div(a * b, b))


def test_power_and_unit_power():
    x, y = var("x"), var("y")
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert (x + y) ** 0 == 1
    # negative powers exist only for invertible monomials
    with pytest.raises(InexactDivisionError):
        (x + y) ** -1
    t = MultiPoly.variable("t", ("t",), (True,))
    # only a monomial with coefficient +1 or -1 is a unit over Z
    assert (-t) ** -2 == t ** -2 and (-t) ** -1 == -(t ** -1)
    with pytest.raises(InexactDivisionError):
        (2 * t) ** -1


# -- Kronecker-packed products ----------------------------------------------

def dict_product(a, b):
    """a * b through the dict double loop alone."""
    with patch.object(exactpoly, "_PACK_MIN_PRODUCTS", math.inf):
        return a * b


# Coefficients near the byte boundaries of a slot, and small ones.
PACK_COEFFS = st.builds(lambda sign, scale, k, d: sign * (scale * k + d),
                        st.sampled_from([1, -1]),
                        st.sampled_from([1, 2 ** 7, 2 ** 63, 2 ** 64]),
                        st.integers(2, 4), st.integers(-1, 1))


@st.composite
def int_poly_pairs(draw):
    """Two integer polynomials in 1-3 variables, Laurent ones included,
    dense enough in their exponent box that many products are packed."""
    nvars = draw(st.integers(1, 3))
    vars = ("x", "y", "z")[:nvars]
    laurent = tuple(draw(st.booleans()) for _ in vars)
    span = draw(st.sampled_from([2, 4] if nvars == 3 else [2, 4, 12]))
    box = list(itertools.product(*(range(-2 * flag, span - 2 * flag)
                                   for flag in laurent)))

    def one():
        size = draw(st.integers(1, min(40, len(box)))
                    | st.just(len(box) // 2))
        exps = draw(st.permutations(box))[:size]
        coeffs = draw(st.lists(PACK_COEFFS, min_size=size, max_size=size))
        return MultiPoly(vars, dict(zip(exps, coeffs)), laurent)
    return one(), one()


@settings(max_examples=150, deadline=None)
@given(int_poly_pairs())
def test_packed_product_matches_dict_loop(pair):
    a, b = pair
    expected = dict_product(a, b)
    assert a * b == expected
    packed = exactpoly._packed_product(a.terms, b.terms, len(a.vars))
    if packed is not None:
        assert packed == expected.terms
        assert all(type(c) is int for c in packed.values())


@pytest.mark.parametrize("bits", [7, 63, 64])
@pytest.mark.parametrize("step", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 8])
def test_packed_product_with_bound_next_to_a_byte_boundary(bits, step, m):
    # max|a| * max|b| * min(#a, #b) = 2**bits + step * m, and the middle
    # coefficient of the product reaches that bound
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        ca = sa * (2 ** bits // m + step)
        a = MultiPoly(("x",), {(i,): ca for i in range(m)})
        b = MultiPoly(("x",), {(j,): sb for j in range(max(m, 2))})
        packed = exactpoly._packed_product(a.terms, b.terms, 1)
        assert packed == dict_product(a, b).terms
        assert max(map(abs, packed.values())) == 2 ** bits + step * m
        assert a * b == dict_product(a, b)


@pytest.mark.parametrize("bits", [8, 64, 65, 150])
def test_from_kronecker_reads_back_every_even_term(bits):
    # coefficients up to one below half a slot, of both signs, at the
    # memoryview widths and past them (int.from_bytes per slot)
    width = exactpoly.slot_bytes(bits)
    top = (1 << (8 * width - 1)) - 1
    row = 6
    terms = {(0, 0): -top, (2, 0): top, (4, 0): 1, (0, 1): -1,
             (2, 3): top, (4, 3): -top}
    s = 8 * width
    value = sum(c << (s * (i + row * j)) for (i, j), c in terms.items())

    def decode(v):
        return exactpoly.from_kronecker(exactpoly.even_slots(v, width, row),
                                        ("x", "z"), width, row)

    got = decode(value)
    assert got == MultiPoly(("x", "z"), terms)
    assert decode(0) == 0
    # a negative top digit borrows from the slots below it
    assert decode(-value) == -got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 64, 65, 150]), st.integers(1, 4),
       st.integers(0, 6), st.data())
def test_top_part_from_kronecker_reads_the_anti_diagonal(bits, half_row,
                                                         degree, data):
    # even terms of total degree at most D in X = x^2 and z, coefficients
    # up to one below half a slot, of both signs, at the memoryview widths
    # and past them; then at most one planted term, at an odd x-power or
    # above degree D, which must raise
    width = exactpoly.slot_bytes(bits)
    s, row = 8 * width, 2 * half_row
    top = (1 << (s - 1)) - 1
    coeffs = st.integers(-top, top).filter(bool)
    slots = [(2 * i, j) for i in range(half_row) for j in range(degree + 1)
             if i + j <= degree]
    terms = data.draw(st.dictionaries(st.sampled_from(slots), coeffs))
    fault = data.draw(st.sampled_from([None, "odd x-power",
                                       "above total degree"]))
    i = data.draw(st.integers(0, half_row - 1))
    if fault == "odd x-power":
        terms[(2 * i + 1, data.draw(st.integers(0, degree + 2)))] = \
            data.draw(coeffs)
    elif fault:
        j = data.draw(st.integers(max(0, degree + 1 - i), degree + 2))
        terms[(2 * i, j)] = data.draw(coeffs)
    value = sum(c << (s * (i + row * j)) for (i, j), c in terms.items())

    def top_part():
        return exactpoly.top_part_from_kronecker(
            exactpoly.even_slots(value, width, row), width, row, degree)

    if fault:
        with pytest.raises(ValueError, match=fault):
            top_part()
    else:
        assert top_part() \
            == [terms.get((2 * k, degree - k), 0) for k in range(degree + 1)]


@pytest.mark.parametrize("bits", [8, 64, 65, 150])
def test_from_kronecker_rejects_an_odd_power(bits):
    # a term with an odd x-power beside even ones, of either sign, small
    # or at half a slot, in the first row and past it: even_slots checks
    # the odd slots, which from_kronecker then skips
    width = exactpoly.slot_bytes(bits)
    s, row = 8 * width, 6
    top = (1 << (s - 1)) - 1
    even = (top << s * (2 + row)) - 1
    for i, j in ((1, 0), (5, 0), (3, 2)):
        for c in (1, -1, top, -top):
            with pytest.raises(ValueError, match="odd x-power"):
                exactpoly.even_slots(even + (c << s * (i + row * j)),
                                     width, row)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.data())
def test_kronecker_point_separates_polynomials_within_its_bounds(degrees,
                                                                  data):
    # a nonzero polynomial of degree at most degrees[i] in each variable
    # but the last, whose degree is free, and of 1-norm at most the norm
    # does not vanish at the point.  Some are drawn with a factor
    # v0 - 2^k, which vanishes at a point of width k.
    vars = tuple(f"v{i}" for i in range(len(degrees)))
    k = None
    if degrees[0] or len(degrees) == 1:
        k = data.draw(st.none() | st.integers(0, 60))
    tops = [d - (k is not None) * (i == 0)
            for i, d in enumerate(degrees[:-1])] + [9]
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))
    f = MultiPoly(vars, data.draw(st.dictionaries(
        st.tuples(*(st.integers(0, top) for top in tops)), coeffs,
        max_size=8)))
    if k is not None:
        f *= MultiPoly.variable("v0", vars) - 2 ** k
    norm = sum(map(abs, f.terms.values())) + data.draw(st.integers(0, 3))
    point = exactpoly.kronecker_point(norm, degrees)
    assert len(point) == len(degrees)
    assert (f.evaluate(dict(zip(vars, point))) == 0) == f.is_zero()


def test_kronecker_point_width_comes_from_the_bound():
    # s - 2^a has a coefficient of 2^a, one past the largest the width a
    # separates, and vanishes at the point; so does s^2 - t, of degree 2
    # in s past its bound 1.  Each is separated once the bounds cover it.
    for norm in (1, 5, 2 ** 20, 3 ** 50):
        a = norm.bit_length() + 1
        s, t = exactpoly.kronecker_point(norm, (1, 0))
        assert (s, t) == (2 ** a, 2 ** (2 * a))
        assert s - 2 ** a == 0 and s ** 2 - t == 0
        s, = exactpoly.kronecker_point(2 ** a + 1, (1,))
        assert s - 2 ** a != 0
        s, t = exactpoly.kronecker_point(norm, (2, 0))
        assert s ** 2 - t != 0


def test_sparse_high_degree_product_skips_the_dense_box():
    vars = ("x", "y", "z")
    a = MultiPoly(vars, {(800 * i, 7 * i, 8000 - i): i + 1
                         for i in range(10)})
    b = MultiPoly(vars, {(i, 700 * i, i * i): 1 - 2 * i
                         for i in range(10)})
    assert exactpoly._packed_product(a.terms, b.terms, 3) is None
    tracemalloc.start()
    try:
        result = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert result == dict_product(a, b)
    assert len(result.terms) == 100


# -- text and JSON ---------------------------------------------------------

def test_text_is_graded_lex_descending():
    p = poly({(2, 1): 1, (0, 1): -2, (1, 1): 3, (0, 0): 1})
    assert p.to_text() == "x^2*y + 3*x*y - 2*y + 1"


def test_text_laurent_negative_exponents():
    p = MultiPoly(("t",), {(-2,): 1, (2,): -1}, (True,))
    assert p.to_text() == "-t^2 + t^-2"


def test_text_zero():
    assert MultiPoly.zero(XY).to_text() == "0"


# -- alignment and substitution -------------------------------------------

def test_mismatched_vars_raise_alignment_error():
    a = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(AlignmentError):
        a + poly({(1, 0): 1})


def test_substitute_square_collapses_even_part():
    x, z = var("x", ("x", "z")), var("z", ("x", "z"))
    p = x ** 2 * z + z ** 2
    q = p.substitute_square("x", "X")
    assert q.vars == ("X", "z")
    assert q == MultiPoly(("X", "z"), {(1, 1): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        (x * z).substitute_square("x", "X")


def test_restrict_drops_unused_variable():
    p = poly({(0, 2): 3})
    q = p.restrict(("y",))
    assert q.vars == ("y",) and q.exponent_terms() == {(2,): 3}
    with pytest.raises(ValueError):
        poly({(1, 1): 1}).restrict(("y",))


# -- division, gcd, squarefree --------------------------------------------

def test_exact_div_recovers_cofactor():
    x, y = var("x"), var("y")
    assert exact_div(x ** 2 - y ** 2, x - y) == x + y


def test_exact_div_rejects_non_divisor():
    x, y = var("x"), var("y")
    with pytest.raises(InexactDivisionError) as info:
        exact_div(x ** 2 + y, x + 1)
    assert str(info.value) == "x + 1 does not divide x^2 + y"
    with pytest.raises(InexactDivisionError) as info:
        exact_div(2 * x * y + 1, x * y)
    assert str(info.value) == "x*y does not divide 2*x*y + 1"


def test_exact_div_raises_when_a_leading_coefficient_does_not_divide():
    # the quotient over Q is not over Z
    x = var("x")
    with pytest.raises(InexactDivisionError) as info:
        exact_div(x + 1, 2 * x + 2)
    assert str(info.value) == "2*x + 2 does not divide x + 1"
    with pytest.raises(InexactDivisionError):
        exact_div(x ** 2 - 1, 3 * x + 3)
    # a rounded quotient would leave no remainder monomial to object to
    with pytest.raises(InexactDivisionError):
        exact_div(6 * x + 3, 4)
    assert exact_div(3 * x ** 2 - 3, 3 * x + 3) == x - 1
    assert exact_div(6 * x + 3, -3) == -2 * x - 1


def test_exact_div_integer_quotient_stays_int():
    x, y = var("x"), var("y")
    q = exact_div(6 * x ** 2 * y - 6 * y ** 3, -3 * x - 3 * y)
    assert q == -2 * x * y + 2 * y ** 2
    assert all(type(c) is int for c in q.terms.values())


def test_exact_div_laurent():
    t = MultiPoly.variable("t", ("t",), (True,))
    p = t ** -2 - t ** 2
    assert exact_div(p, t ** -1 - t) == t ** -1 + t


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_exact_div_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a
    if not a.is_zero():
        assert exact_div(a * b, a) == b


@settings(max_examples=40, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys(
    coeffs=st.integers(-2 ** 40, 2 ** 40)))
def test_exact_div_inverts_multiplication_laurent(a, b, c):
    for num, den in ((a, b), (c, b), (a, c)):
        if den.is_zero():
            continue
        assert exact_div(num * den, den) == num


def test_exact_div_by_a_positive_laurent_power():
    t = MultiPoly.variable("t", TM, TM_LAURENT)
    one = MultiPoly.const(TM, 1, TM_LAURENT)
    assert exact_div(one, t) == t ** -1
    assert exact_div(t + 1, t ** 2 + t) == t ** -1


def test_poly_gcd_strips_multiplicity():
    z = MultiPoly.variable("z", ("z",))
    p = (z - 1) ** 2 * (z + 2)
    dp = 2 * (z - 1) * (z + 2) + (z - 1) ** 2
    assert poly_gcd(p, dp) == z - 1


def test_poly_gcd_is_normalized():
    z = MultiPoly.variable("z", ("z",))
    g = poly_gcd(-2 * (z + 1), 4 * (z + 1) ** 2)
    assert g == z + 1
    y = var("y", ("y",))
    assert poly_gcd(MultiPoly.const(("y",), 6), 4 * y + 2) == 1
    assert poly_gcd(MultiPoly.const(("y",), 0), -2 * y - 2) == y + 1


YZ = ("y", "z")


def test_poly_gcd_multivariate():
    y, z = var("y", YZ), var("z", YZ)
    p = (y - z) * (y + 1)
    q = (y - z) * (z + 2)
    assert poly_gcd(p, q) == y - z


def nonzero_yz_polys(max_terms=4):
    return small_polys(YZ, max_exp=2, max_terms=max_terms).filter(
        lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(nonzero_yz_polys(), nonzero_yz_polys(), nonzero_yz_polys(3))
def test_poly_gcd_does_not_depend_on_the_main_variable(a, b, common):
    # A normalized gcd is unique, so the primitive PRS gives it whichever
    # variable it eliminates; poly_gcd takes no main variable.
    p, q = a * common, b * common
    g = poly_gcd(p, q)
    for v in YZ:
        if (p.degree_in(v) or 0) > 0 or (q.degree_in(v) or 0) > 0:
            assert exactpoly._prs_gcd(p, q, v) == g
    assert exact_div(p, g) * g == p and exact_div(q, g) * g == q
    # g is primitive, so common divides it over Z up to its content
    common = rational_normalize(common)
    assert exact_div(g, common) * common == g


def test_poly_gcd_finds_the_heuristic_variable(monkeypatch):
    # z alone in the ring (y, z), and M alone with negative exponents in
    # the Laurent ring (t, M): the heuristic applies to both, and its
    # result is the PRS result.
    z = var("z", YZ)
    m = MultiPoly.variable("M", TM, (True, True))
    cases = [((z - 1) ** 2 * (z + 3), (z - 1) * (2 * z + 5), z - 1),
             (m ** -2 * (m + 1) * (m - 3), m ** -1 * (m + 1) ** 2, m + 1)]
    heuristic = exactpoly._heuristic_gcd
    for p, q, want in cases:
        taken = []

        def spy(a, b):
            g = heuristic(a, b)
            taken.append(g is not None)
            return g

        monkeypatch.setattr(exactpoly, "_heuristic_gcd", spy)
        assert poly_gcd(p, q) == want
        assert taken == [True]
        monkeypatch.setattr(exactpoly, "_heuristic_gcd", lambda a, b: None)
        assert poly_gcd(p, q) == want


@st.composite
def int_polys_in_y(draw, max_bits=70, max_deg=4):
    """A nonzero polynomial over (x, y) in y alone with int coefficients
    of either sign, up to about 2**max_bits."""
    bound = 2 ** draw(st.integers(1, max_bits))
    terms = draw(st.dictionaries(
        st.tuples(st.just(0), st.integers(0, max_deg)),
        st.integers(-bound, bound).filter(bool), min_size=1, max_size=4))
    return MultiPoly(XY, terms)


@settings(max_examples=80, deadline=None)
@given(int_polys_in_y(), int_polys_in_y(), int_polys_in_y(max_bits=20),
       st.integers(0, 3), st.integers(0, 3), st.integers(-50, 50).filter(bool),
       st.booleans())
def test_heuristic_gcd_matches_the_prs(a, b, g, ka, kb, content, coprime):
    y = var("y")
    if coprime:
        g = MultiPoly.const(XY, 1)
    p = content * a * g * y ** ka
    q = b * g * y ** kb
    ref = exactpoly._prs_gcd(p, q, "y")
    h = exactpoly._heuristic_gcd(p, q)
    assert h is None or h == ref
    assert poly_gcd(p, q) == ref
    assert exact_div(p, ref) * ref == p


def test_heuristic_gcd_without_tries_falls_back(monkeypatch):
    y = var("y")
    p = (y - 1) ** 2 * (3 * y + 2)
    q = p.derivative("y")
    ref = exactpoly._prs_gcd(p, q, "y")
    assert exactpoly._heuristic_gcd(p, q) == ref == y - 1
    monkeypatch.setattr(exactpoly, "_GCDHEU_TRIES", 0)
    assert exactpoly._heuristic_gcd(p, q) is None
    fallbacks = []

    def core(*args):
        fallbacks.append(args)
        return ref

    monkeypatch.setattr(exactpoly, "_prs_gcd", core)
    assert poly_gcd(p, q) == ref
    assert len(fallbacks) == 1


def _spy_heuristic_gcd(monkeypatch):
    """Record the slot width of each candidate _heuristic_gcd reads and
    each divisor it tries, in order."""
    log = []
    unpack, divide = exactpoly._unpack, exactpoly.exact_div

    def spy_unpack(raw, width, keys, stride=1):
        log.append(("width", width))
        return unpack(raw, width, keys, stride)

    def spy_divide(p, q):
        log.append(("divisor", q))
        return divide(p, q)

    monkeypatch.setattr(exactpoly, "_unpack", spy_unpack)
    monkeypatch.setattr(exactpoly, "exact_div", spy_divide)
    return log


def test_heuristic_gcd_retries_a_rejected_candidate(monkeypatch):
    # |y - 2| = 2, so the point starts at 2^8 (width 1): gcd(254, 508) =
    # 254 reads back as y - 2, which does not divide y + 252.  At 2^16,
    # gcd(65534, 65788) = 2 reads back as 1, which divides both.
    y = var("y", ("y",))
    log = _spy_heuristic_gcd(monkeypatch)
    assert exactpoly._heuristic_gcd(y - 2, y + 252) == 1
    assert log == [("width", 1), ("divisor", y - 2), ("divisor", y - 2),
                   ("width", 2), ("divisor", 1), ("divisor", 1)]
    monkeypatch.setattr(exactpoly, "_GCDHEU_TRIES", 1)
    assert exactpoly._heuristic_gcd(y - 2, y + 252) is None
    assert poly_gcd(y - 2, y + 252) == 1
    assert poly_gcd((y - 2) * (y + 5), (y + 252) * (y + 5)) == y + 5


def test_heuristic_gcd_reads_a_carry_past_the_top_bit(monkeypatch):
    # at 2^8, y^2 - 2 and y^2 + 128 y - 3 take 65534 and 98301, whose gcd
    # 2^15 - 1 has 15 bits but the balanced digits -1, -128, 1: its top
    # digit sits in the slot above the one of its top bit
    y = var("y", ("y",))
    p, q = y ** 2 - 2, y ** 2 + 128 * y - 3
    assert exactpoly._prs_gcd(p, q, "y") == 1
    log = _spy_heuristic_gcd(monkeypatch)
    assert exactpoly._heuristic_gcd(p, q) == 1
    assert log == [("width", 1), ("divisor", y ** 2 - 128 * y - 1),
                   ("width", 2), ("divisor", 1), ("divisor", 1)]


def test_heuristic_gcd_takes_out_the_powers_of_y(monkeypatch):
    # at 2^(8w), y^2 takes 2^(16w), and 2^56 + 44768 y^2 - 7783 y takes
    # a value whose power of 2 is 2^(8w) at each width w = 1 .. 6 tried,
    # which reads back as y; the gcd of y^2 / y^2 and that operand is
    # found at the first width
    y = var("y", ("y",))
    q = 2 ** 56 + 44768 * y ** 2 - 7783 * y
    log = _spy_heuristic_gcd(monkeypatch)
    assert exactpoly._heuristic_gcd(y ** 2, q) == 1
    assert log == [("width", 1), ("divisor", 1), ("divisor", 1)]
    assert exactpoly._heuristic_gcd(y ** 3 * q, y * (y + 1) * q) == y * q


def test_heuristic_gcd_leaves_other_inputs_to_the_prs():
    y, z = var("y", YZ), var("z", YZ)
    cases = [((y - z) * (y + 1), (y - z) * (z + 2)),
             ((y + 1) * (y + z), (y + 1) * (y - 3))]
    for p, q in cases:
        assert exactpoly._heuristic_gcd(p, q) is None
        assert poly_gcd(p, q) == exactpoly._prs_gcd(p, q, "y")
    assert poly_gcd(*cases[1]) == y + 1


def test_rational_normalize():
    z = MultiPoly.variable("z", ("z",))
    p = (z + 1) * 6 * -1
    assert rational_normalize(p) == z + 1


@settings(max_examples=60, deadline=None)
@given(small_polys().filter(lambda p: not p.is_zero()),
       st.integers(-20, 20).filter(bool))
def test_rational_normalize_is_scale_invariant(p, k):
    r = rational_normalize(p)
    assert rational_normalize(k * p) == r
    coeffs = list(r.terms.values())
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1
    lead = max(r.exponent_terms().items(),
               key=lambda item: (sum(item[0]), item[0]))
    assert lead[1] > 0


def test_squarefree_detection():
    z = MultiPoly.variable("z", ("z",))
    assert is_squarefree_in((z - 1) * (z + 2), "z")
    assert not is_squarefree_in((z - 1) ** 2 * (z + 2), "z")
    assert squarefree_part_in((z - 1) ** 2 * (z + 2), "z") == (z - 1) * (z + 2)


# -- resultants ------------------------------------------------------------

def test_resultant_of_split_quadratics():
    # res_x((x-a)(x-b), (x-c)) = (c-a)(c-b) evaluated on small integers
    x = var("x", ("x",))
    p = (x - 2) * (x - 3)
    q = x - 5
    r = resultant_in(p, q, "x")
    assert r.constant_value() == (5 - 2) * (5 - 3)


def test_resultant_eliminates_variable():
    x, y = var("x"), var("y")
    p = x ** 2 + y ** 2 - 2
    q = x - y
    r = resultant_in(p, q, "x").restrict(("y",))
    z = MultiPoly.variable("y", ("y",))
    assert r == 2 * z ** 2 - 2


def test_resultant_swap_sign():
    x, y = var("x"), var("y")
    p = x ** 2 * y + x - 1
    q = x ** 3 - y
    deg = 2 * 3
    assert resultant_in(p, q, "x") == resultant_in(q, p, "x") * ((-1) ** deg)


def test_resultant_vanishes_on_common_factor():
    x, y = var("x"), var("y")
    p = (x - y) * (x + 1)
    q = (x - y) * (x + 2)
    assert resultant_in(p, q, "x").is_zero()


def _sylvester(p, q, var):
    """The (m+n) x (m+n) Sylvester matrix: n rows of p's coefficients,
    then m rows of q's, each in descending powers of var."""
    m, n = p.degree_in(var), q.degree_in(var)
    zero = p * 0
    rows = []
    for poly_, deg, count in ((p, m, n), (q, n, m)):
        for r in range(count):
            row = [zero] * (m + n)
            for k in range(deg + 1):
                row[r + k] = poly_.coeff_in(var, deg - k)
            rows.append(row)
    return rows


def _leibniz_det(mat):
    """Sum of the signed products over all permutations, built row by row;
    a branch through a zero entry contributes nothing and is dropped."""
    size = len(mat)
    total = mat[0][0] * 0

    def expand(row, used, sign, acc):
        nonlocal total
        if row == size:
            total = total + sign * acc
            return
        for c in range(size):
            if c in used or mat[row][c].is_zero():
                continue
            inversions = sum(1 for u in used if u > c)
            expand(row + 1, used | {c}, sign * (-1) ** inversions,
                   acc * mat[row][c])

    expand(0, frozenset(), 1, mat[0][0] ** 0)
    return total


XT = ("x", "t")


@st.composite
def resultant_operands(draw):
    """p and q in x over coefficients in up to two more variables, s and
    t, each Laurent or not: t is the one resultant_in packs, s stays in
    the terms, and with neither no variable is left to pack.  Degrees in x
    from 0 to 4, not both 0, lower coefficients often zero, and
    coefficients either small or up to 2^70, wide enough that a
    determinant needs slots of more than 8 bytes."""
    vars = ("x", "s", "t")[:draw(st.integers(1, 3))]
    laurent = (False,) + tuple(draw(st.booleans()) for _ in vars[1:])
    exps = st.tuples(*(st.integers(-2 if flag else 0, 2)
                       for flag in laurent[1:]))
    top = 2 ** draw(st.sampled_from((3, 70)))
    coeff = st.dictionaries(exps, st.integers(-top, top).filter(bool),
                            max_size=2)

    def operand(deg):
        terms = {}
        for k in range(deg + 1):
            for e, c in draw(coeff).items():
                terms[(k, *e)] = c
        terms.setdefault((deg,) + (0,) * (len(vars) - 1), 1)
        return MultiPoly(vars, terms, laurent)

    degrees = draw(st.tuples(st.integers(0, 4), st.integers(0, 4))
                   .filter(any))
    return operand(degrees[0]), operand(degrees[1])


@settings(max_examples=60, deadline=None)
@given(resultant_operands())
def test_resultant_matches_sylvester_determinant(pq):
    p, q = pq
    assert resultant_in(p, q, "x") == _leibniz_det(_sylvester(p, q, "x"))


def test_resultant_with_a_constant_operand_is_its_power():
    laurent = (False, True)
    x = MultiPoly.variable("x", XT, laurent)
    t = MultiPoly.variable("t", XT, laurent)
    c = 3 * t ** -1 + 2
    q = t * x ** 3 - x + 2
    assert resultant_in(c, q, "x") == c ** 3
    assert resultant_in(q, c, "x") == c ** 3


def test_resultant_error_paths():
    x, y = var("x"), var("y")
    with pytest.raises(UndefinedResultantError):
        resultant_in(x * 0, x + y, "x")
    with pytest.raises(UndefinedResultantError):
        resultant_in(y + 1, y - 1, "x")
    laurent = (True, False)
    xl = MultiPoly.variable("x", XY, laurent)
    with pytest.raises(LaurentInputError):
        resultant_in(xl ** -1 + 1, xl + 2, "x")
    with pytest.raises(AlignmentError):
        resultant_in(x + 1, var("x", ("x",)) + 1, "x")


# -- newton polygon --------------------------------------------------------

def test_newton_polygon_vertices():
    p = poly({(0, 0): 1, (4, 0): 1, (0, 3): 2, (2, 1): 5})
    hull = newton_polygon(p)
    assert set(hull) == {(0, 0), (4, 0), (0, 3)}


def test_newton_polygon_degenerate_segment():
    p = poly({(0, 0): 1, (3, 0): 1})
    hull = newton_polygon(p)
    assert set(hull) == {(0, 0), (3, 0)}


# -- rational functions ----------------------------------------------------

def test_rational_function_reduces():
    x, y = var("x"), var("y")
    r = RationalFunction(x ** 2 - y ** 2, x - y)
    assert r == RationalFunction(x + y, x ** 0 * 1)
    assert r + 1 == RationalFunction(x + y + 1, MultiPoly.const(XY, 1))


def test_rational_function_arithmetic():
    x, y = var("x"), var("y")
    half = RationalFunction(x, 2 * (x + y))
    other = RationalFunction(y, x + y)
    s = half + other
    assert s == RationalFunction(x + 2 * y, 2 * (x + y))
    assert half * 2 == RationalFunction(x, x + y)
    q = half / other
    assert q == RationalFunction(x, 2 * y)


def test_rational_function_laurent_normal_form():
    t = MultiPoly.variable("t", ("t",), (True,))
    assert RationalFunction(t ** -1, t ** 0) == RationalFunction(t ** 0, t)


def test_rational_function_integer_normal_form():
    # numerator and denominator together have content 1, and the
    # denominator's graded-lex leading coefficient is positive
    x, y = var("x"), var("y")
    r = RationalFunction(6 * x, -4 * (x + y))
    assert r.num == -3 * x and r.den == 2 * x + 2 * y
    assert RationalFunction(2 * x, 4 * y) == RationalFunction(x, 2 * y)
    r = RationalFunction(4 * x * (x - y), 6 * (x - y))
    assert r.num == 2 * x and r.den == 3
    assert r.to_text() == "(2*x) / (3)"
    assert RationalFunction(x * 0, -5 * y).den == 1


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(max_terms=3),
       st.integers(-12, 12).filter(bool))
def test_rational_function_constant_denominator(num, g, c):
    if g.is_constant():
        return
    r = RationalFunction(num, MultiPoly.const(XY, c))
    assert r == RationalFunction(num * g, g * c)
    k = r.den.constant_value()
    assert k > 0 and r.num * c == num * k
    assert math.gcd(k, *r.num.terms.values()) == 1


def test_rational_function_constant_denominator_laurent():
    t = MultiPoly.variable("t", TM, TM_LAURENT)
    m = MultiPoly.variable("M", TM, TM_LAURENT)
    num = t ** -2 * m - 3
    g = t ** -1 + m * t
    r = RationalFunction(num, t ** 0 * -4)
    assert r == RationalFunction(num * g, g * -4)
    assert r.den == 4 and r.num == -num


def test_evaluate_complex():
    x, y = var("x"), var("y")
    p = x ** 2 * y - 3
    value = p.evaluate({"x": 2 + 1j, "y": -1j})
    assert isinstance(value, complex)
    assert abs(value - ((2 + 1j) ** 2 * -1j - 3)) < 1e-12


def test_evaluate_is_exact_at_rational_points():
    x, y = var("x"), var("y")
    p = x ** 2 * y - 3
    big = 10 ** 20
    value = p.evaluate({"x": big, "y": 3})
    assert type(value) is int and value == 3 * big ** 2 - 3
    q = 3 * p + x
    half = Fraction(1, 2)
    assert q.evaluate({"x": half, "y": -7}) == 3 * (half ** 2 * -7 - 3) + half
    value = q.evaluate({"x": big, "y": 1})
    assert type(value) is int and value == 3 * (big ** 2 - 3) + big
    t = MultiPoly.variable("t", ("t",), (True,))
    assert (t ** 2 + 1).evaluate({"t": 3}) == 10
    with pytest.raises(LaurentInputError):
        (t ** -2 + 1).evaluate({"t": 3})
    assert MultiPoly.zero(XY).evaluate({"x": 1, "y": 2}) == 0
    with pytest.raises(EvaluationError):
        p.evaluate({"x": 1})
