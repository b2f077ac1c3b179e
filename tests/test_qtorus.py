"""Quantum torus normal form, the unknot recurrence and its symmetry factor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotpoly import verify
from knotpoly.exactpoly import (EXPONENT_BOUND, AlignmentError, MultiPoly,
                                exact_div)
from knotpoly.qtorus import (LAURENT_ML, LAURENT_QT, VARS_ML, VARS_QT, act,
                             alpha_unknot, annihilation_check, epsilon_eval,
                             jones_unknot, qt_mul, qt_sigma, qt_text,
                             sigma_symmetry_factor)


def qt(terms):
    """Torus element from {(t_exp, m_exp, l_exp): coeff}."""
    return MultiPoly(VARS_QT, terms, LAURENT_QT)


def mono(coeff=1, t=0, m=0, l=0):
    return qt({(t, m, l): coeff})


ONE = mono()
M = mono(m=1)
L = mono(l=1)
M_INV = mono(m=-1)
L_INV = mono(l=-1)


@st.composite
def qt_elems(draw, max_terms=3):
    out = qt({})
    for _ in range(draw(st.integers(1, max_terms))):
        out = out + mono(draw(st.integers(-4, 4)),
                         t=draw(st.integers(-3, 3)),
                         m=draw(st.integers(-2, 2)),
                         l=draw(st.integers(-2, 2)))
    return out


# -- normal form and the commutation twist ---------------------------------

def test_commutation_rule():
    assert qt_mul(L, M) == mono(t=2, m=1, l=1)
    assert qt_mul(M, L) == mono(m=1, l=1)
    # * on a MultiPoly is the commutative product, not the torus product
    assert qt_mul(L, M) != L * M


def test_fraction_coefficients_are_type_errors():
    half = Fraction(1, 2)
    for op in (lambda: M * half, lambda: half + L,
               lambda: qt({(0, 0, 0): half}), lambda: mono(half, m=1)):
        with pytest.raises(TypeError):
            op()


def test_operands_off_the_torus_variables_are_rejected():
    ml = MultiPoly.variable("M", VARS_ML, LAURENT_ML)
    polynomial = MultiPoly(VARS_QT, {(0, 1, 0): 1})
    for op in (lambda: qt_mul(ml, ml), lambda: qt_mul(M, polynomial),
               lambda: qt_sigma(ml), lambda: epsilon_eval(ml),
               lambda: act(ml, jones_unknot, 0)):
        with pytest.raises(AlignmentError):
            op()


def test_twist_moves_l_powers_past_m_powers():
    for k in range(-2, 3):
        for m in range(-2, 3):
            product = qt_mul(mono(l=k), mono(m=m))
            assert product == mono(t=2 * k * m, m=m, l=k)


def test_products_at_the_field_bound():
    # every exponent lies in [-B, B); a product's keys are sums of keys, and
    # an exponent that leaves the range raises instead of wrapping into the
    # next field
    b = EXPONENT_BOUND
    assert qt_mul(mono(t=b - 1), mono(t=-b)) == mono(t=-1)
    assert qt_mul(mono(m=b - 2), M) == mono(m=b - 1)
    assert qt_mul(mono(l=-b + 1), L_INV) == mono(l=-b)
    for p, q in ((mono(t=b - 1), mono(t=1)), (mono(m=b - 1), M),
                 (mono(l=-b), L_INV), (mono(t=-b), mono(t=-b))):
        with pytest.raises(OverflowError):
            qt_mul(p, q)
    # the twist 2kd alone moves t: inside the range up to b - 1, and past
    # it with t^1 more
    half = b // 2
    assert qt_mul(mono(t=1, l=1), mono(m=half - 1)) == \
        mono(t=b - 1, m=half - 1, l=1)
    with pytest.raises(OverflowError):
        qt_mul(mono(t=2, l=1), mono(m=half - 1))
    # a twist of b or more is checked directly: a t-exponent that cancels
    # it is kept, and one that does not raises, also at t = 3b and -4b,
    # where the t field wraps with its guard bit clear
    assert qt_mul(mono(t=-b, l=1), mono(m=half)) == mono(m=half, l=1)
    assert qt_mul(mono(t=-b, l=-2), mono(t=-b, m=-half)) == \
        mono(m=-half, l=-2)
    for twist in (mono(l=1), mono(l=3), mono(l=-4), mono(t=1 - b, l=3)):
        with pytest.raises(OverflowError):
            qt_mul(twist, mono(m=half))


def test_sigma_at_the_field_bound():
    b = EXPONENT_BOUND
    assert qt_sigma(mono(t=-b, m=b - 1, l=1 - b)) == mono(t=-b, m=1 - b,
                                                         l=b - 1)
    for p in (mono(m=-b), mono(l=-b), mono(t=3) + mono(m=1, l=-b)):
        with pytest.raises(OverflowError):
            qt_sigma(p)


def test_ml_square():
    ml = qt_mul(M, L)
    assert qt_mul(ml, ml) == mono(t=2, m=2, l=2)
    assert qt_mul(ml, ml) != ml ** 2


def test_inverses():
    assert qt_mul(M, M_INV) == ONE
    assert qt_mul(L, L_INV) == ONE == qt_mul(L_INV, L)


def test_zero_terms_dropped_on_construction():
    assert qt({(0, 0, 0): 0, (1, 0, 1): 0}).is_zero()
    assert (M - M).is_zero()
    assert qt_mul(M, L - L).is_zero()


def test_scalar_coercion_and_pow():
    assert 2 * L == L + L
    assert (L + 1) - 1 == L
    assert L ** 0 == ONE
    # powers of one monomial commute with themselves, so ** agrees there
    assert L ** -1 == L_INV
    assert qt_mul(L, L) == L ** 2


def test_to_text():
    assert qt_text(alpha_unknot()) == "(M^2 - 1)*L + (-t^2*M^2 + t^-2)"
    assert qt_text(qt({})) == "0"
    assert qt_text(mono(3, t=1, l=-2) + mono(m=-1, l=2)) == \
        "(M^-1)*L^2 + (3*t)*L^-2"


@settings(max_examples=60, deadline=None)
@given(qt_elems(), qt_elems(), qt_elems())
def test_associativity_and_distributivity(p, q, r):
    assert qt_mul(qt_mul(p, q), r) == qt_mul(p, qt_mul(q, r))
    assert qt_mul(p, q + r) == qt_mul(p, q) + qt_mul(p, r)
    assert qt_mul(p + q, r) == qt_mul(p, r) + qt_mul(q, r)


# -- sigma -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(qt_elems(), qt_elems())
def test_sigma_is_an_involutive_automorphism(p, q):
    assert qt_sigma(qt_sigma(p)) == p
    assert qt_sigma(qt_mul(p, q)) == qt_mul(qt_sigma(p), qt_sigma(q))
    assert qt_sigma(p + q) == qt_sigma(p) + qt_sigma(q)


def test_sigma_on_monomials():
    assert qt_sigma(mono(3, t=2, m=1, l=-2)) == mono(3, t=2, m=-1, l=2)


# -- specialization at t = -1 ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(qt_elems(), qt_elems())
def test_epsilon_is_multiplicative(p, q):
    assert epsilon_eval(qt_mul(p, q)) == epsilon_eval(p) * epsilon_eval(q)
    assert epsilon_eval(p + q) == epsilon_eval(p) + epsilon_eval(q)


def test_epsilon_kills_the_twist():
    assert epsilon_eval(qt_mul(L, M)) == epsilon_eval(qt_mul(M, L))


def test_epsilon_of_alpha_factors():
    eps = epsilon_eval(alpha_unknot())
    m = MultiPoly.variable("M", VARS_ML, LAURENT_ML)
    el = MultiPoly.variable("L", VARS_ML, LAURENT_ML)
    assert eps == (m ** 2 - 1) * (el - 1)
    assert exact_div(eps, el - 1) == m ** 2 - 1
    assert exact_div(eps, el - 1).degree_in("L") == 0


# -- sequences and annihilation --------------------------------------------

def test_jones_values():
    assert jones_unknot(0).is_zero()
    assert jones_unknot(1) == 1
    assert jones_unknot(2).to_text() == "t^2 + t^-2"
    assert jones_unknot(3).to_text() == "t^4 + 1 + t^-4"
    for n in range(-8, 9):
        assert jones_unknot(-n) == -jones_unknot(n)


def test_jones_telescopes():
    t = MultiPoly.variable("t", ("t",), (True,))
    for n in range(-6, 7):
        assert (t ** 2 - t ** -2) * jones_unknot(n) == t ** (2 * n) - t ** (-2 * n)


def test_act_shifts_and_evaluates():
    # (a(t, M) L^j f)(n) = a(t, t^(2n)) f(n + j)
    t = MultiPoly.variable("t", ("t",), (True,))
    f = jones_unknot
    assert act(L, f, 3) == jones_unknot(4)
    assert act(M, f, 3) == t ** 6 * jones_unknot(3)
    assert act(mono(t=1), f, -2) == t * jones_unknot(-2)


def test_act_folds_m_into_a_power_of_t():
    f = jones_unknot
    t = MultiPoly.variable("t", ("t",), (True,))
    p = mono(5, t=-1, m=2, l=1)
    for n in range(-3, 4):
        assert act(p, f, n) == 5 * t ** (4 * n - 1) * jones_unknot(n + 1)
    # t^2 and M land on the same power of t at n = 1 and cancel.
    q = mono(t=2) - M
    assert act(q, f, 1).is_zero()
    assert act(q, f, 2) == (t ** 2 - t ** 4) * jones_unknot(2)


def test_act_composes_with_multiplication():
    p = qt({(1, 1, 1): 2, (0, -1, 0): 1})
    q = qt({(0, 2, -1): 1, (2, 0, 2): -3})
    f = jones_unknot
    for n in (-3, 0, 2):
        assert act(qt_mul(p, q), f, n) == act(p, lambda m: act(q, f, m), n)


def test_alpha_annihilates_jones():
    rep = annihilation_check(alpha_unknot(), jones_unknot, (-20, 20))
    assert rep.status == "pass"
    assert rep.details["nonzero_at"] == []


def test_annihilation_negative_control():
    rep = annihilation_check(L, jones_unknot, (-5, 5))
    assert rep.status == "fail"
    assert rep.details["nonzero_at"]


def test_constant_sequence():
    assert act(L - 1, lambda n: 1, 7).is_zero()


# -- sigma symmetry factor -------------------------------------------------

def test_sigma_factor_of_alpha():
    factor = sigma_symmetry_factor(alpha_unknot())
    assert factor is not None
    assert factor.ordering == "LdLeft"
    assert factor.den == 1
    assert factor.num == mono(t=2, m=2)
    assert factor.as_dict() == {"ordering": "LdLeft", "h": "t^2*M^2",
                                "m_only": False}


def test_sigma_factor_of_l_minus_one():
    factor = sigma_symmetry_factor(L - 1)
    assert factor.ordering == "LdRight"
    assert factor.num == -1 and factor.den == 1
    assert factor.m_only


def test_sigma_factor_of_m():
    factor = sigma_symmetry_factor(M)
    assert factor.num == mono(m=2) and factor.den == 1
    assert factor.m_only


def test_sigma_factor_absent():
    assert sigma_symmetry_factor(L + M + 1) is None


def test_sigma_factor_preconditions():
    with pytest.raises(ValueError):
        sigma_symmetry_factor(qt({}))
    with pytest.raises(ValueError):
        sigma_symmetry_factor(qt_mul(L, alpha_unknot()))


def test_ring_law_check_builds_each_product_once(monkeypatch):
    # p*q serves the associativity, sigma and epsilon laws alike: five
    # products per case, (p*q)*r, q*r, p*(q*r) and sigma(p)*sigma(q)
    calls = []
    real = verify.qt_mul
    monkeypatch.setattr(verify, "qt_mul",
                        lambda p, q: calls.append(1) or real(p, q))
    reports = verify.check_quantum_torus()
    assert reports and all(r.passed for r in reports)
    assert len(calls) == 5 * verify.QT_RANDOM_CASES
