"""Quantum torus normal form, the unknot recurrence, and the localization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from knotpoly.exactpoly import InexactDivisionError, MultiPoly, exact_div
from knotpoly.qtorus import (DiscreteSeq, INFINITE, JONES_UNKNOT_SEQ,
                             LocalizedScalar, QTElem, VARS_ML, LAURENT_ML,
                             WeakDivisionError, act, alpha_unknot,
                             annihilation_check, apply_seq, epsilon_eval,
                             height, jones_unknot, qt_mul, qt_sigma,
                             sigma_symmetry_factor, tm_poly, upsilon,
                             weak_divide)

M = QTElem.term(1, m_exp=1)
L = QTElem.term(1, l_exp=1)
M_INV = QTElem.term(1, m_exp=-1)
L_INV = QTElem.term(1, l_exp=-1)


@st.composite
def qt_elems(draw, max_terms=3):
    out = QTElem.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        out = out + QTElem.term(draw(st.integers(-4, 4)),
                                t_exp=draw(st.integers(-3, 3)),
                                m_exp=draw(st.integers(-2, 2)),
                                l_exp=draw(st.integers(-2, 2)))
    return out


# -- normal form and the commutation twist ---------------------------------

def test_commutation_rule():
    assert qt_mul(L, M) == QTElem({1: tm_poly({(2, 1): 1})})
    assert qt_mul(M, L) == QTElem({1: tm_poly({(0, 1): 1})})


def test_twist_moves_l_powers_past_m_powers():
    for k in range(-2, 3):
        for m in range(-2, 3):
            product = qt_mul(QTElem.term(1, l_exp=k), QTElem.term(1, m_exp=m))
            assert product == QTElem({k: tm_poly({(2 * k * m, m): 1})})


def test_ml_square():
    assert qt_mul(M, L) ** 2 == QTElem({2: tm_poly({(2, 2): 1})})


def test_inverses():
    one = QTElem.one()
    assert qt_mul(M, M_INV) == one
    assert qt_mul(L, L_INV) == one == qt_mul(L_INV, L)


def test_zero_terms_dropped_on_construction():
    assert QTElem({0: 0, 1: tm_poly({})}).is_zero()
    assert (M - M).is_zero()


def test_scalar_coercion_and_pow():
    assert 2 * L == L + L
    assert (L + 1) - 1 == L
    assert L ** 0 == QTElem.one()
    with pytest.raises(TypeError):
        L ** -1  # negative powers are spelled with explicit L^-1 terms


def test_to_text():
    alpha = alpha_unknot()
    assert alpha.to_text() == "(M^2 - 1)*L + (-t^2*M^2 + t^-2)"
    assert QTElem.zero().to_text() == "0"


@settings(max_examples=60, deadline=None)
@given(qt_elems(), qt_elems(), qt_elems())
def test_associativity_and_distributivity(p, q, r):
    assert qt_mul(qt_mul(p, q), r) == qt_mul(p, qt_mul(q, r))
    assert qt_mul(p, q + r) == qt_mul(p, q) + qt_mul(p, r)


# -- sigma -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(qt_elems(), qt_elems())
def test_sigma_is_an_involutive_automorphism(p, q):
    assert qt_sigma(qt_sigma(p)) == p
    assert qt_sigma(qt_mul(p, q)) == qt_mul(qt_sigma(p), qt_sigma(q))
    assert qt_sigma(p + q) == qt_sigma(p) + qt_sigma(q)


def test_sigma_on_monomials():
    elem = QTElem.term(3, t_exp=2, m_exp=1, l_exp=-2)
    assert qt_sigma(elem) == QTElem.term(3, t_exp=2, m_exp=-1, l_exp=2)


# -- skein images ----------------------------------------------------------

def test_upsilon_axis_values():
    assert upsilon(1, 0) == -(M + M_INV)
    assert upsilon(0, 1) == -(L + L_INV)
    assert upsilon(1, 1) == QTElem({1: tm_poly({(1, 1): 1}),
                                    -1: tm_poly({(1, -1): 1})})


@pytest.mark.parametrize("pair", [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2),
                                  (-5, 3)])
def test_upsilon_is_sigma_invariant(pair):
    elem = upsilon(*pair)
    assert qt_sigma(elem) == elem


def test_upsilon_requires_primitive_pair():
    with pytest.raises(ValueError):
        upsilon(2, 4)
    with pytest.raises(ValueError):
        upsilon(0, 0)


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
    f = JONES_UNKNOT_SEQ
    assert act(L, f, 3) == jones_unknot(4)
    assert act(M, f, 3) == t ** 6 * jones_unknot(3)
    assert act(QTElem.term(1, t_exp=1), f, -2) == t * jones_unknot(-2)


def test_act_folds_m_into_a_power_of_t():
    f = JONES_UNKNOT_SEQ
    t = MultiPoly.variable("t", ("t",), (True,))
    p = QTElem.term(5, t_exp=-1, m_exp=2, l_exp=1)
    for n in range(-3, 4):
        assert act(p, f, n) == 5 * t ** (4 * n - 1) * jones_unknot(n + 1)
    # t^2 and M land on the same power of t at n = 1 and cancel.
    q = QTElem.term(1, t_exp=2) - M
    assert act(q, f, 1).is_zero()
    assert act(q, f, 2) == (t ** 2 - t ** 4) * jones_unknot(2)


def test_act_composes_with_multiplication():
    p = QTElem({1: tm_poly({(1, 1): 2}), 0: tm_poly({(0, -1): 1})})
    q = QTElem({-1: tm_poly({(0, 2): 1}), 2: tm_poly({(2, 0): -3})})
    f = JONES_UNKNOT_SEQ
    for n in (-3, 0, 2):
        assert act(qt_mul(p, q), f, n) == act(p, apply_seq(q, f), n)


def test_alpha_annihilates_jones():
    rep = annihilation_check(alpha_unknot(), JONES_UNKNOT_SEQ, (-20, 20))
    assert rep.status == "pass"
    assert rep.details["nonzero_at"] == []


def test_annihilation_negative_control():
    rep = annihilation_check(L, JONES_UNKNOT_SEQ, (-5, 5))
    assert rep.status == "fail"
    assert rep.details["nonzero_at"]


def test_constant_sequence():
    ones = DiscreteSeq.constant(1)
    assert act(L - 1, ones, 7).is_zero()


# -- sigma symmetry factor -------------------------------------------------

def test_sigma_factor_of_alpha():
    factor = sigma_symmetry_factor(alpha_unknot())
    assert factor is not None
    assert factor.ordering == "LdLeft"
    assert factor.den == 1
    assert factor.num == tm_poly({(2, 2): 1})
    assert factor.h_text() == "t^2*M^2"
    assert not factor.m_only


def test_sigma_factor_of_l_minus_one():
    factor = sigma_symmetry_factor(L - 1)
    assert factor.ordering == "LdRight"
    assert factor.num == -1 and factor.den == 1
    assert factor.m_only


def test_sigma_factor_of_m():
    factor = sigma_symmetry_factor(M)
    assert factor.num == tm_poly({(0, 2): 1}) and factor.den == 1
    assert factor.m_only


def test_sigma_factor_absent():
    assert sigma_symmetry_factor(L + M + 1) is None


def test_sigma_factor_preconditions():
    with pytest.raises(ValueError):
        sigma_symmetry_factor(QTElem.zero())
    with pytest.raises(ValueError):
        sigma_symmetry_factor(qt_mul(L, alpha_unknot()))


# -- localization and heights ----------------------------------------------

def one_plus_t():
    return tm_poly({(1, 0): 1, (0, 0): 1})


def test_height_examples():
    m = tm_poly({(0, 1): 1})
    assert height(one_plus_t() ** 2 * m + one_plus_t() ** 3) == 2
    assert height(tm_poly({(2, 0): -1, (0, 0): 1})) == 1
    assert height(m - 1) == 0
    assert height(0) == INFINITE
    assert height(LocalizedScalar(0)) == INFINITE
    assert math.isinf(INFINITE)


def test_localized_scalar_invariant():
    with pytest.raises(ValueError):
        LocalizedScalar(1, one_plus_t())
    # a removable factor of 1 + t in the denominator reduces away
    m = tm_poly({(0, 1): 1})
    s = LocalizedScalar(one_plus_t() * m, one_plus_t())
    assert s == LocalizedScalar(m)


def test_localized_arithmetic():
    m = tm_poly({(0, 1): 1})
    a = LocalizedScalar(m, m - 1)
    b = LocalizedScalar(1, m + 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert (a - a).is_zero()
    with pytest.raises(ZeroDivisionError):
        a / LocalizedScalar(0)


def test_height_of_localized_fraction():
    m = tm_poly({(0, 1): 1})
    s = LocalizedScalar(one_plus_t() ** 2, m - 1)
    assert height(s) == 2


# -- weak division ---------------------------------------------------------

def test_weak_divide_basic():
    f = qt_mul(M, L ** 2) + 1
    q, r = weak_divide(f, L)
    assert list(q) == [1]
    assert q[1] == LocalizedScalar(tm_poly({(0, 1): 1}))
    assert list(r) == [0] and r[0] == LocalizedScalar(1)


def test_weak_divide_self():
    alpha = alpha_unknot()
    q, r = weak_divide(alpha, alpha)
    assert q == {0: LocalizedScalar(1)} and r == {}


def test_weak_divide_precondition_messages():
    with pytest.raises(WeakDivisionError, match="g is zero"):
        weak_divide(L, QTElem.zero())
    with pytest.raises(WeakDivisionError, match="deg f < deg g"):
        weak_divide(QTElem.one(), L)
    with pytest.raises(WeakDivisionError, match="negative L-exponents"):
        weak_divide(qt_mul(L_INV, M), L)
    g = QTElem({1: one_plus_t(), 0: 1})
    with pytest.raises(WeakDivisionError, match="leading height"):
        weak_divide(L + 1, g)


def test_weak_divide_with_matching_heights():
    m = tm_poly({(0, 1): 1})
    g = QTElem({1: one_plus_t(), 0: 1})
    f = QTElem({1: one_plus_t() * m, 0: m - 1})
    q, r = weak_divide(f, g)
    assert q == {0: LocalizedScalar(m)}
    assert r == {0: LocalizedScalar(m - 1) - LocalizedScalar(m)}


def test_weak_divide_quotient_twists():
    # dividing by a pure power of L twists the quotient coefficient ratio
    f = QTElem({2: tm_poly({(0, 1): 1})})  # M L^2
    g = QTElem({1: tm_poly({(0, 1): 1})})  # M L
    q, r = weak_divide(f, g)
    assert r == {}
    # q = (M / twist(M)) L = t^-2 L
    assert q == {1: LocalizedScalar(tm_poly({(-2, 0): 1}))}
    assert qt_mul(QTElem({1: tm_poly({(-2, 0): 1})}), g) == f
