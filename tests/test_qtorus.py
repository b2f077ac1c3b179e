"""Quantum torus normal form, the unknot recurrence and its symmetry factor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotpoly.exactpoly import MultiPoly, exact_div
from knotpoly.qtorus import (DiscreteSeq, JONES_UNKNOT_SEQ, QTElem, VARS_ML,
                             LAURENT_ML, act, alpha_unknot,
                             annihilation_check, epsilon_eval, jones_unknot,
                             qt_mul, qt_sigma, sigma_symmetry_factor, tm_poly)

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


def test_fraction_coefficients_are_type_errors():
    half = Fraction(1, 2)
    for op in (lambda: M * half, lambda: half + L, lambda: QTElem({0: half}),
               lambda: QTElem.term(half, m_exp=1)):
        with pytest.raises(TypeError):
            op()


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
    qf = DiscreteSeq(lambda m: act(q, f, m))
    for n in (-3, 0, 2):
        assert act(qt_mul(p, q), f, n) == act(p, qf, n)


def test_alpha_annihilates_jones():
    rep = annihilation_check(alpha_unknot(), JONES_UNKNOT_SEQ, (-20, 20))
    assert rep.status == "pass"
    assert rep.details["nonzero_at"] == []


def test_annihilation_negative_control():
    rep = annihilation_check(L, JONES_UNKNOT_SEQ, (-5, 5))
    assert rep.status == "fail"
    assert rep.details["nonzero_at"]


def test_constant_sequence():
    ones = DiscreteSeq(lambda n: 1)
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
