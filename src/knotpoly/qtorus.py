"""Quantum torus arithmetic and the recurrence picture for the unknot.

An element of the quantum torus generated by L, M over Laurent
polynomials in t, subject to LM = t^2 ML, is a ``MultiPoly`` over
``VARS_QT = ("t", "M", "L")``, all three Laurent, read in the normal form
sum t^a M^b L^k with every L to the right.  Sums, negation, equality and
scalar multiples are those of ``MultiPoly``; the torus product is
``qt_mul``, which twists the right factor by
t^a M^b L^k . t^c M^d L^l = t^(a + c + 2kd) M^(b + d) L^(k + l).
``*`` and ``**`` on these polynomials are the commutative product, not
the torus product.  The module also provides the sigma involution,
specialization at t = -1, the left action on integer-indexed sequences,
the unknot annihilator and the sigma-symmetry factor of a recurrence.

The product, sigma, the specialization and the action are exponent maps,
not substitutions: the action at n sends t^a M^b L^j to t^(a + 2nb)
times the shift by j, summing what lands together.  They run on the
packed monomial keys: each reads the exponents it needs from a key's
fields and moves the key by whole steps of t, M and L.
"""

from __future__ import annotations

from collections.abc import Callable

from .exactpoly import (EXPONENT_BOUND, AlignmentError, MultiPoly,
                        RationalFunction, _check_fields, exponent_reader,
                        monomial_key)
from .report import FrozenRecord, VerificationReport, status_of

VARS_QT = ("t", "M", "L")
LAURENT_QT = (True, True, True)
VARS_ML = ("M", "L")
LAURENT_ML = (True, True)
VARS_T = ("t",)
LAURENT_T = (True,)

# Monomial keys (exactpoly.monomial_key): t^a M^b L^k has the key
# _ONE + a * _T + b * _M + k * _L, and M^b L^k over VARS_ML the key
# _ONE_ML + b * _M_ML + k * _L_ML.
_ONE = monomial_key((0, 0, 0))
_T, _M, _L = (monomial_key(e) - _ONE
              for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
_ONE_ML = monomial_key((0, 0))
_M_ML, _L_ML = (monomial_key(e) - _ONE_ML for e in ((1, 0), (0, 1)))
# The exponents of t, M and L in a key over VARS_QT.
_T_OF, _M_OF, _L_OF = (exponent_reader(VARS_QT, v) for v in VARS_QT)


def _check_qt(p: MultiPoly) -> None:
    if p.vars != VARS_QT or p.laurent != LAURENT_QT:
        raise AlignmentError(f"{p.vars} is not the quantum torus {VARS_QT}")


def qt_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The torus product, via t^a M^b L^k . t^c M^d L^l
    = t^(a + c + 2kd) M^(b + d) L^(k + l): the key of the product of two
    terms is the sum of their keys less _ONE, plus 2kd steps _T.

    OverflowError when an exponent of the product leaves the field range,
    found by _check_fields as in MultiPoly products.  The guard bits see
    every such exponent while each twist 2kd lies inside the range; past
    that, the t-exponents are checked directly first."""
    _check_qt(p)
    _check_qt(q)
    ks = [_L_OF(key) for key in p.terms]
    ds = [_M_OF(key) for key in q.terms]
    bound = EXPONENT_BOUND
    if ks and ds and 2 * max(map(abs, ks)) * max(map(abs, ds)) >= bound:
        cds = [(_T_OF(key), d) for key, d in zip(q.terms, ds)]
        for key, k in zip(p.terms, ks):
            a = _T_OF(key)
            if any(not -bound <= a + c + 2 * k * d < bound for c, d in cds):
                raise OverflowError(f"a t-exponent of the product is "
                                    f"outside [{-bound}, {bound})")
    out: dict = {}
    get = out.get
    right = [(key - _ONE, cq, 2 * d * _T)
             for (key, cq), d in zip(q.terms.items(), ds)]
    for (key, cp), k in zip(p.terms.items(), ks):
        for shift, cq, twist in right:
            e = key + shift + k * twist
            v = get(e)
            out[e] = cp * cq if v is None else v + cp * cq
    _check_fields(out, _ONE)
    return MultiPoly._make(VARS_QT, LAURENT_QT, out)


def qt_sigma(p: MultiPoly) -> MultiPoly:
    """The involution t^c M^k L^l -> t^c M^-k L^-l, linear over t: the key
    of t^c M^k L^l is reflected through that of t^c."""
    _check_qt(p)
    out = {2 * (_ONE + _T_OF(key) * _T) - key: c
           for key, c in p.terms.items()}
    _check_fields(out, _ONE)
    return MultiPoly._new(VARS_QT, LAURENT_QT, out)


def epsilon_eval(p: MultiPoly) -> MultiPoly:
    """Specialize t = -1; the twist dies and the result is a commutative
    Laurent polynomial in (M, L)."""
    _check_qt(p)
    terms: dict = {}
    for key, c in p.terms.items():
        e = _ONE_ML + _M_OF(key) * _M_ML + _L_OF(key) * _L_ML
        terms[e] = terms.get(e, 0) + (-c if _T_OF(key) % 2 else c)
    return MultiPoly._make(VARS_ML, LAURENT_ML, terms)


def qt_text(p: MultiPoly) -> str:
    """Text form sum_j (a_j)*L^j, descending in j, each a_j(t, M) in
    MultiPoly's canonical text."""
    if p.is_zero():
        return "0"
    parts = []
    for j, a in sorted(p.as_univariate("L").items(), reverse=True):
        coeff = f"({a.to_text()})"
        if j == 0:
            parts.append(coeff)
        elif j == 1:
            parts.append(f"{coeff}*L")
        else:
            parts.append(f"{coeff}*L^{j}")
    return " + ".join(parts)


# -- sequences and the left action ----------------------------------------


def act(p: MultiPoly, f: Callable, n: int) -> MultiPoly:
    """Left action on a sequence f from integers to Laurent polynomials in
    t (or ints): (t^a M^b L^j f)(n) = t^(a + 2nb) f(n + j)."""
    _check_qt(p)
    s = 2 * n
    by_shift: dict = {}
    for key, c in p.terms.items():
        folded = by_shift.setdefault(_L_OF(key), {})
        e = (_T_OF(key) + s * _M_OF(key),)
        folded[e] = folded.get(e, 0) + c
    total = MultiPoly.zero(VARS_T, LAURENT_T)
    for j, folded in by_shift.items():
        total = total + MultiPoly(VARS_T, folded, LAURENT_T) * f(n + j)
    return total


def jones_unknot(n: int) -> MultiPoly:
    """[n] = (t^2n - t^-2n) / (t^2 - t^-2), expanded exactly: sign(n)
    times the sum of t^2k over k = 1 - |n|, 3 - |n|, ..., |n| - 1."""
    sign, m = (1, n) if n >= 0 else (-1, -n)
    # the keys of those powers step by the key of t^4 less that of 1
    step = monomial_key((4,)) - monomial_key((0,))
    first, last = monomial_key((2 - 2 * m,)), monomial_key((2 * m - 2,))
    return MultiPoly._new(VARS_T, LAURENT_T,
                          dict.fromkeys(range(first, last + 1, step), sign))


def alpha_unknot() -> MultiPoly:
    """(M^2 - 1) L - (t^2 M^2 - t^-2), the minimal inhomogeneous
    recurrence annihilating [n]."""
    return MultiPoly(VARS_QT, {(0, 2, 1): 1, (0, 0, 1): -1,
                               (2, 2, 0): -1, (-2, 0, 0): 1}, LAURENT_QT)


def annihilation_check(p: MultiPoly, f: Callable,
                       window=(-20, 20)) -> VerificationReport:
    """Exact check that (p f)(n) = 0 for every n in the closed window."""
    lo, hi = window
    nonzero = [n for n in range(lo, hi + 1)
               if not act(p, f, n).is_zero()]
    return VerificationReport(
        "annihilation-window", f"window={lo}..{hi}",
        status_of(not nonzero),
        {"window": [lo, hi], "nonzero_at": nonzero})


# -- sigma symmetry of a recurrence ---------------------------------------


class SigmaFactor(FrozenRecord):
    """Result of the sigma-symmetry test: p = h * (L^d and sigma(p) in the
    stated ordering), with h in the fraction field of (t, M), kept over
    VARS_QT with L absent."""

    __slots__ = ("ordering", "h", "m_only")

    def __init__(self, ordering: str, h: RationalFunction, m_only: bool):
        self._init(ordering, h, m_only)

    @property
    def num(self) -> MultiPoly:
        return self.h.num

    @property
    def den(self) -> MultiPoly:
        return self.h.den

    def as_dict(self) -> dict:
        return {"ordering": self.ordering, "h": self.h.to_text(),
                "m_only": self.m_only}


def sigma_symmetry_factor(p: MultiPoly):
    """Find h with p = h sigma(p) L^d (LdRight) or p = h L^d sigma(p)
    (LdLeft), trying the orderings in that order; None when neither is
    proportional."""
    if p.is_zero():
        raise ValueError("zero element has no symmetry factor")
    if p.min_degree_in("L") != 0:
        raise ValueError("minimal L-exponent must be 0")
    d = p.degree_in("L")
    sp = qt_sigma(p)
    ld = MultiPoly(VARS_QT, {(0, 0, d): 1}, LAURENT_QT)
    slices = p.as_univariate("L")
    for ordering, s in (("LdRight", qt_mul(sp, ld)),
                        ("LdLeft", qt_mul(ld, sp))):
        s_slices = s.as_univariate("L")
        if set(s_slices) != set(slices):
            continue
        h_num = slices[0]
        h_den = s_slices[0]
        if all(slices[i] * h_den == s_slices[i] * h_num for i in slices):
            h = RationalFunction(h_num, h_den)
            m_only = all(poly.degree_in("t") == 0
                         and poly.min_degree_in("t") == 0
                         for poly in (h.num, h.den))
            return SigmaFactor(ordering, h, m_only)
    return None
