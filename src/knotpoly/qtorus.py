"""Quantum torus arithmetic and the recurrence picture for the unknot.

Elements of the quantum torus generated by L, M over Laurent polynomials
in t, subject to LM = t^2 ML, are kept in the normal form
sum_j a_j(t, M) L^j.  Multiplication twists the right factor by
a(M) L^k . b(M) L^l = a(M) b(t^2k M) L^(k+l).  The module also provides
the sigma involution, specialization at t = -1, the left action on
integer-indexed sequences, the unknot annihilator and the sigma-symmetry
factor of a recurrence.

The twist and the action are exponent maps, not substitutions: the twist
by L^k sends t^a M^b to t^(a + 2kb) M^b, a bijection on monomials, and the
action at n sends t^a M^b to t^(a + 2nb), summing what lands together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .exactpoly import MultiPoly, RationalFunction
from .report import VerificationReport, status_of

VARS_TM = ("t", "M")
LAURENT_TM = (True, True)
VARS_ML = ("M", "L")
LAURENT_ML = (True, True)
VARS_T = ("t",)
LAURENT_T = (True,)


def tm_poly(terms: Mapping) -> MultiPoly:
    """Laurent polynomial in (t, M) from {(t_exp, m_exp): coeff}."""
    return MultiPoly(VARS_TM, terms, LAURENT_TM)


def _coerce_tm(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value.extend_to(VARS_TM, LAURENT_TM)
    return MultiPoly.const(VARS_TM, value, LAURENT_TM)


class QTElem:
    """Normal-form element sum_j a_j(t, M) L^j of the quantum torus."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for j, coeff in terms.items():
                poly = _coerce_tm(coeff)
                if not poly.is_zero():
                    clean[int(j)] = poly
        self.terms = clean

    @classmethod
    def zero(cls) -> "QTElem":
        return cls()

    @classmethod
    def one(cls) -> "QTElem":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff, t_exp: int = 0, m_exp: int = 0,
             l_exp: int = 0) -> "QTElem":
        """coeff * t^t_exp M^m_exp L^l_exp as a one-term element."""
        return cls({l_exp: tm_poly({(t_exp, m_exp): coeff})})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, l_exp: int) -> MultiPoly:
        return self.terms.get(l_exp, MultiPoly.zero(VARS_TM, LAURENT_TM))

    def l_degree(self):
        return max(self.terms) if self.terms else None

    def l_min_degree(self):
        return min(self.terms) if self.terms else None

    def _coerce(self, other):
        if isinstance(other, QTElem):
            return other
        if isinstance(other, (int, MultiPoly)):
            return QTElem({0: other})
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for j, coeff in other.terms.items():
            terms[j] = terms.get(j, 0) + coeff
        return QTElem(terms)

    __radd__ = __add__

    def __neg__(self):
        return QTElem({j: -c for j, c in self.terms.items()})

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
        return qt_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = QTElem.one()
        for _ in range(n):
            result = qt_mul(result, self)
        return result

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for j in sorted(self.terms, reverse=True):
            coeff = f"({self.terms[j].to_text()})"
            if j == 0:
                parts.append(coeff)
            elif j == 1:
                parts.append(f"{coeff}*L")
            else:
                parts.append(f"{coeff}*L^{j}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<QTElem {self.to_text()}>"


def _twist(a: MultiPoly, k: int) -> MultiPoly:
    """a(t, M) -> a(t, t^2k M), the conjugation by L^k."""
    if k == 0:
        return a
    s = 2 * k
    return MultiPoly._new(a.vars, a.laurent,
                          {(et + s * em, em): c
                           for (et, em), c in a.terms.items()})


def qt_mul(p: QTElem, q: QTElem) -> QTElem:
    """Product in normal form via a(M)L^k . b(M)L^l = a b(t^2k M) L^(k+l)."""
    terms: dict = {}
    for k, a in p.terms.items():
        for l, b in q.terms.items():
            j = k + l
            terms[j] = terms.get(j, 0) + a * _twist(b, k)
    return QTElem(terms)


def qt_sigma(p: QTElem) -> QTElem:
    """The involution t^c M^k L^l -> t^c M^-k L^-l, linear over t."""
    terms = {}
    for j, a in p.terms.items():
        flipped = MultiPoly(VARS_TM,
                            {(et, -em): c for (et, em), c in a.terms.items()},
                            LAURENT_TM)
        terms[-j] = flipped
    return QTElem(terms)


def epsilon_eval(p: QTElem) -> MultiPoly:
    """Specialize t = -1; the twist dies and the result is a commutative
    Laurent polynomial in (M, L)."""
    terms: dict = {}
    for j, a in p.terms.items():
        for (et, em), c in a.terms.items():
            key = (em, j)
            terms[key] = terms.get(key, 0) + (-c if et % 2 else c)
    return MultiPoly(VARS_ML, terms, LAURENT_ML)


# -- sequences and the left action ----------------------------------------


@dataclass(frozen=True)
class DiscreteSeq:
    """Integer-indexed sequence of Laurent polynomials in t."""

    evaluator: Callable

    def __call__(self, n: int) -> MultiPoly:
        value = self.evaluator(n)
        if isinstance(value, MultiPoly):
            return value.extend_to(VARS_T, LAURENT_T)
        return MultiPoly.const(VARS_T, value, LAURENT_T)


def act(p: QTElem, f: DiscreteSeq, n: int) -> MultiPoly:
    """Left action: (a(t, M) L^j f)(n) = a(t, t^2n) f(n + j)."""
    total = MultiPoly.zero(VARS_T, LAURENT_T)
    s = 2 * n
    for j, a in p.terms.items():
        folded: dict = {}
        for (et, em), c in a.terms.items():
            e = (et + s * em,)
            folded[e] = folded.get(e, 0) + c
        total = total + MultiPoly._make(VARS_T, LAURENT_T, folded) * f(n + j)
    return total


def jones_unknot(n: int) -> MultiPoly:
    """[n] = (t^2n - t^-2n) / (t^2 - t^-2), expanded exactly."""
    sign, m = (1, n) if n >= 0 else (-1, -n)
    return MultiPoly._new(VARS_T, LAURENT_T,
                          {(2 * k,): sign for k in range(1 - m, m, 2)})


JONES_UNKNOT_SEQ = DiscreteSeq(jones_unknot)


def alpha_unknot() -> QTElem:
    """(M^2 - 1) L - (t^2 M^2 - t^-2), the minimal inhomogeneous
    recurrence annihilating [n]."""
    return QTElem({1: tm_poly({(0, 2): 1, (0, 0): -1}),
                   0: tm_poly({(2, 2): -1, (-2, 0): 1})})


def annihilation_check(p: QTElem, f: DiscreteSeq,
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


@dataclass(frozen=True)
class SigmaFactor:
    """Result of the sigma-symmetry test: p = h * (L^d and sigma(p) in the
    stated ordering), with h in the fraction field of (t, M)."""

    ordering: str
    h: RationalFunction
    m_only: bool

    @property
    def num(self) -> MultiPoly:
        return self.h.num

    @property
    def den(self) -> MultiPoly:
        return self.h.den

    def h_text(self) -> str:
        return self.h.to_text()

    def as_dict(self) -> dict:
        return {"ordering": self.ordering, "h": self.h_text(),
                "m_only": self.m_only}


def sigma_symmetry_factor(p: QTElem):
    """Find h with p = h sigma(p) L^d (LdRight) or p = h L^d sigma(p)
    (LdLeft), trying the orderings in that order; None when neither is
    proportional."""
    if p.is_zero():
        raise ValueError("zero element has no symmetry factor")
    if p.l_min_degree() != 0:
        raise ValueError("minimal L-exponent must be 0")
    d = p.l_degree()
    sp = qt_sigma(p)
    ld = QTElem({d: 1})
    for ordering, s in (("LdRight", qt_mul(sp, ld)),
                        ("LdLeft", qt_mul(ld, sp))):
        if set(s.terms) != set(p.terms):
            continue
        h_num = p.terms[0]
        h_den = s.terms[0]
        if all(p.terms[i] * h_den == s.terms[i] * h_num for i in p.terms):
            h = RationalFunction(h_num, h_den)
            m_only = all(poly.degree_in("t") == 0
                         and poly.min_degree_in("t") == 0
                         for poly in (h.num, h.den))
            return SigmaFactor(ordering, h, m_only)
    return None
