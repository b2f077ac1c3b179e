"""Character variety of the (-2, 3, 2n+1) pretzel knots.

The knot group is <a, w | w^n E = F w^n> with E = a w a^-1 w^-1 a^-1 and
F = a^-1 w^-1 a w a w^-1.  In the trace coordinates x = tr a, y = tr w,
z = tr aw the character variety is cut out by two polynomials P and Q_n.
This module builds both from closed Chebyshev forms and, as a cross check,
through the trace calculus, for every integer n: P as tr(E) - tr(F), and
Q_n from two word folds, at n = 0 and 1, stepped to every other n by the
Cayley-Hamilton recurrence Q_(n+1) = y Q_n - Q_(n-1).  It also
verifies the z-resultant structure, the radicality certificates on the
x = 0 slice, and the representation-witness matrices, as row-major
4-tuples (see sl2trace), for each branch of y, all in exact arithmetic
except the two float checks flagged as numeric: Seidenberg root separation
and the cosine-root residuals, both against RESIDUAL_TOL.  A witness r
satisfies the relation when
r(w)^n r(E) - r(F) r(w)^n, which is r(w^n E) - r(F w^n) since r is a
homomorphism, is zero.

Every polynomial here has integer coefficients.  The paper's y = -2
witness has the denominators 2 and 4(x + z); it is conjugated by
C = [[2(x+z), x], [0, 2]] to matrices over Z[x, z] (see
witness_y_minus_two).  The membership solver eliminates over Z as well,
fraction-free, and returns integer cofactors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import sub

from .exactpoly import (MultiPoly, is_squarefree_in, poly_gcd, resultant_in,
                        squarefree_part_in)
from .report import (InternalInconsistencyError, VerificationReport,
                     status_of)
from .sl2trace import (FreeWord, GENERATOR_A, GENERATOR_B, VARS_XYZ,
                       VARS_XZ, chebyshev_s, chebyshev_t, mat2_mul,
                       mat2_pow, reduce_word, trace_poly, word_matrix)

VARS_XY = ("x", "y")
VARS_YZ = ("y", "z")

RESIDUAL_TOL = 1e-9

# degree bound (deg_y, deg_z) of the membership solver's cofactors
MEMBERSHIP_DEGREES = (4, 4)


@dataclass(frozen=True)
class PretzelKnot:
    """The (-2, 3, 2n+1) pretzel knot; every integer n is admitted."""

    n: int

    def label(self) -> str:
        return f"pretzel(-2,3,{2 * self.n + 1})"


# -- defining polynomials --------------------------------------------------


@lru_cache(maxsize=None)
def defining_p() -> MultiPoly:
    """P = x - xy + (x^2 + y^2 - 3)z - xyz^2 + z^3."""
    x = MultiPoly.variable("x", VARS_XYZ)
    y = MultiPoly.variable("y", VARS_XYZ)
    z = MultiPoly.variable("z", VARS_XYZ)
    return x - x * y + (x ** 2 + y ** 2 - 3) * z - x * y * z ** 2 + z ** 3


@lru_cache(maxsize=None)
def defining_q(n: int) -> MultiPoly:
    """Q_n in terms of Chebyshev coefficients; valid for every integer n."""
    x = MultiPoly.variable("x", VARS_XYZ)
    z = MultiPoly.variable("z", VARS_XYZ)

    def s(k: int) -> MultiPoly:
        return chebyshev_s(k).extend_to(VARS_XYZ)

    return (s(n - 2) + s(n - 3) - s(n - 4) - s(n - 5)
            - s(n - 2) * x ** 2
            + (s(n - 1) + s(n - 3) + s(n - 4)) * x * z
            - (s(n - 2) + s(n - 3)) * z ** 2)


def word_e() -> FreeWord:
    return FreeWord(((GENERATOR_A, 1), (GENERATOR_B, 1), (GENERATOR_A, -1),
                     (GENERATOR_B, -1), (GENERATOR_A, -1)))


def word_f() -> FreeWord:
    return FreeWord(((GENERATOR_A, -1), (GENERATOR_B, -1), (GENERATOR_A, 1),
                     (GENERATOR_B, 1), (GENERATOR_A, 1), (GENERATOR_B, -1)))


@lru_cache(maxsize=None)
def traced_p() -> MultiPoly:
    """P rebuilt from first principles as tr(E) - tr(F)."""
    return trace_poly(word_e()) - trace_poly(word_f())


def traced_qs(lo: int, hi: int) -> dict:
    """{n: Q_n} for every n in lo..hi, Q_n rebuilt as tr(w^n E a) -
    tr(w^n a F), which is tr(F w^n a) by cyclicity.

    Q_0 and Q_1 are the folds of the reduced words.  By Cayley-Hamilton
    w^2 = y w - 1 in SL2, so tr(w^(k+1) X) = y tr(w^k X) - tr(w^(k-1) X)
    for every X, and Q_(k+1) = y Q_k - Q_(k-1).  One loop steps up from
    Q_0 and Q_1 to hi and one down to lo, with one multiplication by y
    per step, so each Q_n between them is stepped once.
    """
    a = ((GENERATOR_A, 1),)

    def fold(k):
        w_k = ((GENERATOR_B, k),)
        return (trace_poly(reduce_word(w_k + word_e().letters + a))
                - trace_poly(reduce_word(w_k + a + word_f().letters)))

    y = MultiPoly.variable("y", VARS_XYZ)
    q_0, q_1 = fold(0), fold(1)
    out = {}
    for prev, cur, k, end, step in ((q_1, q_0, 0, min(lo, 0), -1),
                                    (q_0, q_1, 1, max(hi, 1), 1)):
        while True:
            if lo <= k <= hi:
                out[k] = cur
            if k == end:
                break
            prev, cur = cur, y * cur - prev
            k += step
    return out


def closed_form_report(n: int, q_traced: MultiPoly) -> VerificationReport:
    """Closed forms of P and Q_n against the trace-engine rebuilds;
    q_traced is Q_n of traced_qs."""
    p_ok = defining_p() == traced_p()
    q_ok = defining_q(n) == q_traced
    details = {"p_ok": p_ok, "q_ok": q_ok}
    if not q_ok:
        details["q_closed"] = defining_q(n).to_text()
        details["q_traced"] = q_traced.to_text()
    return VerificationReport("closed-vs-traced", f"n={n}",
                              status_of(p_ok and q_ok), details)


# -- resultant structure ---------------------------------------------------


def pq_resultant(n: int) -> MultiPoly:
    """Res_z(P, Q_n) as a polynomial in (x, y)."""
    return resultant_in(defining_p(), defining_q(n), "z").restrict(VARS_XY)


def resultant_closed_rhs(n: int) -> MultiPoly:
    """Closed bracket E_n with (y^2 - 4)(y + 2) Res = (y + 2 - x^2) E_n.

    E_n = e_0 + x^2 e_2 + x^4 e_4, each e_i a sum of Chebyshev T_k(y)
    taken in y alone and moved to (x, y) once.
    """
    t = chebyshev_t
    e_0 = (t(3 * n) + 3 * t(3 * n - 1) + 3 * t(3 * n - 2) + t(3 * n - 3)
           + t(n + 5) + 3 * t(n + 4) + 3 * t(n + 3) + t(n + 2)
           - 2 * t(n - 1) - 6 * t(n - 2) - 6 * t(n - 3) - 2 * t(n - 4))
    e_2 = (-t(3 * n - 1) - t(3 * n - 2) - 2 * t(n + 3) - 3 * t(n + 2)
           - t(n + 1) - 5 * t(n) - 2 * t(n - 1) + 8 * t(n - 2)
           + 6 * t(n - 3) + t(n - 4))
    e_4 = t(n + 1) + 2 * t(n) - 2 * t(n - 2) - t(n - 3)
    return (e_0.extend_to(VARS_XY)
            + e_2.extend_to(VARS_XY).mul_var_power("x", 2)
            + e_4.extend_to(VARS_XY).mul_var_power("x", 4))


def resultant_report(n: int, res: MultiPoly) -> VerificationReport:
    """Leading coefficient, degree, and closed-form identity of Res_z(P, Q_n).

    The identity (y^2 - 4)(y + 2) Res = (y + 2 - x^2) E_n is checked at
    every n, and its verdict is the identity_ok detail.  The degree claims
    are stated only for n >= 4 and n <= -5; in between the report records
    the observed degree without judging it.  res is pq_resultant(n).
    """
    lead = res.leading_coeff_in("y")
    monic_ok = lead == 1
    deg = res.degree_in("y")
    if n >= 4:
        expected_deg = 3 * n - 2
    elif n <= -5:
        expected_deg = 1 - 3 * n
    else:
        expected_deg = None
    degree_ok = expected_deg is None or deg == expected_deg
    # both factors applied as shifts, at about half the cost of packed
    # products: (y^2 - 4)(y + 2) = y^3 + 2y^2 - 4y - 8
    e_n = resultant_closed_rhs(n)
    lhs = (res.mul_var_power("y", 3) + 2 * res.mul_var_power("y", 2)
           - 4 * res.mul_var_power("y", 1) - 8 * res)
    rhs = e_n.mul_var_power("y", 1) + 2 * e_n - e_n.mul_var_power("x", 2)
    identity_ok = lhs == rhs
    details = {"deg_y": deg, "expected_deg_y": expected_deg,
               "leading_coeff": lead.to_text(), "monic_ok": monic_ok,
               "identity_ok": identity_ok}
    if not identity_ok:
        details["identity_residual"] = (lhs - rhs).to_text()
    return VerificationReport(
        "resultant-structure", f"n={n}",
        status_of(monic_ok and degree_ok and identity_ok), details)


# -- the x = 0 slice -------------------------------------------------------


def u_poly(n: int) -> MultiPoly:
    """U_n = S_n + S_(n-1); satisfies U_(n+1) = y U_n - U_(n-1)."""
    return chebyshev_s(n) + chebyshev_s(n - 1)


def a_poly(n: int) -> MultiPoly:
    return (chebyshev_s(n - 2) + chebyshev_s(n - 3)
            - chebyshev_s(n - 4) - chebyshev_s(n - 5))


def b_poly(n: int) -> MultiPoly:
    return -(chebyshev_s(n - 2) + chebyshev_s(n - 3))


@dataclass(frozen=True)
class X0SliceData:
    """The x = 0 slice at n, built once: p0 = P and q0 = Q_n at x = 0 in
    (y, z), the coefficients a_n, b_n, U_n in y with q0 = a_n + b_n z^2,
    the product a_n U_n, and the two exact checks.  Every slice report
    reads its slice and verdicts from here."""

    n: int
    p0: MultiPoly
    q0: MultiPoly
    a_n: MultiPoly
    b_n: MultiPoly
    u_n: MultiPoly
    au: MultiPoly
    identity_ok: bool
    squarefree_ok: bool


def x0_slice(n: int) -> X0SliceData:
    """Check b_n^2 z P = (Q_n - a_n)(Q_n - U_n) at x = 0 and the
    square-freeness of a_n U_n, both exactly."""
    a_n, b_n, u_n = a_poly(n), b_poly(n), u_poly(n)
    p0 = defining_p().coeff_in("x", 0).restrict(VARS_YZ)
    q0 = defining_q(n).coeff_in("x", 0).restrict(VARS_YZ)
    z = MultiPoly.variable("z", VARS_YZ)
    a_l = a_n.extend_to(VARS_YZ)
    b_l = b_n.extend_to(VARS_YZ)
    u_l = u_n.extend_to(VARS_YZ)
    if q0 != a_l + b_l * z ** 2:
        raise InternalInconsistencyError(
            "slice coefficients disagree with Q_n at x = 0")
    identity_ok = b_l ** 2 * z * p0 == (q0 - a_l) * (q0 - u_l)
    au = a_n * u_n
    squarefree_ok = (not au.is_zero()) and is_squarefree_in(au, "y")
    return X0SliceData(n, p0, q0, a_n, b_n, u_n, au, identity_ok,
                       squarefree_ok)


def x0_report(data: X0SliceData) -> VerificationReport:
    ok = data.identity_ok and data.squarefree_ok
    return VerificationReport(
        "x0-slice", f"n={data.n}", status_of(ok),
        {"a_n": data.a_n.to_text(), "b_n": data.b_n.to_text(),
         "u_n": data.u_n.to_text(), "identity_ok": data.identity_ok,
         "squarefree_ok": data.squarefree_ok})


def u_root_residuals(n: int) -> list:
    """|U_n| at the cosine points 2 cos(2 pi j / (2n+1)), j = 1..n."""
    u_n = u_poly(n)
    return [abs(u_n.evaluate(
        {"y": complex(2.0 * math.cos(2.0 * math.pi * j / (2 * n + 1)))}))
        for j in range(1, n + 1)]


def a_root_residuals(n: int) -> list:
    """|a_n| at the cosine points 2 cos((2k+1) pi / (2n-5)), k = 0..n-3."""
    a_n = a_poly(n)
    return [abs(a_n.evaluate(
        {"y": complex(2.0 * math.cos((2 * k + 1) * math.pi / (2 * n - 5)))}))
        for k in range(0, n - 2)]


def _slice_root_angles(n: int) -> list:
    fam = [2.0 * math.pi * j / (2 * n + 1) for j in range(1, n + 1)]
    fam += [(2 * k + 1) * math.pi / (2 * n - 5) for k in range(0, n - 2)]
    return fam


def _reflect_y(p: MultiPoly) -> MultiPoly:
    """p(-y): the terms of odd degree in y change sign."""
    i = p.vars.index("y")
    return MultiPoly(p.vars, {e: -c if e[i] % 2 else c
                              for e, c in p.exponent_terms().items()},
                     p.laurent)


def shared_square_factor(n: int):
    """Exact detector for colliding roots of the z-side product.

    The product z * prod(z^2 + 4 cos^2(theta) - 3) over both angle
    families has a repeated factor exactly when U_n and a_n have roots
    with equal squares; the witness is gcd(U_n(y) U_n(-y), a_n(y) a_n(-y)).
    Returns that gcd when it is nonconstant and both families are
    nonempty, else None.
    """
    if n < 3:
        return None
    u_n, a_n = u_poly(n), a_poly(n)
    g = poly_gcd(u_n * _reflect_y(u_n), a_n * _reflect_y(a_n))
    if (g.degree_in("y") or 0) > 0:
        return g
    return None


def seidenberg_report(data: X0SliceData) -> VerificationReport:
    """Two slice-ideal certificates in the sense of Seidenberg's lemma.

    The y-side certificate is exact: a_n U_n = a_n q0 - q0^2 + q0 U_n
    + b_n^2 z p0 puts a_n U_n in the slice ideal, and that equation is the
    slice identity of x0_slice multiplied out, so membership_ok is its
    identity_ok; a_n U_n is square-free.  The z-side polynomial
    z * prod(z^2 + 4 cos^2(theta) - 3) has irrational coefficients, so its
    square-freeness is checked as pairwise root separation in floating
    point; the whole report is flagged numeric.
    """
    n = data.n
    membership_ok = data.identity_ok
    roots = [0j]
    for theta in _slice_root_angles(n):
        w = cmath.sqrt(3.0 - 4.0 * math.cos(theta) ** 2)
        roots.extend((w, -w))
    min_sep = None
    distinct = True
    for r1, r2 in combinations(roots, 2):
        sep = abs(r1 - r2)
        if min_sep is None or sep < min_sep:
            min_sep = sep
        if sep <= RESIDUAL_TOL:
            distinct = False
    ok = membership_ok and data.squarefree_ok and distinct
    details = {"membership_ok": membership_ok,
               "squarefree_y_ok": data.squarefree_ok,
               "root_count": len(roots), "min_separation": min_sep,
               "tolerance": RESIDUAL_TOL}
    if not distinct:
        shared = shared_square_factor(n)
        details["shared_square_factor"] = (shared.to_text() if shared
                                           else None)
    return VerificationReport(
        "x0-seidenberg", f"n={n}", status_of(ok, numeric=True), details)


# -- direct radical check for the n of RADICAL_DIRECT_NS -------------------


RADICAL_DIRECT_NS = (0, 1, 2)


def _integer_solve(rows, rhs):
    """Solve rows * c = rhs over Z by fraction-free Gauss-Jordan elimination.

    Pivots are chosen as rational elimination chooses them, the first
    nonzero entry of each column at or below the current row, and every
    row stays a nonzero multiple of its rational counterpart; so the
    solution is the reduced echelon one, with free unknowns set to zero.
    Returns None when the system is inconsistent, and raises
    InternalInconsistencyError when that solution is not integral.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        row_r = aug[r]
        lead = row_r[c]
        for i in range(m):
            row_i = aug[i]
            if i != r and row_i[c] != 0:
                g = math.gcd(lead, row_i[c])
                a, b = lead // g, row_i[c] // g
                row_i[:] = [a * vi - b * vr for vi, vr in zip(row_i, row_r)]
                content = math.gcd(*row_i)
                if content > 1:
                    row_i[:] = [v // content for v in row_i]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    sol = [0] * ncols
    for rr, cc in pivots:
        value, rest = divmod(aug[rr][ncols], aug[rr][cc])
        if rest:
            raise InternalInconsistencyError(
                "membership solver found the non-integral cofactor "
                f"coefficient {aug[rr][ncols]}/{aug[rr][cc]}")
        sol[cc] = value
    return sol


def membership_certificate(target: MultiPoly, gens):
    """Cofactors u_i with sum u_i g_i = target, found by an ansatz with
    cofactor degrees at most MEMBERSHIP_DEGREES in (y, z).

    The linear system is solved over Z; a cofactor that is not integral
    raises InternalInconsistencyError.  The returned cofactors are
    re-checked exactly; None means no solution within the degree bound
    (not a proof of non-membership).
    """
    vars = target.vars
    by, bz = MEMBERSHIP_DEGREES
    mons = [(i, j) for i in range(by + 1) for j in range(bz + 1)]
    cols = []
    for g in gens:
        for e in mons:
            cols.append(g * MultiPoly(vars, {e: 1}))
    col_terms = [col.exponent_terms() for col in cols]
    target_terms = target.exponent_terms()
    support = set(target_terms)
    for terms in col_terms:
        support.update(terms)
    index = {e: i for i, e in enumerate(sorted(support))}
    rows = [[0] * len(cols) for _ in index]
    for ci, terms in enumerate(col_terms):
        for e, c in terms.items():
            rows[index[e]][ci] = c
    rhs = [0] * len(index)
    for e, c in target_terms.items():
        rhs[index[e]] = c
    sol = _integer_solve(rows, rhs)
    if sol is None:
        return None
    per = len(mons)
    out = [MultiPoly(vars, dict(zip(mons, sol[gi * per:(gi + 1) * per])))
           for gi in range(len(gens))]
    check = MultiPoly.zero(vars)
    for cof, g in zip(out, gens):
        check = check + cof * g
    if check != target:
        raise InternalInconsistencyError("membership solver self-check")
    return out


def radical_slice_report(data: X0SliceData) -> VerificationReport:
    """Exact radical certificates for the x = 0 slice at n in {0, 1, 2}.

    Exhibits square-free members of the two elimination ideals: a_n U_n on
    the y side, and the square-free part of Res_y(P, Q_n) on the z side
    with explicit cofactors witnessing membership.
    """
    n = data.n
    if n not in RADICAL_DIRECT_NS:
        raise ValueError("direct slice check is reserved for n in "
                         f"{RADICAL_DIRECT_NS}")
    y_ok = data.identity_ok and data.squarefree_ok
    details = {"y_generator": data.au.to_text(),
               "identity_ok": data.identity_ok,
               "squarefree_y_ok": data.squarefree_ok}
    z_ok = False
    res = resultant_in(data.p0, data.q0, "y").restrict(("z",))
    if not res.is_zero():
        sf = squarefree_part_in(res, "z")
        cert = membership_certificate(sf.extend_to(VARS_YZ),
                                      (data.p0, data.q0))
        if cert is not None and is_squarefree_in(sf, "z"):
            z_ok = True
            details["z_generator"] = sf.to_text()
            details["z_cofactors"] = [cof.to_text() for cof in cert]
    return VerificationReport("x0-radical-direct", f"n={n}",
                              status_of(y_ok and z_ok), details)


# -- representation witnesses ---------------------------------------------


def _relation_parts(ra: tuple, rw: tuple):
    """(r(w), r(E), r(F)) as row-major 4-tuples for r(a) = ra, r(w) = rw;
    none depends on n."""
    mats = (ra, rw)
    return (rw, word_matrix(word_e().letters, mats),
            word_matrix(word_f().letters, mats))


def _relation_difference(parts, n: int):
    """r(w)^n and r(w)^n r(E) - r(F) r(w)^n from _relation_parts; r
    satisfies the relation exactly when the difference is zero."""
    rw, e, f = parts
    wn = mat2_pow(rw, n)
    return wn, tuple(map(sub, mat2_mul(wn, e), mat2_mul(f, wn)))


def _relation_holds(parts, n: int) -> bool:
    return _relation_difference(parts, n)[1] == (0, 0, 0, 0)


def _unimodular(*mats) -> bool:
    """Whether every given 4-tuple has determinant one: the det_ok guard,
    since mat2_pow inverts by the adjugate, the inverse only then."""
    return all(a * d - b * c == 1 for a, b, c, d in mats)


VARS_SUV = ("s", "u", "v")
LAURENT_SUV = (True, False, False)


@lru_cache(maxsize=None)
def _generic_y_parts():
    """The n-free parts of witness_generic_y: s, the relation parts, the
    det_ok and product_matrices_ok verdicts, P', uv - 1, and q_free and
    H_12 with Q'_n = q_free + s^(2n) H_12."""
    s, u, v = (MultiPoly.variable(name, VARS_SUV, LAURENT_SUV)
               for name in VARS_SUV)
    one = MultiPoly.const(VARS_SUV, 1, LAURENT_SUV)
    zero = MultiPoly.zero(VARS_SUV, LAURENT_SUV)
    ra = (u, one, u * v - 1, v)
    rw = (s, zero, zero, s ** -1)
    det_ok = _unimodular(ra, rw)

    s2, s4 = s ** 2, s ** 4
    h11 = (s2 * u - s4 * u + v - s2 * u ** 2 * v + s4 * u ** 2 * v
           - u * v ** 2 + s2 * u * v ** 2)
    h12 = one - s2 * u ** 2 + s4 * u ** 2 - u * v + s2 * u * v
    h21 = -s4 - s2 * u * v + s4 * u * v - v ** 2 + s2 * v ** 2
    h22 = (-s4 * u + v - s2 * v - s2 * u ** 2 * v + s4 * u ** 2 * v
           - u * v ** 2 + s2 * u * v ** 2)
    parts = _relation_parts(ra, rw)
    _, e, f = parts
    si1, si2, si3 = s ** -1, s ** -2, s ** -3
    ef_ok = (e == (si2 * h11, -(si2 * h12),
                   si2 * (u * v - 1) * h21, -(si2 * h22))
             and f == (-(si3 * h22), -(si1 * h21),
                       si3 * (u * v - 1) * h12, si1 * h11))

    pp = (s ** 3 * u - s ** 4 * u - s ** 5 * u + v + s * v - s ** 2 * v
          - s ** 2 * u ** 2 * v - s ** 3 * u ** 2 * v + s ** 4 * u ** 2 * v
          + s ** 5 * u ** 2 * v - u * v ** 2 - s * u * v ** 2
          + s ** 2 * u * v ** 2 + s ** 3 * u * v ** 2)
    q_free = (s ** 5 + s ** 3 * u * v - s ** 5 * u * v + s * v ** 2
              - s ** 3 * v ** 2)
    fixed = {"det_ok": det_ok, "product_matrices_ok": ef_ok}
    return s, parts, fixed, pp, u * v - 1, q_free, h12


def witness_generic_y(n: int) -> VerificationReport:
    """Branch y^2 != 4: r(a) = [[u, 1], [uv-1, v]], r(w) = diag(s, 1/s).

    Checks r(E) and r(F), as row-major 4-tuples, against the H-entry
    closed forms and r(w)^n r(E) - r(F) r(w)^n against the (P', Q'_n)
    matrix, exactly.
    """
    s, parts, fixed, pp, uv1, q_free, h12 = _generic_y_parts()
    qp = q_free + s ** (2 * n) * h12
    difference_ok = _relation_difference(parts, n)[1] == (
        s ** (n - 3) * pp, -(s ** (-2 - n) * qp),
        -(s ** (-3 - n) * uv1 * qp), -(s ** (-2 - n) * pp))
    checks = {**fixed, "difference_ok": difference_ok}
    return VerificationReport("witness-generic-y", f"n={n}",
                              status_of(all(checks.values())), checks)


@lru_cache(maxsize=None)
def _y_two_parts():
    """The n-free parts of witness_y_two: z, the relation parts of the
    parabolic pair and of the two scalar pairs, and the det_ok and
    product_matrices_ok verdicts."""
    z = MultiPoly.variable("z", ("z",), (True,))
    one = z ** 0
    zero = z * 0
    ra = (z, zero, -(z ** -1), z ** -1)
    rw = (one, one, zero, one)
    det_ok = _unimodular(ra, rw)
    parts = _relation_parts(ra, rw)
    _, e, f = parts
    ef_ok = (e == (z, z ** 3 - 2 * z, zero, z ** -1)
             and f == (z, z ** -1 - z, zero, z ** -1))
    ident = (1, 0, 0, 1)
    scalars = (_relation_parts(ident, ident),
               _relation_parts((-1, 0, 0, -1), ident))
    return z, parts, scalars, {"det_ok": det_ok, "product_matrices_ok": ef_ok}


def witness_y_two(n: int) -> VerificationReport:
    """Branch y = 2: parabolic r(w) plus the two scalar subcases x = z = 2
    and x = z = -2; each checks r(w)^n r(E) - r(F) r(w)^n on row-major
    4-tuples."""
    z, parts, scalars, fixed = _y_two_parts()
    one = z ** 0
    zero = z * 0
    wn, diff = _relation_difference(parts, n)
    upper = z ** -1 * ((n - 1) * one - (n + 1) * z ** 2 + z ** 4)
    checks = {**fixed,
              "unipotent_power_ok": wn == (one, n * one, zero, one),
              "difference_ok": diff == (zero, upper, zero, zero),
              "scalar_subcases_ok": all(_relation_holds(pair, n)
                                        for pair in scalars)}
    return VerificationReport("witness-y-two", f"n={n}",
                              status_of(all(checks.values())), checks)


def y_minus_two_generators():
    """r(a) = [[0, 1], [-1, x]] and r(w) = [[-1, -(x+z)], [0, -1]] as
    row-major 4-tuples: the paper's y = -2 pair conjugated by
    C = [[2(x+z), x], [0, 2]]."""
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    one = x ** 0
    zero = x * 0
    return (zero, one, -one, x), (-one, -(x + z), zero, -one)


@lru_cache(maxsize=None)
def _y_minus_two_parts():
    """The n-free parts of witness_y_minus_two: x, z, the relation parts
    of the conjugated pair and of the x = z = 0 diagonal pair, and the
    det_ok and product_matrices_ok verdicts."""
    x = MultiPoly.variable("x", VARS_XZ)
    z = MultiPoly.variable("z", VARS_XZ)
    one = x ** 0
    ra, rw = y_minus_two_generators()
    det_ok = _unimodular(ra, rw)
    lower_ef = x * z + z ** 2 + 1
    expect_e = (-z, -one, lower_ef, x + z)
    expect_f = (
        x ** 2 * z + x * z ** 2 + x + z,
        -(2 * x ** 3 * z + 3 * x ** 2 * z ** 2 + x * z ** 3 + 3 * x ** 2
          + 4 * x * z + z ** 2 + 1),
        lower_ef,
        -(2 * x ** 2 * z + 3 * x * z ** 2 + z ** 3 + 3 * x + 2 * z))
    parts = _relation_parts(ra, rw)
    ef_ok = parts[1] == expect_e and parts[2] == expect_f
    # x = z = 0 subcase: r(a) = diag(i, -i), r(w) = -Id, with r(a)
    # conjugated over Q to the int matrix [[0, 1], [-1, 0]]; conjugation
    # keeps the relation
    diagonal = _relation_parts((0, 1, -1, 0), (-1, 0, 0, -1))
    return x, z, parts, diagonal, {"det_ok": det_ok,
                                   "product_matrices_ok": ef_ok}


def witness_y_minus_two(n: int) -> VerificationReport:
    """Branch y = -2, conjugated by C = [[2(x+z), x], [0, 2]] (M -> C M C^-1)
    to clear the denominators of the paper's r(a) = [[x/2, (4 - x^2)/(4(x+z))],
    [-(x+z), x/2]]; r(w) = [[-1, -1], [0, -1]] keeps integer entries.
    Conjugation keeps products and equality, so each check over these
    row-major 4-tuples over Z[x, z] means the same as in the fraction
    field.  The relation is checked as r(w)^n r(E) - r(F) r(w)^n, here and
    in the x = z = 0 diagonal subcase."""
    x, z, parts, diagonal, fixed = _y_minus_two_parts()
    one = x ** 0
    zero = x * 0
    wn, (d11, d12, d21, d22) = _relation_difference(parts, n)
    sign = 1 if n % 2 == 0 else -1
    p3 = 3 * x + z + x ** 2 * z + 2 * x * z ** 2 + z ** 3
    qpp = x + 2 * n * x + 2 * z + x ** 2 * z + x * z ** 2
    # twice the upper right entry has the closed form over Z, so no
    # division by 2 is needed
    difference_ok = (
        d11 == sign * (n * p3 - qpp)
        and 2 * d12 == sign * ((3 * x + z) * qpp - (2 * n - 1) * x * p3)
        and d21 == 0
        and d22 == sign * (qpp - (n - 1) * p3))
    checks = {**fixed,
              "power_sign_ok": wn == (sign * one, sign * n * (x + z),
                                      zero, sign * one),
              "difference_ok": difference_ok,
              "diagonal_subcase_ok": _relation_holds(diagonal, n)}
    return VerificationReport("witness-y-minus-two", f"n={n}",
                              status_of(all(checks.values())), checks)


def witness_reports(n: int) -> list:
    return [witness_generic_y(n), witness_y_two(n), witness_y_minus_two(n)]
