"""Workloads of the knotpoly benchmark and the checks on their outputs.

A workload is a list of queries, each one `knotpoly ... --json` call made
in a fresh process.  Every query carries what its JSON document must say:
which reports are known to fail, and for some commands an independent
check of the payload.  Nothing here trusts the exit code.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("suite-all", "pretzel-wide", "cli-cold")

# verify --suite pretzel over -30..40: the x0-cosine-roots float64 residual
# passes the default tol 1e-9 up to n = 20 and grows past it from n = 21
# (3.4e-9) to n = 40 (2.2e-2).  Kept visible, recorded as expected.
PRETZEL_WIDE = (-30, 40)
PRETZEL_WIDE_KNOWN = frozenset(("x0-cosine-roots", f"n={n}")
                               for n in range(21, 41))

# cli-cold mix: ten queries of each kind, one from each of ten strata, so
# that the seed changes the queries but hardly the cost of a pass.
STRATA = 10
TWOBRIDGE_P = (47, 79)          # odd p beyond the suite's cap of 45
TWOBRIDGE_M_SHARE = (0.03, 0.45)
# m/p stratum for the i-th p stratum; a fixed shuffle, so that every pass
# pairs small and large p with small and large m alike.
TWOBRIDGE_PAIRING = (3, 8, 1, 6, 0, 9, 4, 2, 7, 5)
PRETZEL_N = (-20, 20)
TRACE_SYLLABLES = (10, 30)
QTORUS_A = (50, 200)


@dataclass(frozen=True)
class Query:
    """One CLI call: its arguments (without --json) and what it checks."""

    args: tuple
    known_failures: frozenset = frozenset()

    @property
    def kind(self) -> str:
        return "suite" if self.args[0] == "verify" else self.args[0]

    def argv(self) -> list:
        return list(self.args) + ["--json"]


def _stratum(rng: random.Random, lo: int, hi: int, i: int) -> int:
    """An integer from the i-th of STRATA equal slices of [lo, hi]."""
    width = (hi - lo + 1) / STRATA
    return rng.randint(lo + round(i * width), lo + round((i + 1) * width) - 1)


def _odd_stratum(rng, lo, hi, i):
    return 2 * _stratum(rng, (lo - 1) // 2, (hi - 1) // 2, i) + 1


def _twobridge_query(rng: random.Random, i: int) -> Query:
    p = _odd_stratum(rng, *TWOBRIDGE_P, i)
    lo_share, hi_share = TWOBRIDGE_M_SHARE
    k = TWOBRIDGE_PAIRING[i]
    share = lo_share + (hi_share - lo_share) * (k + rng.random()) / STRATA
    centre = share * p
    candidates = sorted((m for m in range(1, p, 2) if gcd(m, p) == 1),
                        key=lambda m: (abs(m - centre), m))
    return Query(("twobridge", "--p", str(p), "--m", str(candidates[0])))


def pretzel_query(n: int) -> Query:
    # For n = 1 mod 3, n >= 4, the x = 0 slice polynomials share a square
    # factor, so the distinctness (Seidenberg) report fails honestly.
    known = {("x0-seidenberg", f"n={n}")} if n >= 4 and n % 3 == 1 else set()
    return Query(("pretzel", "--n", str(n)), frozenset(known))


def _trace_query(rng: random.Random, i: int) -> Query:
    syllables = _stratum(rng, *TRACE_SYLLABLES, i)
    first = rng.randrange(2)
    parts = []
    for j in range(syllables):
        name = "ab"[(first + j) % 2]
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return Query(("trace", "--word", " ".join(parts)))


def _qtorus_query(rng: random.Random, i: int) -> Query:
    a = _stratum(rng, *QTORUS_A, i)
    return Query(("qtorus", "demo-unknot", "--n-range", str(-a), str(a)))


def cli_cold_queries(seed: int) -> list:
    """About forty seeded single queries, shuffled; same seed, same list."""
    rng = random.Random(seed)
    queries = []
    for i in range(STRATA):
        queries.append(_twobridge_query(rng, i))
        queries.append(pretzel_query(_stratum(rng, *PRETZEL_N, i)))
        queries.append(_trace_query(rng, i))
        queries.append(_qtorus_query(rng, i))
    rng.shuffle(queries)
    return queries


def workload_queries(name: str, seed: int) -> list:
    """The queries of one pass of a workload."""
    if name == "suite-all":
        # Default ranges; the seed draws the random oracles.
        return [Query(("verify", "--suite", "all", "--seed", str(seed)))]
    if name == "pretzel-wide":
        lo, hi = PRETZEL_WIDE
        return [Query(("verify", "--suite", "pretzel", "--n-range",
                       str(lo), str(hi)), PRETZEL_WIDE_KNOWN)]
    if name == "cli-cold":
        return cli_cold_queries(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- output checks ----------------------------------------------------------

PASSING = ("pass", "numeric-pass")


def report_keys(doc: dict) -> list:
    """Sorted (claim_id, subject, status) triples of a CLI document."""
    return sorted((r["claim_id"], r["subject"], r["status"])
                  for r in doc["reports"])


def check_document(query: Query, doc: dict) -> list:
    """Problems with one parsed CLI document; empty when it is right."""
    problems = []
    keys = report_keys(doc)
    failing = {(c, s) for c, s, status in keys if status not in PASSING}
    if failing != query.known_failures:
        problems.append(f"failing reports {sorted(failing)} != expected "
                        f"{sorted(query.known_failures)}")
    kind = query.kind
    if kind != "trace" and not keys:
        problems.append("no reports")
    if kind == "suite":
        if doc.get("subject") != f"suite:{query.args[2]}":
            problems.append(f"subject {doc.get('subject')!r}")
    elif kind == "twobridge":
        p, m = int(query.args[2]), int(query.args[4])
        if doc.get("subject") != f"b({p},{m})":
            problems.append(f"subject {doc.get('subject')!r}")
        if doc.get("z_degree") != (p - 1) // 2:
            problems.append(f"z_degree {doc.get('z_degree')!r}")
    elif kind == "pretzel":
        n = int(query.args[2])
        if doc.get("subject") != f"pretzel(-2,3,{2 * n + 1})":
            problems.append(f"subject {doc.get('subject')!r}")
    elif kind == "qtorus":
        lo, hi = query.args[3], query.args[4]
        if ("annihilation-window", f"window={lo}..{hi}", "pass") not in keys:
            problems.append("annihilation window report missing or failing")
    elif kind == "trace":
        word = query.args[2]
        if doc.get("subject") != word or doc.get("word") != word:
            problems.append(f"word {doc.get('word')!r} != {word!r}")
        problems.extend(check_trace(word, doc.get("trace", "")))
    return problems


# -- independent exact check of trace polynomials ---------------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")


def eval_poly_text(text: str, point: dict) -> int:
    """Value of a canonical polynomial text such as `x^2*y - 3*z + 1` at an
    integer point."""
    total = 0
    for sign, body in _TERM.findall(text.replace(" ", "")):
        value = 1
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name.isdigit():
                value *= int(name)
            else:
                value *= point[name] ** (int(exp) if exp else 1)
        total += -value if sign == "-" else value
    return total


def _mat_mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _random_sl2z(rng: random.Random):
    """A product of elementary matrices: an integer matrix of det 1."""
    m = (1, 0, 0, 1)
    for j in range(4):
        k = rng.choice((-2, -1, 1, 2))
        m = _mat_mul(m, (1, k, 0, 1) if j % 2 else (1, 0, k, 1))
    return m


def word_trace(word: str, ma, mb) -> int:
    """Exact trace of a word such as `a^2 b^-1` at integer SL2 matrices."""
    inverses = {"a": (ma[3], -ma[1], -ma[2], ma[0]),
                "b": (mb[3], -mb[1], -mb[2], mb[0])}
    mats = {"a": ma, "b": mb}
    out = (1, 0, 0, 1)
    for token in word.split():
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        base = mats[name] if k > 0 else inverses[name]
        for _ in range(abs(k)):
            out = _mat_mul(out, base)
    return out[0] + out[3]


def check_trace(word: str, trace_text: str, trials: int = 3) -> list:
    """tr W(A, B) = P(tr A, tr B, tr AB) at random SL2(Z) matrices, where
    A is the generator that appears first in the word (the CLI numbers the
    generators in order of appearance)."""
    rng = random.Random(word)
    first_is_a = word.startswith("a")
    for _ in range(trials):
        ma, mb = _random_sl2z(rng), _random_sl2z(rng)
        g, h = (ma, mb) if first_is_a else (mb, ma)
        gh = _mat_mul(g, h)
        point = {"x": g[0] + g[3], "y": h[0] + h[3], "z": gh[0] + gh[3]}
        if eval_poly_text(trace_text, point) != word_trace(word, ma, mb):
            return [f"trace polynomial disagrees with the matrix trace "
                    f"at A={ma}, B={mb}"]
    return []
