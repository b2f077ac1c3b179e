"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The traced-alias tests run the real suite-all and pretzel-wide commands
once under the tracer (about half a minute together).
"""

import json
import sys
import time

import pytest

import run
from workloads import (Query, check_document, check_trace, cli_cold_queries,
                       pretzel_query, workload_queries)


def test_query_generator_is_deterministic_per_seed():
    assert cli_cold_queries(7) == cli_cold_queries(7)
    assert cli_cold_queries(7) != cli_cold_queries(8)
    assert workload_queries("suite-all", 7) != workload_queries("suite-all", 8)
    kinds = [q.kind for q in cli_cold_queries(7)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "twobridge": 10, "pretzel": 10, "trace": 10, "qtorus": 10}


def test_known_pretzel_failures_follow_n_mod_3():
    assert pretzel_query(7).known_failures == {("x0-seidenberg", "n=7")}
    assert not pretzel_query(1).known_failures
    assert not pretzel_query(-5).known_failures
    assert not pretzel_query(8).known_failures


def test_trace_check_is_not_vacuous():
    # tr(a b^-1) = x*y - z; for a word starting with b, x is tr b.
    assert check_trace("a b^-1", "x*y - z") == []
    assert check_trace("b a^-1", "x*y - z") == []
    assert check_trace("a b^-1", "x*y + z") != []
    assert check_trace("a^2", "x^2 - 2") == []


def test_unexpected_or_missing_failures_are_problems():
    query = Query(("pretzel", "--n", "7"),
                  frozenset({("x0-seidenberg", "n=7")}))
    doc = {"subject": "pretzel(-2,3,15)", "reports": [
        {"claim_id": "x0-seidenberg", "subject": "n=7", "status": "fail"},
        {"claim_id": "x0-slice", "subject": "n=7", "status": "pass"}]}
    assert check_document(query, doc) == []
    doc["reports"][0]["status"] = "pass"
    assert check_document(query, doc) != []


def _child(stdout: bytes, exit_code: int = 0) -> run.Child:
    return run.Child(0.1, 0.1, 10.0, exit_code, stdout, b"")


def test_child_without_json_counts_in_fail_share():
    query = Query(("pretzel", "--n", "2"))
    doc = {"subject": "pretzel(-2,3,5)", "reports": [
        {"claim_id": "x0-slice", "subject": "n=2", "status": "pass"},
        {"claim_id": "x0-seidenberg", "subject": "n=2", "status": "pass"}]}
    bench = run.Run([query], time.monotonic() + 60)
    bench.score(query, _child(json.dumps(doc).encode()))
    assert (bench.failed, bench.fail_share) == (0, 0.0)
    # A child that dies with a traceback: all its reports count as failed.
    dead = run.run_child([sys.executable, "-c", "raise SystemExit(1)"], 60)
    assert dead.exit_code == 1 and dead.stdout == b""
    bench.score(query, dead)
    assert bench.failed == 1
    assert bench.fail_share == pytest.approx(2 / 4)
    # So does one killed on timeout.
    hung = run.run_child([sys.executable, "-c", "import time; "
                          "time.sleep(30)"], 0.5)
    assert hung.exit_code < 0
    bench.score(query, hung)
    assert (bench.attempted, bench.failed) == (3, 2)


def _traced_counters(workload: str) -> dict:
    counters = {}
    bench = run.Run(workload_queries(workload, 1), time.monotonic() + 170)
    bench.run_pass(traced=True, counters=counters)
    assert bench.failed == 0, bench.problems
    return counters


def test_wrapped_aliases_are_hit_on_suite_all():
    # twobridge reaches the fold through `from .sl2trace import
    # trace_poly_with`; only a rebound alias sees those calls.
    counters = _traced_counters("suite-all")
    assert counters["sl2trace.trace_poly_with.calls"] > 0
    assert counters["twobridge.character_polynomial.calls"] > 0
    assert counters["verify.check_two_bridge.reports"] > 0
    assert counters["cache.twobridge._meridian_trace.hits"] > 0


def test_wrapped_aliases_are_hit_on_pretzel_wide():
    # pretzel calls resultant_in through `from .exactpoly import ...`.
    counters = _traced_counters("pretzel-wide")
    assert counters["exactpoly.resultant_in.calls"] > 0
    assert counters["exactpoly.exact_div.max_terms"] > 0
    assert counters["verify.check_x0_slices.failed"] == 20
