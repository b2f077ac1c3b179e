"""End-to-end acceptance run.

Each test exercises one advertised guarantee over its full stated range,
requires every report to pass, enforces the time budget, and prints a
single pass/fail line (visible under pytest -s).
"""

import time

from knotpoly import verify
from knotpoly.report import all_passed


def run_gate(label: str, budget_s: float, check, *args, **kwargs):
    start = time.perf_counter()
    reports = check(*args, **kwargs)
    elapsed = time.perf_counter() - start
    ok = all_passed(reports) and elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'}: {label} "
          f"({len(reports)} reports, {elapsed:.2f}s / {budget_s:.0f}s budget)")
    failing = [r for r in reports if r.status == "fail"]
    assert not failing, [(r.claim_id, r.subject, r.details) for r in failing[:5]]
    assert elapsed < budget_s, f"{label}: {elapsed:.2f}s over {budget_s}s budget"


def test_closed_forms_match_traced():
    run_gate("closed forms vs trace engine on -6..6", 5.0,
             verify.check_closed_forms, verify.CLOSED_RANGE)


def test_resultant_structure():
    run_gate("resultant degrees, monicity, and closed identity", 60.0,
             verify.check_resultants, verify.RESULTANT_RANGE)


def test_x0_radicality_data():
    run_gate("x = 0 slice identities, square-freeness, cosine roots", 10.0,
             verify.check_x0_slices, verify.X0_RANGE)


def test_witness_lemmas():
    run_gate("representation witnesses on -4..4", 10.0,
             verify.check_witnesses, verify.WITNESS_RANGE)


def test_two_bridge_suite():
    run_gate("two-bridge structure to p = 45, leading terms to p = 45", 120.0,
             verify.check_two_bridge, verify.TWOBRIDGE_P_MAX)


def test_irreducibility_crosscheck():
    run_gate("irreducibility certificates vs factorization, odd p to 45", 30.0,
             verify.check_irreducibility, verify.TWOBRIDGE_P_MAX)


def test_quantum_torus():
    run_gate("quantum torus laws and the unknot annihilator", 5.0,
             verify.check_quantum_torus, verify.DEFAULT_SEED)


def test_trace_oracle():
    run_gate("trace polynomials proved at a Kronecker point", 20.0,
             verify.check_trace_oracle, verify.DEFAULT_SEED)
