"""Golden digests of the CLI's --json output over a fixed command corpus.

Every command of CORPUS runs in process through ``cli.main``.  Its exit
code, the SHA-256 of its stdout, and a short digest of each
``(claim_id, subject)`` report must equal the record in ``digests.json``,
so a change that moves any report names the reports it moved.

The corpus takes about 7 s on two cores, half of it in the two-bridge
commands at p = 71 and p = 151, so it is not part of the tier-1 tests:

    PYTHONPATH=src python -m pytest golden/test_golden.py

A change that alters --json on purpose rewrites the record with

    PYTHONPATH=src python golden/test_golden.py --rewrite

and the diff of ``digests.json`` shows which reports moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from knotpoly import cli

DIGESTS = Path(__file__).with_name("digests.json")

# The 40 single queries of the benchmark's cli-cold workload at seed 1.
CLI_COLD_SEED_1 = [
    ["pretzel", "--n", "-4"],
    ["trace", "--word", "a b a b^3 a b^-2 a^-3 b a^-3 b a"],
    ["pretzel", "--n", "8"],
    ["twobridge", "--p", "73", "--m", "9"],
    ["trace", "--word", "a^2 b^2 a^2 b^2 a^-1 b a^2 b^-3 a^-2 b^3 a^-2 b^2 "
                        "a^2 b^-2 a^-3 b^2 a^-1 b^-3 a^3 b^-3 a^-3 b^-3 a "
                        "b^-3"],
    ["trace", "--word", "b^-1 a^2 b a^2 b a^2 b^-3 a b^-2 a^3 b a b^3 a^-2 "
                        "b^-1 a^2"],
    ["trace", "--word", "a^-2 b^-3 a b^-2 a^-3 b^3 a^-2 b a^3 b^2 a^3 b a^2 "
                        "b^-2 a^3 b^3 a^2 b a^-2 b^2 a^3 b^-3 a b^3 a^2 b^-1 "
                        "a^3 b^3"],
    ["qtorus", "demo-unknot", "--n-range", "-59", "59"],
    ["qtorus", "demo-unknot", "--n-range", "-65", "65"],
    ["qtorus", "demo-unknot", "--n-range", "-81", "81"],
    ["qtorus", "demo-unknot", "--n-range", "-132", "132"],
    ["qtorus", "demo-unknot", "--n-range", "-109", "109"],
    ["twobridge", "--p", "61", "--m", "3"],
    ["pretzel", "--n", "-20"],
    ["twobridge", "--p", "63", "--m", "25"],
    ["twobridge", "--p", "53", "--m", "5"],
    ["trace", "--word", "b a^-1 b^3 a^2 b^2 a^3 b^-3 a b^3 a^2 b^-2 a^2 b^2 "
                        "a^-2 b a^-3 b a^-1 b^2 a^2 b^-2 a^2"],
    ["pretzel", "--n", "-5"],
    ["pretzel", "--n", "2"],
    ["twobridge", "--p", "51", "--m", "19"],
    ["pretzel", "--n", "14"],
    ["pretzel", "--n", "9"],
    ["qtorus", "demo-unknot", "--n-range", "-177", "177"],
    ["pretzel", "--n", "-14"],
    ["trace", "--word", "b^-1 a^-3 b^-2 a^-2 b^-1 a^2 b^-2 a^3 b^-1 a^3 b^3 "
                        "a^-1 b a^3 b^-1 a b a^-3 b^-3 a^-1 b a^-1 b a^-2 "
                        "b^-1"],
    ["pretzel", "--n", "-9"],
    ["trace", "--word", "a^-1 b^-3 a^-3 b^-1 a^-1 b^3 a^-2 b a^2 b^-1 a^-2 "
                        "b^-3 a^2 b^-3 a^2 b^-2 a^2 b a^-2 b^3 a^2 b^2 a^-3 "
                        "b a^-2 b^-1 a^-3 b^-2 a^2"],
    ["qtorus", "demo-unknot", "--n-range", "-196", "196"],
    ["qtorus", "demo-unknot", "--n-range", "-116", "116"],
    ["trace", "--word", "b^-2 a^3 b^-2 a b^-1 a^-3 b a^2 b^3 a^-3 b^-2 a^3 "
                        "b^3 a^-1"],
    ["twobridge", "--p", "47", "--m", "9"],
    ["twobridge", "--p", "77", "--m", "19"],
    ["twobridge", "--p", "75", "--m", "29"],
    ["trace", "--word", "b^-1 a b^3 a^-3 b a^-3 b^-1 a^3 b^2 a^2 b^2 a b^3 "
                        "a^-2 b^-2 a^2 b^-2 a^-3"],
    ["twobridge", "--p", "69", "--m", "17"],
    ["trace", "--word", "a^-1 b^-3 a^-3 b^-3 a^3 b^2 a^-3 b a^3 b^-2 a b^3"],
    ["qtorus", "demo-unknot", "--n-range", "-157", "157"],
    ["twobridge", "--p", "59", "--m", "19"],
    ["pretzel", "--n", "18"],
    ["qtorus", "demo-unknot", "--n-range", "-153", "153"],
]

CORPUS = ([["verify", "--suite", "all"],
           ["verify", "--suite", "all", "--seed", "1"],
           ["verify", "--suite", "pretzel", "--n-range", "-30", "40"],
           # the two-bridge fold packs slots wider than 8 bytes from p = 63
           ["verify", "--suite", "twobridge", "--p", "71"],
           ["twobridge", "--p", "151", "--m", "75"]]
          + [["pretzel", "--n", str(n)] for n in (*range(-20, 21), -100, 100)]
          + CLI_COLD_SEED_1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(args) -> dict:
    """Exit code, stdout SHA-256 and per-report digests of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args) + ["--json"])
    stdout = out.getvalue()
    by_key: dict = {}
    for rep in json.loads(stdout).get("reports", []):
        key = f"{rep['claim_id']} {rep['subject']}"
        by_key.setdefault(key, []).append(json.dumps(rep, sort_keys=True))
    return {"argv": list(args), "exit_code": code,
            "stdout_sha256": _sha(stdout),
            "reports": {key: _sha("\n".join(sorted(texts)))[:16]
                        for key, texts in sorted(by_key.items())}}


def _load() -> list:
    return json.loads(DIGESTS.read_text())["commands"]


def test_record_covers_the_corpus():
    assert [c["argv"] for c in _load()] == CORPUS


@pytest.mark.parametrize("args", CORPUS, ids=" ".join)
def test_output_matches_golden_digest(args):
    want = next(c for c in _load() if c["argv"] == args)
    got = record(args)
    moved = sorted(k for k in want["reports"].keys() | got["reports"].keys()
                   if want["reports"].get(k) != got["reports"].get(k))
    assert not moved, f"reports moved: {moved}"
    assert got["exit_code"] == want["exit_code"]
    assert got["stdout_sha256"] == want["stdout_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    doc = {"commands": [record(args) for args in CORPUS]}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CORPUS)} commands to {DIGESTS}")
