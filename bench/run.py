"""Cold-process benchmark of the knotpoly command line.

    python3 bench/run.py --workload suite-all --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout; it needs nothing but Python and the
sources under src/.  One client runs one `knotpoly ... --json` child at a
time, each in a fresh interpreter, because the package's lru_caches live
for one process and a CLI user pays the cold cost on every call.

--trace 0  repeats passes over the workload's queries for --seconds and
           reports the end-to-end metrics of BENCHMARK.json.
--trace 1  runs one plain pass and one pass under bench/tracer.py, which
           times every public function of the package from outside it, and
           reports the per-layer metrics of BENCHMARK.json together with
           trace_overhead_s (traced minus plain wall time).

Every child's stdout is parsed and checked (bench/workloads.py), and must
repeat byte for byte the first run of the same query.  The last line of
stdout is the result object; the line before it is the run record (machine,
load, sample counts and percentiles, per-layer counters in full).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import PASSING, WORKLOADS, check_document, report_keys, \
    workload_queries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# What the `knotpoly` console script runs.
CLI = "import sys; from knotpoly.cli import main; sys.exit(main())"
SETUP = "import sys, knotpoly.cli; sys.stdout.write(knotpoly.cli.__file__)"
# Set-up samples are taken in rounds before, between and after the passes,
# so that they see the host's speed over the whole run and not one moment.
SETUP_PER_ROUND = 4
RUN_BUDGET_S = 170          # every run must end within 180 s


@dataclass
class Child:
    """One finished child process, with its resource use from wait4."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int          # negative: killed by that signal
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list, timeout: float) -> Child:
    """Run argv to completion (killed after timeout) and reap it with
    os.wait4, so that its rusage is its own and not a maximum over every
    child this process ever reaped."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, proc.returncode, out.read(),
                     err.read())


def percentile(samples, q: float) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(samples, unit: str) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    out = {"unit": unit, "n": len(samples), "p50": percentile(samples, 50)}
    for q in (99, 95, 90, 75):
        value = percentile(samples, q)
        if sum(x > value for x in samples) >= 10:
            out[f"p{q}"] = value
            break
    return out


class Run:
    """The children of one benchmark run and the check of their output."""

    def __init__(self, queries: list, deadline: float):
        self.queries = queries
        self.deadline = deadline
        self.reference = {}     # query args -> (report keys, stdout sha256)
        self.attempted = 0      # children run
        self.failed = 0         # children whose output was wrong
        self.operations = 0     # reports, or 1 for a document without any
        self.failed_operations = 0
        self.problems = []

    def run_pass(self, traced: bool = False, counters: dict | None = None):
        """Run every query once; returns the children, in query order."""
        children = []
        for query in self.queries:
            if traced:
                fd, trace_path = tempfile.mkstemp(dir=WORK, suffix=".json")
                os.close(fd)
                argv = [sys.executable, str(TRACER), trace_path]
            else:
                argv = [sys.executable, "-c", CLI]
            child = run_child(argv + query.argv(),
                              self.deadline - time.monotonic())
            if traced:
                try:
                    with open(trace_path, encoding="utf-8") as fh:
                        merge_counters(counters, json.load(fh))
                except ValueError as exc:
                    child.stdout = b""      # counts as a failed child
                    child.stderr += f"\ntrace output: {exc}".encode()
                finally:
                    os.unlink(trace_path)
            self.score(query, child)
            children.append(child)
        return children

    def score(self, query, child: Child) -> None:
        self.attempted += 1
        reference = self.reference.get(query.args)
        try:
            doc = json.loads(child.stdout)
            keys = report_keys(doc)
            problems = check_document(query, doc)
        except (ValueError, KeyError, TypeError) as exc:
            # A traceback, a usage error, a timeout: no document.
            ops = max(len(reference[0]), 1) if reference else 1
            self.operations += ops
            self.failed_operations += ops
            self.failed += 1
            tail = child.stderr.decode(errors="replace").strip()[-300:]
            self.problems.append(f"{query.args}: no JSON document "
                                 f"(exit {child.exit_code}, {exc}): {tail}")
            return
        digest = hashlib.sha256(child.stdout).hexdigest()
        if reference is None:
            self.reference[query.args] = (keys, digest)
        elif (keys, digest) != reference:
            problems.append("output differs from the first run of the query")
        failing = sum(status not in PASSING for _, _, status in keys)
        self.operations += max(len(keys), 1)
        self.failed_operations += failing if keys else bool(problems)
        if problems:
            self.failed += 1
            self.problems.extend(f"{query.args}: {p}" for p in problems)

    @property
    def fail_share(self) -> float:
        return self.failed_operations / max(self.operations, 1)


def merge_counters(total: dict, counters: dict) -> None:
    """Sum counters over children; maxima and cache sizes take the max."""
    for name, value in counters.items():
        if ".max_" in name or name.endswith(".size"):
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def loadavg() -> list:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def setup_times(deadline: float) -> list:
    """Wall times of fresh interpreters importing knotpoly.cli."""
    times = []
    for _ in range(SETUP_PER_ROUND):
        child = run_child([sys.executable, "-c", SETUP],
                          deadline - time.monotonic())
        where = Path(child.stdout.decode(errors="replace"))
        if child.exit_code != 0 or SRC not in where.parents:
            raise RuntimeError(f"knotpoly.cli did not import from {SRC}: "
                               f"{child.stderr.decode(errors='replace')}")
        times.append(child.wall_s)
    return times


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def measure(run: Run, seconds: float) -> tuple:
    """Closed loop of passes for about `seconds`; end-to-end metrics."""
    deadline = run.deadline
    setup, walls, cpus, rss, latencies = [], [], [], [], []
    start = time.monotonic()
    while True:
        setup += setup_times(deadline)
        children = run.run_pass()
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rss.extend(c.maxrss_mb for c in children)
        latencies.extend(c.wall_s * 1000 for c in children)
        now = time.monotonic()
        next_end = now + (now - start) / len(walls)
        if next_end > start + seconds or next_end > deadline:
            break
    setup += setup_times(deadline)
    samples = {
        "wall_s": (walls, statistics.median(walls)),
        "cpu_s": (cpus, statistics.median(cpus)),
        "peak_rss_mb": (rss, max(rss)),
        "setup_s": (setup, statistics.median(setup)),
        "query_p50_ms": (latencies, percentile(latencies, 50)),
        "query_p75_ms": (latencies, percentile(latencies, 75)),
        "pass_share": ([1 - run.fail_share], 1 - run.fail_share),
    }
    return samples, {"pass_wall_s": walls, "fail_share": run.fail_share,
                     "operations": run.operations,
                     "failed_operations": run.failed_operations}


def trace(run: Run) -> tuple:
    """One plain pass, then one traced pass; per-layer counters."""
    plain = sum(c.wall_s for c in run.run_pass())
    counters = {}
    traced = sum(c.wall_s for c in run.run_pass(traced=True,
                                                 counters=counters))
    counters["trace_overhead_s"] = traced - plain
    return counters, {"plain_wall_s": plain, "traced_wall_s": traced,
                      "fail_share": run.fail_share}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "knotpoly" / "cli.py").is_file():
        print(f"error: no knotpoly sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    declared = declared_metrics()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **machine(),
              "loadavg_before": loadavg()}
    queries = workload_queries(args.workload, args.seed)
    run = Run(queries, deadline)
    record["queries_per_pass"] = len(queries)
    try:
        if args.trace:
            counters, extra = trace(run)
            record.update(extra)
            record["per_layer"] = counters
            values = {name: (counters.get(name, 0), unit)
                      for name, unit in declared["per_layer"].items()}
            # A declared layer the program no longer has reads 0; say so.
            record["absent_per_layer"] = sorted(
                set(declared["per_layer"]) - set(counters))
        else:
            samples, extra = measure(run, args.seconds)
            record.update(extra)
            values = {}
            record["end_to_end"] = {}
            for name, unit in declared["end_to_end"].items():
                series, value = samples[name]
                values[name] = (value, unit)
                record["end_to_end"][name] = {"value": value,
                                              **summary(series, unit)}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["loadavg_after"] = loadavg()
    record["problems"] = run.problems[:20]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
