#!/usr/bin/env python3
"""Record the benchmark of this checkout, or compare two records.

    python3 tools/bench_record.py --out RECORD.json
    python3 tools/bench_record.py --compare BEFORE.json AFTER.json

`--out` runs the unchanged `perfbench/run.py` of this checkout once for
each workload in `BENCHMARK.json` and each seed in `SEEDS`, seed by seed,
for `BENCHMARK.json`'s `run_seconds` each. It writes one JSON file
holding `commit` (`git rev-parse HEAD`), `diff` (the sha256 of
`git diff HEAD -- src perfbench`: the uncommitted part of the code that
run.py runs, or null when there is none; once that code is committed as
NEW, `git diff <commit> NEW -- src perfbench` has the same digest),
`machine` (the facts that run.py prints and that do not depend on the
workload: nproc, CPU model, Python, numpy, BLAS and its thread count,
last-level cache), `seconds`, and `runs`: for each run its workload,
seed and the JSON of run.py's last stdout line (`correct`, `attempted`,
`failed`, `metrics`).

`--compare BEFORE AFTER` prints, for each workload and `end_to_end`
metric of `BENCHMARK.json`, each file's median and quartiles over its
seeds, how many of the seeds run in both files AFTER wins (better in the
metric's direction), and the change of AFTER's median against BEFORE's
as a fraction, beside the metric's bound: `worse` when AFTER is worse by
more than the bound, `within` otherwise. It names no gain: the two
records ran one after the other, and a gain needs ten alternating pairs
of runs of which the change wins at least nine. It refuses (exit 2) two
files whose machine facts differ: their numbers cannot be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the seeds of every record; none is a seed that tests or CI pass to run.py
SEEDS = (101, 102, 103, 104, 105)

# run.py's machine facts that hold for every workload
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "blas_threads", "llc")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(machine facts, last-line JSON) of one `perfbench/run.py` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    facts = next(json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("machine "))
    return {k: facts.get(k) for k in MACHINE_KEYS}, json.loads(lines[-1])


def record(out: Path, seconds: float, bench: dict) -> None:
    machine, runs = None, []
    for seed in SEEDS:
        for workload in (w["name"] for w in bench["workloads"]):
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            facts, result = _run(workload, seed, seconds)
            if machine not in (None, facts):
                raise SystemExit(f"machine facts changed during the record: {machine} "
                                 f"and {facts}")
            machine = facts
            runs.append({"workload": workload, "seed": seed, "result": result})
    diff = _git("diff", "--no-ext-diff", "--no-color", "HEAD", "--", "src", "perfbench")
    doc = {"commit": _git("rev-parse", "HEAD").strip(),
           "diff": hashlib.sha256(diff.encode("utf-8")).hexdigest() if diff else None,
           "machine": machine, "seconds": seconds, "runs": runs}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _values(doc: dict, workload: str, metric: str) -> dict[int, float]:
    """Seed -> value of `metric` in the runs of `workload`."""
    return {run["seed"]: run["result"]["metrics"][metric]["value"]
            for run in doc["runs"] if run["workload"] == workload}


def compare(before: dict, after: dict, bench: dict) -> list[str]:
    """The comparison table's lines (module docstring)."""
    lines = [f"{'workload':<12} {'metric':<12} {'before median [q1, q3]':>28} "
             f"{'after median [q1, q3]':>28} {'wins':>6} {'change':>8} {'bound':>6}  verdict"]
    for workload in (w["name"] for w in bench["workloads"]):
        for doc, name in ((before, "before"), (after, "after")):
            runs = [r["result"] for r in doc["runs"] if r["workload"] == workload]
            failed = sum(r["failed"] for r in runs)
            if failed:
                lines.append(f"{workload:<12} {name}: {failed} of "
                             f"{sum(r['attempted'] for r in runs)} invocations failed")
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            a, b = _values(before, workload, name), _values(after, workload, name)
            if not a or not b:
                lines.append(f"{workload:<12} {name:<12} missing in "
                             f"{'before' if not a else 'after'}")
                continue
            qa, qb = _quartiles(sorted(a.values())), _quartiles(sorted(b.values()))
            seeds = sorted(a.keys() & b.keys())
            wins = sum((b[s] < a[s]) if lower else (b[s] > a[s]) for s in seeds)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            verdict = "worse" if (change if lower else -change) > metric["bound"] else "within"
            lines.append(
                f"{workload:<12} {name:<12} "
                f"{f'{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]':>28} "
                f"{f'{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]':>28} "
                f"{f'{wins}/{len(seeds)}':>6} {change:>+8.2%} {metric['bound']:>6.0%}  {verdict}")
    return lines


def _code(doc: dict) -> str:
    """A record's commit, and the digest of its uncommitted code if any."""
    return doc["commit"][:12] + (f" + diff {doc['diff'][:12]}" if doc["diff"] else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="run the benchmark and write the record here")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.out:
        record(args.out, bench["run_seconds"], bench)
        return 0
    before, after = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
    if before["machine"] != after["machine"]:
        print(f"machines differ: {before['machine']} and {after['machine']}", file=sys.stderr)
        return 2
    print(f"before {_code(before)}, after {_code(after)}, "
          f"{before['seconds']:g} s and {after['seconds']:g} s per run")
    print("\n".join(compare(before, after, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
