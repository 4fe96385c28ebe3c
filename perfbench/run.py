"""Benchmark for the noisy-align CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs from the
seed, then runs the real CLI (`python -m noisy_align.cli`, with PYTHONPATH
set to the checkout's `src/`) one child at a time:

- set-up: SETUP_RUNS cold invocations, each on a fresh copy of the inputs
  in a new directory, so that nothing the program may cache per input file
  is warm; `setup_s` is their median wall time;
- measurement: warm invocations on one input directory until S seconds
  have passed (at least MIN_WARM); `run_s`, `cpu_s` and `peak_rss_mb` are
  medians over them. Each child is started by perfbench/launch.py, which
  reads that child's own rusage through os.wait4.

With --trace 1 the warm invocations alternate between the plain CLI and
perfbench/tracer.py; the per-layer metrics are medians over the traced
ones, and `trace.overhead_s` is the traced median wall time minus the
plain one. Every invocation's outputs are checked (see checks.py); an
invocation that exits non-zero or fails a check counts as failed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it give the same
figures with units, the output-quality figures (p_at_1, noise_f1,
failed_frac) and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import tracer

SETUP_RUNS = 3
MIN_WARM = 3
CHILD_TIMEOUT_S = 30.0    # ten times the slowest healthy invocation
RUN_LIMIT_S = 150.0       # keeps a run under three minutes even if children hang
WORK_DIR = ".perfbench_work"

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class Runner:
    """Runs CLI children one at a time and checks each one's outputs."""

    def __init__(self, root: Path, workload: str, inputs: gen.Inputs):
        self.workload = workload
        self.inputs = inputs
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        here = Path(__file__).parent
        self.launcher = str(here / "launch.py")
        self.tracer_script = str(here / "tracer.py")

    def invoke(self, cwd: Path, timeout: float, traced: bool = False) -> Invocation:
        out = cwd / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans = cwd / "spans.json"
        if traced:
            argv = [sys.executable, self.tracer_script, str(spans)]
        else:
            argv = [sys.executable, "-m", "noisy_align.cli"]
        argv += self.inputs.argv + ["--output-dir", "out"]
        usage_path = cwd / "usage.json"
        usage_path.unlink(missing_ok=True)
        with open(cwd / "child.log", "wb") as log:
            subprocess.run([sys.executable, self.launcher, str(usage_path), str(timeout),
                            *argv], cwd=cwd, env=self.env, stdout=log,
                           stderr=subprocess.STDOUT, timeout=timeout + 30)
        usage = json.loads(usage_path.read_text(encoding="utf-8"))
        inv = Invocation(wall_s=usage["wall_s"], cpu_s=usage["cpu_s"],
                         rss_mb=usage["maxrss_kb"] / 1024.0, ok=False)
        if usage["exit"] != 0:
            tail = (cwd / "child.log").read_text(errors="replace")[-400:]
            inv.problems = [f"exit code {usage['exit']}: {tail}"]
            return inv
        inv.problems, inv.quality = checks.check(self.workload, out, self.inputs.truth)
        if traced:
            record = json.loads(spans.read_text(encoding="utf-8"))
            inv.layers = tracer.layer_metrics(record["spans"])
        inv.ok = not inv.problems
        return inv


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _blas_threads() -> str:
    """OpenBLAS thread count as the loaded library reports it, if it can."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _llc() -> str:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches.get("L3 cache") or caches.get("L2 cache") or "unknown"


def machine_facts(inputs: gen.Inputs, input_dir: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "input_bytes": sum((input_dir / f).stat().st_size for f in inputs.files),
        "working_set_bytes": inputs.vocab * inputs.dim * 8,
        "working_set_note": "V*d*8, one float64 embedding matrix",
        "llc": _llc(),
    }


def preflight(root: Path) -> str | None:
    """Why the checkout cannot be benchmarked, or None if it can."""
    if not (root / "src" / "noisy_align" / "cli.py").is_file():
        return f"no src/noisy_align/cli.py under {root}"
    probe = subprocess.run(
        [sys.executable, "-c", "import noisy_align.cli; print(noisy_align.cli.__file__)"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60)
    found = probe.stdout.strip()
    if probe.returncode != 0 or not found.startswith(str(root / "src")):
        detail = found or probe.stderr[-300:]
        return f"noisy_align does not import from {root / 'src'}: {detail}"
    return None


def measure(runner: Runner, input_dir: Path, work: Path, seconds: float,
            trace: bool, hard_stop: float):
    """Cold set-up invocations, then warm ones for `seconds`."""
    def timeout() -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, hard_stop - time.perf_counter()))

    cold = []
    for k in range(SETUP_RUNS):
        fresh = work / f"cold{k}"
        fresh.mkdir()
        for name in runner.inputs.files:
            shutil.copyfile(input_dir / name, fresh / name)
        cold.append(runner.invoke(fresh, timeout()))
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < hard_stop:
        enough = len(plain) >= MIN_WARM and (not trace or len(traced) >= MIN_WARM)
        # stop when the next invocation would end mostly past the deadline
        if enough and time.perf_counter() + plain[-1].wall_s / 2 >= deadline:
            break
        use_trace = trace and len(traced) < len(plain)
        inv = runner.invoke(input_dir, timeout(), traced=use_trace)
        (traced if use_trace else plain).append(inv)
    return cold, plain, traced


def report(workload: str, seed: int, cold, plain, traced, facts: dict, trace: bool) -> dict:
    invocations = cold + plain + traced
    failed = sum(not inv.ok for inv in invocations)
    # times of failed invocations are reported only when nothing succeeded
    good = [inv for inv in plain if inv.ok] or plain
    good_cold = [inv for inv in cold if inv.ok] or cold
    values = {
        "setup_s": _median([inv.wall_s for inv in good_cold]),
        "run_s": _median([inv.wall_s for inv in good]),
        "cpu_s": _median([inv.cpu_s for inv in good]),
        "peak_rss_mb": _median([inv.rss_mb for inv in good]),
    }
    print(f"workload {workload} seed {seed}: {len(cold)} cold, {len(plain)} warm"
          f"{f', {len(traced)} traced' if trace else ''} invocations; {failed} failed")
    for name, unit in END_TO_END:
        pool = "cold" if name == "setup_s" else "warm"
        count = len(good_cold if name == "setup_s" else good)
        print(f"  {name:<14} {values[name]:>12.6f} {unit:<6} (median of {count} {pool})")
    quality = {}
    for inv in invocations:
        for key, value in inv.quality.items():
            quality.setdefault(key, []).append(value)
    for key in ("p_at_1", "noise_f1"):
        if key in quality:
            print(f"  {key:<14} {_median(quality[key]):>12.6f} ratio  (output quality)")
    print(f"  {'failed_frac':<14} {failed / len(invocations):>12.6f} ratio  "
          f"({failed}/{len(invocations)} invocations)")
    for inv in invocations:
        for problem in inv.problems:
            print(f"  FAILED: {problem}")
    print("machine " + json.dumps(facts, sort_keys=True))

    if trace:
        units = dict(tracer.LAYER_METRICS)
        units["trace.overhead_s"] = "s"
        layers = {name: _median([inv.layers[name] for inv in traced if inv.ok])
                  for name, _ in tracer.LAYER_METRICS}
        traced_wall = _median([inv.wall_s for inv in traced if inv.ok])
        layers["trace.overhead_s"] = traced_wall - values["run_s"]
        print(f"  traced wall {traced_wall:.6f} s (median of {len(traced)})")
        for name, value in layers.items():
            print(f"  {name:<44} {value:>14.6f} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in layers}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(invocations), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="noisy-align benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hard_stop = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd().resolve()
    reason = preflight(root)
    if reason:
        print(f"perfbench: cannot run: {reason}", file=sys.stderr)
        return 2

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        input_dir = work / "inputs"
        inputs = gen.generate(args.workload, args.seed, input_dir)
        runner = Runner(root, args.workload, inputs)
        facts = machine_facts(inputs, input_dir)
        cold, plain, traced = measure(runner, input_dir, work, args.seconds,
                                      bool(args.trace), hard_stop)
        result = report(args.workload, args.seed, cold, plain, traced, facts,
                        bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
