#!/usr/bin/env python3
"""Digests of the CLI's outputs and of EM fits, for byte-identity checks.

Runs a fixed set of `noisy-align` commands on `perfbench/gen.py` inputs at
seeds 5-7 and writes, for each run, its exit code and the SHA-256 of its
stdout, its stderr and every file in its output directory. Its `fits`
section holds, for each fit of a fixed set of `em_fit` calls, the SHA-256
of its trace steps, `converged`, `degenerate_iters`, every model
parameter, `w` and `h`:

    python3 tools/golden.py --out before.json
    # change the program, then
    python3 tools/golden.py --out after.json
    diff before.json after.json

The float bits depend on the machine and on the BLAS thread count, so two
digest files compare only when their `machine` entries agree.

Each command runs once with flags only and once through `--config`, and
each of those twice with its own fresh `XDG_CACHE_HOME`: an embedding-cache
miss, then a hit. In what is digested, the run's output directory is
replaced by `<out>` and the temporary root of all runs by `<root>`. The program run is the `src/` next to this script.

The 484 fits: the 50 instances of acceptance criterion 5 in both modes,
uncapped and capped at `max_iters` 1, 2 and 3; hard fits of n=1000 d=50
problems at noise 0, 0.1, ..., 0.5 and seeds 0-9; soft fits of n=1000
d=50 problems at noise 0.2 with jitter 0.5, seeds 0-19; and, in both
modes, a jittered d=300 n=3950 problem and an instance whose pairs are
all noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (5, 6, 7)

sys.dont_write_bytecode = True  # importing gen.py leaves perfbench/ as it is
sys.path.insert(0, str(REPO / "perfbench"))
sys.path.insert(0, str(REPO / "src"))
import gen  # noqa: E402
import numpy as np  # noqa: E402
from noisy_align import EmConfig, em_fit, make_noisy_problem  # noqa: E402


def _flags(argv: list[str]) -> dict:
    """A generated command line's `--flag value` pairs, after the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))


def _commands(seed: int, inputs: Path, out: Path):
    """(name, subcommand, flags, cwd) of each command on `seed`'s inputs.

    Flags name the input files relative to cwd. `evaluate` reads the
    matrix and the model of the first run of `align` (flags, cache miss).
    """
    bli = _flags(gen.generate("bli-align", seed, inputs / "bli").argv)
    dia = _flags(gen.generate("diachronic", seed, inputs / "dia").argv)
    spaces = {k: bli[k] for k in ("--src-emb", "--tgt-emb")}
    runs = [(f"align-{m}", "align", {**bli, "--method": m}, inputs / "bli")
            for m in ("op", "sgd", "em-hard", "em-soft")]
    runs += [(f"clean-lexicon-{m}", "clean-lexicon",
              {**spaces, "--lexicon": bli["--lexicon"], "--method": m}, inputs / "bli")
             for m in ("em-hard", "em-soft")]
    for m, name in (("op", "matrix.txt"), ("em-hard", "model.txt")):
        matrix = out / f"align-{m}" / "flags" / "miss" / name
        runs.append((f"evaluate-{m}-{name}", "evaluate",
                     {**spaces, "--test-lexicon": bli["--test-lexicon"],
                      "--matrix": str(matrix)}, inputs / "bli"))
    no_threshold = {k: v for k, v in dia.items() if k != "--threshold"}
    runs += [("diachronic-threshold", "diachronic", dia, inputs / "dia"),
             ("diachronic", "diachronic", no_threshold, inputs / "dia"),
             ("synthetic-2d", "synthetic-2d", {"--seed": str(seed)}, inputs)]
    return runs


def _groups(root: Path):
    """(prefix, commands): noise-curve's command line from the benchmark,
    then each seed's commands, whose inputs are generated when reached."""
    nc = _flags(gen.generate("noise-curve", 0, root).argv)
    yield "noise-curve", [("noise-curve", "noise-curve", nc, root)]
    for s in SEEDS:
        yield f"seed{s}", _commands(s, root / "inputs", root / "out" / f"seed{s}")


def _sha(data: bytes, out: Path, root: Path) -> str:
    for path, name in ((out, b"<out>"), (root, b"<root>")):
        data = data.replace(str(path).encode(), name)
    return hashlib.sha256(data).hexdigest()


def _run(sub: str, flags: dict, cwd: Path, out: Path, cache: Path, mode: str,
         env: dict, root: Path) -> dict:
    """One run's exit code and digests; `mode` is "flags" or "config"."""
    flags = {**flags, "--output-dir": str(out)}
    if mode == "flags":
        argv = [sub, *(token for pair in flags.items() for token in pair)]
    else:
        config = out.with_suffix(".cfg")  # beside the output directory
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text("".join(f"{k[2:]} = {v}\n" for k, v in flags.items()),
                          encoding="utf-8")
        argv = [sub, "--config", str(config)]
    done = subprocess.run([sys.executable, "-m", "noisy_align.cli", *argv], cwd=cwd,
                          env={**env, "XDG_CACHE_HOME": str(cache)}, capture_output=True)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {"exit": done.returncode, "stdout": _sha(done.stdout, out, root),
            "stderr": _sha(done.stderr, out, root),
            "files": {str(p.relative_to(out)): _sha(p.read_bytes(), out, root)
                      for p in files}}


def _problems():
    """(name, X, Y, cfgs, modes) of each EM problem: one fit per config
    and mode, named by the config's `max_iters` and the mode."""
    both = (False, True)
    for seed in range(50):  # as in tests/test_acceptance.py, criterion 5
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 20)), int(rng.integers(30, 200))
        prob = make_noisy_problem(n, d, float(rng.uniform(0.1, 0.4)), seed)
        Y = prob.Y + 0.05 * rng.standard_normal(prob.Y.shape)
        yield (f"criterion5-{seed}", prob.X, Y,
               [EmConfig(max_iters=m) for m in (100, 1, 2, 3)], both)
    for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        for seed in range(10):
            prob = make_noisy_problem(1000, 50, p, seed)
            yield f"planted-p{p}-{seed}", prob.X, prob.Y, [EmConfig()], (False,)
    for seed in range(20):
        prob = make_noisy_problem(1000, 50, 0.2, seed)
        Y = prob.Y + 0.5 * np.random.default_rng(seed).standard_normal(prob.Y.shape)
        yield f"jitter0.5-{seed}", prob.X, Y, [EmConfig()], (True,)
    prob = make_noisy_problem(3950, 300, 0.2, 0)
    Y = prob.Y + 0.05 * np.random.default_rng(0).standard_normal(prob.Y.shape)
    yield "d300-n3950", prob.X, Y, [EmConfig()], both
    rng = np.random.default_rng(10)
    X = rng.standard_normal((5, 50))
    yield "all-noise", X, 100.0 + 0.1 * rng.standard_normal((5, 50)), [EmConfig()], both


def fits() -> dict:
    """The SHA-256 of each fit of `_problems`."""
    logging.getLogger("noisy_align").setLevel(logging.ERROR)  # capped fits warn
    out = {}
    for name, X, Y, cfgs, modes in _problems():
        for cfg in cfgs:
            for soft in modes:
                model, resp, trace = em_fit(X, Y, cfg, soft=soft)
                h = hashlib.sha256()
                for part in (trace.steps, trace.converged, trace.degenerate_iters,
                             model.Q, model.sigma2, model.mu_y, model.sigma_y2,
                             model.alpha, resp.w, resp.h):
                    h.update(part.tobytes() if isinstance(part, np.ndarray)
                             else repr(part).encode())
                key = f"{name}/{'soft' if soft else 'hard'}/max_iters={cfg.max_iters}"
                out[key] = h.hexdigest()
    return out


def digests(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    threads = subprocess.run(
        [sys.executable, "-c", "from noisy_align import _blas; "
         "lib = _blas._library(); print(lib[2] if lib else 'none')"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    runs = {}
    for prefix, commands in _groups(root):
        for name, sub, flags, cwd in commands:
            for mode in ("flags", "config"):
                cache = root / "cache"
                for when in ("miss", "hit"):
                    key = f"{prefix}/{name}/{mode}/{when}"
                    runs[key] = _run(sub, flags, cwd, root / "out" / key, cache, mode,
                                     env, root)
                shutil.rmtree(cache, ignore_errors=True)  # none without embeddings
        shutil.rmtree(root / "inputs", ignore_errors=True)
    return {"machine": {"nproc": os.cpu_count(), "blas_threads": threads}, "runs": runs,
            "fits": fits()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="digest file to write")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="noisy-align-golden-") as tmp:
        record = digests(Path(tmp).resolve())
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(record['runs'])} runs and {len(record['fits'])} fits to {args.out}")


if __name__ == "__main__":
    main()
