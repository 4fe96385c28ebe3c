#!/usr/bin/env python3
"""Digests and values of the CLI's outputs and of EM fits, in two tiers.

Runs a fixed set of `noisy-align` commands on `perfbench/gen.py` inputs at
seeds 5-7, `align` on a small input with a retrieval tie, and `align` on
small inputs that make the library issue each of its four warnings once
(`_warned`), and writes, for each run, its exit code and the SHA-256 of
its stdout, its stderr and every file in its output directory. Its `fits`
section holds, for each fit of a fixed set of `em_fit` calls, the SHA-256
of its trace steps, `converged`, `degenerate_iters`, every model
parameter, `w` and `h`. Those digests are the exact tier. For the tolerant tier, `values` holds each
output's numbers and the digest of its text with the numbers taken out,
under the output's digest; `fit_values` holds each fit's numbers (trace
alphas and objectives, the model, `w`) and its exact parts (the trace's
n1, `converged`, `degenerate_iters`, `h`):

    python3 tools/golden.py --out before.json
    # change the program, then
    python3 tools/golden.py --out after.json
    python3 tools/golden.py --compare before.json after.json

`--compare` prints the keys that differ in each tier, and exits 1 when the
tolerant tier fails. That tier holds exit codes, text, labels, ranking
order, integers, n1 and `h` exact, and compares other numbers as values:
a and b agree when |a - b| <= RTOL * max(|a|, |b|) + ATOL. The float bits
depend on the machine and on the BLAS thread count, so the exact tier
compares two files only when their `machine` entries agree; the tolerant
tier also across thread counts.

Each command runs once with flags only and once through `--config`, and
each of those twice with its own fresh `XDG_CACHE_HOME`: an embedding-cache
miss, then a hit. In what is digested, the run's output directory is
replaced by `<out>` and the temporary root of all runs by `<root>`. The
program run is the `src/` next to this script.

The 486 fits: the 50 instances of acceptance criterion 5 in both modes,
uncapped and capped at `max_iters` 1, 2 and 3; hard fits of n=1000 d=50
problems at noise 0, 0.1, ..., 0.5 and seeds 0-9; soft fits of n=1000
d=50 problems at noise 0.2 with jitter 0.5, seeds 0-19; and, in both
modes, a jittered d=300 n=3950 problem, an instance whose pairs are all
noise, and one whose first posteriors all tie at 0.5.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (5, 6, 7)
# The tolerant tier's bound. Between records taken with 1 and with 2
# OpenBLAS threads (2-vCPU Xeon, OpenBLAS 0.3.31), the smallest RTOL = ATOL
# under which every number agrees was 1.1e-14, for entries of the
# Procrustes map of `align --method op`. The bound leaves about a hundred
# times that.
RTOL = ATOL = 1e-12
# a number token: not part of a word (`w0012`, `p_at_1`) or of a dotted
# version (`0.3.31`)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
INTEGER = re.compile(r"[-+]?\d+")

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


def _ties(inputs: Path) -> dict:
    """`align --method op` flags on small inputs whose target set holds two
    identical vectors, t2 and t9: query s2 ties between them, and its gold
    target is t2, so P@1 depends on retrieval's tie-break."""
    inputs.mkdir(parents=True)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    Y = X @ np.linalg.qr(rng.standard_normal((4, 4)))[0]
    Y[9] = Y[2]
    gen.write_embeddings(inputs / "src.vec", [f"s{i}" for i in range(12)], X)
    gen.write_embeddings(inputs / "tgt.vec", [f"t{i}" for i in range(12)], Y)
    gen._write_pairs(inputs / "train.tsv", [(f"s{i}", f"t{i}") for i in range(12) if i != 9])
    gen._write_pairs(inputs / "test.tsv", [("s2", "t2"), ("s5", "t5")])
    return {"--src-emb": "src.vec", "--tgt-emb": "tgt.vec", "--lexicon": "train.tsv",
            "--test-lexicon": "test.tsv", "--method": "op"}


def _warned(inputs: Path) -> list:
    """`align` commands on a small noisy d=4 problem, each of which makes
    the library warn once: a skipped embedding row, a fit stopped at
    `--max-iters 1`, a zero test query and a rank-deficient lexicon."""
    inputs.mkdir(parents=True)
    prob = make_noisy_problem(60, 4, 0.2, 0)
    src = [f"s{i}" for i in range(60)]
    gen.write_embeddings(inputs / "src.vec", src, prob.X.T)
    gen.write_embeddings(inputs / "tgt.vec", [f"t{i}" for i in range(60)], prob.Y.T)
    gen.write_embeddings(inputs / "zero.vec", [*src, "z"], np.vstack([prob.X.T, np.zeros(4)]))
    text = (inputs / "src.vec").read_text(encoding="utf-8")
    (inputs / "bad.vec").write_text(text + "bad 1 2\n", encoding="utf-8")
    gen._write_pairs(inputs / "train.tsv", [(f"s{i}", f"t{i}") for i in range(60)])
    gen._write_pairs(inputs / "two.tsv", [("s0", "t0"), ("s1", "t1")])
    gen._write_pairs(inputs / "zero.tsv", [("z", "t0"), ("s1", "t1")])
    base = {"--src-emb": "src.vec", "--tgt-emb": "tgt.vec", "--lexicon": "train.tsv",
            "--method": "op"}
    cases = {"skipped-row": {"--src-emb": "bad.vec"},
             "max-iters": {"--method": "em-hard", "--max-iters": "1"},
             "zero-query": {"--src-emb": "zero.vec", "--test-lexicon": "zero.tsv"},
             "rank-deficient": {"--lexicon": "two.tsv"}}
    return [(f"align-{name}", "align", {**base, **flags}, inputs)
            for name, flags in cases.items()]


def _groups(root: Path):
    """(prefix, commands): noise-curve's command line from the benchmark,
    `_ties`, `_warned`, then each seed's commands; inputs are generated
    when reached."""
    nc = _flags(gen.generate("noise-curve", 0, root).argv)
    yield "noise-curve", [("noise-curve", "noise-curve", nc, root)]
    ties = root / "inputs" / "ties"
    yield "ties", [("align-op", "align", _ties(ties), ties)]
    yield "warnings", _warned(root / "inputs" / "warnings")
    for s in SEEDS:
        yield f"seed{s}", _commands(s, root / "inputs", root / "out" / f"seed{s}")


def _sha(data: bytes, out: Path, root: Path, values: dict) -> str:
    """The digest of one output, after its paths are replaced; its
    tolerant-tier entry is added to `values` under it."""
    for path, name in ((out, b"<out>"), (root, b"<root>")):
        data = data.replace(str(path).encode(), name)
    digest = hashlib.sha256(data).hexdigest()
    if digest not in values:
        text = data.decode("utf-8", "replace")
        values[digest] = _entry(NUMBER.sub("#", text), NUMBER.findall(text))
    return digest


def _entry(text: str, numbers: list[str]) -> dict:
    """A tolerant-tier entry: the digest of what is compared exactly, and
    the number tokens compared as values, space-separated."""
    return {"text": hashlib.sha256(text.encode()).hexdigest(), "numbers": " ".join(numbers)}


def _run(sub: str, flags: dict, cwd: Path, out: Path, cache: Path, mode: str,
         env: dict, root: Path, values: dict) -> dict:
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
    return {"exit": done.returncode, "stdout": _sha(done.stdout, out, root, values),
            "stderr": _sha(done.stderr, out, root, values),
            "files": {str(p.relative_to(out)): _sha(p.read_bytes(), out, root, values)
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
    # a zero X and a Y symmetric about 0 give both components the same
    # density at every pair: each first posterior is exactly 0.5, a tie
    y = 0.25 * np.random.default_rng(0).standard_normal((1, 4))
    yield "tied", np.zeros((1, 8)), np.repeat(y, 2, axis=1) * ([1.0, -1.0] * 4), \
        [EmConfig()], both


def fits() -> tuple[dict, dict]:
    """The SHA-256 of each fit of `_problems`, and its tolerant-tier entry."""
    warnings.filterwarnings("ignore", "EM stopped at max_iters", UserWarning)  # capped fits
    warnings.simplefilter("ignore", RuntimeWarning)  # the tied fits' zero X warns
    out, values = {}, {}
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
                exact = [[n1 for *_, n1 in trace.steps], trace.converged,
                         trace.degenerate_iters, "".join("01"[b] for b in resp.h.tolist())]
                numbers = [v for *alpha_objective, _ in trace.steps for v in alpha_objective]
                numbers += [*model.Q.ravel().tolist(), model.sigma2, *model.mu_y.tolist(),
                            model.sigma_y2, model.alpha, *resp.w.tolist()]
                values[key] = _entry(json.dumps(exact), [repr(float(v)) for v in numbers])
    return out, values


def digests(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    threads = subprocess.run(
        [sys.executable, "-c", "from noisy_align import _blas; "
         "lib = _blas._library(); print(lib[2] if lib else 'none')"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    runs, values = {}, {}
    for prefix, commands in _groups(root):
        for name, sub, flags, cwd in commands:
            for mode in ("flags", "config"):
                cache = root / "cache"
                for when in ("miss", "hit"):
                    key = f"{prefix}/{name}/{mode}/{when}"
                    runs[key] = _run(sub, flags, cwd, root / "out" / key, cache, mode,
                                     env, root, values)
                shutil.rmtree(cache, ignore_errors=True)  # none without embeddings
        shutil.rmtree(root / "inputs", ignore_errors=True)
    fit_digests, fit_values = fits()
    return {"machine": {"nproc": os.cpu_count(), "blas_threads": threads}, "runs": runs,
            "fits": fit_digests, "values": values, "fit_values": fit_values}


def _numbers_agree(a: str, b: str) -> bool:
    """Whether two entries' number tokens agree: as many, integers equal,
    other numbers within RTOL and ATOL."""
    a, b = a.split(), b.split()
    if len(a) != len(b):
        return False
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        close = (x == y) | (np.abs(x - y) <= RTOL * np.maximum(abs(x), abs(y)) + ATOL)
    return all(close[i] and not (INTEGER.fullmatch(a[i]) and INTEGER.fullmatch(b[i])
                                 and x[i] != y[i]) for i in np.flatnonzero(x != y))


def _tiers(record: dict) -> tuple[dict, dict]:
    """(exact, tolerant): each key's digest, and each key's tolerant-tier
    entry, or for an exit code the code itself."""
    exact, tolerant = {}, {}
    for key, run in record["runs"].items():
        outputs = {"stdout": run["stdout"], "stderr": run["stderr"],
                   **{f"files/{name}": d for name, d in run["files"].items()}}
        exact[f"runs/{key}/exit"] = tolerant[f"runs/{key}/exit"] = run["exit"]
        for name, digest in outputs.items():
            exact[f"runs/{key}/{name}"] = digest
            tolerant[f"runs/{key}/{name}"] = record["values"][digest]
    for key, digest in record["fits"].items():
        exact[f"fits/{key}"] = digest
        tolerant[f"fits/{key}"] = record["fit_values"][key]
    return exact, tolerant


def compare(before: dict, after: dict) -> bool:
    """Print the keys that differ in each tier; whether the tolerant tier
    passes."""
    (exact_a, tol_a), (exact_b, tol_b) = _tiers(before), _tiers(after)
    if before["machine"] != after["machine"]:
        print(f"machines differ: {before['machine']} and {after['machine']}")

    def agree(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return a["text"] == b["text"] and (a["numbers"] == b["numbers"] or
                                               _numbers_agree(a["numbers"], b["numbers"]))
        return a == b
    for tier, a, b, same in (("exact", exact_a, exact_b, lambda u, v: u == v),
                             ("tolerant", tol_a, tol_b, agree)):
        keys = sorted(a.keys() | b.keys())
        differ = [k for k in keys if k not in a or k not in b or not same(a[k], b[k])]
        print(f"{tier} tier: {len(differ)} of {len(keys)} keys differ")
        for key in differ:
            print(f"  {key}")
    return not differ  # the tolerant tier's


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    task = parser.add_mutually_exclusive_group(required=True)
    task.add_argument("--out", type=Path, help="record file to write")
    task.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                      help="record files to compare; exit 1 if the tolerant tier fails")
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        sys.exit(0 if compare(before, after) else 1)
    with tempfile.TemporaryDirectory(prefix="noisy-align-golden-") as tmp:
        record = digests(Path(tmp).resolve())
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(record['runs'])} runs and {len(record['fits'])} fits to {args.out}")


if __name__ == "__main__":
    main()
