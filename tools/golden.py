#!/usr/bin/env python3
"""Digests of the CLI's outputs on generated inputs, for byte-identity checks.

Runs a fixed set of `noisy-align` commands on `perfbench/gen.py` inputs at
seeds 5-7 and writes, for each run, its exit code and the SHA-256 of its
stdout, its stderr and every file in its output directory:

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
import gen  # noqa: E402


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
    return {"machine": {"nproc": os.cpu_count(), "blas_threads": threads}, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="digest file to write")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="noisy-align-golden-") as tmp:
        record = digests(Path(tmp).resolve())
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(record['runs'])} runs to {args.out}")


if __name__ == "__main__":
    main()
