"""Seeded input generator for the benchmark workloads.

Every workload's inputs are a pure function of its seed. The generator
writes the files the CLI reads (embedding text with an `n d` header and
5-decimal values, lexicons, a stop-list and frequency tables) and returns
the planted truth separately: the noisy lexicon pairs and the shifted
tokens stay on the benchmark's side and are never passed to the program.

Run standalone to inspect a workload's inputs:

    python3 perfbench/gen.py --workload bli-align --seed 0 --out inputs
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 300

# bli-align: clustered vocabulary so that P@1 sits well inside (0, 1); the
# competitors of a query are mostly the other words of its cluster.
BLI_VOCAB = 4000
BLI_CLUSTER = 25
BLI_SPREAD = 0.2          # norm of a word's offset from its cluster centre
BLI_TARGET_NOISE = 2.2    # target-side noise, as a multiple of the spread
BLI_TRAIN = 2000
BLI_NOISE = 0.3           # share of training pairs that are planted noise
BLI_TEST = 1500

# diachronic: a shared vocabulary; a share of tokens is partially shifted,
# keeping SHIFT_KEEP of the rotated vector plus SHIFT_ETA of a fresh one.
DIA_VOCAB = 4000
DIA_SHIFTED = 0.3
DIA_SHIFT_KEEP = 0.5
DIA_SHIFT_ETA = 0.4
DIA_JITTER = 0.45         # noise on every token between the two decades
DIA_STOPWORDS = 50
DIA_RANKED = 0.4          # share of tokens the frequency threshold keeps

# noise-curve: the program builds its own problems from its seeds 0..S-1.
NC_SEEDS = 2
NC_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
NC_METHODS = ("op", "sgd", "em-hard", "em-soft")


@dataclass
class Inputs:
    """Generated files, the CLI arguments that read them, and the truth.

    File names in ``files`` and ``argv`` are relative to the directory the
    inputs were written to; the program runs with that directory as cwd.
    """

    argv: list[str]
    files: list[str] = field(default_factory=list)
    truth: dict = field(default_factory=dict)
    vocab: int = 0
    dim: int = 0


def _unit_gaussian(rng, n: int, d: int) -> np.ndarray:
    """n x d rows with i.i.d. N(0, 1/d) entries (norm close to 1)."""
    return rng.standard_normal((n, d)) / np.sqrt(d)


def _orthogonal(rng, d: int) -> np.ndarray:
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def write_embeddings(path: Path, tokens: list[str], vectors: np.ndarray) -> np.ndarray:
    """Write fastText-style text and return the vectors as the file holds them."""
    n, d = vectors.shape
    row = "%s" + " %.5f" * d + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        fh.writelines(row % (tok, *vec) for tok, vec in zip(tokens, vectors.tolist()))
    return np.round(vectors, 5)


def _write_pairs(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in pairs)


def make_bli(seed: int, root: Path) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    V, d = BLI_VOCAB, DIM
    cluster = np.arange(V) // BLI_CLUSTER
    centres = _unit_gaussian(rng, V // BLI_CLUSTER, d)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    X = centres[cluster] + BLI_SPREAD * _unit_gaussian(rng, V, d)
    Y = X @ _orthogonal(rng, d).T
    Y += BLI_TARGET_NOISE * BLI_SPREAD * _unit_gaussian(rng, V, d)

    # word w translates to target word w; file order is shuffled per side
    src_tok = [f"s{w:06d}" for w in range(V)]
    tgt_tok = [f"t{w:06d}" for w in range(V)]
    src_order, tgt_order = rng.permutation(V), rng.permutation(V)
    src_path, tgt_path = root / "src.vec", root / "tgt.vec"
    write_embeddings(src_path, [src_tok[w] for w in src_order], X[src_order])
    Yr = write_embeddings(tgt_path, [tgt_tok[w] for w in tgt_order], Y[tgt_order])

    words = rng.permutation(V)
    train, test = words[:BLI_TRAIN], words[BLI_TRAIN:BLI_TRAIN + BLI_TEST]
    n_noisy = int(round(BLI_NOISE * BLI_TRAIN))
    noisy = rng.choice(BLI_TRAIN, size=n_noisy, replace=False)
    wrong = train.copy()
    # half of the noise points into the right word's cluster, half anywhere
    for k, t in enumerate(noisy):
        w = train[t]
        if k % 2 == 0:
            mates = np.arange(cluster[w] * BLI_CLUSTER, (cluster[w] + 1) * BLI_CLUSTER)
            wrong[t] = rng.choice(mates[mates != w])
        else:
            other = w
            while cluster[other] == cluster[w]:
                other = int(rng.integers(V))
            wrong[t] = other
    train_pairs = [(src_tok[s], tgt_tok[t]) for s, t in zip(train, wrong)]
    test_pairs = [(src_tok[w], tgt_tok[w]) for w in test]
    lex_path, test_path = root / "train.tsv", root / "test.tsv"
    _write_pairs(lex_path, train_pairs)
    _write_pairs(test_path, test_pairs)

    # target matrix in file order, for the reference P@1
    tgt_pos = np.empty(V, dtype=np.int64)
    tgt_pos[tgt_order] = np.arange(V)
    truth = {
        "noisy_pairs": {train_pairs[t] for t in noisy},
        "train_pairs": train_pairs,
        "test_src": np.round(X[test], 5),
        "test_gold": tgt_pos[test],
        "tgt_unit": Yr / np.linalg.norm(Yr, axis=1, keepdims=True),
    }
    argv = ["align", "--src-emb", src_path.name, "--tgt-emb", tgt_path.name,
            "--lexicon", lex_path.name, "--test-lexicon", test_path.name,
            "--method", "em-hard"]
    files = [p.name for p in (src_path, tgt_path, lex_path, test_path)]
    return Inputs(argv=argv, files=files, truth=truth, vocab=V, dim=d)


def make_diachronic(seed: int, root: Path) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    V, d = DIA_VOCAB, DIM
    X = _unit_gaussian(rng, V, d)
    Y = X @ _orthogonal(rng, d).T
    n_shift = int(round(DIA_SHIFTED * V))
    shifted = rng.choice(V, size=n_shift, replace=False)
    fresh = _unit_gaussian(rng, n_shift, d)
    Y[shifted] = DIA_SHIFT_KEEP * Y[shifted] + DIA_SHIFT_ETA * fresh
    Y += DIA_JITTER * _unit_gaussian(rng, V, d)

    tokens = [f"w{w:06d}" for w in range(V)]
    src_path, tgt_path = root / "decade1.vec", root / "decade2.vec"
    order1, order2 = rng.permutation(V), rng.permutation(V)
    write_embeddings(src_path, [tokens[w] for w in order1], X[order1])
    write_embeddings(tgt_path, [tokens[w] for w in order2], Y[order2])

    stop = rng.choice(V, size=DIA_STOPWORDS, replace=False)
    stop_path = root / "stop.txt"
    stop_path.write_text("".join(f"{tokens[w]}\n" for w in stop), encoding="utf-8")

    # Zipf-like relative frequencies, perturbed independently per decade
    rank = rng.permutation(V) + 1
    base = 1.0 / rank
    base /= base.sum()
    f1 = base * rng.lognormal(0.0, 0.3, V)
    f2 = base * rng.lognormal(0.0, 0.3, V)
    threshold = float(np.quantile(np.minimum(f1, f2), 1.0 - DIA_RANKED))
    f1_path, f2_path = root / "freq1.tsv", root / "freq2.tsv"
    for path, f in ((f1_path, f1), (f2_path, f2)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{tokens[w]}\t{f[w]:.6e}\n" for w in range(V))

    stopped = {tokens[w] for w in stop}
    truth = {
        "shifted": {tokens[w] for w in shifted} - stopped,
        "pairs": V - len(stopped),
    }
    argv = ["diachronic", "--src-emb", src_path.name, "--tgt-emb", tgt_path.name,
            "--stoplist", stop_path.name, "--src-freqs", f1_path.name,
            "--tgt-freqs", f2_path.name, "--threshold", repr(threshold)]
    files = [p.name for p in (src_path, tgt_path, stop_path, f1_path, f2_path)]
    return Inputs(argv=argv, files=files, truth=truth, vocab=V, dim=d)


def make_noise_curve(seed: int, root: Path) -> Inputs:
    # The CLI has no seed offset: the problems are the program's seeds
    # 0..NC_SEEDS-1 whatever the benchmark seed is, and no file is read.
    argv = ["noise-curve", "--n", "1000", "--d", "50",
            "--levels", ",".join(str(p) for p in NC_LEVELS),
            "--seeds", str(NC_SEEDS), "--methods", ",".join(NC_METHODS)]
    truth = {"rows": len(NC_LEVELS) * NC_SEEDS * len(NC_METHODS)}
    return Inputs(argv=argv, truth=truth, dim=50)


MAKERS = {"bli-align": make_bli, "diachronic": make_diachronic,
          "noise-curve": make_noise_curve}
WORKLOADS = tuple(MAKERS)


def generate(workload: str, seed: int, root: Path) -> Inputs:
    root.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](seed, root)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    print(" ".join(["noisy-align", *inputs.argv]))


if __name__ == "__main__":
    main()
