"""Output checks for one CLI invocation of each workload.

Each check returns (problems, quality): a list of what is wrong with the
outputs (empty when they are correct) and the quality figures read from
them (`p_at_1`, `noise_f1`). An invocation with any problem, or a non-zero
exit code, counts as failed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Floors that only a broken EM falls below. On bli-align the planted noise
# that points into the right word's cluster is hard to tell from a true
# translation, so F1 there sits near 2/3 (the far half is found).
NOISE_F1_FLOOR = {"bli-align": 0.5, "diachronic": 0.9}
# top-1/top-2 score margin below which float rounding may flip a retrieval
TIE_MARGIN = 1e-9


def _read_tsv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE))


def _load_matrix(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    d = int(lines[0])
    return np.array([row.split() for row in lines[1:d + 1]], dtype=np.float64)


def _noise_f1(rows: list[list[str]], planted: set) -> float:
    flagged = {(r[1], r[2]) for r in rows if r[4] == "Noise"}
    if not planted and not flagged:
        return 1.0
    return 2.0 * len(flagged & planted) / (len(flagged) + len(planted))


def _check_responsibilities(out: Path, pairs: list[tuple[str, str]]) -> tuple[list, list]:
    rows = _read_tsv(out / "responsibilities.tsv")
    problems = []
    if rows[:1] != [["pair_index", "src_token", "tgt_token", "w", "label"]]:
        problems.append("responsibilities.tsv: bad header")
    rows = rows[1:]
    if len(rows) != len(pairs):
        problems.append(f"responsibilities.tsv: {len(rows)} rows for {len(pairs)} pairs")
    elif [(r[1], r[2]) for r in rows] != pairs:
        problems.append("responsibilities.tsv: rows do not follow the lexicon")
    if any(r[4] not in ("Aligned", "Noise") or not 0.0 <= float(r[3]) <= 1.0 for r in rows):
        problems.append("responsibilities.tsv: bad weight or label")
    return problems, rows


def reference_p_at_1(Q: np.ndarray, truth: dict) -> tuple[int, int]:
    """Brute-force P@1 hits of Q, and how many queries are near-ties."""
    mapped = truth["test_src"] @ Q.T
    mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    scores = mapped @ truth["tgt_unit"].T               # queries x V
    rows = np.arange(len(scores))
    best = np.argmax(scores, axis=1)
    top = scores[rows, best].copy()
    scores[rows, best] = -np.inf
    hits = int(np.sum(best == truth["test_gold"]))
    ties = int(np.sum(top - scores.max(axis=1) < TIE_MARGIN))
    return hits, ties


def check_bli(out: Path, truth: dict) -> tuple[list, dict]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = [f"report.json: missing {k}" for k in
                ("p_at_1", "n_queries", "test_error", "iterations", "noise_rate")
                if k not in report]
    if problems:
        return problems, {}
    n = len(truth["test_gold"])
    p = report["p_at_1"]
    if report["n_queries"] != n:
        problems.append(f"report.json: n_queries {report['n_queries']} != {n}")
    if not 0.0 < p < 1.0:
        problems.append(f"report.json: p_at_1 {p} not inside (0, 1)")
    if report["iterations"] < 1 or not 0.0 <= report["noise_rate"] <= 1.0:
        problems.append("report.json: bad iterations or noise_rate")
    Q = _load_matrix(out / "matrix.txt")
    if np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0])) > 1e-6:
        problems.append("matrix.txt: not orthogonal")
    hits, ties = reference_p_at_1(Q, truth)
    if abs(round(p * n) - hits) > ties:
        problems.append(f"p_at_1 {p} != brute-force reference {hits / n}")
    more, rows = _check_responsibilities(out, truth["train_pairs"])
    problems += more
    if not (out / "model.txt").is_file():
        problems.append("model.txt missing")
    f1 = _noise_f1(rows, truth["noisy_pairs"])
    if f1 < NOISE_F1_FLOOR["bli-align"]:
        problems.append(f"noise_f1 {f1:.4f} below {NOISE_F1_FLOOR['bli-align']}")
    return problems, {"p_at_1": p, "noise_f1": f1}


def check_diachronic(out: Path, truth: dict) -> tuple[list, dict]:
    summary = json.loads((out / "diachronic_summary.json").read_text(encoding="utf-8"))
    keys = ("pairs", "noise_fraction", "noisy_after_filter",
            "dropped_below_threshold", "iterations")
    problems = [f"diachronic_summary.json: missing {k}" for k in keys if k not in summary]
    if problems:
        return problems, {}
    if summary["pairs"] != truth["pairs"]:
        problems.append(f"pairs {summary['pairs']} != {truth['pairs']}")
    ranking = _read_tsv(out / "shift_ranking.tsv")
    if ranking[:1] != [["token", "cosine_distance", "label"]]:
        problems.append("shift_ranking.tsv: bad header")
    ranking = ranking[1:]
    dist = [float(r[1]) for r in ranking]
    if any(a < b for a, b in zip(dist, dist[1:])):
        problems.append("shift_ranking.tsv: not sorted by descending distance")
    if len(ranking) != summary["pairs"] - summary["dropped_below_threshold"]:
        problems.append("shift_ranking.tsv: row count does not match the summary")
    ranked = json.loads((out / "shift_ranking.json").read_text(encoding="utf-8"))
    if len(ranked) != len(ranking):
        problems.append("shift_ranking.json: row count differs from the TSV")
    rows = _read_tsv(out / "responsibilities.tsv")[1:]
    if len(rows) != summary["pairs"]:
        problems.append(f"responsibilities.tsv: {len(rows)} rows for "
                        f"{summary['pairs']} pairs")
    if not (out / "model.txt").is_file():
        problems.append("model.txt missing")
    planted = {(t, t) for t in truth["shifted"]}
    f1 = _noise_f1(rows, planted)
    if f1 < NOISE_F1_FLOOR["diachronic"]:
        problems.append(f"noise_f1 {f1:.4f} below {NOISE_F1_FLOOR['diachronic']}")
    return problems, {"noise_f1": f1}


def check_noise_curve(out: Path, truth: dict) -> tuple[list, dict]:
    with open(out / "noise_curve.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != truth["rows"]:
        problems.append(f"noise_curve.csv: {len(rows)} rows, expected {truth['rows']}")
    errors: dict = {}
    for r in rows:
        errors.setdefault((r["method"], float(r["p"])), []).append(float(r["test_error"]))
    # acceptance criterion 2: EM error < 1% of Procrustes' up to 40% noise;
    # at p=0 both are exact and differ only by roundoff
    for p in sorted({p for _, p in errors}):
        if p > 0.4:
            continue
        op = np.mean(errors.get(("op", p), [np.nan]))
        em = np.mean(errors.get(("em-hard", p), [np.nan]))
        if not em < max(0.01 * op, 1e-12):
            problems.append(f"noise_curve.csv: em-hard error {em:.4g} not < 1% "
                            f"of op {op:.4g} at p={p}")
    return problems, {}


CHECKS = {"bli-align": check_bli, "diachronic": check_diachronic,
          "noise-curve": check_noise_curve}


def check(workload: str, out: Path, truth: dict) -> tuple[list, dict]:
    """Check one invocation's output directory; unreadable outputs are problems."""
    try:
        return CHECKS[workload](out, truth)
    except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
