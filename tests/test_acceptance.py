"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

Criterion 8 covers numbers that require external datasets (published
bilingual dictionaries and historical corpora); those values are not
desk-reproducible, so the test verifies the reporting surfaces exist and
carry the fields needed to check them manually when the data is supplied.
"""

import json
import time

import numpy as np
import pytest

from noisy_align.align import (
    alignment_error,
    procrustes,
    random_orthogonal,
    sgd_align,
    sgd_objective_grad,
    SgdConfig,
)
from noisy_align.cli import main
from noisy_align.evaluation import precision_at_1
from noisy_align.io import EmbeddingSet, Lexicon, save_embeddings
from noisy_align.mixture import EmConfig, em_fit
from noisy_align.experiments import run_noise_curve, run_synthetic_2d
from noisy_align.synthetic import make_noisy_problem


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_single_noisy_pair_2d():
    start = time.monotonic()
    sgd_worse = 0
    op_positive = True
    em_perfect = True
    for seed in range(20):
        r = run_synthetic_2d(seed)
        errs = r["noisy"]["clean_error"]
        op_positive &= errs["op"] > 0
        em_perfect &= errs["em-hard"] < 1e-6
        if errs["sgd"] > errs["op"]:
            sgd_worse += 1
    elapsed = time.monotonic() - start
    ok = op_positive and em_perfect and sgd_worse >= 18 and elapsed < 5.0
    report(1, ok, f"sgd>op in {sgd_worse}/20, em perfect={em_perfect}, "
                  f"elapsed={elapsed:.2f}s")


def test_criterion_2_noise_curve_desk_scale():
    start = time.monotonic()
    levels = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    rows = run_noise_curve(n=1000, d=50, levels=levels, test_n=300,
                           seeds=range(10), methods=("op", "em-hard"))
    elapsed = time.monotonic() - start
    means = {}
    for method, p, _, _, te in rows:
        means.setdefault((method, p), []).append(te)
    op = {p: np.mean(means[("op", p)]) for p in levels}
    em = {p: np.mean(means[("em-hard", p)]) for p in levels}
    increasing = all(op[a] < op[b] for a, b in zip(levels, levels[1:]))
    # at p=0 both methods are exact and the errors are pure roundoff;
    # the <1% ratio applies where OP actually degrades
    robust = all(em[p] < max(0.01 * op[p], 1e-12) for p in levels if p <= 0.4)
    ok = increasing and robust and elapsed < 120.0
    report(2, ok, f"op increasing={increasing}, em<1% of op={robust}, "
                  f"elapsed={elapsed:.1f}s")


def test_criterion_3_noise_identification_f1():
    worst = 1.0
    for seed in range(10):
        prob = make_noisy_problem(n=1000, d=50, p=0.2, seed=seed)
        _, resp, _ = em_fit(prob.X, prob.Y)
        planted = ~prob.clean_mask
        predicted = ~resp.h
        tp = int((planted & predicted).sum())
        f1 = 2 * tp / (planted.sum() + predicted.sum())
        worst = min(worst, f1)
        assert f1 >= 0.99, f"seed {seed}: F1={f1}"
    report(3, worst >= 0.99, f"worst F1={worst:.4f} over 10 seeds")


def test_criterion_4_procrustes_optimality_suite():
    rng = np.random.default_rng(2024)
    probes = {d: np.stack([random_orthogonal(d, s) for s in range(1000)])
              for d in range(2, 6)}
    worst_resid = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d, 51))
        X = rng.standard_normal((d, n))
        Y = rng.standard_normal((d, n))
        Q = procrustes(X, Y)
        resid = np.linalg.norm(Q.T @ Q - np.eye(d))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-8
        best = alignment_error(Q, X, Y)
        probe_objs = np.sum((probes[d] @ X - Y[None]) ** 2, axis=(1, 2))
        assert best <= probe_objs.min() + 1e-9, \
            f"random probe beat Procrustes at d={d}"
    # 2D grid-search oracle
    from test_align import grid_search_2d, objective
    for seed in range(10):
        rng2 = np.random.default_rng(seed)
        X = rng2.standard_normal((2, 15))
        Y = rng2.standard_normal((2, 15))
        Q = procrustes(X, Y)
        assert objective(Q, X, Y) <= grid_search_2d(X, Y) + 1e-6
    report(4, True, f"100 instances, worst orthogonality residual={worst_resid:.2e}")


def test_criterion_5_em_monotonicity_and_iterations():
    soft_ge_hard = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 20))
        n = int(rng.integers(30, 200))
        prob = make_noisy_problem(n, d, float(rng.uniform(0.1, 0.4)), seed)
        Y = prob.Y + 0.05 * rng.standard_normal(prob.Y.shape)
        _, _, th = em_fit(prob.X, Y, EmConfig(max_iters=100))
        _, _, ts = em_fit(prob.X, Y, EmConfig(max_iters=100), soft=True)
        for trace in (th, ts):
            objs = [o for _, o, _ in trace.steps]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:])), \
                f"non-monotone objective at seed {seed}"
            assert trace.converged, f"no convergence within 100 iters at seed {seed}"
        if ts.iterations >= th.iterations:
            soft_ge_hard += 1
    ok = soft_ge_hard > 25
    report(5, ok, f"soft iterations >= hard in {soft_ge_hard}/50 instances")


def test_criterion_6_sgd_correctness():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 11))
        X = rng.standard_normal((d, d + 30))
        Y = rng.standard_normal((d, d + 30))
        lam = np.linalg.norm(X @ X.T, ord=2)
        cfg = SgdConfig(learning_rate=0.4 / lam, epochs=5000,
                        batch_size=X.shape[1], seed=seed)
        Q = sgd_align(X, Y, cfg)
        Q_star = Y @ X.T @ np.linalg.inv(X @ X.T)
        assert np.linalg.norm(Q - Q_star) < 1e-3, f"seed {seed}"
    # gradient vs central finite differences
    rng = np.random.default_rng(77)
    X, Y = rng.standard_normal((3, 7)), rng.standard_normal((3, 7))
    Q = rng.standard_normal((3, 3))
    grad = sgd_objective_grad(Q, X, Y)
    h = 1e-6
    for i in range(3):
        for j in range(3):
            Qp, Qm = Q.copy(), Q.copy()
            Qp[i, j] += h
            Qm[i, j] -= h
            fd = (np.sum((Qp @ X - Y) ** 2) - np.sum((Qm @ X - Y) ** 2)) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))
    report(6, True, "normal-equations match and gradient check on 10 instances")


def test_criterion_7_p_at_1_oracle_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        src = EmbeddingSet(tokens=[f"s{i}" for i in range(10)],
                           vectors=rng.standard_normal((d, 10)))
        tgt = EmbeddingSet(tokens=[f"t{i}" for i in range(10)],
                           vectors=rng.standard_normal((d, 10)))
        pairs = sorted({(int(rng.integers(10)), int(rng.integers(10)))
                        for _ in range(12)})
        lex = Lexicon(pairs=pairs)
        Q = random_orthogonal(d, seed)
        got, n_q = precision_at_1(Q, lex, src, tgt)
        # independent exhaustive enumeration with multi-translation credit
        gold = {}
        for s, t in pairs:
            gold.setdefault(s, set()).add(t)
        correct = 0
        for s, targets in gold.items():
            q = Q @ src.vectors[:, s]
            sims = []
            for j in range(10):
                v = tgt.vectors[:, j]
                sims.append(float(q @ v / (np.linalg.norm(q) * np.linalg.norm(v))))
            best = max(range(10), key=lambda j: (sims[j], -j))
            if best in targets:
                correct += 1
        assert n_q == len(gold)
        assert got == correct / len(gold), f"seed {seed}"
    report(7, True, "exact match with enumeration oracle on 50 instances")


def test_criterion_8_external_dataset_reporting_surfaces(tmp_path):
    # Table-level numbers (P@1 48.53, 45.5% noise, 121 noisy words, ...)
    # need the original datasets; here we verify the fields those checks
    # would read are emitted by the align and diachronic commands.
    rng = np.random.default_rng(1)
    d, n = 8, 40
    Q = random_orthogonal(d, 5)
    vec = rng.standard_normal((d, n))
    tokens = [f"w{i}" for i in range(n)]
    src = EmbeddingSet(tokens=tokens, vectors=vec)
    tgt = EmbeddingSet(tokens=tokens, vectors=Q @ vec)
    src_p, tgt_p = tmp_path / "src.txt", tmp_path / "tgt.txt"
    save_embeddings(src, src_p)
    save_embeddings(tgt, tgt_p)
    lex_p = tmp_path / "lex.tsv"
    lex_p.write_text("".join(f"w{i}\tw{i}\n" for i in range(30)))
    test_p = tmp_path / "test.tsv"
    test_p.write_text("".join(f"w{i}\tw{i}\n" for i in range(30, 40)))

    out = tmp_path / "align_out"
    assert main(["align", "--src-emb", str(src_p), "--tgt-emb", str(tgt_p),
                 "--lexicon", str(lex_p), "--test-lexicon", str(test_p),
                 "--output-dir", str(out)]) == 0
    align_report = json.loads((out / "report.json").read_text())
    align_ok = {"p_at_1", "n_queries", "test_error", "iterations",
                "noise_rate"} <= set(align_report)

    out2 = tmp_path / "dia_out"
    assert main(["diachronic", "--src-emb", str(src_p), "--tgt-emb", str(tgt_p),
                 "--output-dir", str(out2)]) == 0
    dia_summary = json.loads((out2 / "diachronic_summary.json").read_text())
    dia_ok = {"noise_fraction", "noisy_after_filter", "iterations",
              "pairs"} <= set(dia_summary)
    report(8, align_ok and dia_ok,
           "align and diachronic emit the fields needed for manual checks")
