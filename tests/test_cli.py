import argparse
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import noisy_align
from noisy_align import align, cli, experiments
from noisy_align.align import random_orthogonal, save_matrix
from noisy_align.cli import build_parser, main
from noisy_align.io import EmbeddingSet, save_embeddings


def make_set(tokens, vectors):
    vectors = np.asarray(vectors, dtype=float)
    return EmbeddingSet(tokens=list(tokens), vectors=vectors)


@pytest.fixture
def bilingual(tmp_path):
    """Planted bilingual instance: 10% of the training pairs are corrupted.

    Target space is an orthogonal transform of the source space; the
    training lexicon maps s_i -> t_i except for five pairs pointing at
    the wrong target word.
    """
    rng = np.random.default_rng(0)
    d, n = 10, 60
    Q = random_orthogonal(d, seed=99)
    src_vec = rng.standard_normal((d, n))
    src = make_set([f"s{i}" for i in range(n)], src_vec)
    tgt = make_set([f"t{i}" for i in range(n)], Q @ src_vec)
    src_path, tgt_path = tmp_path / "src.txt", tmp_path / "tgt.txt"
    save_embeddings(src, src_path)
    save_embeddings(tgt, tgt_path)

    noisy = {3, 11, 24, 37, 45}
    train_lines = []
    for i in range(50):
        j = (i + 25) % 50 if i in noisy else i
        train_lines.append(f"s{i}\tt{j}")
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(train_lines) + "\n")
    test = tmp_path / "test.tsv"
    test.write_text("".join(f"s{i}\tt{i}\n" for i in range(50, 60)))
    return {"src": src_path, "tgt": tgt_path, "train": train, "test": test,
            "noisy": noisy, "dir": tmp_path}


def exit_code(run):
    """The exit code of run(), whether returned or raised by argparse."""
    try:
        return run()
    except SystemExit as exc:
        return exc.code


def run_align(bilingual, out, extra=()):
    return main(["align",
                 "--src-emb", str(bilingual["src"]),
                 "--tgt-emb", str(bilingual["tgt"]),
                 "--lexicon", str(bilingual["train"]),
                 "--test-lexicon", str(bilingual["test"]),
                 "--output-dir", str(out), *extra])


def record_calls(monkeypatch, *names):
    """The order in which the named `cli` functions are called."""
    events = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    return events


class TestAlign:
    def test_em_hard_end_to_end(self, bilingual, tmp_path):
        out = tmp_path / "out"
        assert run_align(bilingual, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["p_at_1"] == 1.0
        assert report["n_queries"] == 10
        assert report["noise_rate"] == pytest.approx(0.1, abs=0.02)
        assert (out / "matrix.txt").exists()
        assert (out / "model.txt").exists()
        noise_rows = [line for line in
                      (out / "responsibilities.tsv").read_text().splitlines()[1:]
                      if line.endswith("Noise")]
        assert {int(r.split("\t")[0]) for r in noise_rows} == bilingual["noisy"]

    def test_model_begins_with_the_matrix_formatted_once(self, bilingual, tmp_path,
                                                         monkeypatch):
        formatted = []
        real = align._matrix_lines
        monkeypatch.setattr(align, "_matrix_lines",
                            lambda Q: formatted.append(Q.shape) or real(Q))
        out = tmp_path / "out"
        assert run_align(bilingual, out, ["--method", "em-hard"]) == 0
        assert formatted == [(10, 10)]
        model = (out / "model.txt").read_bytes().splitlines(keepends=True)
        assert b"".join(model[:11]) == (out / "matrix.txt").read_bytes()

    def test_blas_is_parked_between_the_last_blas_call_and_the_writes(
            self, bilingual, tmp_path, monkeypatch):
        events = record_calls(monkeypatch, "precision_at_1", "park",
                              "write_responsibilities_tsv", "_save_model_and_matrix")
        assert run_align(bilingual, tmp_path / "out") == 0
        assert events == ["precision_at_1", "park", "write_responsibilities_tsv",
                          "_save_model_and_matrix"]

    def test_op_method_writes_matrix_only(self, bilingual, tmp_path):
        out = tmp_path / "op_out"
        assert run_align(bilingual, out, ["--method", "op"]) == 0
        assert (out / "matrix.txt").exists()
        assert not (out / "model.txt").exists()

    def test_empty_lexicon_is_data_error(self, bilingual, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main(["align", "--src-emb", str(bilingual["src"]),
                     "--tgt-emb", str(bilingual["tgt"]),
                     "--lexicon", str(empty),
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert "zero resolvable pairs" in capsys.readouterr().err

    def test_unresolvable_test_lexicon_fails_before_the_fit(self, bilingual, tmp_path,
                                                            capsys):
        bilingual["test"].write_text("s0\tnowhere\nnowhere\tt0\n")
        out = tmp_path / "o"
        assert run_align(bilingual, out) == 2
        assert f"zero resolvable pairs in {bilingual['test']}" in capsys.readouterr().err
        assert not out.exists()

    def test_cached_inputs_give_identical_outputs(self, bilingual, tmp_path, capsys,
                                                  caplog, cache_home):
        with bilingual["src"].open("a") as fh:
            fh.write("s0" + " 0" * 10 + "\n")  # a duplicate row: skipped, with a warning
        old = time.time_ns() - 60 * 10**9
        for name in ("src", "tgt"):
            os.utime(bilingual[name], ns=(old, old))
        runs = []
        for out in ("miss", "hit"):
            caplog.clear()
            assert run_align(bilingual, tmp_path / out, ["--method", "em-soft"]) == 0
            runs.append((capsys.readouterr(), caplog.messages,
                         sorted(os.listdir(cache_home / "noisy-align"))))
        assert runs[0] == runs[1] and len(runs[0][2]) == 2
        assert "skipped 1 malformed/duplicate rows" in runs[0][1][0]
        for name in os.listdir(tmp_path / "miss"):
            assert (tmp_path / "miss" / name).read_bytes() == \
                (tmp_path / "hit" / name).read_bytes(), name

    def test_sgd_flags_with_em_method_is_usage_error(self, bilingual, tmp_path, capsys):
        code = exit_code(lambda: run_align(bilingual, tmp_path / "y",
                                           ["--method", "em-hard", "--learning-rate", "0.01"]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: noisy-align align")
        assert "invalid with method" in err

    def test_sgd_flag_overrides_only_its_own_field(self, bilingual, tmp_path):
        # 200 is the default, so giving it must not switch the step or batch
        assert run_align(bilingual, tmp_path / "a", ["--method", "sgd"]) == 0
        assert run_align(bilingual, tmp_path / "b", ["--method", "sgd",
                                                     "--epochs", "200"]) == 0
        assert (tmp_path / "a" / "matrix.txt").read_bytes() == \
            (tmp_path / "b" / "matrix.txt").read_bytes()

    def test_sgd_seed_drives_minibatch_shuffles(self, bilingual, tmp_path):
        for seed in "12":
            flags = ["--method", "sgd", "--batch-size", "32", "--seed", seed]
            assert run_align(bilingual, tmp_path / seed, flags) == 0
        assert (tmp_path / "1" / "matrix.txt").read_bytes() != \
            (tmp_path / "2" / "matrix.txt").read_bytes()

    @staticmethod
    def align_huge(method, value, tmp_path):
        """The CLI in a separate process, which is stopped if it hangs, on
        vectors whose d x d products overflow."""
        emb = tmp_path / "huge.txt"
        emb.write_text(f"a {value} 0 3\nb 0 1e200 1\nc {value} {value} 2\n"
                       f"d 5 -1e200 1\n")
        lex = tmp_path / "lex.tsv"
        lex.write_text("a\ta\nb\tb\nc\tc\nd\td\n")
        src = str(Path(noisy_align.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "noisy_align.cli", "align", "--src-emb", str(emb),
             "--tgt-emb", str(emb), "--lexicon", str(lex), "--method", method,
             "--output-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("method,value", [("em-hard", "1e200"), ("op", "1e200"),
                                              ("em-hard", "1.5e308")])
    def test_huge_vectors_are_a_data_error_not_a_hang(self, method, value, tmp_path):
        # the SVD of a matrix holding inf may never return
        done = self.align_huge(method, value, tmp_path)
        assert done.returncode == 2
        assert "overflows float64: the vectors are too large" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("value", ["1e200", "1.5e308"])
    def test_huge_vectors_under_sgd_are_one_line_data_error(self, value, tmp_path):
        # no overflow warning, no LAPACK message and no "diverged"
        done = self.align_huge("sgd", value, tmp_path)
        assert done.returncode == 2
        assert done.stderr == ("noisy-align: data error: X X^T overflows float64: "
                               "the vectors are too large\n")

    def test_sgd_divergence_is_one_line_data_error(self, bilingual, tmp_path, capsys):
        code = run_align(bilingual, tmp_path / "z", ["--method", "sgd",
                                                     "--learning-rate", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "learning_rate=10.0" in err

    def test_stopping_at_max_iters_logs_a_warning(self, bilingual, tmp_path, caplog):
        # the fit converges in 2 iterations, so a cap of 1 stops it early
        with caplog.at_level(logging.WARNING, logger="noisy_align.mixture"):
            assert run_align(bilingual, tmp_path / "o", ["--max-iters", "1"]) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "noisy_align.mixture"]
        assert len(messages) == 1 and "max_iters=1 without converging" in messages[0]

    def test_converged_fit_logs_no_warning(self, bilingual, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="noisy_align.mixture"):
            assert run_align(bilingual, tmp_path / "o") == 0
        assert not [r for r in caplog.records if r.name == "noisy_align.mixture"]

    def test_computed_values_pass_the_report_range_check(self, bilingual, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(cli, "precision_at_1", lambda *args: (1.5, 4))
        assert run_align(bilingual, tmp_path / "o") == 2
        assert "p_at_1 must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", "--src-emb", "a.txt"])
        assert exc.value.code == 1

    def test_config_file_defaults_and_flag_override(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = op\n")
        out = tmp_path / "cfg_out"
        assert run_align(bilingual, out, ["--config", str(cfg)]) == 0
        assert not (out / "model.txt").exists()  # config picked op
        # an EM key is a usage error with op, as the flag is
        cfg.write_text("method = op\nmax-iters = 7\n")
        assert exit_code(lambda: run_align(bilingual, out, ["--config", str(cfg)])) == 1
        out2 = tmp_path / "cfg_out2"
        assert run_align(bilingual, out2,
                         ["--config", str(cfg), "--method", "em-hard"]) == 0
        assert (out2 / "model.txt").exists()  # explicit flag wins
        # the fit converges in 2 iterations, so a cap of 1 shows
        cfg.write_text("method = em-hard\nmax-iters = 1\n")
        for flags, iterations in ([], 1), (["--max-iters=7"], 2), (["--max-iters", "7"], 2):
            out3 = tmp_path / "cfg_out3"
            assert run_align(bilingual, out3, ["--config", str(cfg), *flags]) == 0
            report = json.loads((out3 / "report.json").read_text())
            assert report["iterations"] == iterations, flags

    @pytest.mark.parametrize("text", ["method = bogus\n", "max-iters = x\n",
                                      "bogus-key = 1\n", "normalize = maybe\n"])
    def test_bad_config_value_is_usage_error(self, bilingual, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert exit_code(lambda: run_align(bilingual, tmp_path / "o",
                                           ["--config", str(cfg)])) == 1

    def test_malformed_or_missing_config_is_data_error(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method em-hard\n")
        assert run_align(bilingual, tmp_path / "o", ["--config", str(cfg)]) == 2
        assert run_align(bilingual, tmp_path / "o",
                         ["--config", str(tmp_path / "missing.cfg")]) == 2

    def test_config_switch_matches_flag(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = true\n")
        assert run_align(bilingual, tmp_path / "a", ["--config", str(cfg)]) == 0
        assert run_align(bilingual, tmp_path / "b", ["--normalize"]) == 0
        assert run_align(bilingual, tmp_path / "c") == 0
        reports = [(tmp_path / o / "report.json").read_text() for o in "abc"]
        assert reports[0] == reports[1] != reports[2]


def test_zero_vector_test_word_is_scored_as_a_miss(bilingual, tmp_path):
    src = tmp_path / "src_zero.txt"
    src.write_text(bilingual["src"].read_text() + "s_zero" + " 0" * 10 + "\n")
    test = tmp_path / "test_zero.tsv"
    test.write_text(bilingual["test"].read_text() + "s_zero\tt0\n")
    out = tmp_path / "out"
    code = main(["align", "--src-emb", str(src), "--tgt-emb", str(bilingual["tgt"]),
                 "--lexicon", str(bilingual["train"]), "--test-lexicon", str(test),
                 "--output-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_queries"] == 11
    assert report["p_at_1"] == pytest.approx(10 / 11)


def test_clean_lexicon_emits_only_tsv(bilingual, tmp_path):
    out = tmp_path / "clean"
    code = main(["clean-lexicon",
                 "--src-emb", str(bilingual["src"]),
                 "--tgt-emb", str(bilingual["tgt"]),
                 "--lexicon", str(bilingual["train"]),
                 "--output-dir", str(out)])
    assert code == 0
    assert (out / "responsibilities.tsv").exists()
    assert not (out / "matrix.txt").exists()


def test_clean_lexicon_rejects_non_em_method(bilingual, tmp_path, capsys):
    code = exit_code(lambda: main(["clean-lexicon",
                                   "--src-emb", str(bilingual["src"]),
                                   "--tgt-emb", str(bilingual["tgt"]),
                                   "--lexicon", str(bilingual["train"]),
                                   "--method", "op",
                                   "--output-dir", str(tmp_path / "z")]))
    assert code == 1
    assert "--method" in capsys.readouterr().err


def test_evaluate_saved_matrix(bilingual, tmp_path):
    out = tmp_path / "fit"
    assert run_align(bilingual, out) == 0
    ev = tmp_path / "eval"
    code = main(["evaluate",
                 "--src-emb", str(bilingual["src"]),
                 "--tgt-emb", str(bilingual["tgt"]),
                 "--matrix", str(out / "matrix.txt"),
                 "--test-lexicon", str(bilingual["test"]),
                 "--output-dir", str(ev)])
    assert code == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["p_at_1"] == 1.0


def test_evaluate_empty_matrix_is_data_error(bilingual, tmp_path, capsys):
    empty = tmp_path / "matrix.txt"
    empty.write_text("")
    code = main(["evaluate",
                 "--src-emb", str(bilingual["src"]),
                 "--tgt-emb", str(bilingual["tgt"]),
                 "--matrix", str(empty),
                 "--test-lexicon", str(bilingual["test"]),
                 "--output-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def run_evaluate(bilingual, matrix, out, tgt=None):
    return main(["evaluate",
                 "--src-emb", str(bilingual["src"]),
                 "--tgt-emb", str(tgt or bilingual["tgt"]),
                 "--matrix", str(matrix),
                 "--test-lexicon", str(bilingual["test"]),
                 "--output-dir", str(out)])


def test_evaluate_matrix_of_another_size_is_one_line_data_error(bilingual, tmp_path, capsys):
    save_matrix(np.eye(3), tmp_path / "m3.txt")
    assert run_evaluate(bilingual, tmp_path / "m3.txt", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "matrix dimension mismatch: matrix d=3, embedding d=10" in err


def test_evaluate_target_set_of_another_size_is_one_line_data_error(bilingual, tmp_path,
                                                                    capsys):
    tgt = tmp_path / "tgt4.txt"
    save_embeddings(make_set([f"t{i}" for i in range(60)], np.ones((4, 60))), tgt)
    save_matrix(np.eye(10), tmp_path / "m.txt")
    assert run_evaluate(bilingual, tmp_path / "m.txt", tmp_path / "eval", tgt=tgt) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "embedding dimension mismatch: src d=10, tgt d=4" in err


@pytest.mark.filterwarnings("error")
def test_evaluate_overflowing_test_error_is_one_line_data_error(bilingual, tmp_path, capsys):
    # a finite map whose squared residuals overflow float64
    save_matrix(1e306 * np.eye(10), tmp_path / "huge.txt")
    assert run_evaluate(bilingual, tmp_path / "huge.txt", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows" in err
    assert not (tmp_path / "eval" / "report.json").exists()


class TestSynthetic2d:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "s2d"
        assert main(["synthetic-2d", "--seed", "4",
                     "--output-dir", str(out)]) == 0
        report = json.loads((out / "synthetic_2d.json").read_text())
        assert set(report["noisy"]["clean_error"]) == {"op", "sgd", "em-hard"}
        assert report["noisy"]["clean_error"]["em-hard"] < 1e-6
        assert len(report["noisy"]["points"]["true"][0]) == 10

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synthetic-2d", "--seed", "2", "--output-dir", str(a)])
        main(["synthetic-2d", "--seed", "2", "--output-dir", str(b)])
        assert (a / "synthetic_2d.json").read_bytes() == \
            (b / "synthetic_2d.json").read_bytes()


class TestNoiseCurve:
    def test_row_count_and_determinism(self, tmp_path):
        args = ["noise-curve", "--n", "50", "--d", "5", "--test-n", "20",
                "--levels", "0,0.2", "--seeds", "2", "--methods", "op,em-hard"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(a)]) == 0
        assert main(args + ["--output-dir", str(b)]) == 0
        lines = (a / "noise_curve.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + methods*levels*seeds
        assert (a / "noise_curve.csv").read_bytes() == \
            (b / "noise_curve.csv").read_bytes()

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        assert exit_code(lambda: main(["noise-curve", "--methods", "op,bogus",
                                       "--output-dir", str(tmp_path)])) == 1
        assert "usage: noisy-align noise-curve" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        # round(0.9 * 2) == 2: every training pair would be noisy
        (["--n", "2", "--levels", "0.9"], "noise level 0.9 must lie in [0, 1) and leave one"),
        (["--n", "1", "--methods", "em-hard"], "need at least 2 training pairs"),
    ], ids=["all-pairs-noisy", "em-on-one-pair"])
    def test_no_usable_training_pairs_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert exit_code(lambda: main(["noise-curve", *flags, "--output-dir", str(out)])) == 1
        err = capsys.readouterr().err
        assert "usage: noisy-align noise-curve" in err and message in err
        assert not out.exists()

    def test_library_names_the_level_before_fitting(self, monkeypatch):
        monkeypatch.setattr(experiments, "fit_translation", None)  # never reached
        with pytest.raises(ValueError, match="noise level 0.75"):
            experiments.run_noise_curve(n=2, d=3, levels=(0.0, 0.75), methods=("op",))


class TestDiachronic:
    def base_args(self, src, tgt, out):
        return ["diachronic", "--src-emb", str(src), "--tgt-emb", str(tgt),
                "--output-dir", str(out)]

    def test_identical_spaces(self, tmp_path):
        rng = np.random.default_rng(5)
        emb = make_set([f"w{i}" for i in range(40)], rng.standard_normal((6, 40)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        out = tmp_path / "out"
        assert main(self.base_args(path, path, out)) == 0
        summary = json.loads((out / "diachronic_summary.json").read_text())
        assert summary["noise_fraction"] == pytest.approx(0.0)
        ranking = (out / "shift_ranking.tsv").read_text().splitlines()[1:]
        assert all(float(r.split("\t")[1]) < 1e-8 for r in ranking)

    def test_planted_shifts_flagged(self, tmp_path):
        rng = np.random.default_rng(6)
        d, n, n_shift = 10, 300, 15
        Q = random_orthogonal(d, seed=7)
        src_vec = rng.standard_normal((d, n))
        tgt_vec = Q @ src_vec
        shifted = rng.choice(n, size=n_shift, replace=False)
        tgt_vec[:, shifted] = rng.standard_normal((d, n_shift))
        tokens = [f"w{i}" for i in range(n)]
        src_p, tgt_p = tmp_path / "old.txt", tmp_path / "new.txt"
        save_embeddings(make_set(tokens, src_vec), src_p)
        save_embeddings(make_set(tokens, tgt_vec), tgt_p)
        out = tmp_path / "out"
        assert main(self.base_args(src_p, tgt_p, out)) == 0
        rows = (out / "shift_ranking.tsv").read_text().splitlines()[1:]
        top = rows[:n_shift]
        assert {r.split("\t")[0] for r in top} == {f"w{i}" for i in shifted}
        assert all(r.split("\t")[2] == "Noise" for r in top)

    def test_blas_is_parked_between_the_ranking_and_the_writes(self, tmp_path,
                                                               monkeypatch):
        emb = make_set([f"w{i}" for i in range(30)],
                       np.random.default_rng(9).standard_normal((4, 30)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        events = record_calls(monkeypatch, "fit_translation", "rank_semantic_shift",
                              "park", "write_shift_ranking_tsv", "save_model")
        assert main(self.base_args(path, path, tmp_path / "out")) == 0
        assert events == ["fit_translation", "rank_semantic_shift", "park",
                          "write_shift_ranking_tsv", "save_model"]

    def test_threshold_without_tables_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        emb = make_set(["a", "b"], rng.standard_normal((3, 2)))
        path = tmp_path / "e.txt"
        save_embeddings(emb, path)
        code = exit_code(lambda: main(self.base_args(path, path, tmp_path / "o")
                                      + ["--threshold", "1e-5"]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: noisy-align diachronic")
        assert "requires" in err

    def test_stoplist_and_frequency_filter(self, tmp_path):
        rng = np.random.default_rng(9)
        tokens = [f"w{i}" for i in range(20)]
        emb = make_set(tokens, rng.standard_normal((5, 20)))
        path = tmp_path / "e.txt"
        save_embeddings(emb, path)
        (tmp_path / "stop.txt").write_text("w0\nw1\n")
        freq_lines = "".join(f"{t}\t{0.001 if i % 2 else 1e-9}\n"
                             for i, t in enumerate(tokens))
        (tmp_path / "freqs.tsv").write_text(freq_lines)
        out = tmp_path / "out"
        code = main(self.base_args(path, path, out) +
                    ["--stoplist", str(tmp_path / "stop.txt"),
                     "--src-freqs", str(tmp_path / "freqs.tsv"),
                     "--tgt-freqs", str(tmp_path / "freqs.tsv"),
                     "--threshold", "1e-5"])
        assert code == 0
        ranked = {line.split("\t")[0] for line in
                  (out / "shift_ranking.tsv").read_text().splitlines()[1:]}
        assert "w0" not in ranked and "w1" not in ranked  # stop-listed
        assert "w2" not in ranked  # below frequency threshold
        assert "w3" in ranked


class TestFlagSurface:
    """Each subcommand takes only the flags it reads."""

    REQUIRED = {
        "align": ["--src-emb", "s", "--tgt-emb", "t", "--lexicon", "l"],
        "clean-lexicon": ["--src-emb", "s", "--tgt-emb", "t", "--lexicon", "l"],
        "evaluate": ["--src-emb", "s", "--tgt-emb", "t", "--matrix", "m",
                     "--test-lexicon", "x"],
        "synthetic-2d": [],
        "noise-curve": [],
        "diachronic": ["--src-emb", "s", "--tgt-emb", "t"],
    }
    REMOVED = [
        *(("clean-lexicon", f) for f in ("--test-lexicon", "--seed", "--learning-rate",
                                         "--epochs", "--batch-size")),
        *(("evaluate", f) for f in ("--method", "--seed", "--epsilon", "--max-iters")),
        *(("synthetic-2d", f) for f in ("--method", "--epsilon", "--max-iters",
                                        "--normalize")),
        *(("noise-curve", f) for f in ("--method", "--seed", "--epsilon", "--max-iters",
                                       "--normalize")),
        ("diachronic", "--method"),
        ("diachronic", "--seed"),
    ]

    def test_flag_counts(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        counts = {name: sum(1 for a in p._actions if a.option_strings and a.dest != "help")
                  for name, p in sub.choices.items()}
        assert counts == {"align": 15, "clean-lexicon": 10, "evaluate": 8,
                          "synthetic-2d": 3, "noise-curve": 8, "diachronic": 12}

    @pytest.mark.parametrize("command,flag", REMOVED)
    def test_removed_flag_is_usage_error(self, command, flag, tmp_path, capsys):
        argv = [command, *self.REQUIRED[command], flag, "1", "--output-dir", str(tmp_path)]
        assert exit_code(lambda: main(argv)) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    BAD_VALUES = [
        *(("align", f, v) for f, v in (("--max-iters", "0"), ("--epsilon", "-1"),
                                       ("--epsilon", "nan"), ("--epochs", "0"),
                                       ("--batch-size", "0"), ("--learning-rate", "-1"),
                                       ("--learning-rate", "inf"), ("--seed", "-1"))),
        ("clean-lexicon", "--epsilon", "0"),
        ("diachronic", "--max-iters", "0"),
        *(("diachronic", "--threshold", v) for v in ("nan", "-1", "5", "inf")),
        *(("noise-curve", f, v) for f, v in (("--d", "0"), ("--n", "0"), ("--test-n", "0"),
                                             ("--seeds", "0"), ("--levels", "1.5"),
                                             ("--levels", "0,-0.1"), ("--levels", "x"),
                                             ("--levels", ","), ("--levels", "0.1,0.1"),
                                             ("--levels", "0,,0.1"), ("--methods", ","),
                                             ("--methods", "op,op"), ("--methods", "op,bogus"))),
        ("synthetic-2d", "--seed", "-1"),
    ]

    @pytest.mark.parametrize("command,flag,value", BAD_VALUES)
    def test_bad_numeric_value_is_usage_error(self, command, flag, value, tmp_path,
                                              capsys):
        argv = [command, *self.REQUIRED[command], flag, value,
                "--output-dir", str(tmp_path)]
        assert exit_code(lambda: main(argv)) == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    METHOD_FLAGS = [
        *((method, f, v) for method in ("op", "sgd")
          for f, v in (("--epsilon", "0.1"), ("--max-iters", "3"))),
        ("op", "--learning-rate", "0.1"),
        ("em-soft", "--epochs", "5"),
        ("em-hard", "--batch-size", "8"),
        ("em-hard", "--seed", "5"),
    ]

    @pytest.mark.parametrize("method,flag,value", METHOD_FLAGS)
    def test_flag_of_another_method_is_usage_error(self, method, flag, value, tmp_path,
                                                   capsys):
        # the files named in REQUIRED do not exist: the flags are checked first
        argv = ["align", *self.REQUIRED["align"], "--method", method, flag, value,
                "--output-dir", str(tmp_path)]
        assert exit_code(lambda: main(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: noisy-align align")
        assert f"invalid with method {method!r}" in err

    def test_abbreviated_flag_is_usage_error(self, bilingual, tmp_path):
        # --seed would otherwise match noise-curve's --seeds
        assert exit_code(lambda: main(["noise-curve", "--seed", "3",
                                       "--output-dir", str(tmp_path)])) == 1
        # and a config key `max` would match --max-iters
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max = 1\n")
        assert exit_code(lambda: run_align(bilingual, tmp_path / "o",
                                           ["--config", str(cfg)])) == 1

    def test_limit_below_one_is_usage_error(self, bilingual, tmp_path):
        assert exit_code(lambda: run_align(bilingual, tmp_path / "o",
                                           ["--limit", "0"])) == 1

    def test_switch_and_int_config_values(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iters = false\n")
        assert exit_code(lambda: run_align(bilingual, tmp_path / "o",
                                           ["--config", str(cfg)])) == 1
        cfg.write_text("normalize = true\n")
        assert run_align(bilingual, tmp_path / "a",
                         ["--config", str(cfg), "--normalize=false"]) == 0
        assert run_align(bilingual, tmp_path / "b") == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestDiachronicConfig:
    @pytest.fixture
    def spaces(self, tmp_path):
        rng = np.random.default_rng(5)
        emb = make_set([f"w{i}" for i in range(40)], rng.standard_normal((6, 40)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        return path

    def test_required_flags_from_config(self, spaces, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"src-emb = {spaces}\ntgt-emb = {spaces}\nmax-iters = 3\n")
        for flags in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / "out"
            assert main(["diachronic", *flags, "--output-dir", str(out)]) == 0
            assert (out / "shift_ranking.tsv").exists()

    def test_unread_key_is_usage_error(self, spaces, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        argv = ["diachronic", "--src-emb", str(spaces), "--tgt-emb", str(spaces),
                "--config", str(cfg), "--output-dir", str(tmp_path / "o")]
        assert exit_code(lambda: main(argv)) == 1
        assert "--seed=1" in capsys.readouterr().err
