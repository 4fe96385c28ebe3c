import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noisy_align
from noisy_align import _cache, align, cli, experiments, io as nio, mixture
from noisy_align.align import alignment_error, random_orthogonal, save_matrix
from noisy_align.cli import build_parser, main
from noisy_align.evaluation import (precision_at_1, rank_semantic_shift,
                                    write_shift_ranking_tsv)
from noisy_align.io import EmbeddingSet, save_embeddings
from noisy_align.mixture import load_model, write_responsibilities_tsv
from test_io import declare_shape


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


def child_env():
    """The environment in which a child process imports the package the
    tests import."""
    src = str(Path(noisy_align.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli(argv, cwd=None, options=()):
    """`noisy-align argv` in a separate process, which is stopped if it
    hangs, on the package the tests import; `options` go to the
    interpreter."""
    return subprocess.run([sys.executable, *options, "-m", "noisy_align.cli", *map(str, argv)],
                          cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=60)


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


def forbid_embedding_loads(monkeypatch, *paths):
    """Fail the test if an embedding file is loaded; `paths` are aged past
    the cache's 2 s window, so that a load would also leave cache entries."""
    def load(*args, **kwargs):
        raise AssertionError(f"embedding file {args[0]} loaded")
    for path in paths:
        os.utime(path, (time.time() - 60,) * 2)
    monkeypatch.setattr(nio, "load_embeddings", load)


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
        # save_model writes both files through one _write_matrix call
        formatted = []
        real = align._write_matrix

        def write_matrix(Q, *files):
            formatted.append((Q.shape, len(files)))
            real(Q, *files)
        for module in (align, mixture):
            monkeypatch.setattr(module, "_write_matrix", write_matrix)
        out = tmp_path / "out"
        assert run_align(bilingual, out, ["--method", "em-hard"]) == 0
        assert formatted == [((10, 10), 2)]
        model = (out / "model.txt").read_bytes().splitlines(keepends=True)
        assert b"".join(model[:11]) == (out / "matrix.txt").read_bytes()

    def test_fit_and_test_metrics_come_before_the_writes(self, bilingual, tmp_path,
                                                         monkeypatch):
        # so a data error in the test metrics exits 2 before any file is written
        events = record_calls(monkeypatch, "fit_translation", "precision_at_1",
                              "write_responsibilities_tsv", "save_model", "save_matrix")
        assert run_align(bilingual, tmp_path / "out") == 0
        assert events == ["fit_translation", "precision_at_1",
                          "write_responsibilities_tsv", "save_model"]

    @pytest.mark.parametrize("method", ["op", "em-hard"])
    def test_test_metrics_are_null_without_a_test_lexicon(self, method, bilingual, tmp_path):
        # a metric nobody measured is null, not a 0 that reads as a perfect map
        reports = []
        for test in ([], ["--test-lexicon", str(bilingual["test"])]):
            out = tmp_path / f"out{len(test)}"
            assert main(["align", "--src-emb", str(bilingual["src"]),
                         "--tgt-emb", str(bilingual["tgt"]),
                         "--lexicon", str(bilingual["train"]), *test,
                         "--method", method, "--output-dir", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        untested, tested = reports
        keys = ("p_at_1", "n_queries", "test_error")
        assert [untested[k] for k in keys] == [None, None, None]
        assert all(isinstance(tested[k], (int, float)) for k in keys)
        assert tested["n_queries"] == 10
        # the fit's own figures do not depend on the test set
        assert {k: untested[k] for k in ("iterations", "noise_rate")} == \
            {k: tested[k] for k in ("iterations", "noise_rate")}
        assert (untested["iterations"] == 0) == (method == "op")

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

    # printed by the CLI, not raised: the test reads the line
    @pytest.mark.filterwarnings("default:skipped 1 malformed/duplicate rows in ")
    def test_cached_inputs_give_identical_outputs(self, bilingual, tmp_path, capsys,
                                                  cache_home):
        with bilingual["src"].open("a") as fh:
            fh.write("s0" + " 0" * 10 + "\n")  # a duplicate row: skipped, with a warning
        old = time.time_ns() - 60 * 10**9
        for name in ("src", "tgt"):
            os.utime(bilingual[name], ns=(old, old))
        runs = []
        for out in ("miss", "hit"):
            assert run_align(bilingual, tmp_path / out, ["--method", "em-soft"]) == 0
            runs.append((capsys.readouterr(), sorted(os.listdir(cache_home / "noisy-align"))))
        assert runs[0] == runs[1] and len(runs[0][1]) == 2
        assert runs[0][0].err == ("noisy-align: warning: skipped 1 malformed/duplicate rows "
                                  f"in {bilingual['src']}\n")
        for name in os.listdir(tmp_path / "miss"):
            assert (tmp_path / "miss" / name).read_bytes() == \
                (tmp_path / "hit" / name).read_bytes(), name

    @staticmethod
    def assert_damaged_entries_are_misses(bilingual, tmp_path, capsys, cache_home, damage):
        """`damage(entry)` applied to both cache entries leaves a second run's
        stdout, stderr and outputs the first's, and the run writes both
        entries back as they were."""
        old = time.time_ns() - 60 * 10**9
        for name in ("src", "tgt"):
            os.utime(bilingual[name], ns=(old, old))
        assert run_align(bilingual, tmp_path / "clean") == 0
        clean = capsys.readouterr()
        entries = sorted((cache_home / "noisy-align").iterdir())
        written = [entry.read_bytes() for entry in entries]
        for entry in entries:
            damage(entry)
        assert run_align(bilingual, tmp_path / "damaged") == 0
        assert capsys.readouterr() == clean
        for name in os.listdir(tmp_path / "clean"):
            assert (tmp_path / "clean" / name).read_bytes() == \
                (tmp_path / "damaged" / name).read_bytes(), name
        assert [entry.read_bytes() for entry in entries] == written  # rewritten

    def test_entries_declaring_exabyte_matrices_are_misses(self, bilingual, tmp_path, capsys,
                                                           cache_home):
        # a matrix record whose header claims more than any address space
        # holds fails its allocation, and the load parses the text again
        self.assert_damaged_entries_are_misses(
            bilingual, tmp_path, capsys, cache_home,
            lambda entry: declare_shape(entry, 3, (10, 2**55)))

    @pytest.mark.parametrize("damage", ["nan-value", "repeated-token"])
    def test_entries_that_no_parse_writes_are_misses(self, bilingual, tmp_path, capsys,
                                                     cache_home, damage):
        # `EmbeddingSet` refuses a non-finite value or a repeated token; an
        # entry holding one is parsed again, not a data error
        def damaged(entry):
            if damage == "nan-value":  # the matrix is the last record
                entry.write_bytes(entry.read_bytes()[:-8] + np.float64(np.nan).tobytes())
            else:
                with open(entry, "rb") as fh:
                    stamp = _cache._read_head(fh)[0]
                read = _cache._read(entry, stamp)
                _cache._write(entry, stamp,
                              (read.tokens[:-1] + read.tokens[:1], read.vectors, read.skipped))

        self.assert_damaged_entries_are_misses(bilingual, tmp_path, capsys, cache_home, damaged)

    @pytest.mark.parametrize("method", ["op", "sgd", "em-hard"])
    def test_only_a_mixture_fit_prints_a_discarded_fraction(self, bilingual, tmp_path, capsys,
                                                            method):
        assert run_align(bilingual, tmp_path / "out", ["--method", method]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split(" discarded_fraction=")[0] == f"method={method} pairs=50 skipped_lines=0"
        assert ("discarded_fraction=" in first) == (method == "em-hard")

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

    @pytest.mark.parametrize("batch, imported", [([], False), (["--batch-size", "32"], True)])
    def test_only_minibatch_sgd_imports_numpy_random(self, bilingual, tmp_path, batch,
                                                     imported):
        # a full-batch fit reads no RNG; importing numpy.random alone adds
        # about 6 MB of resident memory to the run
        probe = ("import sys, numpy\n"
                 "if 'numpy.random' in sys.modules:\n"
                 "    sys.exit('numpy imports numpy.random itself')\n"
                 "from noisy_align.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(code, 'numpy.random' in sys.modules)\n")
        argv = ["align", "--src-emb", bilingual["src"], "--tgt-emb", bilingual["tgt"],
                "--lexicon", bilingual["train"], "--output-dir", tmp_path,
                "--method", "sgd", *batch]
        done = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if "numpy imports numpy.random itself" in done.stderr:
            pytest.skip("this numpy imports numpy.random with numpy")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"0 {imported}"

    @staticmethod
    def align_texts(method, src_text, tgt_text, tmp_path):
        """The CLI in a separate process, which is stopped if it hangs, on
        the embedding texts given and the identity lexicon of the source's
        words."""
        src_emb, tgt_emb = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src_emb.write_text(src_text)
        tgt_emb.write_text(tgt_text)
        lex = tmp_path / "lex.tsv"
        words = [line.split()[0] for line in src_text.splitlines()]
        lex.write_text("".join(f"{w}\t{w}\n" for w in words))
        return run_cli(["align", "--src-emb", src_emb, "--tgt-emb", tgt_emb, "--lexicon", lex,
                        "--method", method, "--output-dir", tmp_path / "out"])

    @classmethod
    def align_huge(cls, method, value, tmp_path):
        """`align_texts` on vectors whose d x d products overflow."""
        emb = (f"a {value} 0 3\nb 0 1e200 1\nc {value} {value} 2\n"
               f"d 5 -1e200 1\n")
        return cls.align_texts(method, emb, emb, tmp_path)

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

    @pytest.mark.parametrize("method", experiments.EM_METHODS)
    def test_mixed_magnitudes_under_em_are_one_line_data_error(self, method, tmp_path):
        # each pair joins a vector near 1e200 with one near 1e-200, so Y X^T
        # is finite and only EM's squared residuals overflow
        big = ["1 2 0 -1", "0 1 3 1", "2 -1 1 0"]
        small = ["1 0 -2 1", "0 3 1 -1", "1 1 1 2"]

        def space(first, second):
            rows = [" ".join(f"{v}e{first}" for v in r.split()) for r in big]
            rows += [" ".join(f"{v}e{second}" for v in r.split()) for r in small]
            return "".join(f"{w} {r}\n" for w, r in zip("abcdef", rows))

        done = self.align_texts(method, space(200, -200), space(-200, 200), tmp_path)
        assert done.returncode == 2
        assert done.stderr == ("noisy-align: data error: ||y - mu_y||^2 overflows "
                               "float64: the vectors are too large\n")

    @pytest.mark.parametrize("method", ["op", "em-hard"])
    def test_a_library_warning_prints_as_one_line(self, method, tmp_path):
        # 4 words of rank 2 in d=3: Y X^T is rank-deficient, and the fit
        # goes on from a Procrustes map that is not unique
        emb = "a 1 0 0\nb 2 0 0\nc 0 1 0\nd 0 2 0\n"
        done = self.align_texts(method, emb, emb, tmp_path)
        assert done.returncode == 0
        assert done.stderr == ("noisy-align: warning: Y X^T is numerically rank-deficient; "
                               "Procrustes solution is not unique\n")

    def test_sgd_divergence_is_one_line_data_error(self, bilingual, tmp_path, capsys):
        code = run_align(bilingual, tmp_path / "z", ["--method", "sgd",
                                                     "--learning-rate", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "learning_rate=10.0" in err

    # printed by the CLI, not raised: the test reads the line
    @pytest.mark.filterwarnings("default:EM stopped at max_iters=1 without converging")
    def test_stopping_at_max_iters_logs_a_warning(self, bilingual, tmp_path, capsys):
        # the fit converges in 2 iterations, so a cap of 1 stops it early
        assert run_align(bilingual, tmp_path / "o", ["--max-iters", "1"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "noisy-align: warning: EM stopped at max_iters=1 without converging")

    def test_converged_fit_logs_no_warning(self, bilingual, tmp_path, capsys):
        assert run_align(bilingual, tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    def test_computed_values_pass_the_report_range_check(self, bilingual, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(cli, "precision_at_1", lambda *args: (1.5, 4))
        assert run_align(bilingual, tmp_path / "o") == 2
        assert "p_at_1 must lie in [0, 1]" in capsys.readouterr().err
        # checked before any output file is written
        assert list((tmp_path / "o").glob("*")) == []

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", "--src-emb", "a.txt"])
        assert exc.value.code == 1

    @pytest.mark.filterwarnings("ignore:EM stopped at max_iters=1 without converging")
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
        assert run_align(bilingual, tmp_path / "o", ["--config", ""]) == 2  # not ignored

    def test_config_not_in_utf8_is_data_error_naming_it(self, bilingual, tmp_path,
                                                         capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"method = \xff\n")
        assert run_align(bilingual, tmp_path / "o", ["--config", str(cfg)]) == 2
        assert f"data error: config file {cfg} is not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_comments_and_blank_lines_are_skipped(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# method = em-soft\n\n   \nmethod = op  # not EM\n\t# max-iters = 3\n")
        assert cli._config_tokens(str(cfg)) == ["--method=op"]
        assert run_align(bilingual, tmp_path / "o", ["--config", str(cfg)]) == 0
        assert not (tmp_path / "o" / "model.txt").exists()  # op, as the file says

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_config_byte_order_mark_is_not_part_of_the_first_key(self, bilingual,
                                                                  tmp_path, bom):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(bom + b"method = op\n")
        assert cli._config_tokens(str(cfg)) == ["--method=op"]
        assert run_align(bilingual, tmp_path / "o", ["--config", str(cfg)]) == 0
        assert not (tmp_path / "o" / "model.txt").exists()  # op, as the file says

    def test_config_switch_matches_flag(self, bilingual, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = true\n")
        assert run_align(bilingual, tmp_path / "a", ["--config", str(cfg)]) == 0
        assert run_align(bilingual, tmp_path / "b", ["--normalize"]) == 0
        assert run_align(bilingual, tmp_path / "c") == 0
        reports = [(tmp_path / o / "report.json").read_text() for o in "abc"]
        assert reports[0] == reports[1] != reports[2]


# printed by the CLI, not raised: the test reads the line
@pytest.mark.filterwarnings("default:1 of 11 queries have a zero mapped vector")
def test_zero_vector_test_word_is_scored_as_a_miss(bilingual, tmp_path, capsys):
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
    assert capsys.readouterr().err == ("noisy-align: warning: 1 of 11 queries have a zero "
                                       "mapped vector; counted as misses\n")


class TestLibraryWarnings:
    """Each warning the library issues prints as one `noisy-align: warning:`
    line in a separate process, under Python's default warning filter, and
    a warning filter silences it."""

    # (flags beside the bilingual instance's files, the warning's text)
    CASES = {
        "skipped-row": ({"--src-emb": "bad.txt", "--method": "op"},
                        "skipped 1 malformed/duplicate rows in bad.txt"),
        "max-iters": ({"--max-iters": "1"}, "EM stopped at max_iters=1 without converging: "),
        "zero-query": ({"--src-emb": "zero.txt", "--test-lexicon": "zero.tsv", "--method": "op"},
                       "1 of 2 queries have a zero mapped vector; counted as misses"),
        "rank-deficient": ({"--lexicon": "two.tsv", "--method": "op"},
                           "Y X^T is numerically rank-deficient"),
    }

    @pytest.fixture
    def spaces(self, bilingual):
        root = bilingual["dir"]
        (root / "bad.txt").write_text(bilingual["src"].read_text() + "bad 1 2\n")
        (root / "zero.txt").write_text(bilingual["src"].read_text() + "z" + " 0" * 10 + "\n")
        (root / "zero.tsv").write_text("z\tt0\ns50\tt50\n")
        (root / "two.tsv").write_text("s0\tt0\ns1\tt1\n")
        return root

    def run(self, spaces, case, options=()):
        flags = {"--src-emb": "src.txt", "--tgt-emb": "tgt.txt", "--lexicon": "train.tsv",
                 "--output-dir": "out", **self.CASES[case][0]}
        return run_cli(["align", *(token for pair in flags.items() for token in pair)],
                       cwd=spaces, options=options)

    @pytest.mark.parametrize("case", CASES)
    def test_each_warning_is_one_prefixed_line(self, spaces, case):
        done = self.run(spaces, case)
        assert done.returncode == 0, done.stderr
        # not the bare message, nor Python's `file:line: UserWarning:` form
        # with its source line
        assert done.stderr.startswith(f"noisy-align: warning: {self.CASES[case][1]}")
        assert done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("case", CASES)
    def test_a_warning_filter_silences_each(self, spaces, case):
        done = self.run(spaces, case, options=["-W", "ignore"])
        assert (done.returncode, done.stderr) == (0, "")


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


@pytest.mark.parametrize("text,message", [(None, "No such file"),
                                          ("2\n1 x\n0 1\n", "malformed")],
                         ids=["missing", "malformed"])
def test_evaluate_reads_the_matrix_before_the_embeddings(bilingual, tmp_path, monkeypatch,
                                                         capsys, cache_home, text, message):
    matrix = tmp_path / "bad-matrix.txt"
    if text is not None:
        matrix.write_text(text)
    forbid_embedding_loads(monkeypatch, bilingual["src"], bilingual["tgt"])
    assert run_evaluate(bilingual, matrix, tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert err.startswith("noisy-align: data error:") and message in err
    assert list(cache_home.iterdir()) == []


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


class TestSourceSubset:
    """`align` and `evaluate` keep of the source set only what the lexicons
    name, and report what the full sets give."""

    @pytest.fixture
    def mixed_test(self, bilingual):
        """A test lexicon with sources out of index order, one with two gold
        targets, one shared with training, one whose gold is wrong, and an
        unresolvable line."""
        path = bilingual["dir"] / "test-mixed.tsv"
        path.write_text("s57\tt57\ns3\tt3\ns50\tt50\ns50\tt7\nnowhere\tt0\n"
                        "s59\tt59\ns58\tt0\ns51\tt51\n")
        return {**bilingual, "test": path}

    @pytest.mark.parametrize("method", ["op", "em-hard"])
    def test_test_metrics_equal_the_library_on_the_full_sets(self, mixed_test, tmp_path,
                                                             method):
        out = tmp_path / "fit"
        assert run_align(mixed_test, out, ["--method", method]) == 0
        assert run_evaluate(mixed_test, out / "matrix.txt", tmp_path / "eval") == 0
        Q = align.load_matrix(out / "matrix.txt")
        src, tgt = (nio.load_embeddings(mixed_test[k]) for k in ("src", "tgt"))
        test_lex, skipped = nio.load_lexicon(mixed_test["test"], src, tgt)
        p_at_1, n_queries = precision_at_1(Q, test_lex, src, tgt)
        want = {"p_at_1": p_at_1, "n_queries": n_queries,
                "test_error": alignment_error(Q, *nio.gather_pairs(test_lex, src, tgt))}
        assert (skipped, n_queries, p_at_1) == (1, 6, 5 / 6)
        for report in (out / "report.json", tmp_path / "eval" / "report.json"):
            got = json.loads(report.read_text())
            assert {k: got[k] for k in want} == want

    @pytest.mark.parametrize("command,step", [("align", "fit_translation"),
                                              ("evaluate", "alignment_error")])
    def test_the_loaded_source_matrix_is_freed_first(self, bilingual, tmp_path,
                                                     monkeypatch, command, step):
        loaded, alive = [], []
        real_load, real_step = nio.load_embeddings, getattr(cli, step)

        def load(*args, **kwargs):
            emb = real_load(*args, **kwargs)
            loaded.append(weakref.ref(emb.vectors))
            return emb

        def recorded(*args, **kwargs):
            alive.extend(ref() is not None for ref in loaded)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nio, "load_embeddings", load)
        monkeypatch.setattr(cli, step, recorded)
        save_matrix(np.eye(10), tmp_path / "m.txt")
        run = run_align if command == "align" else \
            lambda b, out: run_evaluate(b, tmp_path / "m.txt", out)
        assert run(bilingual, tmp_path / "out") == 0
        assert alive == [False, True]

    @pytest.fixture(scope="class")
    def large_bilingual(self, tmp_path_factory):
        """d=100, V=3000 source and target sets, 1500 training pairs, 1000
        test pairs and a map; every file is older than the cache's 2 s
        racy window."""
        root = tmp_path_factory.mktemp("large-bilingual")
        rng = np.random.default_rng(33)
        d, V = 100, 3000
        Q = random_orthogonal(d, seed=34)
        src = rng.standard_normal((d, V))
        tgt = Q @ src + 0.3 * rng.standard_normal((d, V))
        save_embeddings(make_set([f"s{i}" for i in range(V)], src), root / "src.txt")
        save_embeddings(make_set([f"t{i}" for i in range(V)], tgt), root / "tgt.txt")
        for name, pairs in (("train.tsv", range(1500)), ("test.tsv", range(1500, 2500))):
            (root / name).write_text("".join(f"s{i}\tt{i}\n" for i in pairs))
        save_matrix(Q, root / "matrix.txt")
        for path in root.iterdir():
            os.utime(path, (time.time() - 60,) * 2)
        return root, d, V

    @pytest.mark.parametrize("command", ["align", "evaluate"])
    def test_peak_holds_one_full_set(self, large_bilingual, tmp_path, command):
        # in units of 8*d*V bytes: both loaded sets until X and the test
        # queries are gathered, the peak (3.26 with X, 2.78 without); then
        # the target set, the queries and X, Y and a temporary of the fit;
        # then the target set turned in place into the retrieval index, the
        # queries and one 64-row score block (0.64 here). A copy of the
        # targets for the index peaked at 3.49 and 3.38 (4.17 and 4.15 with
        # the source set held throughout, 3.75 with Y gathered before it
        # is freed)
        root, d, V = large_bilingual
        out = tmp_path / "out"
        argv = [command, "--src-emb", str(root / "src.txt"),
                "--tgt-emb", str(root / "tgt.txt"),
                "--test-lexicon", str(root / "test.tsv"), "--output-dir", str(out)]
        argv += (["--lexicon", str(root / "train.tsv")] if command == "align"
                 else ["--matrix", str(root / "matrix.txt")])
        assert main(argv) == 0  # the cache misses; the traced run reads it back
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads((out / "report.json").read_text())
        assert report["n_queries"] == 1000 and report["p_at_1"] > 0.9
        assert peak <= {"align": 3.35, "evaluate": 2.9}[command] * 8 * d * V


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

    # printed by the CLI, not raised: the test reads the lines
    @pytest.mark.filterwarnings("default:skipped 1 malformed/duplicate rows")
    def test_a_token_holding_a_tab_is_a_skipped_row(self, tmp_path, capsys):
        # lexicons and frequency tables split at tabs, so none could name the
        # token `a<TAB>b`; written to a TSV, it would add a field to its row
        rng = np.random.default_rng(14)
        tokens = ["a\tb", *(f"w{i}" for i in range(30))]
        paths = [tmp_path / "old.txt", tmp_path / "new.txt"]
        for path in paths:
            save_embeddings(make_set(tokens, rng.standard_normal((4, 31))), path)
        out = tmp_path / "out"
        assert main(self.base_args(*paths, out)) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"noisy-align: warning: skipped 1 malformed/duplicate rows in {path}"
            for path in paths]
        for name in ("responsibilities.tsv", "shift_ranking.tsv"):
            header, *rows = (out / name).read_text(encoding="utf-8").splitlines()
            assert len(rows) == 30
            assert all(row.count("\t") == header.count("\t") for row in rows)

    def test_fit_and_ranking_come_before_the_writes(self, tmp_path, monkeypatch):
        # so a data error in the ranking exits 2 before any file is written
        emb = make_set([f"w{i}" for i in range(30)],
                       np.random.default_rng(9).standard_normal((4, 30)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        events = record_calls(monkeypatch, "fit_translation", "rank_semantic_shift",
                              "write_shift_ranking_tsv", "save_model")
        assert main(self.base_args(path, path, tmp_path / "out")) == 0
        assert events == ["fit_translation", "rank_semantic_shift",
                          "write_shift_ranking_tsv", "save_model"]

    @pytest.fixture
    def decades(self, tmp_path):
        """Two decades in different vocabulary orders, each with tokens the
        other lacks, planted shifts, a stop-list and frequency tables."""
        rng = np.random.default_rng(12)
        d, n = 8, 120
        Q = random_orthogonal(d, seed=13)
        old = rng.standard_normal((d, n))
        new = Q @ old
        shifted = rng.choice(n, size=12, replace=False)
        new[:, shifted] = rng.standard_normal((d, 12))
        tokens = [f"w{i}" for i in range(n)]
        order = rng.permutation(n)
        save_embeddings(make_set(tokens + ["only_old"],
                                 np.hstack([old, rng.standard_normal((d, 1))])),
                        tmp_path / "old.txt")
        save_embeddings(make_set([tokens[i] for i in order] + ["only_new"],
                                 np.hstack([new[:, order], rng.standard_normal((d, 1))])),
                        tmp_path / "new.txt")
        (tmp_path / "stop.txt").write_text("w0\nw5\n")
        for name in ("f1.tsv", "f2.tsv"):
            (tmp_path / name).write_text(
                "".join(f"{t}\t{f:.3g}\n" for t, f in zip(tokens, rng.uniform(0, 0.01, n))))
        return tmp_path

    def decade_args(self, decades, out):
        return [*self.base_args(decades / "old.txt", decades / "new.txt", out),
                "--stoplist", str(decades / "stop.txt"),
                "--src-freqs", str(decades / "f1.tsv"),
                "--tgt-freqs", str(decades / "f2.tsv"), "--threshold", "0.002"]

    def test_loaded_matrices_are_freed_before_the_fit(self, decades, monkeypatch):
        loaded, alive_at_fit = [], []
        real_load, real_fit = nio.load_embeddings, cli.fit_translation

        def load(*args, **kwargs):
            emb = real_load(*args, **kwargs)
            loaded.append(weakref.ref(emb.vectors))
            return emb

        def fit(*args, **kwargs):
            alive_at_fit.extend(ref() is not None for ref in loaded)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(nio, "load_embeddings", load)
        monkeypatch.setattr(cli, "fit_translation", fit)
        assert main(self.decade_args(decades, decades / "out")) == 0
        assert alive_at_fit == [False, False]

    def test_outputs_equal_the_library_on_the_full_sets(self, decades):
        out = decades / "out"
        assert main(self.decade_args(decades, out)) == 0
        src = nio.load_embeddings(decades / "old.txt")
        tgt = nio.load_embeddings(decades / "new.txt")
        lex = nio.build_identity_lexicon(src, tgt, nio.load_stoplist(decades / "stop.txt"))
        X, Y = nio.gather_pairs(lex, src, tgt)
        resp = experiments.fit_translation("em-hard", X, Y)[2]
        rows, dropped = rank_semantic_shift(
            load_model(out / "model.txt").Q, [src.tokens[s] for s, _ in lex.pairs], X, Y,
            src_freqs=nio.load_frequency_table(decades / "f1.tsv"),
            tgt_freqs=nio.load_frequency_table(decades / "f2.tsv"),
            threshold=0.002, responsibilities=resp)
        assert 0 < len(rows) < len(lex) and {r[2] for r in rows} == {"Aligned", "Noise"}
        assert json.loads((out / "shift_ranking.json").read_text()) == \
            [list(r) for r in rows]
        assert json.loads((out / "diachronic_summary.json").read_text())[
            "dropped_below_threshold"] == dropped
        write_shift_ranking_tsv(rows, decades / "ranking.tsv")
        # each pair named from both full sets, in their different orders
        names = [(src.tokens[s], tgt.tokens[g]) for s, g in lex.pairs]
        write_responsibilities_tsv(resp, names, decades / "resp.tsv")
        for ours, api in (("shift_ranking.tsv", "ranking.tsv"),
                          ("responsibilities.tsv", "resp.tsv")):
            assert (out / ours).read_bytes() == (decades / api).read_bytes()

    @pytest.mark.parametrize("table,message", [
        (None, "cannot read frequency table"),
        ("w1\t0.5\nw2\n", "malformed frequency line"),
        ("w1\t0.5\nw1\t0.6\n", "repeated frequency for 'w1'"),
    ], ids=["missing", "malformed", "repeated"])
    def test_frequency_tables_are_read_before_the_fit(self, decades, monkeypatch, capsys,
                                                      table, message):
        path = decades / "bad.tsv"
        if table is not None:
            path.write_text(table)
        events = record_calls(monkeypatch, "fit_translation")
        argv = self.decade_args(decades, decades / "out")
        argv[argv.index("--tgt-freqs") + 1] = str(path)
        assert main(argv) == 2
        assert events == []
        err = capsys.readouterr().err
        assert err.startswith("noisy-align: data error:") and message in err

    @pytest.mark.parametrize("flag,text,message", [
        ("--stoplist", None, "cannot read stop-list"),
        ("--src-freqs", "w1\t0.5\nw2\n", "malformed frequency line"),
        ("--tgt-freqs", None, "cannot read frequency table"),
    ], ids=["stoplist", "src-freqs", "tgt-freqs"])
    def test_small_inputs_are_read_before_the_embeddings(self, decades, monkeypatch, capsys,
                                                         cache_home, flag, text, message):
        path = decades / "bad.txt"
        if text is not None:
            path.write_text(text)
        forbid_embedding_loads(monkeypatch, decades / "old.txt", decades / "new.txt")
        argv = self.decade_args(decades, decades / "out")
        argv[argv.index(flag) + 1] = str(path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("noisy-align: data error:") and message in err
        assert list(cache_home.iterdir()) == []

    @pytest.fixture(scope="class")
    def large_decades(self, tmp_path_factory):
        """Two d=100, V=3000 decades, with n = V >> d, and a frequency table
        for both; every file is older than the cache's 2 s racy window."""
        root = tmp_path_factory.mktemp("large-decades")
        rng = np.random.default_rng(30)
        d, V = 100, 3000
        tokens = [f"w{i}" for i in range(V)]
        old = rng.standard_normal((d, V))
        new = random_orthogonal(d, seed=31) @ old + 0.3 * rng.standard_normal((d, V))
        new[:, :300] = rng.standard_normal((d, 300))
        save_embeddings(make_set(tokens, old), root / "old.txt")
        save_embeddings(make_set(tokens, new), root / "new.txt")
        (root / "f.tsv").write_text(
            "".join(f"{t}\t{f:.3g}\n" for t, f in zip(tokens, rng.uniform(0.001, 0.01, V))))
        for path in root.iterdir():
            os.utime(path, (time.time() - 60,) * 2)
        return root, d, V

    @pytest.mark.parametrize("threshold", ["0.005", "0", None],
                             ids=["drops-tokens", "keeps-all", "no-threshold"])
    def test_peak_holds_three_pair_matrices(self, large_decades, tmp_path, threshold):
        # two loaded sets and X, then the target set, X and Y, then X, Y and
        # one temporary of the fit or of the ranking: 8*d*V bytes each, plus
        # tokens, tables and masks (4.71, 5.49 and 5.21 of them with both
        # sets and both pair matrices held at once and the pairs copied by
        # the ranking)
        root, d, V = large_decades
        argv = self.base_args(root / "old.txt", root / "new.txt", tmp_path / "out")
        if threshold is not None:
            argv += ["--src-freqs", str(root / "f.tsv"), "--tgt-freqs", str(root / "f.tsv"),
                     "--threshold", threshold]
        assert main(argv) == 0  # the cache misses; the traced run reads it back
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((tmp_path / "out" / "diachronic_summary.json").read_text())
        assert summary["pairs"] == V and 0 < summary["noise_fraction"] < 0.5
        assert (summary["dropped_below_threshold"] > 0) == (threshold == "0.005")
        assert peak <= 4.0 * 8 * d * V

    @pytest.mark.parametrize("threshold", ["0.005", None], ids=["drops-tokens", "no-threshold"])
    def test_fit_and_ranking_add_one_block_to_the_pairs(self, large_decades, tmp_path,
                                                        monkeypatch, threshold):
        # each holds X, Y and one block of columns (1024 of V=3000), and one
        # of kept columns when the ranking drops tokens: a d x V temporary
        # would add 8*d*V bytes to what is held when it starts
        root, d, V = large_decades
        argv = self.base_args(root / "old.txt", root / "new.txt", tmp_path / "out")
        if threshold is not None:
            argv += ["--src-freqs", str(root / "f.tsv"), "--tgt-freqs", str(root / "f.tsv"),
                     "--threshold", threshold]
        added = {}

        def traced(fn):
            def run(*args, **kwargs):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    added[fn.__name__] = tracemalloc.get_traced_memory()[1] - held
            return run
        for name in ("fit_translation", "rank_semantic_shift"):
            monkeypatch.setattr(cli, name, traced(getattr(cli, name)))
        tracemalloc.start()
        try:
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert set(added) == {"fit_translation", "rank_semantic_shift"}
        assert max(added.values()) < 8 * d * V

    def test_dimension_mismatch_is_data_error_before_any_output(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        tokens = [f"w{i}" for i in range(10)]
        save_embeddings(make_set(tokens, rng.standard_normal((2, 10))), tmp_path / "old.txt")
        save_embeddings(make_set(tokens, rng.standard_normal((3, 10))), tmp_path / "new.txt")
        out = tmp_path / "out"
        assert main(self.base_args(tmp_path / "old.txt", tmp_path / "new.txt", out)) == 2
        assert capsys.readouterr().err == (
            "noisy-align: data error: embedding dimension mismatch: src d=2, tgt d=3\n")
        assert not out.exists()

    def test_threshold_dropping_every_token_writes_an_empty_ranking(self, decades, capsys):
        out = decades / "out"
        argv = self.decade_args(decades, out)
        argv[argv.index("--threshold") + 1] = "1"
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dropped_below_threshold"] == summary["pairs"] > 0
        assert summary["noisy_after_filter"] == 0
        assert (out / "shift_ranking.tsv").read_text() == "token\tcosine_distance\tlabel\n"
        assert json.loads((out / "shift_ranking.json").read_text()) == []

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
        out = tmp_path / "out"
        argv = [command, *self.REQUIRED[command], flag, "1", "--output-dir", str(out)]
        assert exit_code(lambda: main(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: noisy-align {command} ")
        assert f"unrecognized arguments: {flag} 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_unknown_config_key_prints_the_subcommand_usage(self, command, tmp_path,
                                                            capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("bogus = 1\n")
        argv = [command, *self.REQUIRED[command], "--config", str(cfg)]
        assert exit_code(lambda: main(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: noisy-align {command} ")
        assert "unrecognized arguments: --bogus=1" in err

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
        # a value of several words is several tokens: --config given twice
        *((c, "--config", "a.cfg --config c.cfg") for c in ("align", "noise-curve")),
        ("align", "--config", "a.cfg --config=a.cfg"),
        # a config file that names another
        *((c, "--config", "nested.cfg") for c in ("diachronic", "synthetic-2d")),
        ("synthetic-2d", "--config", ""),  # no value
        # before the subcommand (no command here): the top-level usage line
        *(("", "--config", v) for v in ("a.cfg synthetic-2d", "", "a.cfg",
                                        "a.cfg align --config c.cfg")),
    ]

    @pytest.mark.parametrize("command,flag,value", BAD_VALUES)
    def test_bad_numeric_value_is_usage_error(self, command, flag, value, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nested.cfg").write_text("config = other.cfg\n")
        if command:
            argv = [command, *self.REQUIRED[command], flag, *value.split(),
                    "--output-dir", "out"]
        else:
            argv = [flag, *value.split()]
        assert exit_code(lambda: main(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: noisy-align {command or '[-h]'}")
        assert f"argument {flag}:" in err
        assert command or "goes after the subcommand" in err
        # no output directory, named or the default (the working directory)
        assert [p.name for p in tmp_path.iterdir()] == ["nested.cfg"]

    # every config path here is missing, so a read shows as exit 2
    CONFIG_READS = [
        ("-h --config missing.cfg", 0, "usage: noisy-align [-h]"),
        ("bogus --config missing.cfg", 1, "invalid choice: 'bogus'"),
        ("--output-dir x --config missing.cfg synthetic-2d", 1, "invalid choice: 'x'"),
        # after a subcommand the file is read before the subcommand's -h
        ("synthetic-2d --config missing.cfg -h", 2, "cannot read config file missing.cfg"),
    ]

    @pytest.mark.parametrize("argv,code,message", CONFIG_READS)
    def test_config_is_read_only_after_a_subcommand(self, argv, code, message, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert exit_code(lambda: main(argv.split())) == code
        out, err = capsys.readouterr()
        assert message in (out if code == 0 else err)
        assert not list(tmp_path.iterdir())  # no output directory either

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


# each generated vector entry is one of these magnitudes, either sign
MAGNITUDES = [0.0, 1e-300, 1.0, 1e150, 1e300]


@st.composite
def small_space(draw, n: int, d: int) -> list:
    """n columns of d entries; after the first, a column is new, a repeat of
    an earlier one or an earlier one scaled, so spaces are often of low rank."""
    entry = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]),
                      st.sampled_from(MAGNITUDES))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["new", "repeat", "scaled"])) if cols else "new"
        if kind == "new":
            cols.append(draw(st.lists(entry, min_size=d, max_size=d)))
        else:
            scale = 1.0 if kind == "repeat" else draw(entry)
            cols.append([scale * v for v in draw(st.sampled_from(cols))])
    return cols


def print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as the interpreter does: location, category, message
    and source line, on the current stderr."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_in_process(argv: list) -> tuple:
    """(exit code, stderr) of `main(argv)` under the default warning filter."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("default")
        warnings.showwarning = print_warning
        code = exit_code(lambda: main(argv))
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), d=st.integers(1, 3),
       normalize=st.booleans())
def test_fuzzed_spaces_give_exit_0_or_a_one_line_error(data, n, d, normalize):
    words = [f"w{i}" for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("src", "tgt"):
            cols = data.draw(small_space(n, d), label=name)
            (tmp / f"{name}.txt").write_text("".join(
                f"{w} {' '.join(map(repr, col))}\n" for w, col in zip(words, cols)))
        (tmp / "lex.tsv").write_text("".join(f"{w}\t{w}\n" for w in words))
        save_matrix(np.eye(d), tmp / "identity.txt")
        spaces = ["--src-emb", str(tmp / "src.txt"), "--tgt-emb", str(tmp / "tgt.txt"),
                  f"--normalize={normalize}"]
        lex = str(tmp / "lex.tsv")
        runs = [["align", *spaces, "--lexicon", lex, "--test-lexicon", lex,
                 "--method", m] for m in experiments.METHODS]
        runs += [["clean-lexicon", *spaces, "--lexicon", lex],
                 ["evaluate", *spaces, "--test-lexicon", lex,
                  "--matrix", str(tmp / "identity.txt")],
                 ["diachronic", *spaces]]
        for i, argv in enumerate(runs):
            out = tmp / f"out{i}"
            code, err = run_in_process([*argv, "--output-dir", str(out)])
            assert code in (0, 2), (argv, err)
            # a data error or a library warning is one line; no traceback
            # and no raw `RuntimeWarning` line with its source line
            assert all(line.startswith("noisy-align: ") for line in err.splitlines()), err
            if code == 0:
                for path in out.glob("*.json"):
                    json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(
                        f"{path.name} holds {c}"))
