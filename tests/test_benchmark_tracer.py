"""The benchmark's tracer wraps functions by name; each name must still exist."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisy_align.align import random_orthogonal, save_matrix
from noisy_align.io import EmbeddingSet, save_embeddings
from test_cli import child_env

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,name", [(m, n) for m, names in load_tracer().WRAPPED.items()
                                         for n in names])
def test_wrapped_name_is_a_function_of_the_package(module, name):
    target = importlib.import_module(f"noisy_align.{module}")
    assert callable(getattr(target, name, None)), f"noisy_align.{module}.{name}"


@pytest.mark.parametrize("name,position", sorted(load_tracer().WRITERS.items()))
def test_writer_position_names_its_path_parameter(name, position):
    # the tracer sizes the file at args[position] when `path` is passed by position
    module, fname = name.split(".")
    writer = getattr(importlib.import_module(f"noisy_align.{module}"), fname)
    assert list(inspect.signature(writer).parameters)[position] == "path", name


def test_align_traces_the_index_build(tmp_path):
    # `align` turns the target set into the retrieval index through the
    # public `build_index`, so its span, and `evaluation.build_index.s`,
    # records that work on the benchmark's bli-align
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 40))
    Y = random_orthogonal(5, 4) @ X
    save_embeddings(EmbeddingSet([f"s{i}" for i in range(40)], X), tmp_path / "src.txt")
    save_embeddings(EmbeddingSet([f"t{i}" for i in range(40)], Y), tmp_path / "tgt.txt")
    (tmp_path / "train.tsv").write_text("".join(f"s{i}\tt{i}\n" for i in range(30)))
    (tmp_path / "test.tsv").write_text("".join(f"s{i}\tt{i}\n" for i in range(30, 40)))
    done = subprocess.run(
        [sys.executable, str(TRACER), "spans.json", "align", "--src-emb", "src.txt",
         "--tgt-emb", "tgt.txt", "--lexicon", "train.tsv", "--test-lexicon", "test.tsv",
         "--method", "op", "--output-dir", "out"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert [s[0] for s in spans].count("evaluation.build_index") == 1
    assert load_tracer().layer_metrics(spans)["evaluation.build_index.s"] > 0


@pytest.mark.parametrize("command,lexicons,gathers", [("align", 2, 1), ("evaluate", 1, 1),
                                                      ("diachronic", 0, 0)])
def test_each_command_traces_its_loads(tmp_path, command, lexicons, gathers):
    # the commands load through `io.load_pairs`, which calls the wrapped
    # loaders by name: a refactor that moves this work must keep the
    # benchmark's io metrics
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 40))
    Q = random_orthogonal(5, 6)
    tokens = [f"w{i}" for i in range(40)]
    save_embeddings(EmbeddingSet(tokens, X), tmp_path / "src.txt")
    save_embeddings(EmbeddingSet(tokens, Q @ X), tmp_path / "tgt.txt")
    save_matrix(Q, tmp_path / "matrix.txt")
    (tmp_path / "train.tsv").write_text("".join(f"w{i}\tw{i}\n" for i in range(30)))
    (tmp_path / "test.tsv").write_text("".join(f"w{i}\tw{i}\n" for i in range(30, 40)))
    argv = {"align": ["--lexicon", "train.tsv", "--test-lexicon", "test.tsv",
                      "--method", "op"],
            "evaluate": ["--matrix", "matrix.txt", "--test-lexicon", "test.tsv"],
            "diachronic": []}[command]
    done = subprocess.run(
        [sys.executable, str(TRACER), "spans.json", command, "--src-emb", "src.txt",
         "--tgt-emb", "tgt.txt", *argv, "--output-dir", "out"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = [s[0] for s in spans]
    assert [names.count(f"io.{name}") for name in
            ("load_embeddings", "load_lexicon", "gather_pairs")] == [2, lexicons, gathers]
    metrics = load_tracer().layer_metrics(spans)
    assert metrics["io.load_embeddings.rows"] == 80
    assert metrics["io.load_embeddings.mb_per_s"] > 0
    assert (metrics["io.load_lexicon.s"] > 0) == (lexicons > 0)
