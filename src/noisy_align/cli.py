"""Command-line interface.

Subcommands: align, evaluate, synthetic-2d, noise-curve, diachronic and
clean-lexicon (align emitting only the cleaned-lexicon TSV). Each takes
only the flags it reads, and abbreviated flags are rejected. Exit codes:
0 success, 1 usage error (printed after the subcommand's usage line),
2 data error. A warning the library issues while a command runs prints as
one line, `noisy-align: warning: <message>`, on stderr.

A `--config FILE` of `key = value` lines, given after the subcommand,
supplies defaults: each line becomes the token `--key=value`, inserted
right after the command name. argparse then checks the keys, types and
choices as for any flag, required flags may come from the file, and
explicit command-line flags always win. Switches such as `normalize` take
`true` or `false`. A second `--config`, also one named in the file, is a
usage error, and so is a `--config` before the subcommand. The file is read
only when the first argument names a subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as nio
from .align import SgdConfig, alignment_error, load_matrix, save_matrix
from .evaluation import (
    EvalReport,
    precision_at_1,
    rank_semantic_shift,
    write_shift_ranking_tsv,
)
from .experiments import (
    EM_METHODS,
    METHODS,
    fit_translation,
    noise_curve_error,
    run_noise_curve,
    run_synthetic_2d,
    write_noise_curve_csv,
)
from .mixture import EmConfig, save_model, write_responsibilities_tsv


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: `--seed` must not pass for noise-curve's `--seeds`
        super().__init__(allow_abbrev=False, **kwargs)

    # spec'd exit codes: usage errors are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Once(argparse.Action):
    """Store the value; a second one is a usage error (see `main`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given once, not in a config file")
        setattr(namespace, self.dest, values)


def _switch(text: str) -> bool:
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _checked(cast, ok, what: str):
    """An argparse type: `cast` the text, then reject values failing `ok`."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value" message
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_frequency = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _list_of(entry):
    """An argparse type: comma-separated entries, each parsed by the argparse
    type `entry`; an empty list, an empty entry or a repeated one is
    rejected."""
    def parse(text: str) -> tuple:
        entries = text.split(",")
        if "" in entries:
            raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
        values = tuple(map(entry, entries))
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated entry in {text!r}")
        return values
    parse.__name__ = entry.__name__  # argparse's "invalid float value" message
    return parse


_levels = _list_of(float)  # each level's range: `noise_curve_error`
_methods = _list_of(_checked(str, lambda m: m in METHODS, "one of " + ",".join(METHODS)))


def _config_tokens(path: str) -> list[str]:
    """The `--config` file's `key = value` lines as `--key=value` tokens."""
    tokens = []
    for line in nio._read_lines(path, "config file"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise nio.DataError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.append(f"--{key}={value}")
    return tokens


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--limit", type=_positive_int, default=None,
                   help="keep only the first N vocabulary rows")
    p.add_argument("--normalize", type=_switch, nargs="?", const=True, default=False,
                   metavar="true|false", help="unit-normalize embedding vectors at load")


def _add_em_args(p: argparse.ArgumentParser) -> None:
    # None: not given, so EmConfig's default applies
    p.add_argument("--epsilon", type=_positive_float, default=None,
                   help="EM convergence threshold on |alpha change|")
    p.add_argument("--max-iters", type=_positive_int, default=None)


_EM_FLAGS = ("epsilon", "max_iters")
_SGD_FLAGS = ("seed", "learning_rate", "epochs", "batch_size")


def _given(args, names) -> dict:
    """The flags among `names` given on the command line or in the config;
    a flag the subcommand does not take counts as not given."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _check_align(args) -> str | None:
    """Method-specific flags are valid only with their method."""
    for names, kind, ok in ((_EM_FLAGS, "EM", args.method in EM_METHODS),
                            (_SGD_FLAGS, "SGD", args.method == "sgd")):
        given = _given(args, names)
        if given and not ok:
            return (f"{kind} options {sorted(given)} are invalid with "
                    f"method {args.method!r}")
    return None


def _check_diachronic(args) -> str | None:
    if args.threshold is not None and (args.src_freqs is None or args.tgt_freqs is None):
        return "--threshold requires --src-freqs and --tgt-freqs"
    return None


def _check_noise_curve(args) -> str | None:
    """`noise_curve_error`'s reason, under the flag it concerns."""
    problem = noise_curve_error(args.n, args.levels, args.methods)
    return problem and f"argument --{problem[0]}: {problem[1]}"


def build_parser() -> _Parser:
    parser = _Parser(prog="noisy-align",
                     description="Noise-aware alignment of embedding spaces")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, help, check=lambda args: None):
        """`check(args)` returns the usage error of flags that are invalid
        together, or None; `main` runs it after the parse."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p, check=check)
        p.add_argument("--config", action=_Once, help="key = value defaults; flags win")
        p.add_argument("--output-dir", default=".")
        return p

    p = command("align", _cmd_align, "fit a translation matrix from a lexicon",
                check=_check_align)
    _add_data_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--test-lexicon", default=None)
    p.add_argument("--method", choices=METHODS, default="em-hard")
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="SGD minibatch shuffling seed (default 0)")
    _add_em_args(p)
    p.add_argument("--learning-rate", type=_positive_float, default=None,
                   help="SGD step (default 0.4 / lambda_max(X X^T))")
    p.add_argument("--epochs", type=_positive_int, default=None,
                   help="SGD epochs (default 200)")
    p.add_argument("--batch-size", type=_positive_int, default=None,
                   help="SGD minibatch size (default all pairs)")

    p = command("clean-lexicon", _cmd_align,
                "align and emit only the responsibilities TSV")
    _add_data_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--method", choices=EM_METHODS, default="em-hard")
    _add_em_args(p)

    p = command("evaluate", _cmd_evaluate, "evaluate a saved translation matrix")
    _add_data_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--test-lexicon", required=True)

    p = command("synthetic-2d", _cmd_synthetic_2d, "2D single-noisy-pair experiment")
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = command("noise-curve", _cmd_noise_curve, "error-vs-noise-level experiment",
                check=_check_noise_curve)
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--d", type=_positive_int, default=50)
    p.add_argument("--test-n", type=_positive_int, default=300)
    p.add_argument("--levels", type=_levels, default="0,0.1,0.2,0.3,0.4,0.5",
                   help="comma-separated noise fractions in [0, 1)")
    p.add_argument("--seeds", type=_positive_int, default=10, help="number of seeds")
    p.add_argument("--methods", type=_methods, default="op,sgd,em-hard",
                   help="comma-separated subset of " + ",".join(METHODS))

    p = command("diachronic", _cmd_diachronic,
                "identity-lexicon alignment and shift ranking", check=_check_diachronic)
    _add_data_args(p)
    p.add_argument("--stoplist", default=None)
    p.add_argument("--src-freqs", default=None)
    p.add_argument("--tgt-freqs", default=None)
    p.add_argument("--threshold", type=_frequency, default=None,
                   help="drop tokens below this relative frequency")
    _add_em_args(p)

    return parser


def _output(args, name: str) -> Path:
    """The path of output file `name` in `--output-dir`, which is created."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_json(args, name: str, obj) -> str:
    """Write `obj` to output file `name` as indented JSON with sorted keys and
    return the text; a non-finite value is a ValueError, never written."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _output(args, name).write_text(text + "\n", encoding="utf-8")
    return text


def _load_spaces(args):
    src = nio.load_embeddings(args.src_emb, limit=args.limit, normalize=args.normalize)
    tgt = nio.load_embeddings(args.tgt_emb, limit=args.limit, normalize=args.normalize)
    return src, tgt


def _test_metrics(Q, test_lex: nio.Lexicon, src, tgt) -> dict:
    """EvalReport's p_at_1, n_queries and test_error of Q on a test lexicon.

    The sizes of Q and of both embedding sets are checked before retrieval.
    """
    if Q.shape[0] != src.dim:
        raise nio.DataError(
            f"matrix dimension mismatch: matrix d={Q.shape[0]}, embedding d={src.dim}")
    # gather_pairs compares the two embedding sets
    test_error = alignment_error(Q, *nio.gather_pairs(test_lex, src, tgt))
    p_at_1, n_queries = precision_at_1(Q, test_lex, src, tgt)
    return {"p_at_1": p_at_1, "n_queries": n_queries, "test_error": test_error}


def _cmd_align(args) -> int:
    src, tgt = _load_spaces(args)
    lex, skipped = nio.load_lexicon(args.lexicon, src, tgt)
    # clean-lexicon takes no --test-lexicon
    test_path = getattr(args, "test_lexicon", None)
    test_lex = nio.load_lexicon(test_path, src, tgt)[0] if test_path else None
    # the training pairs are freed before the test set is gathered
    Q, model, resp, trace = fit_translation(
        args.method, *nio.gather_pairs(lex, src, tgt),
        sgd_cfg=SgdConfig(**_given(args, _SGD_FLAGS)),
        em_cfg=EmConfig(**_given(args, _EM_FLAGS)))
    test = _test_metrics(Q, test_lex, src, tgt) if test_lex is not None else {}

    if resp is not None:
        names = [(src.tokens[s], tgt.tokens[g]) for s, g in lex.pairs]
        path = _output(args, "responsibilities.tsv")
        write_responsibilities_tsv(resp, names, path)
    if args.command == "clean-lexicon":
        print(f"wrote {path} ({skipped} unresolvable lexicon lines skipped)")
        return 0

    fit = {}
    if model is None:
        save_matrix(Q, _output(args, "matrix.txt"))
    else:
        save_model(model, _output(args, "model.txt"), _output(args, "matrix.txt"))
        fit = {"noise_rate": 1.0 - model.alpha, "iterations": trace.iterations}
    report = EvalReport(**test, **fit)
    text = _write_json(args, "report.json", asdict(report))
    # op and sgd fit no mixture, so they discard nothing
    discarded = f" discarded_fraction={report.noise_rate:.4f}" if fit else ""
    print(f"method={args.method} pairs={len(lex)} skipped_lines={skipped}{discarded}")
    print(text)
    return 0


def _cmd_evaluate(args) -> int:
    Q = load_matrix(args.matrix)  # before the larger embedding files
    src, tgt = _load_spaces(args)
    test_lex, _ = nio.load_lexicon(args.test_lexicon, src, tgt)
    report = EvalReport(**_test_metrics(Q, test_lex, src, tgt))
    print(_write_json(args, "report.json", asdict(report)))
    return 0


def _cmd_synthetic_2d(args) -> int:
    report = run_synthetic_2d(seed=args.seed)
    _write_json(args, "synthetic_2d.json", report)
    for variant in ("noise_free", "noisy"):
        errs = report[variant]["clean_error"]
        line = " ".join(f"{m}={e:.3g}" for m, e in sorted(errs.items()))
        print(f"{variant}: {line}")
    return 0


def _cmd_noise_curve(args) -> int:
    rows = run_noise_curve(n=args.n, d=args.d, levels=args.levels,
                           test_n=args.test_n, seeds=range(args.seeds),
                           methods=args.methods)
    path = _output(args, "noise_curve.csv")
    write_noise_curve_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_diachronic(args) -> int:
    # the small inputs first: a bad one is reported before the embeddings load
    stoplist = nio.load_stoplist(args.stoplist) if args.stoplist else None
    src_freqs = nio.load_frequency_table(args.src_freqs) if args.src_freqs else None
    tgt_freqs = nio.load_frequency_table(args.tgt_freqs) if args.tgt_freqs else None
    src, tgt = _load_spaces(args)
    lex = nio.build_identity_lexicon(src, tgt, stoplist=stoplist)
    nio._check_dims(src, tgt)
    tokens = [src.tokens[s] for s, _ in lex.pairs]
    # only the pairs' tokens and columns are read below; each loaded set is
    # freed once its side is gathered (README, "Outputs")
    X = nio._pair_columns(lex, 0, src)
    del src
    Y = nio._pair_columns(lex, 1, tgt)
    del tgt, lex
    Q, model, resp, trace = fit_translation(
        "em-hard", X, Y, em_cfg=EmConfig(**_given(args, _EM_FLAGS)))
    ranking, dropped = rank_semantic_shift(
        Q, tokens, X, Y, src_freqs=src_freqs, tgt_freqs=tgt_freqs,
        threshold=args.threshold, responsibilities=resp)
    write_shift_ranking_tsv(ranking, _output(args, "shift_ranking.tsv"))
    _write_json(args, "shift_ranking.json", ranking)
    noise_frac = float(np.mean(~resp.h))
    n_noise_ranked = sum(1 for _, _, label in ranking if label == "Noise")
    summary = {
        "pairs": len(tokens),
        "noise_fraction": noise_frac,
        "noisy_after_filter": n_noise_ranked,
        "dropped_below_threshold": dropped,
        "iterations": trace.iterations,
    }
    _write_json(args, "diachronic_summary.json", summary)
    write_responsibilities_tsv(resp, [(t, t) for t in tokens],
                               _output(args, "responsibilities.tsv"))
    save_model(model, _output(args, "model.txt"))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _show_warning(message, *_) -> None:
    """`warnings.showwarning` while a command runs: the message alone."""
    print(f"noisy-align: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and argv[0].split("=", 1)[0] == "--config":
        parser.error("argument --config: goes after the subcommand, "
                     "as in `noisy-align align --config FILE`")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    # a --config without its value is left to the subcommand's parser
    config_parser = _Parser(prog="noisy-align", add_help=False)
    config_parser.add_argument("--config", action="append", nargs="?")
    try:
        # read only after a subcommand: `-h` or a bad command reaches argparse as given
        if argv and argv[0] in commands:
            configs = config_parser.parse_known_args(argv)[0].config or []
            # a second one, also from the file, is `_Once`'s error
            if len(configs) == 1 and configs[0] is not None:
                # right after the command name, so that every explicit flag wins
                argv[1:1] = _config_tokens(configs[0])
        # argparse reports a subcommand's leftovers with the top-level usage line
        args, extras = parser.parse_known_args(argv)
        if problem := args.check(args):  # before any unrecognized argument
            args.parser.error(problem)
        if extras:
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
        # the filters stay as set: `-W error` still raises
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.run(args)
    except (nio.DataError, OSError, ValueError) as exc:
        print(f"noisy-align: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
