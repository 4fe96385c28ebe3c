"""Command-line interface.

Subcommands: align, evaluate, synthetic-2d, noise-curve, diachronic and
clean-lexicon (align emitting only the cleaned-lexicon TSV). Exit codes:
0 success, 1 usage error, 2 data error.

A `--config FILE` of `key = value` lines (keys named like the long flags;
switches take true or false) supplies defaults. The lines are parsed as
flags placed before the command line's own, so argparse checks their
types and choices and explicit command-line flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .align import SgdConfig, alignment_error, load_matrix, save_matrix
from .evaluation import (
    EvalReport,
    precision_at_1,
    rank_semantic_shift,
    shift_ranking_to_json,
    write_shift_ranking_tsv,
)
from .experiments import (
    METHODS,
    fit_translation,
    run_noise_curve,
    run_synthetic_2d,
    write_noise_curve_csv,
)
from .mixture import EmConfig, save_model, write_responsibilities_tsv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes: usage errors are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The `--config` file's `key = value` lines as `--key=value` tokens."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise nio.DataError(f"cannot read config file {args.config}: {exc}") from exc
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise nio.DataError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() == "true":  # a switch such as --normalize
            tokens.append(flag)
        elif value.lower() != "false":
            raise UsageError(f"config key {key!r} takes true or false, got {value!r}")
    return tokens


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value defaults file; flags win")
    p.add_argument("--method", choices=METHODS, default="em-hard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None,
                   help="EM convergence threshold on |alpha change|")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--normalize", action="store_true",
                   help="unit-normalize embedding vectors at load")
    p.add_argument("--output-dir", default=".")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--limit", type=int, default=None,
                   help="keep only the first N vocabulary rows")


def _add_sgd_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="noisy-align",
                     description="Noise-aware alignment of embedding spaces")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("align", help="fit a translation matrix from a lexicon")
    _add_data_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--test-lexicon", default=None)
    _add_sgd_args(p)
    _add_common(p)

    p = sub.add_parser("clean-lexicon",
                       help="align and emit only the responsibilities TSV")
    _add_data_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--test-lexicon", default=None)
    _add_sgd_args(p)
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate a saved translation matrix")
    _add_data_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--test-lexicon", required=True)
    _add_common(p)

    p = sub.add_parser("synthetic-2d", help="2D single-noisy-pair experiment")
    _add_common(p)

    p = sub.add_parser("noise-curve", help="error-vs-noise-level experiment")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--test-n", type=int, default=300)
    p.add_argument("--levels", default="0,0.1,0.2,0.3,0.4,0.5",
                   help="comma-separated noise fractions")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--methods", default="op,sgd,em-hard",
                   help="comma-separated subset of " + ",".join(METHODS))
    _add_common(p)

    p = sub.add_parser("diachronic",
                       help="identity-lexicon alignment and shift ranking")
    _add_data_args(p)
    p.add_argument("--stoplist", default=None)
    p.add_argument("--src-freqs", default=None)
    p.add_argument("--tgt-freqs", default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="drop tokens below this relative frequency")
    _add_common(p)

    return parser


def _em_config(args) -> EmConfig:
    return EmConfig(epsilon=args.epsilon, max_iters=args.max_iters)


def _sgd_config(args) -> SgdConfig | None:
    given = {k: getattr(args, k) for k in ("learning_rate", "epochs", "batch_size")
             if getattr(args, k, None) is not None}
    if not given:
        return None
    if args.method != "sgd":
        raise UsageError(
            f"SGD options {sorted(given)} are invalid with method {args.method!r}")
    return SgdConfig(seed=args.seed, **given)


def _load_spaces(args):
    src = nio.load_embeddings(args.src_emb, limit=args.limit, normalize=args.normalize)
    tgt = nio.load_embeddings(args.tgt_emb, limit=args.limit, normalize=args.normalize)
    return src, tgt


def _cmd_align(args, emit_all: bool) -> int:
    src, tgt = _load_spaces(args)
    lex, skipped = nio.load_lexicon(args.lexicon, src, tgt)
    X, Y = nio.gather_pairs(lex, src, tgt)
    sgd_cfg = _sgd_config(args)
    Q, model, resp, trace = fit_translation(args.method, X, Y,
                                            sgd_cfg=sgd_cfg, em_cfg=_em_config(args))
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if resp is not None:
        write_responsibilities_tsv(resp, lex, out / "responsibilities.tsv")
    if not emit_all:
        print(f"wrote {out / 'responsibilities.tsv'} "
              f"({skipped} unresolvable lexicon lines skipped)")
        return 0

    save_matrix(Q, out / "matrix.txt")
    report = EvalReport()
    if model is not None:
        save_model(model, out / "model.txt")
        report.noise_rate = 1.0 - model.alpha
        report.iterations = trace.iterations
    if args.test_lexicon:
        test_lex, _ = nio.load_lexicon(args.test_lexicon, src, tgt)
        report.p_at_1, report.n_queries = precision_at_1(Q, test_lex, src, tgt)
        Xt, Yt = nio.gather_pairs(test_lex, src, tgt)
        report.test_error = alignment_error(Q, Xt, Yt)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"method={args.method} pairs={len(lex)} skipped_lines={skipped} "
          f"discarded_fraction={report.noise_rate:.4f}")
    print(report.to_json())
    return 0


def _cmd_evaluate(args) -> int:
    src, tgt = _load_spaces(args)
    Q = load_matrix(args.matrix)
    test_lex, _ = nio.load_lexicon(args.test_lexicon, src, tgt)
    report = EvalReport()
    report.p_at_1, report.n_queries = precision_at_1(Q, test_lex, src, tgt)
    Xt, Yt = nio.gather_pairs(test_lex, src, tgt)
    report.test_error = alignment_error(Q, Xt, Yt)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_json())
    return 0


def _cmd_synthetic_2d(args) -> int:
    report = run_synthetic_2d(seed=args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True)
    (out / "synthetic_2d.json").write_text(text + "\n", encoding="utf-8")
    for variant in ("noise_free", "noisy"):
        errs = report[variant]["clean_error"]
        line = " ".join(f"{m}={e:.3g}" for m, e in sorted(errs.items()))
        print(f"{variant}: {line}")
    return 0


def _cmd_noise_curve(args) -> int:
    levels = [float(v) for v in args.levels.split(",") if v]
    methods = tuple(m for m in args.methods.split(",") if m)
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    rows = run_noise_curve(n=args.n, d=args.d, levels=levels,
                           test_n=args.test_n, seeds=range(args.seeds),
                           methods=methods)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "noise_curve.csv"
    write_noise_curve_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_diachronic(args) -> int:
    if args.threshold is not None and (args.src_freqs is None or args.tgt_freqs is None):
        raise UsageError("--threshold requires --src-freqs and --tgt-freqs")
    src, tgt = _load_spaces(args)
    stoplist = nio.load_stoplist(args.stoplist) if args.stoplist else None
    lex = nio.build_identity_lexicon(src, tgt, stoplist=stoplist)
    X, Y = nio.gather_pairs(lex, src, tgt)
    Q, model, resp, trace = fit_translation("em-hard", X, Y, em_cfg=_em_config(args))
    src_freqs = nio.load_frequency_table(args.src_freqs) if args.src_freqs else None
    tgt_freqs = nio.load_frequency_table(args.tgt_freqs) if args.tgt_freqs else None
    ranking, dropped = rank_semantic_shift(
        Q, lex, src, tgt, src_freqs=src_freqs, tgt_freqs=tgt_freqs,
        threshold=args.threshold, responsibilities=resp)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_shift_ranking_tsv(ranking, out / "shift_ranking.tsv")
    (out / "shift_ranking.json").write_text(
        shift_ranking_to_json(ranking) + "\n", encoding="utf-8")
    noise_frac = float(np.mean(~resp.h))
    n_noise_ranked = sum(1 for _, _, label in ranking if label == "Noise")
    summary = {
        "pairs": len(lex),
        "noise_fraction": noise_frac,
        "noisy_after_filter": n_noise_ranked,
        "dropped_below_threshold": dropped,
        "iterations": trace.iterations,
    }
    (out / "diachronic_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_responsibilities_tsv(resp, lex, out / "responsibilities.tsv")
    save_model(model, out / "model.txt")
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config tokens go first, so that every explicit flag wins
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        if args.command == "align":
            return _cmd_align(args, emit_all=True)
        if args.command == "clean-lexicon":
            if args.method not in ("em-hard", "em-soft"):
                raise UsageError("clean-lexicon requires an EM method")
            return _cmd_align(args, emit_all=False)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "synthetic-2d":
            return _cmd_synthetic_2d(args)
        if args.command == "noise-curve":
            return _cmd_noise_curve(args)
        if args.command == "diachronic":
            return _cmd_diachronic(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"noisy-align: error: {exc}", file=sys.stderr)
        return 1
    except (nio.DataError, OSError, ValueError) as exc:
        print(f"noisy-align: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
