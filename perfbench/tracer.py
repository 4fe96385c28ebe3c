"""Traced child: run the noisy-align CLI with span wrappers installed.

    python3 perfbench/tracer.py SPANS.json <noisy-align arguments...>

Wraps the public functions that `cli`, `experiments`, `mixture` and
`evaluation` call, in every module namespace that binds them (for example
`mixture.procrustes` and `experiments.procrustes` are separate bindings of
`align.procrustes`). Each call records a span (name, start, end, parent)
plus counts taken from its arguments and return value. Spans stay in
memory and are written to SPANS.json when the CLI returns; the exit code
is the CLI's. Nothing under `src/` is changed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

WRAPPED = {
    "io": ("load_embeddings", "load_lexicon", "gather_pairs"),
    "align": ("procrustes", "weighted_procrustes", "alignment_error",
              "sgd_align", "save_matrix"),
    "mixture": ("em_fit", "initialize", "log_likelihood", "save_model",
                "write_responsibilities_tsv"),
    "evaluation": ("precision_at_1", "nearest_neighbor", "build_index",
                   "rank_semantic_shift", "write_shift_ranking_tsv"),
    "experiments": ("fit_translation", "run_noise_curve"),
    "synthetic": ("make_noisy_problem",),
    "cli": ("main",),
}


# output writers: position of the path argument
WRITERS = {"align.save_matrix": 1, "mixture.save_model": 1,
           "evaluation.write_shift_ranking_tsv": 1,
           "mixture.write_responsibilities_tsv": 2}


def _counts(name: str, args, kwargs, result) -> dict:
    """Counts for one call, read from its arguments and return value."""
    if name in WRITERS:
        return {"bytes": os.path.getsize(kwargs.get("path") or args[WRITERS[name]])}
    if name == "io.load_embeddings":
        return {"rows": result.n, "bytes": os.path.getsize(args[0])}
    if name == "evaluation.precision_at_1":
        tgt, queries = args[3], result[1]
        # computed, not counted: one d x V scoring pass per query
        return {"queries": queries, "gflop": 2.0 * tgt.dim * tgt.n * queries / 1e9}
    if name == "mixture.em_fit":
        return {"iterations": result[2].iterations}
    if name == "evaluation.rank_semantic_shift":
        return {"rows": len(result[0])}
    return {}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            span[4] = _counts(name, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every module-level name that refers to a wrapped function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod, names in WRAPPED.items():
            module = sys.modules[f"{package}.{mod}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{mod}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


# Per-layer metrics as (name, unit), in the order they are reported.
# `.s` is total seconds, `.self_s` excludes wrapped children, `.calls` counts.
LAYER_METRICS = [
    ("io.load_embeddings.s", "s"), ("io.load_embeddings.rows", "count"),
    ("io.load_embeddings.mb_per_s", "MB/s"), ("io.load_lexicon.s", "s"),
    ("io.gather_pairs.s", "s"),
    ("evaluation.precision_at_1.s", "s"), ("evaluation.precision_at_1.queries", "count"),
    ("evaluation.precision_at_1.queries_per_s", "1/s"),
    ("evaluation.precision_at_1.gflop", "gflop-computed"),
    ("evaluation.precision_at_1.gflop_per_s", "gflop/s-computed"),
    ("evaluation.nearest_neighbor.s", "s"), ("evaluation.nearest_neighbor.calls", "count"),
    ("evaluation.build_index.s", "s"),
    ("mixture.em_fit.s", "s"), ("mixture.em_fit.self_s", "s"),
    ("mixture.em_fit.calls", "count"), ("mixture.em_fit.iterations", "count"),
    ("mixture.em_fit.s_per_iter", "s"), ("mixture.initialize.s", "s"),
    ("mixture.log_likelihood.s", "s"),
    ("align.procrustes.s", "s"), ("align.procrustes.calls", "count"),
    ("align.weighted_procrustes.s", "s"), ("align.weighted_procrustes.calls", "count"),
    ("align.alignment_error.s", "s"),
    ("align.sgd_align.s", "s"), ("align.sgd_align.calls", "count"),
    ("synthetic.make_noisy_problem.s", "s"),
    ("experiments.fit_translation.calls", "count"),
    ("experiments.fit_translation.p50_ms", "ms"),
    ("experiments.fit_translation.p90_ms", "ms"),
    ("experiments.run_noise_curve.self_s", "s"),
    ("evaluation.rank_semantic_shift.s", "s"),
    ("evaluation.rank_semantic_shift.rows", "count"),
    ("evaluation.write_shift_ranking_tsv.s", "s"),
    ("evaluation.write_shift_ranking_tsv.bytes", "B"),
    ("mixture.write_responsibilities_tsv.s", "s"),
    ("mixture.write_responsibilities_tsv.bytes", "B"),
    ("mixture.save_model.s", "s"), ("mixture.save_model.bytes", "B"),
    ("align.save_matrix.s", "s"), ("align.save_matrix.bytes", "B"),
    ("cli.main.s", "s"), ("cli.main.self_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold one invocation's spans into the LAYER_METRICS values.

    A layer that was never called reports 0 for every quantity.
    """
    total, own = defaultdict(float), defaultdict(float)
    calls, counts, durations = Counter(), defaultdict(Counter), defaultdict(list)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, _, c) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
        counts[name].update(c)
        durations[name].append(end - start)

    def pct_ms(name: str, q: int) -> float:
        d = durations[name]
        if len(d) < 2:
            return 1000.0 * d[0] if d else 0.0
        return 1000.0 * statistics.quantiles(d, n=10, method="inclusive")[q - 1]

    p1, em, load = ("evaluation.precision_at_1", "mixture.em_fit",
                    "io.load_embeddings")
    derived = {
        f"{load}.mb_per_s": _ratio(counts[load]["bytes"] / 1e6, total[load]),
        f"{p1}.queries_per_s": _ratio(counts[p1]["queries"], total[p1]),
        f"{p1}.gflop_per_s": _ratio(counts[p1]["gflop"], total[p1]),
        f"{em}.s_per_iter": _ratio(total[em], counts[em]["iterations"]),
        "experiments.fit_translation.p50_ms": pct_ms("experiments.fit_translation", 5),
        "experiments.fit_translation.p90_ms": pct_ms("experiments.fit_translation", 9),
    }
    out = {}
    for metric, _ in LAYER_METRICS:
        layer, quantity = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif quantity == "s":
            out[metric] = total[layer]
        elif quantity == "self_s":
            out[metric] = own[layer]
        elif quantity == "calls":
            out[metric] = calls[layer]
        else:
            out[metric] = counts[layer][quantity]
    return out


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import noisy_align.cli

    tracer = Tracer()
    tracer.install("noisy_align")
    try:
        return noisy_align.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"module": noisy_align.cli.__file__, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
