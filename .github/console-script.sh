#!/usr/bin/env bash
# End-to-end checks of the installed `noisy-align` console script
# ([project.scripts]), run without PYTHONPATH from the root of a checkout
# where the package is installed. Outputs go under $RUNNER_TEMP, which must
# name an existing, writable directory; the embedding cache is pointed
# there too. The usage text tells an argparse exit 1 from a failed import.
#
#   RUNNER_TEMP=$(mktemp -d) bash .github/console-script.sh
set -e
: "${RUNNER_TEMP:?RUNNER_TEMP must name a writable directory}"

export XDG_CACHE_HOME="$RUNNER_TEMP/cache"
noisy-align synthetic-2d --output-dir "$RUNNER_TEMP/s2d"
test -s "$RUNNER_TEMP/s2d/synthetic_2d.json"
# the installed entry point reaches argparse: a usage error exits 1 with the
# subcommand's usage line (tests/test_cli.py checks every other usage and
# --config error in-process)
code=0
noisy-align align 2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align align" "$RUNNER_TEMP/usage.txt"
# the embedding cache: inputs older than its 2 s racy window get an
# entry, the second run reads both parses back (a hit marks the
# entry used), and its outputs, stdout and stderr are the first's
bli="$RUNNER_TEMP/bli"
python3 perfbench/gen.py --workload bli-align --seed 1 --out "$bli" > /dev/null
echo "bad 1 2" >> "$bli/src.vec"  # a skipped row: stderr holds a warning
touch -d '1 minute ago' "$bli"/*
# retrieval and --normalize scale the loaded matrices in place; that must
# never reach an entry: later runs leave the miss run's two entries as
# they were
mkdir "$RUNNER_TEMP/miss-entries"
same_entries() {
  for e in "$RUNNER_TEMP"/miss-entries/*; do cmp "$e" "$XDG_CACHE_HOME/noisy-align/${e##*/}"; done
}
for run in miss hit; do
  noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
    --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
    --output-dir "$RUNNER_TEMP/$run" > "$RUNNER_TEMP/$run.out" 2> "$RUNNER_TEMP/$run.err"
  test "$(ls "$XDG_CACHE_HOME/noisy-align" | wc -l)" -eq 2
  touch "$RUNNER_TEMP/$run.done"
  test "$run" = hit || cp "$XDG_CACHE_HOME"/noisy-align/* "$RUNNER_TEMP/miss-entries"
done
same_entries
test "$(find "$XDG_CACHE_HOME/noisy-align" -type f -newer "$RUNNER_TEMP/miss.done" | wc -l)" -eq 2
grep -qxF "noisy-align: warning: skipped 1 malformed/duplicate rows in $bli/src.vec" \
  "$RUNNER_TEMP/miss.err"
cmp "$RUNNER_TEMP/miss.out" "$RUNNER_TEMP/hit.out"
cmp "$RUNNER_TEMP/miss.err" "$RUNNER_TEMP/hit.err"
test "$(ls "$RUNNER_TEMP/miss" | wc -l)" -eq 4
for f in "$RUNNER_TEMP"/miss/*; do cmp "$f" "$RUNNER_TEMP/hit/${f##*/}"; done
# a damaged entry is a miss, not an error: with both entries cut to 100
# bytes, the run parses both files again, prints and writes what the miss
# run did, and replaces both entries
truncate -s 100 "$XDG_CACHE_HOME"/noisy-align/*
noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/cut" > "$RUNNER_TEMP/cut.out" 2> "$RUNNER_TEMP/cut.err"
cmp "$RUNNER_TEMP/miss.out" "$RUNNER_TEMP/cut.out"
cmp "$RUNNER_TEMP/miss.err" "$RUNNER_TEMP/cut.err"
for f in "$RUNNER_TEMP"/miss/*; do cmp "$f" "$RUNNER_TEMP/cut/${f##*/}"; done
test "$(ls "$XDG_CACHE_HOME/noisy-align" | wc -l)" -eq 2
test "$(find "$XDG_CACHE_HOME/noisy-align" -type f -newer "$RUNNER_TEMP/hit.done" | wc -l)" -eq 2
# so is an entry whose last value, the matrix's, is overwritten with NaN,
# which the loader would refuse: the run parses both files again and
# writes both entries back as they were
mkdir "$RUNNER_TEMP/entries"
cp "$XDG_CACHE_HOME"/noisy-align/* "$RUNNER_TEMP/entries"
python3 - "$XDG_CACHE_HOME"/noisy-align/* <<'PY'
import struct, sys

for path in sys.argv[1:]:
    with open(path, "r+b") as fh:
        fh.seek(-8, 2)
        fh.write(struct.pack("<d", float("nan")))
PY
noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/nan" > "$RUNNER_TEMP/nan.out" 2> "$RUNNER_TEMP/nan.err"
cmp "$RUNNER_TEMP/miss.out" "$RUNNER_TEMP/nan.out"
cmp "$RUNNER_TEMP/miss.err" "$RUNNER_TEMP/nan.err"
for f in "$RUNNER_TEMP"/miss/*; do cmp "$f" "$RUNNER_TEMP/nan/${f##*/}"; done
for e in "$RUNNER_TEMP"/entries/*; do cmp "$e" "$XDG_CACHE_HOME/noisy-align/${e##*/}"; done
# the d=300 map is formatted once: model.txt begins with matrix.txt's bytes
head -n 301 "$RUNNER_TEMP/hit/model.txt" | cmp - "$RUNNER_TEMP/hit/matrix.txt"
# evaluate reads that matrix.txt back and reports align's test metrics
noisy-align evaluate --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --matrix "$RUNNER_TEMP/hit/matrix.txt" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/eval" > /dev/null
python3 -c 'import json, sys; fit, ev = (json.load(open(p)) for p in sys.argv[1:]); keys = ("p_at_1", "n_queries", "test_error"); sys.exit([fit[k] for k in keys] != [ev[k] for k in keys])' \
  "$RUNNER_TEMP/hit/report.json" "$RUNNER_TEMP/eval/report.json"
same_entries
# an `align --normalize` hit, then a plain hit: the plain run reads the raw
# entries back and prints and writes what the hit run did
noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" --normalize \
  --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/norm" > /dev/null 2>&1
test "$(ls "$RUNNER_TEMP/norm" | wc -l)" -eq 4
same_entries
noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/plain" > "$RUNNER_TEMP/plain.out" 2> "$RUNNER_TEMP/plain.err"
same_entries
cmp "$RUNNER_TEMP/hit.out" "$RUNNER_TEMP/plain.out"
cmp "$RUNNER_TEMP/hit.err" "$RUNNER_TEMP/plain.err"
for f in "$RUNNER_TEMP"/hit/*; do cmp "$f" "$RUNNER_TEMP/plain/${f##*/}"; done
# clean-lexicon runs align's em-hard fit on the same pairs from the
# same two cache entries, so it labels every pair as align did
noisy-align clean-lexicon --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --lexicon "$bli/train.tsv" --output-dir "$RUNNER_TEMP/clean" > /dev/null
test "$(ls "$XDG_CACHE_HOME/noisy-align" | wc -l)" -eq 2
cmp "$RUNNER_TEMP/clean/responsibilities.tsv" "$RUNNER_TEMP/hit/responsibilities.tsv"
# diachronic end to end on the benchmark's inputs and command line
# (stop-list, frequency tables, threshold): a cache miss, then a hit
dia="$RUNNER_TEMP/dia-in"
cmdline=$(python3 perfbench/gen.py --workload diachronic --seed 1 --out "$dia")
touch -d '1 minute ago' "$dia"/*
for run in miss hit; do
  (cd "$dia" && $cmdline --output-dir "$RUNNER_TEMP/dia-$run") \
    > "$RUNNER_TEMP/dia-$run.out" 2> "$RUNNER_TEMP/dia-$run.err"
  test "$(ls "$XDG_CACHE_HOME/noisy-align" | wc -l)" -eq 4
  touch "$RUNNER_TEMP/dia-$run.done"
done
test "$(find "$XDG_CACHE_HOME/noisy-align" -type f -newer "$RUNNER_TEMP/dia-miss.done" | wc -l)" -eq 2
cmp "$RUNNER_TEMP/dia-miss.out" "$RUNNER_TEMP/dia-hit.out"
cmp "$RUNNER_TEMP/dia-miss.err" "$RUNNER_TEMP/dia-hit.err"
test "$(ls "$RUNNER_TEMP/dia-miss" | wc -l)" -eq 5
for f in "$RUNNER_TEMP"/dia-miss/*; do cmp "$f" "$RUNNER_TEMP/dia-hit/${f##*/}"; done
# the same inputs without --threshold rank every pair, reading the pairs in
# place: `pairs` rows in descending distance, among them each row of the
# thresholded ranking verbatim
(cd "$dia" && ${cmdline% --threshold *} --output-dir "$RUNNER_TEMP/dia-all") \
  > "$RUNNER_TEMP/dia-all.out"
python3 - "$RUNNER_TEMP/dia-all" "$RUNNER_TEMP/dia-hit" <<'PY'
import json, sys
from pathlib import Path

full, part = (Path(p) for p in sys.argv[1:])
rows = (full / "shift_ranking.tsv").read_text(encoding="utf-8").splitlines()[1:]
kept = (part / "shift_ranking.tsv").read_text(encoding="utf-8").splitlines()[1:]
pairs = json.loads((full / "diachronic_summary.json").read_text(encoding="utf-8"))["pairs"]
dists = [float(row.split("\t")[1]) for row in rows]
assert len(rows) == pairs, (len(rows), pairs)
assert dists == sorted(dists, reverse=True)
assert kept and set(kept) <= set(rows)
PY
