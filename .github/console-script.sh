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
code=0
noisy-align align 2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align align" "$RUNNER_TEMP/usage.txt"
noisy-align noise-curve --n 20 --d 3 --test-n 5 --seeds 1 --levels 0,0.2 \
  --methods op,em-hard --output-dir "$RUNNER_TEMP/nc"
test "$(wc -l < "$RUNNER_TEMP/nc/noise_curve.csv")" -eq 5
code=0
noisy-align noise-curve --levels , 2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align noise-curve" "$RUNNER_TEMP/usage.txt"
# a level that leaves no clean training pair: round(0.9 * 2) == 2
code=0
noisy-align noise-curve --n 2 --levels 0.9 --output-dir "$RUNNER_TEMP/nc2" \
  2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align noise-curve" "$RUNNER_TEMP/usage.txt"
# flags that are invalid together print the subcommand's usage line too
emb="$RUNNER_TEMP/emb.txt"
printf 'a 1 0\nb 0 1\n' > "$emb"
printf 'a\ta\nb\tb\n' > "$RUNNER_TEMP/lex.tsv"
code=0
noisy-align align --src-emb "$emb" --tgt-emb "$emb" --lexicon "$RUNNER_TEMP/lex.tsv" \
  --method op --max-iters 3 --output-dir "$RUNNER_TEMP/op" \
  2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align align" "$RUNNER_TEMP/usage.txt"
code=0
noisy-align diachronic --src-emb "$emb" --tgt-emb "$emb" --threshold 0.5 \
  --output-dir "$RUNNER_TEMP/dia" 2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align diachronic" "$RUNNER_TEMP/usage.txt"
# a flag the subcommand does not take: its own usage line, not the top-level one
code=0
noisy-align synthetic-2d --bogus 1 --output-dir "$RUNNER_TEMP/bogus" \
  2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align synthetic-2d" "$RUNNER_TEMP/usage.txt"
test ! -e "$RUNNER_TEMP/bogus"
# a config file that is not UTF-8 is a data error that names the file
printf 'seed = \377\n' > "$RUNNER_TEMP/bad.cfg"
code=0
noisy-align synthetic-2d --config "$RUNNER_TEMP/bad.cfg" --output-dir "$RUNNER_TEMP/bad" \
  2> "$RUNNER_TEMP/data.txt" || code=$?
test "$code" -eq 2
grep -qF "config file $RUNNER_TEMP/bad.cfg is not valid UTF-8" "$RUNNER_TEMP/data.txt"
test ! -e "$RUNNER_TEMP/bad"
# --config given twice is a usage error, before any fit: neither
# file silently replaces the other
printf 'method = op\n' > "$RUNNER_TEMP/a.cfg"
printf 'max-iters = 1\n' > "$RUNNER_TEMP/c.cfg"
code=0
noisy-align align --src-emb "$emb" --tgt-emb "$emb" --lexicon "$RUNNER_TEMP/lex.tsv" \
  --config "$RUNNER_TEMP/a.cfg" --config "$RUNNER_TEMP/c.cfg" \
  --output-dir "$RUNNER_TEMP/cfg2" 2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "usage: noisy-align align" "$RUNNER_TEMP/usage.txt"
test ! -e "$RUNNER_TEMP/cfg2"
# --config goes after the subcommand; before it, the usage error says so
code=0
noisy-align --config "$RUNNER_TEMP/a.cfg" synthetic-2d --output-dir "$RUNNER_TEMP/cfg0" \
  2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q -- "--config: goes after the subcommand" "$RUNNER_TEMP/usage.txt"
test ! -e "$RUNNER_TEMP/cfg0"
# a config file is read only after a subcommand: these name a missing
# one, which a read would report as a data error (exit 2)
noisy-align -h --config "$RUNNER_TEMP/missing.cfg" > "$RUNNER_TEMP/help.txt"
grep -q "usage: noisy-align" "$RUNNER_TEMP/help.txt"
code=0
noisy-align bogus --config "$RUNNER_TEMP/missing.cfg" \
  2> "$RUNNER_TEMP/usage.txt" || code=$?
test "$code" -eq 1
grep -q "invalid choice" "$RUNNER_TEMP/usage.txt"
# the embedding cache: inputs older than its 2 s racy window get an
# entry, the second run reads both parses back (a hit marks the
# entry used), and its outputs, stdout and stderr are the first's
bli="$RUNNER_TEMP/bli"
python3 perfbench/gen.py --workload bli-align --seed 1 --out "$bli" > /dev/null
echo "bad 1 2" >> "$bli/src.vec"  # a skipped row: stderr holds a warning
touch -d '1 minute ago' "$bli"/*
for run in miss hit; do
  noisy-align align --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
    --lexicon "$bli/train.tsv" --test-lexicon "$bli/test.tsv" \
    --output-dir "$RUNNER_TEMP/$run" > "$RUNNER_TEMP/$run.out" 2> "$RUNNER_TEMP/$run.err"
  test "$(ls "$XDG_CACHE_HOME/noisy-align" | wc -l)" -eq 2
  touch "$RUNNER_TEMP/$run.done"
done
test "$(find "$XDG_CACHE_HOME/noisy-align" -type f -newer "$RUNNER_TEMP/miss.done" | wc -l)" -eq 2
grep -q "skipped 1 malformed/duplicate rows" "$RUNNER_TEMP/miss.err"
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
# the d=300 map is formatted once: model.txt begins with matrix.txt's bytes
head -n 301 "$RUNNER_TEMP/hit/model.txt" | cmp - "$RUNNER_TEMP/hit/matrix.txt"
# evaluate reads that matrix.txt back and reports align's test metrics
noisy-align evaluate --src-emb "$bli/src.vec" --tgt-emb "$bli/tgt.vec" \
  --matrix "$RUNNER_TEMP/hit/matrix.txt" --test-lexicon "$bli/test.tsv" \
  --output-dir "$RUNNER_TEMP/eval" > /dev/null
python3 -c 'import json, sys; fit, ev = (json.load(open(p)) for p in sys.argv[1:]); keys = ("p_at_1", "n_queries", "test_error"); sys.exit([fit[k] for k in keys] != [ev[k] for k in keys])' \
  "$RUNNER_TEMP/hit/report.json" "$RUNNER_TEMP/eval/report.json"
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
