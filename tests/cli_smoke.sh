#!/bin/sh
# End-to-end smoke test of the `reghd` CLI: synthesize a dataset, train,
# inspect, evaluate, and predict, exercising the real binary the way a user
# would. Invoked by CTest with the binary path as $1.
set -eu

REGHD="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

CSV="$WORKDIR/data.csv"
MODEL="$WORKDIR/model.bin"

# synth → train → info → eval → predict
"$REGHD" synth --dataset diabetes --out "$CSV" --seed 3
[ -s "$CSV" ] || { echo "FAIL: synth produced no CSV"; exit 1; }

"$REGHD" train --csv "$CSV" --out "$MODEL" --models 4 --dim 1024 --quantized \
  | grep -q "trained RegHD-4-qc" || { echo "FAIL: train banner missing"; exit 1; }
[ -s "$MODEL" ] || { echo "FAIL: no model file written"; exit 1; }

"$REGHD" info --model "$MODEL" | grep -q "quantized" \
  || { echo "FAIL: info does not show cluster mode"; exit 1; }

"$REGHD" eval --csv "$CSV" --model "$MODEL" | grep -q "mse=" \
  || { echo "FAIL: eval printed no metrics"; exit 1; }

LINES="$("$REGHD" predict --csv "$CSV" --model "$MODEL" | wc -l)"
[ "$LINES" -eq 442 ] || { echo "FAIL: expected 442 predictions, got $LINES"; exit 1; }

# serve: replay the CSV through the serving runtime — predictions flow
# through the shard workers, every other row trains, snapshots publish.
SERVE_OUT="$WORKDIR/serve.out"
"$REGHD" serve --csv "$CSV" --shards 2 --dim 512 --models 4 --train-every 2 \
  --publish-interval-ms 10 --projection-storage rematerialized > "$SERVE_OUT" \
  || { echo "FAIL: serve exited nonzero"; exit 1; }
grep -q "served 442 rows across 2 shard(s)" "$SERVE_OUT" \
  || { echo "FAIL: serve banner missing"; cat "$SERVE_OUT"; exit 1; }
grep -q "221 submitted, 221 applied" "$SERVE_OUT" \
  || { echo "FAIL: serve did not apply every training row"; cat "$SERVE_OUT"; exit 1; }

# Error paths: bad command exits 1, missing file exits 2.
if "$REGHD" bogus >/dev/null 2>&1; then
  echo "FAIL: bogus command did not fail"; exit 1
fi
if "$REGHD" eval --csv /nonexistent.csv --model "$MODEL" >/dev/null 2>&1; then
  echo "FAIL: missing CSV did not fail"; exit 1
fi

# An option the subcommand does not read is a usage error (exit 1) that
# names the option, not a silent fallback to the default it meant to set.
STATUS=0
"$REGHD" train --csv "$CSV" --out "$WORKDIR/typo.bin" --encoder nonlinear \
  >/dev/null 2>"$WORKDIR/typo.err" || STATUS=$?
[ "$STATUS" -eq 1 ] || { echo "FAIL: unknown --encoder exited $STATUS, want 1"; exit 1; }
grep -q -- "--encoder" "$WORKDIR/typo.err" \
  || { echo "FAIL: unknown option not named on stderr"; cat "$WORKDIR/typo.err"; exit 1; }
[ ! -e "$WORKDIR/typo.bin" ] || { echo "FAIL: train ran despite the unknown option"; exit 1; }

echo "cli smoke OK"
