#!/bin/sh
# Regenerate every table and figure of the paper into results/.
# SKIA_STEPS scales trace length (default 400000 ~ 2.8M instructions per run).
# SKIA_THREADS sets the sweep worker count (default: all cores).
# SKIA_EMIT=1 additionally writes each experiment's merged telemetry snapshot
# (counters, histograms, sampled event trace, profiling spans) to
# results/<exp>.telemetry.json, then aggregates all snapshots into
# results/manifest.json + results/manifest.md (per-experiment wall time,
# steps/sec, trace-cache traffic, per-phase span rollups) and a merged
# Chrome trace at results/trace.json via skia-report. Compare two runs with
# `skia-report diff <old-manifest> <new-manifest>`.
# SKIA_SPANS=1/0 force-enables/disables span profiling (default: on exactly
# when --emit-json is passed; spans never touch stdout).
# SKIA_CACHE points the on-disk cache somewhere else (default
# target/skia-cache; set to 0, off or empty to disable). The cache holds
# BOTH generated program images AND recorded branch traces: the first run of
# this script records one trace per (workload, step-count) and every later
# run — and every config sweep within a run — replays it instead of
# re-walking.
# Every binary parses these knobs once at startup; a malformed value
# (SKIA_THREADS=two) makes it exit 2 naming the knob, which aborts this
# script.
#
# Each experiment's stderr reports the two phases separately: a
# "prepare: ..." line (trace record/load wall time) followed by a
# "sweep: ..." line (pure simulation wall time). Any failure aborts the
# whole script with the failing experiment named.
set -e
cd "$(dirname "$0")"
STEPS="${SKIA_STEPS:-400000}"
export SKIA_STEPS="$STEPS"
echo "running all experiments at $STEPS steps per run"
cargo build --release -p skia-experiments --bins
mkdir -p results
total_start=$(date +%s)
for exp in table1 table2 fig01 fig06 fig13 fig15 fig16 fig18 fig14 ablations fig17 fig03; do
  echo "=== $exp ==="
  EMIT=""
  if [ -n "${SKIA_EMIT:-}" ]; then
    EMIT="--emit-json results/$exp.telemetry.json"
  fi
  exp_start=$(date +%s)
  if ! ./target/release/$exp $EMIT > results/$exp.md; then
    echo "FAILED: $exp (see stderr above)" >&2
    exit 1
  fi
  exp_end=$(date +%s)
  echo "done: results/$exp.md (${exp}: $((exp_end - exp_start))s)"
done
if [ -n "${SKIA_EMIT:-}" ]; then
  ./target/release/skia-report collect \
    --out results/manifest.json --md results/manifest.md \
    --chrome results/trace.json results/*.telemetry.json
fi
total_end=$(date +%s)
echo "all experiments done in $((total_end - total_start))s"
