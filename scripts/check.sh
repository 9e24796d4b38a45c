#!/usr/bin/env bash
# Repo quality gate: the tier-1 verify (ROADMAP.md) plus the robustness
# lints. Run from the repo root. Fails fast on the first broken step.
#
#   ./scripts/check.sh          # full gate
#   SKIP_RELEASE=1 ./scripts/check.sh   # debug-only (faster inner loop)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (release) =="
if [ "${SKIP_RELEASE:-0}" != "1" ]; then
  cargo build --release
else
  echo "skipped (SKIP_RELEASE=1)"
fi

# The suite promises identical results under every parallelism policy,
# so the whole test matrix runs twice: pinned sequential and pinned to
# a 4-worker pool (FAIREM_JOBS drives Parallelism::Auto).
#
# Every test invocation runs under a hard wall-clock timeout: the
# deadline subsystem exists so nothing can hang, and a regression that
# reintroduces a hang must fail this gate fast, not stall it. The limit
# is generous (the full debug matrix runs in ~1 min on the build box);
# override with CHECK_TEST_TIMEOUT=<secs> on slow machines.
TEST_TIMEOUT="${CHECK_TEST_TIMEOUT:-900}"
run_tests() {
  # timeout(1) sends TERM, then KILL 10s later if the run ignores it.
  local status=0
  timeout --kill-after=10 "$TEST_TIMEOUT" "$@" || status=$?
  if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
    echo "check.sh: FAIL — test run exceeded ${TEST_TIMEOUT}s wall clock (a hang?)" >&2
  fi
  return "$status"
}

echo "== tier-1: workspace tests (FAIREM_JOBS=1, ${TEST_TIMEOUT}s cap) =="
FAIREM_JOBS=1 run_tests cargo test -q --workspace

echo "== tier-1: workspace tests (FAIREM_JOBS=4, ${TEST_TIMEOUT}s cap) =="
FAIREM_JOBS=4 run_tests cargo test -q --workspace

echo "== lints: clippy, warnings denied, unwrap()/expect() banned outside tests =="
cargo clippy --workspace -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== lints: clippy over every target, warnings denied =="
# Tests, benches and examples meet the same warning bar. The
# unwrap()/expect() bans stay on the leg above: tests assert with them.
cargo clippy --workspace --all-targets -- -D warnings

echo "== benches: the opt-in heavy benches compile =="
# `cargo test` never builds the `heavy` benches, so a kernel API change
# would let them rot unnoticed; compile them without running.
cargo bench -q -p fairem-bench --features heavy --no-run

echo "== lints: fairem-lint v2, workspace contracts (DESIGN.md §9) =="
# Three promises checked here: (a) the workspace is clean under the
# full rule catalog and every seeded fixture violation still fires
# exactly as the manifest records — a linter that silently goes blind
# fails the gate just like a dirty workspace does; (b) the emitted
# fairem-lint/2 JSON validates; (c) the jobs policy changes nothing —
# a --jobs 4 and a --jobs 1 run emit byte-identical documents.
LINT_DIR="$(mktemp -d)"
cargo run -q -p fairem-lint -- --jobs 4 --format json > "$LINT_DIR/jobs4.json"
cargo run -q -p fairem-lint -- --validate-json "$LINT_DIR/jobs4.json"
cargo run -q -p fairem-lint -- --jobs 1 --format json > "$LINT_DIR/jobs1.json"
if ! diff "$LINT_DIR/jobs4.json" "$LINT_DIR/jobs1.json"; then
  echo "check.sh: FAIL — --jobs 4 and --jobs 1 lint documents diverged" >&2
  exit 1
fi
rm -rf "$LINT_DIR"
cargo run -q -p fairem-lint -- \
  --expect crates/lint/tests/fixtures/expected.lint crates/lint/tests/fixtures

echo "== observability: products audit under --metrics, snapshot validated =="
# The recorder must produce a parseable fairem-obs/1 snapshot on a real
# CLI run; bench_baseline --validate parses it and prints the per-stage
# totals (failing the gate if the schema drifts).
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run -q --release -p fairem360 --bin fairem -- generate \
  --dataset products --out "$OBS_DIR"
cargo run -q --release -p fairem360 --bin fairem -- audit \
  --table-a "$OBS_DIR/tableA.csv" --table-b "$OBS_DIR/tableB.csv" \
  --matches "$OBS_DIR/matches.csv" --sensitive tier --blocking title \
  --metrics "$OBS_DIR/metrics.json" > /dev/null
cargo run -q --release -p fairem-bench --bin bench_baseline -- \
  --validate "$OBS_DIR/metrics.json"

echo "== calibration: citations audit under --calibrate, KS disparity gate =="
# Per-group isotonic calibration must not worsen the fleet's KS
# disparity (the max per-group KS distance vs the overall score
# distribution), the calibrated report section must render, and the
# run's snapshot must still validate as fairem-obs/1.
cargo run -q --release -p fairem360 --bin fairem -- generate \
  --dataset citations --out "$OBS_DIR/cit"
cargo run -q --release -p fairem360 --bin fairem -- audit \
  --table-a "$OBS_DIR/cit/tableA.csv" --table-b "$OBS_DIR/cit/tableB.csv" \
  --matches "$OBS_DIR/cit/matches.csv" --sensitive venue --blocking title \
  --calibrate isotonic --all-thresholds \
  --metrics "$OBS_DIR/calib_metrics.json" > "$OBS_DIR/calib.txt"
cargo run -q --release -p fairem-bench --bin bench_baseline -- \
  --validate "$OBS_DIR/calib_metrics.json"
ks_raw=$(sed -n 's/.*"calib.ks_max.raw": \([0-9.eE+-]*\).*/\1/p' \
  "$OBS_DIR/calib_metrics.json")
ks_cal=$(sed -n 's/.*"calib.ks_max.calibrated": \([0-9.eE+-]*\).*/\1/p' \
  "$OBS_DIR/calib_metrics.json")
if [ -z "$ks_raw" ] || [ -z "$ks_cal" ]; then
  echo "check.sh: FAIL — calibration gauges missing from the snapshot" >&2
  exit 1
fi
if ! awk -v cal="$ks_cal" -v raw="$ks_raw" 'BEGIN { exit !(cal <= raw) }'; then
  echo "check.sh: FAIL — calibration worsened KS disparity ($ks_raw -> $ks_cal)" >&2
  exit 1
fi
if ! grep -q "KS disparity: raw" "$OBS_DIR/calib.txt"; then
  echo "check.sh: FAIL — calibrated audit section missing from the report" >&2
  exit 1
fi
echo "KS disparity $ks_raw -> $ks_cal under per-group isotonic calibration"

echo "== results: the figures runner reproduces results/ =="
# EXPERIMENTS.md quotes these files, so a change that moves any number
# they print must regenerate them (and correct the doc) in the same
# change. This is also the paper-scale bit-identity check: the runner
# trains all ten matchers once, the four neural ones included. `diff -r`
# also fails on a figure without a file, or a file without a figure.
cargo build -q --release -p fairem-bench --bin figures
./target/release/figures --out "$OBS_DIR/results"
if ! diff -r results "$OBS_DIR/results"; then
  echo "check.sh: FAIL — results/ no longer matches the figures (regenerate:" \
    "cargo run --release -p fairem-bench --bin figures -- --out results)" >&2
  exit 1
fi
echo "all $(ls results/*.txt | wc -l) results/ files reproduce byte for byte"

echo "== format: rustfmt over the whole tree =="
cargo fmt --all --check

echo "== serve: storm + SIGINT drain (${TEST_TIMEOUT}s cap) =="
# Boot the real release binary (not `cargo run`, so the INT signal
# reaches the server itself), storm it with the mixed client fleet,
# then SIGINT and assert a clean drain: exit 0, and a final snapshot
# that bench_baseline can re-parse. Everything rides under the same
# hard wall-clock cap as the test matrix.
cargo build -q --release -p fairem360 --bin fairem
serve_storm_leg() {
  local log="$OBS_DIR/serve.log"
  ./target/release/fairem serve --port 0 \
    --max-inflight 2 --request-timeout 0.5 --drain-timeout 5 \
    --metrics "$OBS_DIR/serve_metrics.json" > "$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^fairem-serve listening on //p' "$log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "check.sh: FAIL — server never reported its address" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  # Mixed storm: valid + malformed + slow + over-capacity clients.
  # `storm` exits 3 on transport failures, determinism violations, or
  # exhausted retries — any of which fails this gate.
  ./target/release/fairem storm --addr "$addr" --clients 16 --rounds 2
  # Graceful drain: SIGINT must end the process with exit 0 (a forced
  # cut would exit 4) and leave a parseable snapshot behind.
  kill -INT "$pid"
  local status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "check.sh: FAIL — serve exited $status after SIGINT (drain not clean?)" >&2
    cat "$log" >&2
    return 1
  fi
  cat "$log"
  cargo run -q --release -p fairem-bench --bin bench_baseline -- \
    --validate "$OBS_DIR/serve_metrics.json"
}
run_tests bash -c "$(declare -f serve_storm_leg); OBS_DIR='$OBS_DIR' serve_storm_leg"

echo "== sharded: equivalence, kill -9 resume, memory fence (${TEST_TIMEOUT}s cap) =="
# Gates on the out-of-core path (DESIGN.md §11), all but D on a ~1e5
# candidate-pair streamed dataset:
#   A. --shards 8 produces a byte-identical report to the unsharded run.
#   B. kill -KILL mid-audit, rerun with --resume: the report is still
#      byte-identical and the metrics prove committed shards were
#      skipped, not recomputed.
#   C. a --mem-budget the materialized path provably exceeds (exit 2)
#      still completes sharded, again byte-identically.
#   E. a --resume under a changed --blocker window recomputes every
#      shard and matches the unsharded report under the new window.
# Leg D (the ~1e6-pair acceptance scale) is described where it runs.
sharded_resume_leg() {
  set -euo pipefail
  local dir="$OBS_DIR/scale"
  local bin=./target/release/fairem
  "$bin" generate --dataset scale --out "$dir"
  local flags=(--table-a "$dir/tableA.csv" --table-b "$dir/tableB.csv"
    --matches "$dir/matches.csv" --sensitive tier --blocking name)

  # Leg A: sharded == unsharded, bit for bit.
  "$bin" audit "${flags[@]}" > "$dir/unsharded.txt"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-eq" \
    > "$dir/sharded.txt"
  if ! diff -q "$dir/unsharded.txt" "$dir/sharded.txt" > /dev/null; then
    echo "check.sh: FAIL — sharded audit diverged from unsharded" >&2
    return 1
  fi

  # Leg B: stall one matcher's score stage so the kill window is wide,
  # poll until some (but not all) shard checkpoints have committed,
  # then SIGKILL — no destructors run, exactly the crash we promise to
  # survive. The resumed run drops the stall flag (the run key excludes
  # fault plans) and must reproduce the uninterrupted report.
  rm -rf "$dir/ckpt-kill"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-kill" \
    --inject-stall DTMatcher:score:400 > "$dir/killed.txt" 2>&1 &
  local pid=$! n=0
  for _ in $(seq 1 400); do
    n=$(ls "$dir/ckpt-kill" 2>/dev/null | grep -c '^shard-' || true)
    if [ "$n" -ge 2 ] && [ "$n" -lt 8 ]; then break; fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.02
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ "$n" -lt 1 ] || [ "$n" -ge 8 ]; then
    echo "check.sh: FAIL — kill window missed ($n shard files committed)" >&2
    return 1
  fi
  echo "killed mid-audit with $n committed shard checkpoint(s)"
  "$bin" audit "${flags[@]}" --shards 8 --checkpoint-dir "$dir/ckpt-kill" \
    --resume --metrics "$dir/resume-metrics.json" > "$dir/resumed.txt"
  if ! diff -q "$dir/unsharded.txt" "$dir/resumed.txt" > /dev/null; then
    echo "check.sh: FAIL — resumed audit diverged from the uninterrupted report" >&2
    return 1
  fi
  local skipped
  skipped=$(sed -n 's/.*"ckpt.shards_skipped": \([0-9]*\).*/\1/p' \
    "$dir/resume-metrics.json")
  if [ -z "$skipped" ] || [ "$skipped" -lt 1 ]; then
    echo "check.sh: FAIL — resume recomputed every shard (skipped=${skipped:-0})" >&2
    return 1
  fi
  echo "resume skipped $skipped committed shard(s); report identical after kill -9"

  # Leg C: 4 MiB holds the global training features plus one shard's
  # scoring window, but not the full materialized candidate matrix —
  # so the unsharded run must fence (exit 2, the data-error code for
  # MemExceeded) while the sharded run completes.
  local budget=4 status=0
  "$bin" audit "${flags[@]}" --mem-budget "$budget" \
    > "$dir/fenced.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: FAIL — materialized run fit in ${budget} MiB (exit $status)" >&2
    return 1
  fi
  "$bin" audit "${flags[@]}" --mem-budget "$budget" --shards 8 \
    > "$dir/sharded-budget.txt"
  if ! diff -q "$dir/unsharded.txt" "$dir/sharded-budget.txt" > /dev/null; then
    echo "check.sh: FAIL — budgeted sharded audit diverged" >&2
    return 1
  fi
  echo "materialized path exceeds ${budget} MiB; sharded path completes identically"

  # Leg D: the acceptance scale — ~1e6 candidate pairs, streamed on
  # generation, audited out-of-core. 40 MiB clears the global training
  # transient (~33 MiB) but not the materialized test matrix, so the
  # unsharded run fences after training while 16 shards complete.
  local big="$OBS_DIR/scale-1e6"
  "$bin" generate --dataset scale --rows 128000 --block-width 8 --out "$big"
  local bflags=(--table-a "$big/tableA.csv" --table-b "$big/tableB.csv"
    --matches "$big/matches.csv" --sensitive tier --blocking name
    --matchers DTMatcher,LinRegMatcher)
  "$bin" audit "${bflags[@]}" > "$big/plain.txt"
  status=0
  "$bin" audit "${bflags[@]}" --mem-budget 40 > "$big/fenced.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: FAIL — 1e6-pair materialized run fit in 40 MiB (exit $status)" >&2
    return 1
  fi
  "$bin" audit "${bflags[@]}" --mem-budget 40 --shards 16 > "$big/sharded.txt"
  if ! diff -q "$big/plain.txt" "$big/sharded.txt" > /dev/null; then
    echo "check.sh: FAIL — 1e6-pair sharded audit diverged" >&2
    return 1
  fi
  echo "1e6-pair audit completes in 40 MiB sharded; materialized path cannot"

  # Leg E: the run key covers the blocker's whole configuration, so a
  # resume under a different sorted-neighborhood window must recompute
  # every shard and match the unsharded report under the new window,
  # never replay shards committed under the old one.
  "$bin" audit "${flags[@]}" --blocker sorted:name:3 --shards 8 \
    --checkpoint-dir "$dir/ckpt-blocker" > /dev/null
  "$bin" audit "${flags[@]}" --blocker sorted:name:6 > "$dir/sorted6.txt"
  "$bin" audit "${flags[@]}" --blocker sorted:name:6 --shards 8 \
    --checkpoint-dir "$dir/ckpt-blocker" --resume \
    --metrics "$dir/blocker-metrics.json" > "$dir/sorted6-resumed.txt"
  if ! diff -q "$dir/sorted6.txt" "$dir/sorted6-resumed.txt" > /dev/null; then
    echo "check.sh: FAIL — resume under a changed blocker diverged from its unsharded report" >&2
    return 1
  fi
  skipped=$(sed -n 's/.*"ckpt.shards_skipped": \([0-9]*\).*/\1/p' \
    "$dir/blocker-metrics.json")
  if [ "${skipped:-0}" -ne 0 ]; then
    echo "check.sh: FAIL — resume under a changed blocker skipped $skipped shard(s)" >&2
    return 1
  fi
  echo "resume under a changed blocker window recomputed every shard"
}
run_tests bash -c "$(declare -f sharded_resume_leg); OBS_DIR='$OBS_DIR' sharded_resume_leg"

echo "== perf: columnar featurization gate (BENCH_baseline.json) =="
# Sequential Citations featurization must beat the committed scalar
# baseline by >=3x, and the 4-worker pool must be >=2x faster than
# sequential on a ~1e5-pair batch (or, on a single-hardware-thread
# host, cost at most 35% overhead). A regression that slows the
# columnar hot path back down fails the gate here. It runs last, so
# that a host where the pooled bar cannot be met (two hardware
# threads) still runs every other leg first.
cargo run -q --release -p fairem-bench --bin bench_baseline -- --gate

echo "== check.sh: all gates passed =="
