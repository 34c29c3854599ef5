#!/usr/bin/env bash
# Builds and runs one benchmark binary and writes the results to a JSON file
# (google-benchmark JSON, including machine context).
#
# Usage:
#   bench/run_bench.sh                  # PR 2 hot path -> BENCH_pr2.json
#   BENCH=bench_multipart_txn bench/run_bench.sh   # PR 3 -> BENCH_pr3.json
#   bench/run_bench.sh --benchmark_min_time=0.1s   # quick smoke (CI)
#   OUT=BENCH_pr8.json bench/run_bench.sh          # PR 8: same hot-path
#     binary re-run with the observability instruments attached
#
# Env:
#   BENCH      benchmark target (default: bench_ingest_hotpath)
#   BUILD_DIR  build directory (default: build-bench)
#   OUT        output JSON path (default: per-target, see below)
#
# Acceptance gates (checked by eye / by the driver):
#   bench_ingest_hotpath:  items_per_second of BM_SubmitBatch >= 2x
#     BM_SubmitPerInvocation at the same batch arg, and
#     BM_BackpressureCpu producer_cpu_frac near 0.
#   bench_multipart_txn:  BM_MultiPartitionTransfer completes (atomicity
#     machinery on the hot path), and BM_GlobalOrderPipelined
#     items_per_second (real time) exceeds the synchronous
#     BM_MultiPartitionTransfer's.
#   bench_placed_workflow:  BM_PlacedPipeline completes with
#     channel_deliveries == 2x items (both boundaries transported), and the
#     replicated/placed LinearRoad pair quantifies the channel-hop cost.
#   bench_rebalance:  BM_SplitCutover reports bounded pauses
#     (routing_pause_us well under the barrier pause, barrier_pause_us
#     dominated by the cutover checkpoint) with rows_migrated ~ half the
#     split partition's rows, and BM_PostSplitIngest's items_per_second is
#     not below BM_KeyedIngest/2 (the extra partition absorbs load).
#   bench_wire_serving:  BM_WirePipelined items_per_second >= 3x
#     BM_WirePerRequest (the batched wire path vs one request per round
#     trip), BM_WireMultiConn sustains that under N connections, and
#     BM_WireGroupCommit/64's log_flushes_per_kvote is far below /1's 1000.
#   bench_ingest_hotpath (PR 8 re-run, OUT=BENCH_pr8.json):  BM_SubmitBatch
#     items_per_second with the instruments attached (the default) within
#     3% of the same binary run under BENCH_NO_OBS=1 — bounds the cost of
#     always-on latency sampling + trace spans. (Measured at parity; the
#     gap vs BENCH_pr2.json is PR 3-7 submit-path machinery, not obs.)
#   bench_checkpoint_jitter:  BM_IngestThroughCheckpoints completes with
#     checkpoints >= 1 (ingest flowed through self-triggered background
#     cuts) and its p99_us within a small multiple of BM_IngestNoCheckpoint
#     (jitter bounded by max_barrier_pause_us, not snapshot-write time);
#     BM_CheckpointPause/delta:1 pause_us below /delta:0 with
#     tables_delta_per_cut > 0 (unchanged tables ride as references).
#   bench_update_by_key:  BM_UpdateByKey/<rows>/1 (pk index) items_per_second
#     about flat from 64 to 4096 rows and far above BM_UpdateByKey/4096/0
#     (no index: every update scans the table). BM_TopNScan (64 rows,
#     LIMIT 3) and BM_GroupByTopN (100 rows, ~50 groups, LIMIT 3) time the
#     leaderboard's two per-vote queries; both complete with 3 rows.
#     BM_TupleWindowSlide (100-row window, slide 1) times the trending
#     window's per-vote insert+slide; it slides once per iteration.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-bench_ingest_hotpath}"
BUILD_DIR="${BUILD_DIR:-build-bench}"
case "$BENCH" in
  bench_ingest_hotpath)   DEFAULT_OUT=BENCH_pr2.json ;;
  bench_multipart_txn)    DEFAULT_OUT=BENCH_pr3.json ;;
  bench_placed_workflow)  DEFAULT_OUT=BENCH_pr4.json ;;
  bench_rebalance)        DEFAULT_OUT=BENCH_pr5.json ;;
  bench_wire_serving)     DEFAULT_OUT=BENCH_pr6.json ;;
  bench_checkpoint_jitter) DEFAULT_OUT=BENCH_pr7.json ;;
  *)                      DEFAULT_OUT="BENCH_${BENCH}.json" ;;
esac
OUT="${OUT:-$DEFAULT_OUT}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DSSTORE_BUILD_BENCHMARKS=ON \
  -DSSTORE_BUILD_TESTS=OFF \
  -DSSTORE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j --target "$BENCH" >/dev/null

# A stale $OUT from an earlier run must never outlive a failed one: remove
# it up front, run the binary with its exit code checked explicitly, and
# delete whatever partial file a crash left behind. A missing/removed $OUT
# plus a non-zero exit is the loud failure mode consumers can trust.
rm -f "$OUT"
set +e
"$BUILD_DIR/bench/$BENCH" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  "$@"
rc=$?
set -e
if [ "$rc" -ne 0 ]; then
  echo "ERROR: $BENCH exited with code $rc; removing $OUT" >&2
  rm -f "$OUT"
  exit "$rc"
fi

# The file must be parseable google-benchmark JSON with at least one result
# (an aborted run can exit 0 after writing only the context header).
python3 - "$OUT" <<'PYEOF'
import json, sys
path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"ERROR: {path} is not valid JSON: {e}")
benchmarks = doc.get("benchmarks", [])
if not benchmarks:
    sys.exit(f"ERROR: {path} contains no benchmark results")
errors = [b["name"] for b in benchmarks if b.get("error_occurred")]
if errors:
    sys.exit(f"ERROR: benchmarks reported errors: {', '.join(errors)}")
PYEOF

echo "wrote $OUT ($(python3 -c "import json,sys; print(len(json.load(open(sys.argv[1]))['benchmarks']))" "$OUT") results)"
