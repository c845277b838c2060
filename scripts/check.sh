#!/usr/bin/env bash
# Pre-merge checks: formatting, lints (warnings are errors), full test
# suite. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== kernel and renderer tier tests (optimised build)"
# Every kernel-tier and noise-tier proptest again, in the optimised
# build that the engine and the benches dispatch from.
cargo test --release -q -p otif-nn -p otif-sim

# The smokes below write their reports under the git-ignored target/;
# none of them may touch the tracked results/ (checked at the end).
results_state() { { git status --porcelain --untracked-files=all -- results/; git diff -- results/; } | cksum; }
results_before="$(results_state)"

echo "== kernels bench smoke (tiny shapes, bit-identity + batched-vs-looped gates)"
cargo run --release -q -p otif-bench --bin kernels tiny

echo "== engine release build (deny warnings)"
RUSTFLAGS="-D warnings" cargo build --release -q -p otif-engine

echo "== engine fault-injection smoke (injected decode fault, healed by retry)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin otif-cli -- prepare \
  --dataset caldot2 --clips 2 --seconds 6 --seed 3 --out "$tmp/model.json" >/dev/null
cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --inject-fault decode:error:0:0 \
  --stats "$tmp/stats.json" --out "$tmp/tracks.json" >/dev/null
grep -q '"failed_clips":1' "$tmp/stats.json"
grep -q '"retried_clips":1' "$tmp/stats.json"

echo "== batched detector exec smoke (looped vs batched: digests equal, forwards coalesce)"
# Re-run the fault-smoke model with the detector surrogate in both
# execution modes: output digests must match bit-for-bit and batched
# mode must need strictly fewer forward passes than looped.
cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --detector-exec looped \
  --stats "$tmp/stats-looped.json" --out "$tmp/tracks-looped.json" >/dev/null
cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --detector-exec batched \
  --stats "$tmp/stats-batched.json" --out "$tmp/tracks-batched.json" >/dev/null
python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]
looped = json.load(open(f"{tmp}/stats-looped.json"))
batched = json.load(open(f"{tmp}/stats-batched.json"))
assert looped["detector_digest"] == batched["detector_digest"] != 0, \
    (looped["detector_digest"], batched["detector_digest"])
assert batched["detector_forwards"] < looped["detector_forwards"], \
    (batched["detector_forwards"], looped["detector_forwards"])
assert open(f"{tmp}/tracks-looped.json").read() == open(f"{tmp}/tracks-batched.json").read()
print(f"  digest {batched['detector_digest']:#018x}, "
      f"{looped['detector_forwards']} looped -> {batched['detector_forwards']} batched forwards")
PY

echo "== pipelining smoke (prefetch=1 vs prefetch=16: makespan shrinks, ledger sums byte-identical)"
# The throughput bench runs the prefetch sweep and hard-asserts both
# properties internally (bitwise ledger identity across prefetch
# settings, ≥1.5× makespan at prefetch=16 vs 1); re-check the makespan
# improvement here from its summary line so a silently skipped sweep
# can't pass.
bench_out="$(cargo run --release -q -p otif-bench --bin throughput tiny)"
echo "$bench_out" | grep -q 'ledger sums bitwise identical'
echo "$bench_out" | grep 'pipelining smoke:' | awk '{
  p1 = $5; p16 = $9;
  if (!(p16 + 0 < p1 + 0)) { print "makespan did not improve: " p1 " -> " p16; exit 1 }
}'

echo "== serving smoke (ingest synthetic clips, mixed workload, pruning + cache-hit + byte-identity gates)"
# The serving bench hard-asserts internally: byte-identical answers
# across pruning / cache state / concurrency, strictly fewer clips
# evaluated (and clip files read) with index pruning on, and a warm
# answer cache beating the cold pass. `smoke` writes
# target/bench-smoke/BENCH_serving_smoke.json.
serve_out="$(cargo run --release -q -p otif-bench --bin serving smoke)"
echo "$serve_out" | grep -q 'answers byte-identical: true'
# CLI round-trip over the same store machinery
cargo run --release -q --bin otif-cli -- ingest \
  --tracks "$tmp/tracks.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --store "$tmp/store" >/dev/null
cargo run --release -q --bin otif-cli -- serve-bench \
  --store "$tmp/store" --clients 4 --repeats 3 --stats "$tmp/serve-stats.json" >/dev/null
grep -q '"hits":' "$tmp/serve-stats.json"

echo "== robustness smoke (crash-point ingest recovery + overload shed gates)"
# The robustness bench hard-asserts internally: every crash point in the
# ingest sweep recovers via fsck/journal replay with zero acknowledged
# loss and byte-identical answers; under a saturating burst some queries
# shed and every non-shed answer matches the unloaded reference. `smoke`
# writes target/bench-smoke/BENCH_robustness_smoke.json.
robust_out="$(cargo run --release -q -p otif-bench --bin robustness smoke)"
echo "$robust_out" | grep -q 'non-degraded answers identical: true'
# CLI round-trip: corrupt a clip payload, fsck refuses without --repair,
# repairs with it (quarantining the corrupt clip), and serve-query
# degrades to a marked approximate answer instead of failing
python3 - "$tmp/store/clips/clip_0.json" <<'PY'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x55
open(p, "wb").write(bytes(b))
PY
if cargo run --release -q --bin otif-cli -- store-fsck --store "$tmp/store" >/dev/null 2>&1; then
  echo "store-fsck must fail on a corrupt store without --repair"; exit 1
fi
# observation never fails: report-only exits 0 even on a corrupt store
cargo run --release -q --bin otif-cli -- store-fsck --store "$tmp/store" --report-only >/dev/null
# repair quarantines the corrupt clip — data was lost, so the exit is
# still nonzero (scripts must not mistake a lossy repair for healthy)
if cargo run --release -q --bin otif-cli -- store-fsck --store "$tmp/store" --repair \
  --report "$tmp/fsck.json" >/dev/null 2>&1; then
  echo "store-fsck --repair must exit nonzero when clips were quarantined"; exit 1
fi
grep -q '"corrupt_quarantined":\[0\]' "$tmp/fsck.json"
cargo run --release -q --bin otif-cli -- serve-query \
  --store "$tmp/store" --query count > "$tmp/degraded.txt"
grep -q '^\[approximate\] quarantine' "$tmp/degraded.txt"
# overload flags: a one-slot server under an 8-client burst sheds
cargo run --release -q --bin otif-cli -- serve-bench \
  --store "$tmp/store" --clients 8 --repeats 3 \
  --max-concurrent 1 --queue 1 --deadline-ms 250 \
  --stats "$tmp/overload-stats.json" >/dev/null
python3 - "$tmp/overload-stats.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["degraded_answers"] > 0, s
assert s["quarantined_clips"] == 1, s
PY

echo "== scheduler smoke (64 streams on a 4-worker pool: thread cap + worker-count determinism)"
# The task engine runs every stream as one resumable task on a fixed
# worker pool: 64 streams must finish on 4 OS worker threads
# (peak_os_threads stays ≤ workers + slack for the main thread and the
# stall watchdog), and re-running on 1 worker must produce
# byte-identical tracks. Hard wall-clock cap: a wedged pool must fail
# the check, not hang it.
timeout 600 cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 64 --seconds 1 --seed 3 \
  --streams 64 --workers 4 \
  --stats "$tmp/sched-stats.json" --out "$tmp/tracks-w4.json" >/dev/null
timeout 600 cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 64 --seconds 1 --seed 3 \
  --streams 64 --workers 1 \
  --out "$tmp/tracks-w1.json" >/dev/null
cmp "$tmp/tracks-w4.json" "$tmp/tracks-w1.json"
python3 - "$tmp/sched-stats.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["workers"] == 4, s["workers"]
assert s["streams"] == 64, s["streams"]
assert s["failed_clips"] == 0, s["failed_clips"]
assert s["peak_os_threads"] <= 4 + 4, s["peak_os_threads"]
assert s["peak_runnable_tasks"] <= 64, s["peak_runnable_tasks"]
print(f"  64 streams on 4 workers: peak {s['peak_os_threads']} OS threads, "
      f"peak {s['peak_runnable_tasks']} runnable tasks, tracks identical on 1 worker")
PY

echo "== chaos smoke (engine run-journal kill/torn-tail/mid-rename sweep, resume byte-identity gates)"
# The chaos bench hard-asserts internally: kills at three checkpoint
# ordinals plus a torn journal tail and a mid-rename crash all resume
# with zero acknowledged-clip loss, bitwise-identical tracks/ledgers/
# stats, bounded recomputation and zero duplicate keyed store entries.
# Hard wall-clock cap: a wedged resume must fail the check, not hang it.
chaos_out="$(timeout 600 cargo run --release -q -p otif-bench --bin chaos smoke)"
echo "$chaos_out" | grep -q 'zero acked loss, bitwise-identical resumes'
# CLI round-trip: journal a run, cut the journal to its first
# acknowledgement (simulated crash), resume, and demand byte-identical
# tracks against the uninterrupted batched run from the exec smoke;
# then corrupt one checkpointed payload and resume again
cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --detector-exec batched --run-dir "$tmp/run" \
  --out "$tmp/tracks-journaled.json" >/dev/null 2>&1
cmp "$tmp/tracks-batched.json" "$tmp/tracks-journaled.json"
head -n 1 "$tmp/run/journal.log" > "$tmp/run/journal.cut"
mv "$tmp/run/journal.cut" "$tmp/run/journal.log"
timeout 300 cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --detector-exec batched --resume "$tmp/run" \
  --stats "$tmp/stats-resumed.json" --out "$tmp/tracks-resumed.json" >/dev/null 2>&1
cmp "$tmp/tracks-batched.json" "$tmp/tracks-resumed.json"
grep -q '"resumed_clips_skipped":1' "$tmp/stats-resumed.json"
grep -q '"resumed_clips_recomputed":1' "$tmp/stats-resumed.json"
# Payload check end to end: the resume re-acknowledged the recomputed
# clip, so both clips are journaled now. Flip one byte of clip 0's
# payload; the next resume must fail its fingerprint check, recompute
# exactly that clip and still produce byte-identical tracks.
python3 - "$tmp/run/clips/clip_0.json" <<'PY'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x55
open(p, "wb").write(bytes(b))
PY
timeout 300 cargo run --release -q --bin otif-cli -- execute \
  --model "$tmp/model.json" --dataset caldot2 --clips 2 --seconds 6 --seed 3 \
  --streams 2 --detector-exec batched --resume "$tmp/run" \
  --stats "$tmp/stats-corrupt.json" --out "$tmp/tracks-corrupt.json" >/dev/null 2>&1
cmp "$tmp/tracks-batched.json" "$tmp/tracks-corrupt.json"
grep -q '"resumed_clips_skipped":1' "$tmp/stats-corrupt.json"
grep -q '"resumed_clips_recomputed":1' "$tmp/stats-corrupt.json"

echo "== smokes left the tracked results/ untouched"
if [ "$(results_state)" != "$results_before" ]; then
  git status --short -- results/
  echo "a smoke step wrote to results/"; exit 1
fi

echo "All checks passed."
