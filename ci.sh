#!/usr/bin/env bash
# CI entry point: tier-1 tests in the default build, then the same suite
# under ASan/UBSan, then the observability concurrency suite under
# ThreadSanitizer. Run `./ci.sh tsan` to use ThreadSanitizer for the full
# sanitized pass instead (slower; not part of the default gate).
set -euo pipefail
cd "$(dirname "$0")"

SAN_PRESET="${1:-asan-ubsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1 (default build) =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "== tier-1 (${SAN_PRESET}) =="
cmake --preset "${SAN_PRESET}"
cmake --build --preset "${SAN_PRESET}" -j "${JOBS}"
ctest --preset "${SAN_PRESET}" -j "${JOBS}"

if [ "${SAN_PRESET}" != "tsan" ]; then
  # The lock-free metrics/flight-recorder paths, the threaded mediator
  # service loop, the integrity/fault-injection suites (checksum sidecars
  # and read-repair run inside completion callbacks on reactor threads), the
  # sharded/batched UDP paths (per-shard arenas, lossy multi-shard e2e),
  # the partial-row write batch (parity and data completions land on
  # transport threads, re-sends follow), the row decoder behind degraded
  # reads, rebuild and scrub (survivor reads complete and fold on pool and
  # transport threads), the distribution agent's op dispatch (ops start
  # on submitters, completing reactor threads or the pool), the shared
  # client reactor (the driver role passes between waiters and the reactor
  # thread) and read-ahead (prefetch completions land on other threads while
  # the file drains them) are only meaningfully exercised under
  # ThreadSanitizer; run just those suites so the default gate stays fast.
  # Full build: ctest needs every discovered test's include file.
  echo "== metrics/trace + mediator + integrity + buffer + shard + tail + row decode + op dispatch + client reactor + read-ahead concurrency (tsan) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}"
  ctest --test-dir build-tsan \
    -R '^MetricsTrace|^MediatorService|^IntegrityStore|^FaultyStore|^FaultInjection|^SelfHealing|^Scrub|^FaultKinds|^LossyCorrupt|^Buffer|^UdpBatch|^UdpShard|^Trace|^Congestion|^CcMode|^RttEstimator|^OwdBaseTracker|^DelayController|^DecorrelatedJitter|^TokenBucket|^JainFairness|^TimestampWire|^SessionGrantWire|^Chaos|^Hedge|^Deadline|^Overload|^Erasure|^PartialRowWrite|^Rebuild|^RowDecode|^AsyncTransport|^OpBatch|^DistributionAgent|^AsyncPipeline|^ClientReactor|^ReadAhead' \
    -j "${JOBS}" --output-on-failure
fi

# Copy-regression gate: a 4 MiB striped read over clean UDP must not memcpy
# payload bytes more than 2.5x the bytes delivered (budget is 2.0 — the
# agent's in-memory snapshot plus the reassembler placing datagrams into the
# caller's buffer — with headroom for bookkeeping). A new hidden copy on the
# data path pushes the ratio to 3.0+ and fails here.
echo "== zero-copy pipeline gate (bytes_copied_ratio <= 2.5) =="
COPY_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter=BM_CopyPer4MiBRead \
    --benchmark_min_time=0.5 --benchmark_format=json > "${COPY_JSON}"
RATIO="$(grep -o '"bytes_copied_ratio": [0-9.e+-]*' "${COPY_JSON}" | head -1 | awk '{print $2}')"
[ -n "${RATIO}" ] || { echo "FAIL: no bytes_copied_ratio in probe output"; cat "${COPY_JSON}"; exit 1; }
awk -v r="${RATIO}" 'BEGIN { exit !(r <= 2.5) }' \
  || { echo "FAIL: bytes_copied_ratio ${RATIO} > 2.5 (copy regression)"; exit 1; }
echo "bytes_copied_ratio ${RATIO} (<= 2.5)"
rm -f "${COPY_JSON}"

# Partial-row write gate: a 4 KiB read-modify-write on XOR(3+1) with 64 KiB
# units must move only the touched bytes — 4 KiB gathered and 4 KiB written on
# the data column and on the parity column, 4.0 transport bytes per user byte
# (budget 4.5). Read-modify-writing whole parity units costs 34. Counted at
# the in-process transport, so the gate reads a counter, not a clock. The
# same probe holds the write to two round trips: one gather, one write batch.
echo "== partial-row write gate (wire_bytes_per_user_byte <= 4.5, 2 round trips) =="
RMW_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter=BM_PartialRowWrite4K \
    --benchmark_min_time=0.2 --benchmark_format=json > "${RMW_JSON}"
RMW_BYTES="$(grep -o '"wire_bytes_per_user_byte": [0-9.e+-]*' "${RMW_JSON}" | head -1 | awk '{print $2}')"
RMW_TRIPS="$(grep -o '"round_trips_per_write": [0-9.e+-]*' "${RMW_JSON}" | head -1 | awk '{print $2}')"
[ -n "${RMW_BYTES}" ] && [ -n "${RMW_TRIPS}" ] \
  || { echo "FAIL: no partial-row counters in probe output"; cat "${RMW_JSON}"; exit 1; }
awk -v b="${RMW_BYTES}" 'BEGIN { exit !(b <= 4.5) }' \
  || { echo "FAIL: wire_bytes_per_user_byte ${RMW_BYTES} > 4.5 (partial-row writes move untouched bytes)"; exit 1; }
awk -v t="${RMW_TRIPS}" 'BEGIN { exit !(t <= 2.0) }' \
  || { echo "FAIL: round_trips_per_write ${RMW_TRIPS} > 2 (partial-row write batches serialized)"; exit 1; }
printf 'wire_bytes_per_user_byte %.2f (<= 4.5), round_trips_per_write %.2f (<= 2)\n' \
  "${RMW_BYTES}" "${RMW_TRIPS}"
rm -f "${RMW_JSON}"

# Degraded-read gate: a sequential 1 MiB read of RS(4,2) with two failed
# columns must decode from the survivors it already fetches — the live data
# units, plus only the live parity units standing in for the lost ones: 1.0
# transport bytes per user byte (budget 1.05), where re-reading the live data
# units to decode costs 1.66. Counted at the in-process transport. The same
# probe holds the read to one round trip: live extents and survivor reads in
# one batch.
echo "== degraded read gate (wire_bytes_per_user_byte <= 1.05, 1 round trip) =="
DEG_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter=BM_DegradedRead1M \
    --benchmark_min_time=0.2 --benchmark_format=json > "${DEG_JSON}"
DEG_BYTES="$(grep -o '"wire_bytes_per_user_byte": [0-9.e+-]*' "${DEG_JSON}" | head -1 | awk '{print $2}')"
DEG_TRIPS="$(grep -o '"round_trips_per_read": [0-9.e+-]*' "${DEG_JSON}" | head -1 | awk '{print $2}')"
[ -n "${DEG_BYTES}" ] && [ -n "${DEG_TRIPS}" ] \
  || { echo "FAIL: no degraded-read counters in probe output"; cat "${DEG_JSON}"; exit 1; }
awk -v b="${DEG_BYTES}" 'BEGIN { exit !(b <= 1.05) }' \
  || { echo "FAIL: wire_bytes_per_user_byte ${DEG_BYTES} > 1.05 (degraded reads re-read survivors)"; exit 1; }
awk -v t="${DEG_TRIPS}" 'BEGIN { exit !(t <= 1.0) }' \
  || { echo "FAIL: round_trips_per_read ${DEG_TRIPS} > 1 (degraded read batches serialized)"; exit 1; }
printf 'wire_bytes_per_user_byte %.2f (<= 1.05), round_trips_per_read %.2f (<= 1)\n' \
  "${DEG_BYTES}" "${DEG_TRIPS}"
rm -f "${DEG_JSON}"

# Read-ahead gate: sequential 4-row reads passing over an object on UDP
# loopback must be served from the prefetch their predecessor left in flight
# — hit bytes >= 0.95 of the bytes read (only the first read of each 32-read
# pass misses) — and a forward-only stream discards nothing. Read from the
# swift_file_readahead_* counters, so the gate reads a counter, not a clock.
echo "== read-ahead gate (readahead_hit_ratio >= 0.95, readahead_discarded_bytes == 0) =="
RA_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter=BM_SequentialRead \
    --benchmark_min_time=0.2 --benchmark_format=json > "${RA_JSON}"
RA_HIT="$(grep -o '"readahead_hit_ratio": [0-9.e+-]*' "${RA_JSON}" | head -1 | awk '{print $2}')"
RA_WASTE="$(grep -o '"readahead_discarded_bytes": [0-9.e+-]*' "${RA_JSON}" | head -1 | awk '{print $2}')"
RA_OPS="$(grep -o '"transport_ops_per_read": [0-9.e+-]*' "${RA_JSON}" | head -1 | awk '{print $2}')"
[ -n "${RA_HIT}" ] && [ -n "${RA_WASTE}" ] \
  || { echo "FAIL: no read-ahead counters in probe output"; cat "${RA_JSON}"; exit 1; }
awk -v h="${RA_HIT}" 'BEGIN { exit !(h >= 0.95) }' \
  || { echo "FAIL: readahead_hit_ratio ${RA_HIT} < 0.95 (sequential reads not prefetched)"; exit 1; }
awk -v d="${RA_WASTE}" 'BEGIN { exit !(d == 0) }' \
  || { echo "FAIL: readahead_discarded_bytes ${RA_WASTE} > 0 (a forward stream wasted prefetches)"; exit 1; }
printf 'readahead_hit_ratio %.3f (>= 0.95), readahead_discarded_bytes %.0f (== 0), transport_ops_per_read %.2f\n' \
  "${RA_HIT}" "${RA_WASTE}" "${RA_OPS}"
rm -f "${RA_JSON}"

# Client-reactor gate: a lone 4 KiB read on an idle UDP stripe is driven by
# its waiter — no wake-pipe write and one poll return per read (budgets 0.05
# and 1.05). Handing the read to the reactor thread and back costs one wake
# write and a second poll return each. Read from the registry counters, so
# the gate reads a counter, not a clock.
echo "== client reactor gate (wake_writes_per_read <= 0.05, reactor_wakeups_per_read <= 1.05) =="
RX_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter=BM_UdpRead4K \
    --benchmark_min_time=0.2 --benchmark_format=json > "${RX_JSON}"
RX_WAKES="$(grep -o '"wake_writes_per_read": [0-9.e+-]*' "${RX_JSON}" | head -1 | awk '{print $2}')"
RX_POLLS="$(grep -o '"reactor_wakeups_per_read": [0-9.e+-]*' "${RX_JSON}" | head -1 | awk '{print $2}')"
[ -n "${RX_WAKES}" ] && [ -n "${RX_POLLS}" ] \
  || { echo "FAIL: no client-reactor counters in probe output"; cat "${RX_JSON}"; exit 1; }
awk -v w="${RX_WAKES}" 'BEGIN { exit !(w <= 0.05) }' \
  || { echo "FAIL: wake_writes_per_read ${RX_WAKES} > 0.05 (lone reads hop to the reactor thread)"; exit 1; }
awk -v p="${RX_POLLS}" 'BEGIN { exit !(p <= 1.05) }' \
  || { echo "FAIL: reactor_wakeups_per_read ${RX_POLLS} > 1.05 (lone reads hop to the reactor thread)"; exit 1; }
printf 'wake_writes_per_read %.3f (<= 0.05), reactor_wakeups_per_read %.3f (<= 1.05)\n' \
  "${RX_WAKES}" "${RX_POLLS}"
rm -f "${RX_JSON}"

# Small-batch client-reactor gate: a 4 KiB partial-row write on an idle
# XOR(3+1) UDP stripe is driven by its waiter — the gather and the write, each
# one op on the data column's reactor and one on the parity column's, hand
# nothing to a reactor thread and write no wake pipe (budgets 0.05 per write).
# Running them on the reactor threads costs 4 hand-offs per write. Poll
# returns are printed, not gated: one return covers both columns only when
# both replies are in when the waiter wakes (2.7-3.2 per write measured, 4 on
# the reactor threads). The probe needs one reactor per column, and the process
# runs one per core up to four, so the gate holds on hosts with 4+ cores.
echo "== small-batch client reactor gate (reactor_kicks_per_write <= 0.05, wake_writes_per_write <= 0.05) =="
if [ "${JOBS}" -ge 4 ]; then
  PW_JSON="$(mktemp)"
  ./build/bench/micro_benchmarks --benchmark_filter=BM_UdpPartialWrite4K \
      --benchmark_min_time=0.2 --benchmark_format=json > "${PW_JSON}"
  PW_KICKS="$(grep -o '"reactor_kicks_per_write": [0-9.e+-]*' "${PW_JSON}" | head -1 | awk '{print $2}')"
  PW_WAKES="$(grep -o '"wake_writes_per_write": [0-9.e+-]*' "${PW_JSON}" | head -1 | awk '{print $2}')"
  PW_POLLS="$(grep -o '"reactor_wakeups_per_write": [0-9.e+-]*' "${PW_JSON}" | head -1 | awk '{print $2}')"
  [ -n "${PW_KICKS}" ] && [ -n "${PW_WAKES}" ] && [ -n "${PW_POLLS}" ] \
    || { echo "FAIL: no small-batch client-reactor counters in probe output"; cat "${PW_JSON}"; exit 1; }
  awk -v k="${PW_KICKS}" 'BEGIN { exit !(k <= 0.05) }' \
    || { echo "FAIL: reactor_kicks_per_write ${PW_KICKS} > 0.05 (partial-row writes hop to the reactor threads)"; exit 1; }
  awk -v w="${PW_WAKES}" 'BEGIN { exit !(w <= 0.05) }' \
    || { echo "FAIL: wake_writes_per_write ${PW_WAKES} > 0.05 (partial-row writes hop to the reactor threads)"; exit 1; }
  printf 'reactor_kicks_per_write %.3f (<= 0.05), wake_writes_per_write %.3f (<= 0.05), reactor_wakeups_per_write %.2f\n' \
    "${PW_KICKS}" "${PW_WAKES}" "${PW_POLLS}"
  rm -f "${PW_JSON}"
else
  echo "skipped: ${JOBS} cores, fewer client reactors than the probe's 4 columns"
fi

# CRC-32 kernel gate: every striped byte pays several CRC passes (wire
# encode/decode, at-rest seal/verify), so the kernel caps the data path.
# The dispatched kernel must sustain >= 1000 MB/s on 8 KiB payloads. The
# byte-at-a-time loop it replaced ran ~380 MB/s and portable slicing-by-8
# alone ~1.7 GB/s, so a silent fall-back to a byte loop fails here.
echo "== CRC-32 kernel gate (BM_Crc32/8192 >= 1000 MB/s) =="
CRC_JSON="$(mktemp)"
./build/bench/micro_benchmarks --benchmark_filter='BM_Crc32/8192$' \
    --benchmark_min_time=0.2 --benchmark_format=json > "${CRC_JSON}"
CRC_BPS="$(grep -o '"bytes_per_second": [0-9.e+-]*' "${CRC_JSON}" | head -1 | awk '{print $2}')"
[ -n "${CRC_BPS}" ] || { echo "FAIL: no bytes_per_second in BM_Crc32 output"; cat "${CRC_JSON}"; exit 1; }
CRC_MBPS="$(awk -v b="${CRC_BPS}" 'BEGIN { printf "%.0f", b / 1e6 }')"
CRC_KERNEL="$(grep -o '"label": "[a-z0-9]*"' "${CRC_JSON}" | head -1 | cut -d'"' -f4)"
awk -v m="${CRC_MBPS}" 'BEGIN { exit !(m >= 1000) }' \
  || { echo "FAIL: BM_Crc32/8192 ${CRC_MBPS} MB/s (${CRC_KERNEL}) < 1000 (byte-loop fall-back?)"; exit 1; }
echo "BM_Crc32/8192 ${CRC_MBPS} MB/s (${CRC_KERNEL}, >= 1000)"
rm -f "${CRC_JSON}"

# Bench trajectory gate: re-run the scale-out matrix and diff it against the
# committed trajectory point. Two failure modes: (a) any throughput key falls
# more than 15% below the committed value (a real regression; run-to-run
# noise on a loaded box stays inside that band), and (b) the scaled-out
# datagram pump no longer beats the per-datagram baseline by >= 2x (the
# batching/offload machinery silently degraded to the baseline path).
echo "== bench trajectory gate (BENCH_udp_scaleout.json, >15% regression fails) =="
BENCH_JSON="$(mktemp)"
./build/tools/swift_bench --scaleout --json="${BENCH_JSON}" > /dev/null
bench_key() { grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk '{print $2}'; }
for KEY in scaleout_write_mbps scaleout_read_mbps pump_scaleout_datagrams_per_sec; do
  WAS="$(bench_key BENCH_udp_scaleout.json "${KEY}")"
  NOW="$(bench_key "${BENCH_JSON}" "${KEY}")"
  [ -n "${WAS}" ] && [ -n "${NOW}" ] \
    || { echo "FAIL: ${KEY} missing from trajectory"; exit 1; }
  awk -v was="${WAS}" -v now="${NOW}" 'BEGIN { exit !(now >= was * 0.85) }' \
    || { echo "FAIL: ${KEY} regressed ${WAS} -> ${NOW} (>15%)"; exit 1; }
  echo "${KEY}: ${WAS} -> ${NOW}"
done
SPEEDUP="$(bench_key "${BENCH_JSON}" speedup_datagrams_per_sec)"
awk -v s="${SPEEDUP}" 'BEGIN { exit !(s >= 2.0) }' \
  || { echo "FAIL: scale-out speedup ${SPEEDUP}x < 2x over per-datagram baseline"; exit 1; }
echo "speedup_datagrams_per_sec ${SPEEDUP}x (>= 2x)"
rm -f "${BENCH_JSON}"

# Trace-overhead gate: the always-on sampled mode (the daemons' default)
# must cost <= 5% striped-I/O throughput versus tracing off. The bench
# interleaves off/sampled/all phases on one live cell (best-of rounds), so
# run-to-run scheduler drift cancels out; a regression here means span
# creation leaked back onto the unsampled fast path (DESIGN.md §14).
echo "== trace overhead gate (sampled mode <= 5% vs off) =="
TRACE_JSON="$(mktemp)"
# The bench interleaves off/sampled within one run, but run-level scheduler
# drift on a busy box still scatters the ratio by several points either way
# (A/B runs of pinned before/after binaries show the same spread), so a
# single shot flakes against the 5% bar. A genuine sampled-path leak shifts
# *every* attempt above the bar; noise scatters. Pass if any of 3 attempts
# lands under it.
SAMPLED_PCT=""
for attempt in 1 2 3; do
  ./build/tools/swift_bench --trace-overhead --json="${TRACE_JSON}" > /dev/null
  # Not bench_key: overhead can legitimately be negative (noise floor).
  SAMPLED_PCT="$(grep -o '"sampled_overhead_pct": -\?[0-9.]*' "${TRACE_JSON}" | head -1 | awk '{print $2}')"
  [ -n "${SAMPLED_PCT}" ] || { echo "FAIL: no sampled_overhead_pct in bench output"; cat "${TRACE_JSON}"; exit 1; }
  if awk -v p="${SAMPLED_PCT}" 'BEGIN { exit !(p <= 5.0) }'; then
    break
  fi
  echo "  attempt ${attempt}: sampled overhead ${SAMPLED_PCT}% > 5%, retrying"
done
awk -v p="${SAMPLED_PCT}" 'BEGIN { exit !(p <= 5.0) }' \
  || { echo "FAIL: sampled trace overhead ${SAMPLED_PCT}% > 5% on every attempt"; exit 1; }
echo "sampled_overhead_pct ${SAMPLED_PCT} (<= 5)"
rm -f "${TRACE_JSON}"

# Congestion-control gate (DESIGN.md §15): re-run the --cc matrix and hold
# the PR's acceptance bars. (a) 16 sessions sharing one agent must split the
# link fairly (Jain >= 0.8); (b) the delay controller's adaptive RTO +
# jittered backoff must not retransmit more per op than the fixed doubling
# table on the same 10%-loss channel (and stay under an absolute ceiling);
# (c) single-session delay-mode throughput must stay within 15% of the
# committed BENCH_congestion.json point — the controller cannot tax the
# clean-path trajectory.
echo "== congestion-control gate (BENCH_congestion.json) =="
CC_JSON="$(mktemp)"
./build/tools/swift_bench --cc --json="${CC_JSON}" > /dev/null 2>&1
JAIN16="$(bench_key "${CC_JSON}" jain_16)"
[ -n "${JAIN16}" ] || { echo "FAIL: no jain_16 in --cc output"; cat "${CC_JSON}"; exit 1; }
awk -v j="${JAIN16}" 'BEGIN { exit !(j >= 0.8) }' \
  || { echo "FAIL: 16-session Jain index ${JAIN16} < 0.8"; exit 1; }
echo "jain_16 ${JAIN16} (>= 0.8)"
RETX_DELAY="$(bench_key "${CC_JSON}" lossy_retransmits_per_op_delay)"
RETX_OFF="$(bench_key "${CC_JSON}" lossy_retransmits_per_op_off)"
awk -v d="${RETX_DELAY}" -v o="${RETX_OFF}" 'BEGIN { exit !(d <= 12.0 && d <= o * 1.5) }' \
  || { echo "FAIL: delay-mode retransmits/op ${RETX_DELAY} unstable (off: ${RETX_OFF})"; exit 1; }
echo "lossy_retransmits_per_op delay ${RETX_DELAY} vs off ${RETX_OFF} (<= 1.5x, <= 12)"
for KEY in single_delay_write_mbps single_delay_read_mbps; do
  WAS="$(bench_key BENCH_congestion.json "${KEY}")"
  NOW="$(bench_key "${CC_JSON}" "${KEY}")"
  [ -n "${WAS}" ] && [ -n "${NOW}" ] \
    || { echo "FAIL: ${KEY} missing from congestion point"; exit 1; }
  awk -v was="${WAS}" -v now="${NOW}" 'BEGIN { exit !(now >= was * 0.85) }' \
    || { echo "FAIL: ${KEY} regressed ${WAS} -> ${NOW} (>15%)"; exit 1; }
  echo "${KEY}: ${WAS} -> ${NOW}"
done
rm -f "${CC_JSON}"

# Tail-latency gate (DESIGN.md §16): re-run the tail matrix — column 0
# straggles +40 ms behind a scripted chaos director, 1-in-40 reads touch it —
# and hold the PR's acceptance bars: (a) hedged read p99 <= 0.5x unhedged at
# equal-or-better goodput; (b) the healthy path (pre-straggler warmup) hedges
# nothing; (c) the governor keeps hedges <= 5% of reads even with the
# straggler live. The unhedged p99 floor proves the fault was actually
# injected — without it, a silently dead chaos path would pass (a) and (b).
echo "== tail-latency gate (BENCH_tail.json) =="
TAIL_JSON="$(mktemp)"
./build/tools/swift_bench --tail --json="${TAIL_JSON}" > /dev/null 2>&1
TAIL_RATIO="$(bench_key "${TAIL_JSON}" tail_p99_ratio)"
[ -n "${TAIL_RATIO}" ] || { echo "FAIL: no tail_p99_ratio in --tail output"; cat "${TAIL_JSON}"; exit 1; }
awk -v r="${TAIL_RATIO}" 'BEGIN { exit !(r <= 0.5) }' \
  || { echo "FAIL: hedged/unhedged p99 ratio ${TAIL_RATIO} > 0.5"; exit 1; }
echo "tail_p99_ratio ${TAIL_RATIO} (<= 0.5)"
UNHEDGED_P99="$(bench_key "${TAIL_JSON}" tail_unhedged_p99_us)"
awk -v p="${UNHEDGED_P99}" 'BEGIN { exit !(p >= 10000) }' \
  || { echo "FAIL: unhedged p99 ${UNHEDGED_P99}us < 10ms — straggler not injected"; exit 1; }
HEALTHY_RATE="$(bench_key "${TAIL_JSON}" healthy_hedge_rate_pct)"
awk -v h="${HEALTHY_RATE}" 'BEGIN { exit !(h <= 1.0) }' \
  || { echo "FAIL: healthy-path hedge rate ${HEALTHY_RATE}% > 1%"; exit 1; }
HEDGE_RATE="$(bench_key "${TAIL_JSON}" tail_hedged_hedge_rate_pct)"
awk -v r="${HEDGE_RATE}" 'BEGIN { exit !(r <= 5.0) }' \
  || { echo "FAIL: hedge rate ${HEDGE_RATE}% above the 5% governor cap"; exit 1; }
UNHEDGED_MBPS="$(bench_key "${TAIL_JSON}" tail_unhedged_read_mbps)"
HEDGED_MBPS="$(bench_key "${TAIL_JSON}" tail_hedged_read_mbps)"
awk -v u="${UNHEDGED_MBPS}" -v h="${HEDGED_MBPS}" 'BEGIN { exit !(h >= u) }' \
  || { echo "FAIL: hedged goodput ${HEDGED_MBPS} < unhedged ${UNHEDGED_MBPS} MB/s"; exit 1; }
echo "unhedged p99 ${UNHEDGED_P99}us, healthy hedge ${HEALTHY_RATE}%, hedge rate ${HEDGE_RATE}%, goodput ${UNHEDGED_MBPS} -> ${HEDGED_MBPS} MB/s"
rm -f "${TAIL_JSON}"

# Erasure-coding gate (DESIGN.md §17): re-run the codec matrix and hold the
# PR's acceptance bars. (a) RS(4,2) encode/reconstruct and RS(10,4)
# reconstruct stay within 3x of the XOR(4,1) baseline in data GB/s; RS(10,4)
# *encode* does 4x the parity work per data byte (every fold — XOR or GF —
# runs at the same port-bound rate, so the data-rate ratio sits near m by
# construction and swings past 3x under load) — it is held by a loose sanity
# ceiling instead. (b) The failure mode that matters — arch dispatch silently
# degrading to the scalar fallback, which costs 3-9x — is held directly: the
# dispatched GF fold kernel must be the committed BENCH_erasure.json one, and
# each GF codec must encode and reconstruct at >= 3x the scalar fold, timed
# in the same process with the scalar kernel forced between the dispatched
# passes (avx2 measures 8-9x). Absolute GB/s floors are not gated: the
# kernels are memory-port-bound and swing past any fixed floor on a shared
# host. (c) The healthy striped-read path keeps copies/byte <= 2.5 for every
# (k, m) geometry.
echo "== erasure-coding gate (BENCH_erasure.json) =="
ERASURE_JSON="$(mktemp)"
./build/tools/swift_bench --erasure --json="${ERASURE_JSON}" > /dev/null 2>&1
json_kernel() { grep -o '"kernel": "[a-z0-9]*"' "$1" | head -1 | cut -d'"' -f4; }
KERNEL_WAS="$(json_kernel BENCH_erasure.json)"
KERNEL_NOW="$(json_kernel "${ERASURE_JSON}")"
[ -n "${KERNEL_NOW}" ] && [ "${KERNEL_NOW}" = "${KERNEL_WAS}" ] \
  || { echo "FAIL: GF fold kernel '${KERNEL_NOW}', committed '${KERNEL_WAS}' (dispatch fell back?)"; exit 1; }
echo "GF fold kernel ${KERNEL_NOW} (committed ${KERNEL_WAS})"
for KEY in rs42_encode_vs_scalar rs42_reconstruct_vs_scalar rs104_encode_vs_scalar \
           rs104_reconstruct_vs_scalar; do
  SPEEDUP="$(bench_key "${ERASURE_JSON}" "${KEY}")"
  [ -n "${SPEEDUP}" ] || { echo "FAIL: no ${KEY} in --erasure output"; exit 1; }
  awk -v r="${SPEEDUP}" 'BEGIN { exit !(r >= 3.0) }' \
    || { echo "FAIL: ${KEY} ${SPEEDUP} < 3x (GF folds at scalar speed)"; exit 1; }
  echo "${KEY} ${SPEEDUP} (>= 3)"
done
for KEY in rs42_encode_vs_xor rs42_reconstruct_vs_xor rs104_reconstruct_vs_xor; do
  RATIO="$(bench_key "${ERASURE_JSON}" "${KEY}")"
  [ -n "${RATIO}" ] || { echo "FAIL: no ${KEY} in --erasure output"; exit 1; }
  awk -v r="${RATIO}" 'BEGIN { exit !(r <= 3.0) }' \
    || { echo "FAIL: ${KEY} ${RATIO} > 3x"; exit 1; }
  echo "${KEY} ${RATIO} (<= 3)"
done
RS104_ENC="$(bench_key "${ERASURE_JSON}" rs104_encode_vs_xor)"
awk -v r="${RS104_ENC}" 'BEGIN { exit !(r <= 4.5) }' \
  || { echo "FAIL: rs104_encode_vs_xor ${RS104_ENC} > 4.5x sanity ceiling"; exit 1; }
echo "rs104_encode_vs_xor ${RS104_ENC} (<= 4.5)"
for KEY in xor41_read_copies_per_byte rs42_read_copies_per_byte rs104_read_copies_per_byte; do
  COPIES="$(bench_key "${ERASURE_JSON}" "${KEY}")"
  [ -n "${COPIES}" ] || { echo "FAIL: no ${KEY} in --erasure output"; exit 1; }
  awk -v c="${COPIES}" 'BEGIN { exit !(c <= 2.5) }' \
    || { echo "FAIL: ${KEY} ${COPIES} > 2.5 (striped-read copy regression)"; exit 1; }
  echo "${KEY} ${COPIES} (<= 2.5)"
done
rm -f "${ERASURE_JSON}"

echo "== agentd --stats-interval smoke =="
SMOKE_LOG="$(mktemp)"
./build/tools/swift_agentd --root="$(mktemp -d)" --port=0 --seconds=2 \
    --stats-interval=1 > "${SMOKE_LOG}" 2>&1
grep -q '^# swift_agentd metrics' "${SMOKE_LOG}" \
  || { echo "FAIL: no --stats-interval dump"; cat "${SMOKE_LOG}"; exit 1; }
rm -f "${SMOKE_LOG}"

# Chaos smoke: the daemon accepts a seeded scripted-fault spec and stays up
# under it (delay spike then a one-way blackhole), and rejects a malformed
# one with a usage error instead of serving with chaos silently off.
echo "== agentd --chaos-spec smoke =="
CHAOS_LOG="$(mktemp)"
./build/tools/swift_agentd --root="$(mktemp -d)" --port=0 --seconds=2 \
    --stats-interval=1 --chaos-spec='0-800:delay:*:5;900-1400:blackhole-in:*' \
    --chaos-seed=7 > "${CHAOS_LOG}" 2>&1
grep -q '^# swift_agentd metrics' "${CHAOS_LOG}" \
  || { echo "FAIL: agentd did not survive --chaos-spec"; cat "${CHAOS_LOG}"; exit 1; }
if ./build/tools/swift_agentd --root="$(mktemp -d)" --port=0 --seconds=1 \
    --chaos-spec='0-100:meteor:*' > "${CHAOS_LOG}" 2>&1; then
  echo "FAIL: malformed --chaos-spec accepted"; cat "${CHAOS_LOG}"; exit 1
fi
grep -q 'bad --chaos-spec' "${CHAOS_LOG}" \
  || { echo "FAIL: malformed --chaos-spec not diagnosed"; cat "${CHAOS_LOG}"; exit 1; }
rm -f "${CHAOS_LOG}"
echo "ci: PASS"
