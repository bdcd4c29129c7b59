#!/bin/sh
# CI entry point: build and test the library in a Release configuration,
# under ThreadSanitizer, and under AddressSanitizer+UBSan.  The pipeline
# runtime is all threads and queues, so a TSan pass is the cheapest way
# to keep the worker loops honest; run it on every change to src/core.
#
#   tools/ci.sh [JOBS]
set -eu

jobs=${1:-$(nproc 2>/dev/null || echo 4)}
root=$(cd "$(dirname "$0")/.." && pwd)

run_config() {
  name=$1
  shift
  build="$root/build-ci-$name"
  echo "==> configure $name"
  cmake -S "$root" -B "$build" "$@" >/dev/null
  echo "==> build $name"
  cmake --build "$build" -j "$jobs"
  echo "==> test $name"
  (cd "$build" && ctest --output-on-failure -j "$jobs")
}

run_config release -DCMAKE_BUILD_TYPE=Release -DFG_WERROR=ON
run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFG_SANITIZE=thread
# UBSan only prints a report by default and the test still passes; halt
# on the first one so undefined behaviour fails the configuration.
(
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  run_config asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFG_SANITIZE=address
)

# Observability round trip: run a small traced sort, validate both blobs
# structurally (fgtrace --check exits nonzero on a malformed trace —
# unpaired spans, missing thread names, round-id gaps), and keep the
# bottleneck/occupancy report as one section of the benchmark artifact
# (BENCH_sort.json is assembled from every labeled run further down).
# Every artifact this script writes lands in $bench_dir, inside the
# ignored build tree: they are single-shot numbers from this machine,
# and fgbench is the tracked ledger.
echo "==> traced sort + fgtrace check"
bench_dir="$root/build-ci-release/bench-sort"
rm -rf "$bench_dir"
mkdir -p "$bench_dir"
obs_dir="$root/build-ci-release/obs-check"
mkdir -p "$obs_dir"
"$root/build-ci-release/tools/fgsort" --program dsort --nodes 4 \
  --records 65536 --latency paper \
  --trace-out "$obs_dir/trace.json" --stats-json "$obs_dir/stats.json"
"$root/build-ci-release/tools/fgtrace" --check \
  "$obs_dir/trace.json" "$obs_dir/stats.json"
"$root/build-ci-release/tools/fgtrace" report --json --label disk=stdio \
  --label fabric=sim --label latency=paper \
  "$obs_dir/trace.json" > "$bench_dir/sim.json"
grep -q '"disk":"stdio"' "$bench_dir/sim.json"
echo "==> traced sim sort ok (report staged for BENCH_sort.json)"

# Multi-process gate: the same dsort, but with every cluster node as its
# own OS process talking over loopback TCP (fgnode forks one fgsort per
# rank and supervises the set).  A sim run on the identical seeded
# dataset is the reference: the TCP output stripes must match it byte
# for byte, each rank must emit a stats blob, and rank 0's trace must
# pass the same structural fgtrace check as the in-process run.
echo "==> multi-process TCP dsort (4 ranks over loopback)"
tcp_dir="$root/build-ci-release/tcp-check"
rm -rf "$tcp_dir"
mkdir -p "$tcp_dir"
"$root/build-ci-release/tools/fgsort" --program dsort --nodes 4 \
  --records 65536 --latency none --seed 11 \
  --keep "$tcp_dir/sim" > /dev/null
"$root/build-ci-release/tools/fgnode" --nodes 4 --base-port 38411 \
  --timeout-secs 300 -- \
  "$root/build-ci-release/tools/fgsort" --program dsort \
  --records 65536 --latency none --seed 11 \
  --keep "$tcp_dir/tcp" \
  --trace-out "$tcp_dir/trace.{rank}.json" \
  --stats-json "$tcp_dir/stats.{rank}.json" > /dev/null
for n in 0 1 2 3; do
  cmp "$tcp_dir/sim/dsort/node$n/output" "$tcp_dir/tcp/dsort/node$n/output"
  test -s "$tcp_dir/stats.$n.json"
  grep -q '"fabric":"tcp"' "$tcp_dir/stats.$n.json"
done
grep -q '"verified":true' "$tcp_dir/stats.0.json"
"$root/build-ci-release/tools/fgtrace" --check \
  "$tcp_dir/trace.0.json" "$tcp_dir/stats.0.json"
# The receive-occupancy gate: frames go out as one sendmsg gather and
# land in recycled pool buffers, so rank 0's receive stage must spend
# measurably less than the 0.235 two-syscall baseline busy per wall
# second.  Occupancy on a sub-100 ms run is scheduler-noisy, so the gate
# is best-of-three: the first sample is the byte-compare run's own
# trace, and a sample over the bar triggers a fresh measurement run.
# The passing sample's labeled report becomes the tcp section of
# BENCH_sort.json.
attempt=1
while :; do
  "$root/build-ci-release/tools/fgtrace" report --json --label disk=stdio \
    --label fabric=tcp --label latency=none \
    "$tcp_dir/trace.0.json" > "$bench_dir/tcp.json"
  grep -q '"fabric":"tcp"' "$bench_dir/tcp.json"
  recv_occ=$(sed -n \
    's/.*"stage":"receive"[^}]*"occupancy":\([0-9.eE+-]*\).*/\1/p' \
    "$bench_dir/tcp.json")
  if awk -v o="$recv_occ" \
      'BEGIN { exit !(o != "" && o > 0 && o < 0.235) }'; then
    break
  fi
  if [ "$attempt" -ge 3 ]; then
    echo "tcp receive occupancy $recv_occ not under 0.235 in 3 runs"
    exit 1
  fi
  attempt=$((attempt + 1))
  echo "==> receive occupancy $recv_occ >= 0.235; remeasuring ($attempt/3)"
  rm -rf "$tcp_dir/tcp-again"
  "$root/build-ci-release/tools/fgnode" --nodes 4 --base-port 38411 \
    --timeout-secs 300 -- \
    "$root/build-ci-release/tools/fgsort" --program dsort \
    --records 65536 --latency none --seed 11 \
    --keep "$tcp_dir/tcp-again" \
    --trace-out "$tcp_dir/trace.{rank}.json" > /dev/null
done
echo "==> multi-process TCP dsort ok (receive occupancy $recv_occ < 0.235)"

# Same-host shared-memory gate: the identical seeded dsort, but the four
# rank processes talk through one mmap'd segment fgnode provisions
# (pointer-swap/memcpy delivery, no sockets).  The shm stripes must
# byte-match both the sim reference and the TCP run above, every rank
# must report "fabric":"shm", and rank 0's trace passes the structural
# check.  fgnode falls back to tcp (recorded in the stats) where
# segments are unavailable, so this gate auto-skips there — it can never
# mistake the fallback for a real shm run.
echo "==> multi-process shm dsort (4 ranks, one shared segment)"
shm_dir="$root/build-ci-release/shm-check"
rm -rf "$shm_dir"
mkdir -p "$shm_dir"
"$root/build-ci-release/tools/fgnode" --nodes 4 --fabric shm \
  --timeout-secs 300 -- \
  "$root/build-ci-release/tools/fgsort" --program dsort \
  --records 65536 --latency none --seed 11 \
  --keep "$shm_dir/shm" \
  --trace-out "$shm_dir/trace.{rank}.json" \
  --stats-json "$shm_dir/stats.{rank}.json" > /dev/null
if grep -q '"fabric":"shm"' "$shm_dir/stats.0.json"; then
  for n in 0 1 2 3; do
    cmp "$tcp_dir/sim/dsort/node$n/output" \
      "$shm_dir/shm/dsort/node$n/output"
    cmp "$tcp_dir/tcp/dsort/node$n/output" \
      "$shm_dir/shm/dsort/node$n/output"
    test -s "$shm_dir/stats.$n.json"
    grep -q '"fabric":"shm"' "$shm_dir/stats.$n.json"
  done
  grep -q '"verified":true' "$shm_dir/stats.0.json"
  "$root/build-ci-release/tools/fgtrace" --check \
    "$shm_dir/trace.0.json" "$shm_dir/stats.0.json"
  # Shared pages must beat the socket path where it shows: rank 0's
  # receive stage has to come in under the TCP gate's 0.235 bar with
  # room to spare — best of three, same remeasure discipline as above.
  attempt=1
  while :; do
    "$root/build-ci-release/tools/fgtrace" report --json \
      --label disk=stdio --label fabric=shm --label latency=none \
      "$shm_dir/trace.0.json" > "$bench_dir/shm.json"
    grep -q '"fabric":"shm"' "$bench_dir/shm.json"
    recv_occ=$(sed -n \
      's/.*"stage":"receive"[^}]*"occupancy":\([0-9.eE+-]*\).*/\1/p' \
      "$bench_dir/shm.json")
    if awk -v o="$recv_occ" \
        'BEGIN { exit !(o != "" && o > 0 && o < 0.21) }'; then
      break
    fi
    if [ "$attempt" -ge 3 ]; then
      echo "shm receive occupancy $recv_occ not under 0.21 in 3 runs"
      exit 1
    fi
    attempt=$((attempt + 1))
    echo "==> receive occupancy $recv_occ >= 0.21; remeasuring ($attempt/3)"
    rm -rf "$shm_dir/shm-again"
    "$root/build-ci-release/tools/fgnode" --nodes 4 --fabric shm \
      --timeout-secs 300 -- \
      "$root/build-ci-release/tools/fgsort" --program dsort \
      --records 65536 --latency none --seed 11 \
      --keep "$shm_dir/shm-again" \
      --trace-out "$shm_dir/trace.{rank}.json" > /dev/null
  done
  # The forced-fallback path must keep working too: FG_NO_SHM=1 turns
  # --fabric shm into a warned tcp run, never an error.
  FG_NO_SHM=1 "$root/build-ci-release/tools/fgnode" --nodes 2 \
    --fabric shm --base-port 38415 --timeout-secs 300 -- \
    "$root/build-ci-release/tools/fgsort" --program dsort \
    --records 8192 --latency none --seed 11 \
    --keep "$shm_dir/fallback" \
    --stats-json "$shm_dir/fallback-stats.{rank}.json" > /dev/null 2>&1
  grep -q '"fabric":"tcp"' "$shm_dir/fallback-stats.0.json"
  echo "==> shm dsort ok (byte-identical to sim and tcp; receive" \
    "occupancy $recv_occ < 0.21)"
else
  echo "==> shm segments unavailable here; shm gate skipped (ran as tcp)"
fi
rm -rf "$shm_dir"
rm -rf "$tcp_dir"

# Native disk backend gate: the same seeded run of every program
# through the stdio backend (the simulated spindle) and the plain native
# backend must produce byte-identical output stripes.
# The native run is traced, its blobs must pass the structural check,
# and the report/stats must record which backend produced them (so a
# BENCH artifact can never silently change substrate).  With --program
# all, fgsort appends the program name to the trace file.
echo "==> native disk backend dsort/csort/ssort (byte-compare vs stdio)"
nd_dir="$root/build-ci-release/native-disk-check"
rm -rf "$nd_dir"
mkdir -p "$nd_dir"
"$root/build-ci-release/tools/fgsort" --program all --nodes 4 \
  --records 65536 --latency none --seed 23 --disk stdio \
  --keep "$nd_dir/stdio" > /dev/null
"$root/build-ci-release/tools/fgsort" --program all --nodes 4 \
  --records 65536 --latency none --seed 23 --disk native \
  --keep "$nd_dir/native" \
  --trace-out "$nd_dir/trace.json" --stats-json "$nd_dir/stats.json" \
  > /dev/null
for prog in dsort csort ssort; do
  for n in 0 1 2 3; do
    cmp "$nd_dir/stdio/$prog/node$n/output" \
      "$nd_dir/native/$prog/node$n/output"
  done
done
grep -q '"disk":"native"' "$nd_dir/stats.json"
"$root/build-ci-release/tools/fgtrace" --check \
  "$nd_dir/trace.json.dsort" "$nd_dir/stats.json"
"$root/build-ci-release/tools/fgtrace" report --json --label disk=native \
  --label fabric=sim --label latency=none \
  "$nd_dir/trace.json.dsort" > "$bench_dir/native.json"
grep -q '"disk":"native"' "$bench_dir/native.json"
echo "==> native disk backend ok"
rm -rf "$nd_dir"

# Assemble BENCH_sort.json from every labeled section produced above: a
# JSON array with one {labels, reports} object per traced run (sim
# paper-latency, loopback TCP, shared-memory, native disk), so the
# artifact always says which substrate each number came from.
{
  printf '['
  first=1
  for section in sim tcp shm native; do
    [ -f "$bench_dir/$section.json" ] || continue
    [ "$first" -eq 1 ] || printf ','
    first=0
    cat "$bench_dir/$section.json"
  done
  printf ']\n'
} > "$bench_dir/BENCH_sort.json"
grep -q '"disk":"stdio"' "$bench_dir/BENCH_sort.json"
grep -q '"fabric":"tcp"' "$bench_dir/BENCH_sort.json"
grep -q '"disk":"native"' "$bench_dir/BENCH_sort.json"
echo "==> wrote $bench_dir/BENCH_sort.json (backend-labeled wall time +" \
  "occupancy)"

# Queue-hop gate: the wait-free SPSC channel must beat the mutex/condvar
# queue on stage-to-stage conveyance cost, on this machine, today.  The
# bench writes a JSON artifact recording both channel kinds' ns/op and
# exits nonzero if the ring loses.
echo "==> queue-hop bench gate (spsc vs mpmc)"
"$root/build-ci-release/bench/bench_buffers" \
  --gate="$bench_dir/BENCH_queue_hop.json"
echo "==> wrote $bench_dir/BENCH_queue_hop.json (spsc beats mpmc)"

# Serving gate: bring up a real fgserve, drive it with the closed-loop
# load generator twice — a clean pass (every job must complete and
# byte-verify; its numbers go to BENCH_serve.json) and a chaos pass
# (injected tenant faults plus abrupt client kills; faulted jobs must
# FAIL alone, nothing else may be disturbed, zero buffer-audit
# failures) — then SIGTERM the server.  The contract under test: the
# server never exits abnormally, and the drain path exits 0 with the
# final registry stats flushed.
echo "==> fgserve load + chaos gate"
srv_dir="$root/build-ci-release/serve-check"
rm -rf "$srv_dir"
mkdir -p "$srv_dir"
"$root/build-ci-release/tools/fgserve" --port 0 --slots 4 --queue 16 \
  --root "$srv_dir/ws" --port-file "$srv_dir/port.txt" \
  2> "$srv_dir/server.log" &
srv_pid=$!
for i in $(seq 1 100); do
  test -s "$srv_dir/port.txt" && break
  kill -0 "$srv_pid" 2>/dev/null || { cat "$srv_dir/server.log"; exit 1; }
  sleep 0.1
done
srv_port=$(cat "$srv_dir/port.txt")
echo "==> fgserve up on port $srv_port (pid $srv_pid)"
"$root/build-ci-release/tools/fgserve_load" --port "$srv_port" \
  --clients 4 --jobs 6 --kinds pipeline,sort,permute \
  --json "$bench_dir/BENCH_serve.json"
echo "==> serve chaos pass (tenant faults + client kills)"
"$root/build-ci-release/tools/fgserve_load" --port "$srv_port" \
  --clients 4 --jobs 6 --kinds pipeline,sort,permute \
  --fault-rate 0.3 --kill-rate 0.15 --seed 7
kill -TERM "$srv_pid"
srv_rc=0
wait "$srv_pid" || srv_rc=$?
if [ "$srv_rc" -ne 0 ]; then
  echo "fgserve exited $srv_rc (want 0 after SIGTERM drain)"
  cat "$srv_dir/server.log"
  exit 1
fi
grep -q 'final stats' "$srv_dir/server.log"
grep -q '"bench":"serve"' "$bench_dir/BENCH_serve.json"
rm -rf "$srv_dir"
echo "==> wrote $bench_dir/BENCH_serve.json (server drained clean, exit 0)"

# Chaos soak: replay the fault-injection suite under TSan with ten
# distinct seeds.  Injection schedules are a pure function of the seed,
# so each iteration exercises a different (but reproducible) failure
# pattern; the disk-fault tests are parameterized over both disk
# backends, so every seed soaks stdio and native alike.  A seed that breaks here reproduces locally
# with FG_CHAOS_SEED=<seed> build-ci-tsan/tests/chaos_test.
echo "==> chaos soak (tsan, 10 seeds)"
for seed in 1 2 3 5 8 13 21 34 55 89; do
  echo "==> chaos seed $seed"
  FG_CHAOS_SEED=$seed "$root/build-ci-tsan/tests/chaos_test" \
    --gtest_brief=1
done

echo "==> ci: all configurations passed"
