#!/bin/sh
# Tier-1 gate: full build, the complete test suite at the sequential
# oracle (CMO_JOBS=1), then again at a worker pool (CMO_JOBS=4) with
# the between-phase IL verifier enabled (CMO_CHECK=1), the
# incremental-cache smoke benchmark, the parallel-determinism smoke
# benchmark (li personality, sharded; exits nonzero if any worker
# count's image, objects or cached bytes diverge from the j=1
# oracle), the fixed-seed differential-fuzz campaign smoke (any
# divergence from the reference interpreter is shrunk, saved under
# test/corpus/, and fails the gate), and the traced-build smoke (a
# --trace build must be byte-identical to a plain one and emit a
# Chrome-trace JSON that parses, has balanced spans, and names every
# pipeline stage), and the crash-point sweep smoke (every I/O
# operation of a small cold build is crashed in turn; each recovery
# build must be byte-identical to a never-faulted oracle, and every
# non-crash fault kind must degrade gracefully).  The fault test
# suite also reruns alone at a fixed fuzz seed so the corruption
# property is reproducible in CI logs.  Finally the build server is
# exercised twice: the in-process edit-storm smoke (concurrent
# clients held byte-identical to one-shot builds, warm-cache hit
# rate rising, per-request crash isolation), and a process-level
# cmocd smoke — daemon start, concurrent cmoc --remote builds at j=1
# and j=4 compared against a local one-shot, one $CMO_FAULT chaos
# request that must fail alone, and a SIGTERM shutdown that must
# remove the socket.  The distributed build is gated the same way:
# the dist-smoke benchmark (partition jobs on worker processes and a
# remote artifact cache, all held byte-identical to the one-shot
# oracle), then a process-level smoke — cmocd as the remote cache,
# two checkouts built with cmoc build --dist at j=2, one worker
# SIGKILLed mid-protocol via $CMO_DIST_CHAOS, object files compared
# byte-for-byte across all three builds, and a SIGTERM teardown that
# must remove both the socket and the pid file.  Fleet-scale profile
# ingestion is gated twice: the pgo-smoke benchmark (sampling x
# staleness sweep with the hot-set overlap metric, arrival-order
# determinism, and the poisoning clamp), and a process-level ingest
# smoke (eight shards including one corrupted and one version-skewed;
# ingest must skip-and-count, two arrival orders must produce
# byte-identical merged databases, and PBO builds from both must
# agree).  Profile cohorts are gated the same way: the canary-smoke
# benchmark (divergence x sampling sweep with the would-flip verdict,
# the divergence-0 identity law, and registry arrival-order
# permutation), and a process-level canary smoke — a live cmocd holds
# a stable cohort and two canary cohorts fed from the arms of an A/B
# fleet; the diff against the divergent arm must report FLIP (and
# --fail-on-flip must exit nonzero), the diff against the identical
# arm must report no-flip, and a cohort pull must be byte-identical
# to a local ingest of the same shards.  The multi-machine transport
# is gated by a TCP worker-fleet smoke: two cmoc-worker --listen
# processes on loopback ephemeral ports serve a cmoc build --dist
# --workers over real sockets, a second build severs the network with
# a sticky $CMO_NET_FAULT partition mid-protocol, and every object
# file of both fleet builds must match a never-distributed local
# oracle byte for byte before the workers are torn down.  The clean
# fleet build runs 20 times from an empty directory, each compared
# against the oracle, so a race that breaks one build in forty fails
# the gate in about two runs of five.  Last, the NAIM pressure smoke
# builds mcad1 at 1/4 scale on a 5 MB and on a 4 GB machine: both
# must print the same output and linker map, and the 5 MB report must
# show IR compactions, symbol-table compactions and offloads.  Run from the
# repository root.
set -eu

echo "== dune build =="
dune build

echo "== dune runtest (CMO_JOBS=1) =="
CMO_JOBS=1 dune runtest --force

echo "== dune runtest (CMO_JOBS=4, CMO_CHECK=1) =="
CMO_JOBS=4 CMO_CHECK=1 dune runtest --force

echo "== incremental cache smoke =="
dune exec bench/main.exe -- incremental-smoke

echo "== parallel determinism smoke =="
dune exec bench/main.exe -- parallel-smoke

echo "== differential fuzz smoke (seed 1) =="
dune exec bench/main.exe -- fuzz-smoke

echo "== traced build smoke =="
dune exec bench/main.exe -- trace-smoke

echo "== crash-point sweep smoke =="
dune exec bench/main.exe -- fault-sweep-smoke

echo "== fleet PGO smoke (sampling x staleness sweep) =="
dune exec bench/main.exe -- pgo-smoke

echo "== canary flip smoke (divergence x sampling sweep) =="
dune exec bench/main.exe -- canary-smoke

echo "== fault suite (fixed seed) =="
CMO_JOBS=1 CMO_FUZZ_SEED=1 dune exec test/test_main.exe -- test fault

echo "== edit-storm smoke (in-process daemon, concurrent clients) =="
dune exec bench/main.exe -- storm-smoke

echo "== cmocd daemon smoke (process level) =="
CMOC=_build/default/bin/cmoc.exe
CMOCD=_build/default/bin/cmocd.exe
SMOKE_DIR=$(mktemp -d)
CMOCD_PID=
DIST_DIR=
DIST_PID=
PROF_DIR=
COHORT_PID=
FLEET_DIR=
W1_PID=
W2_PID=
NAIM_DIR=
cleanup() {
  [ -n "$CMOCD_PID" ] && kill "$CMOCD_PID" 2>/dev/null || true
  [ -n "$DIST_PID" ] && kill "$DIST_PID" 2>/dev/null || true
  [ -n "$COHORT_PID" ] && kill "$COHORT_PID" 2>/dev/null || true
  [ -n "$W1_PID" ] && kill "$W1_PID" 2>/dev/null || true
  [ -n "$W2_PID" ] && kill "$W2_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
  [ -n "$DIST_DIR" ] && rm -rf "$DIST_DIR"
  [ -n "$PROF_DIR" ] && rm -rf "$PROF_DIR"
  [ -n "$FLEET_DIR" ] && rm -rf "$FLEET_DIR"
  [ -n "$NAIM_DIR" ] && rm -rf "$NAIM_DIR"
}
trap cleanup EXIT INT TERM
mkdir -p "$SMOKE_DIR/src"
"$CMOC" gen --bench storm --dir "$SMOKE_DIR/src"
SOCK="$SMOKE_DIR/cmocd.sock"
"$CMOCD" --socket "$SOCK" --state-dir "$SMOKE_DIR/state" -j 2 &
CMOCD_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$SOCK" ] || { echo "cmocd never came up"; exit 1; }

# Local one-shot oracle, then concurrent remote builds at j=1 and
# j=4: all three must run to the same output (the remote path relinks
# byte-identical objects).
"$CMOC" compile -O 4 -j 1 --run --input 64,3 "$SMOKE_DIR"/src/*.mc \
  > "$SMOKE_DIR/local.out"
"$CMOC" compile -O 4 -j 1 --remote --socket "$SOCK" --run --input 64,3 \
  "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/remote1.out" &
R1=$!
"$CMOC" compile -O 4 -j 4 --remote --socket "$SOCK" --run --input 64,3 \
  "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/remote4.out" &
R4=$!
wait "$R1"
wait "$R4"
cmp "$SMOKE_DIR/local.out" "$SMOKE_DIR/remote1.out"
cmp "$SMOKE_DIR/local.out" "$SMOKE_DIR/remote4.out"

# Chaos: a per-request $CMO_FAULT crash plan must fail that request
# only — the daemon keeps serving, byte-identically.
if CMO_FAULT=crash@2,seed=7 "$CMOC" compile -O 4 --remote --socket "$SOCK" \
  "$SMOKE_DIR"/src/*.mc >/dev/null 2>&1; then
  echo "daemon smoke: crash-plan request unexpectedly succeeded"
  exit 1
fi
"$CMOC" compile -O 4 -j 1 --remote --socket "$SOCK" --run --input 64,3 \
  "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/retry.out"
cmp "$SMOKE_DIR/local.out" "$SMOKE_DIR/retry.out"

# Graceful shutdown: SIGTERM drains and removes the socket file.
kill -TERM "$CMOCD_PID"
wait "$CMOCD_PID" || true
CMOCD_PID=
if [ -S "$SOCK" ]; then
  echo "daemon smoke: socket left behind after shutdown"
  exit 1
fi
echo "daemon smoke OK"

echo "== fleet profile ingest smoke (process level) =="
# Eight shards — six current at 1/2 sampling, one recorded against
# edited sources (version skew), one current at full rate — with the
# first record's frame magic destroyed in flight.  Ingest must skip
# and count exactly the casualty, down-weight the skewed shard, and
# produce a database byte-identical to ingesting the same surviving
# shards appended in a different order; PBO builds from both merged
# databases must agree output-for-output.
PROF_DIR=$(mktemp -d)
mkdir -p "$PROF_DIR/src"
"$CMOC" gen --bench li --dir "$PROF_DIR/src"
"$CMOC" train -o "$PROF_DIR/app.prof" --input 1000,17 "$PROF_DIR"/src/*.mc \
  > /dev/null
FP=$("$CMOC" profile fingerprint "$PROF_DIR"/src/*.mc)
# A previous source version: same profile, different fingerprint.
cp -r "$PROF_DIR/src" "$PROF_DIR/src-old"
printf '\n' >> "$(ls "$PROF_DIR"/src-old/*.mc | head -1)"
for k in 1 2 3 4 5 6; do
  "$CMOC" profile shard --profile "$PROF_DIR/app.prof" --sample-rate 0.5 \
    -o "$PROF_DIR/fleetA.shards" "$PROF_DIR"/src/*.mc > /dev/null
done
"$CMOC" profile shard --profile "$PROF_DIR/app.prof" --age 1 \
  -o "$PROF_DIR/fleetA.shards" "$PROF_DIR"/src-old/*.mc > /dev/null
"$CMOC" profile shard --profile "$PROF_DIR/app.prof" \
  -o "$PROF_DIR/fleetA.shards" "$PROF_DIR"/src/*.mc > /dev/null
# Corrupt the first shard's frame magic.
printf 'XXXX' | dd of="$PROF_DIR/fleetA.shards" bs=1 conv=notrunc 2>/dev/null
"$CMOC" profile ingest --fp "$FP" -o "$PROF_DIR/fleetA.prof" \
  "$PROF_DIR/fleetA.shards" > "$PROF_DIR/ingestA.out"
cat "$PROF_DIR/ingestA.out"
grep -q "ingested 7 shards (1 skipped, 1 skewed, 0 clamped" \
  "$PROF_DIR/ingestA.out" || {
  echo "ingest smoke: unexpected ingest accounting"
  exit 1
}
# The same surviving shards, appended in a different order.
"$CMOC" profile shard --profile "$PROF_DIR/app.prof" \
  -o "$PROF_DIR/fleetB.shards" "$PROF_DIR"/src/*.mc > /dev/null
"$CMOC" profile shard --profile "$PROF_DIR/app.prof" --age 1 \
  -o "$PROF_DIR/fleetB.shards" "$PROF_DIR"/src-old/*.mc > /dev/null
for k in 1 2 3 4 5; do
  "$CMOC" profile shard --profile "$PROF_DIR/app.prof" --sample-rate 0.5 \
    -o "$PROF_DIR/fleetB.shards" "$PROF_DIR"/src/*.mc > /dev/null
done
"$CMOC" profile ingest --fp "$FP" -o "$PROF_DIR/fleetB.prof" \
  "$PROF_DIR/fleetB.shards" > /dev/null
cmp "$PROF_DIR/fleetA.prof" "$PROF_DIR/fleetB.prof" || {
  echo "ingest smoke: arrival order changed the merged database"
  exit 1
}
"$CMOC" compile -O 4 -P --profile "$PROF_DIR/fleetA.prof" --run \
  --input 1000,17 "$PROF_DIR"/src/*.mc > "$PROF_DIR/buildA.out"
"$CMOC" compile -O 4 -P --profile "$PROF_DIR/fleetB.prof" --run \
  --input 1000,17 "$PROF_DIR"/src/*.mc > "$PROF_DIR/buildB.out"
cmp "$PROF_DIR/buildA.out" "$PROF_DIR/buildB.out"
echo "ingest smoke OK"

echo "== profile cohort canary smoke (process level) =="
# Two A/B arms with a planted full-rank divergence, three cohorts on
# a live daemon: stable (arm A), canary (the divergent arm B), and
# canary-same (arm A again).  The diff against canary must report a
# FLIP and --fail-on-flip must turn it into a nonzero exit; the diff
# against canary-same must report no-flip; and a daemon-side cohort
# pull must be byte-identical to a local ingest of the same shards.
"$CMOC" profile ab --profile "$PROF_DIR/app.prof" --divergence 1.0 \
  --users 30 -a "$PROF_DIR/armA.shards" -b "$PROF_DIR/armB.shards" \
  "$PROF_DIR"/src/*.mc > /dev/null
CSOCK="$PROF_DIR/cmocd.sock"
"$CMOCD" --socket "$CSOCK" --state-dir "$PROF_DIR/state" -j 2 &
COHORT_PID=$!
i=0
while [ ! -S "$CSOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$CSOCK" ] || { echo "cmocd (cohort) never came up"; exit 1; }
"$CMOC" profile cohort create stable --socket "$CSOCK"
"$CMOC" profile cohort ingest stable "$PROF_DIR/armA.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort ingest canary "$PROF_DIR/armB.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort ingest canary-same "$PROF_DIR/armA.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort list --socket "$CSOCK" > "$PROF_DIR/cohorts.out"
for name in stable canary canary-same; do
  grep -q "$name" "$PROF_DIR/cohorts.out" || {
    echo "canary smoke: cohort $name missing from the listing"
    exit 1
  }
done
"$CMOC" profile cohort diff stable canary --socket "$CSOCK" \
  "$PROF_DIR"/src/*.mc > "$PROF_DIR/flip.out"
cat "$PROF_DIR/flip.out"
grep -q "cohort-diff: FLIP" "$PROF_DIR/flip.out" || {
  echo "canary smoke: planted divergence not detected"
  exit 1
}
if "$CMOC" profile cohort diff stable canary --fail-on-flip \
  --socket "$CSOCK" "$PROF_DIR"/src/*.mc > /dev/null 2>&1; then
  echo "canary smoke: --fail-on-flip exited zero on a flip"
  exit 1
fi
"$CMOC" profile cohort diff stable canary-same --socket "$CSOCK" \
  "$PROF_DIR"/src/*.mc > "$PROF_DIR/same.out"
grep -q "cohort-diff: no-flip" "$PROF_DIR/same.out" || {
  echo "canary smoke: identical arms reported a flip"
  exit 1
}
"$CMOC" profile pull -o "$PROF_DIR/pulled.prof" --cohort stable \
  --fp "$FP" --socket "$CSOCK" > /dev/null
"$CMOC" profile ingest --fp "$FP" -o "$PROF_DIR/localA.prof" \
  "$PROF_DIR/armA.shards" > /dev/null
cmp "$PROF_DIR/pulled.prof" "$PROF_DIR/localA.prof" || {
  echo "canary smoke: daemon pull diverged from a local ingest"
  exit 1
}
kill -TERM "$COHORT_PID"
wait "$COHORT_PID" || true
COHORT_PID=
if [ -S "$CSOCK" ]; then
  echo "canary smoke: socket left behind after shutdown"
  exit 1
fi
echo "canary smoke OK"

echo "== distributed CMO smoke (dist-smoke bench) =="
dune exec bench/main.exe -- dist-smoke

echo "== distributed build smoke (process level) =="
DIST_DIR=$(mktemp -d)
mkdir -p "$DIST_DIR/co1/src" "$DIST_DIR/co2/src" "$DIST_DIR/oracle"
"$CMOC" gen --bench storm --dir "$DIST_DIR/co1/src"
cp "$DIST_DIR"/co1/src/*.mc "$DIST_DIR/co2/src/"
DSOCK="$DIST_DIR/cmocd.sock"
DPID_FILE="$DIST_DIR/cmocd.pid"
"$CMOCD" --socket "$DSOCK" --state-dir "$DIST_DIR/state" -j 2 \
  --pid-file "$DPID_FILE" &
DIST_PID=$!
i=0
while [ ! -S "$DSOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$DSOCK" ] || { echo "cmocd (dist) never came up"; exit 1; }
[ -f "$DPID_FILE" ] || { echo "dist smoke: pid file never written"; exit 1; }

# Local one-shot oracle, no workers, no daemon.
"$CMOC" build -O 4 -j 1 --dir "$DIST_DIR/oracle" --run --input 64,3 \
  "$DIST_DIR"/co1/src/*.mc > "$DIST_DIR/oracle.out"

# Checkout 1: distributed build on two worker processes, publishing
# every module artifact to the daemon; chaos SIGKILLs one worker
# mid-protocol and the build must degrade invisibly.
CMO_DIST_CHAOS=kill@4 "$CMOC" build -O 4 -j 2 --dist --socket "$DSOCK" \
  --dir "$DIST_DIR/co1" --run --input 64,3 \
  "$DIST_DIR"/co1/src/*.mc > "$DIST_DIR/co1.out"

# Checkout 2: a fresh checkout must be served entirely from the
# daemon's remote cache — every remote lookup a hit, nothing
# re-optimized.
"$CMOC" build -O 4 -j 2 --dist --socket "$DSOCK" \
  --dir "$DIST_DIR/co2" --run --input 64,3 \
  "$DIST_DIR"/co2/src/*.mc > "$DIST_DIR/co2.out"
grep -q "remote cache: [1-9][0-9]* hits, 0 misses" "$DIST_DIR/co2.out" || {
  echo "dist smoke: second checkout was not fully served by the remote cache"
  cat "$DIST_DIR/co2.out"
  exit 1
}
grep -q " 0 re-optimized" "$DIST_DIR/co2.out" || {
  echo "dist smoke: second checkout re-optimized modules"
  exit 1
}

# Byte-identity: every object file of both distributed checkouts
# matches the oracle's, chaos kill and all; so does the VM outcome.
for f in "$DIST_DIR"/oracle/*.o; do
  cmp "$f" "$DIST_DIR/co1/$(basename "$f")"
  cmp "$f" "$DIST_DIR/co2/$(basename "$f")"
done
grep "^exit:" "$DIST_DIR/oracle.out" > "$DIST_DIR/oracle.exit"
for out in co1 co2; do
  grep "^exit:" "$DIST_DIR/$out.out" > "$DIST_DIR/$out.exit"
  cmp "$DIST_DIR/oracle.exit" "$DIST_DIR/$out.exit"
done

# Graceful teardown: SIGTERM drains, removes the socket and pid file,
# and leaves no stray worker processes behind.
kill -TERM "$DIST_PID"
wait "$DIST_PID" || true
DIST_PID=
if [ -S "$DSOCK" ]; then
  echo "dist smoke: socket left behind after shutdown"
  exit 1
fi
if [ -f "$DPID_FILE" ]; then
  echo "dist smoke: pid file left behind after shutdown"
  exit 1
fi
echo "dist smoke OK"

echo "== TCP worker fleet smoke (process level) =="
# Two cmoc-worker fleet members on loopback ephemeral ports serve a
# distributed build over real TCP (version handshake, heartbeats,
# framed jobs); a second build severs the network with a sticky
# $CMO_NET_FAULT partition mid-protocol and must degrade invisibly
# to in-process recompute, reporting the injection.  Every object
# file of both fleet builds must match a never-distributed local
# oracle byte for byte, and tearing the workers down must leave no
# stray processes.
CMOC_WORKER=_build/default/bin/cmoc_worker.exe
FLEET_DIR=$(mktemp -d)
mkdir -p "$FLEET_DIR/co1/src" "$FLEET_DIR/co2/src" "$FLEET_DIR/oracle"
"$CMOC" gen --bench storm --dir "$FLEET_DIR/co1/src"
cp "$FLEET_DIR"/co1/src/*.mc "$FLEET_DIR/co2/src/"
"$CMOC_WORKER" --listen 127.0.0.1:0 --port-file "$FLEET_DIR/w1.port" \
  > /dev/null &
W1_PID=$!
"$CMOC_WORKER" --listen 127.0.0.1:0 --port-file "$FLEET_DIR/w2.port" \
  > /dev/null &
W2_PID=$!
i=0
while { [ ! -f "$FLEET_DIR/w1.port" ] || [ ! -f "$FLEET_DIR/w2.port" ]; } \
  && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -f "$FLEET_DIR/w1.port" ] || [ ! -f "$FLEET_DIR/w2.port" ]; then
  echo "fleet smoke: workers never wrote their port files"
  exit 1
fi
W1="127.0.0.1:$(cat "$FLEET_DIR/w1.port")"
W2="127.0.0.1:$(cat "$FLEET_DIR/w2.port")"

# Local one-shot oracle: no workers, no network.
"$CMOC" build -O 4 -j 1 --dir "$FLEET_DIR/oracle" --run --input 64,3 \
  "$FLEET_DIR"/co1/src/*.mc > "$FLEET_DIR/oracle.out"

# Checkout 1: a clean distributed build over the two-machine fleet,
# repeated from nothing 20 times; every repeat's objects and VM
# outcome must match the oracle's.
grep "^exit:" "$FLEET_DIR/oracle.out" > "$FLEET_DIR/oracle.exit"
i=1
while [ "$i" -le 20 ]; do
  rm -rf "$FLEET_DIR/co1/out"
  "$CMOC" build -O 4 -j 2 --dist --workers "$W1,$W2" \
    --dir "$FLEET_DIR/co1/out" --run --input 64,3 \
    "$FLEET_DIR"/co1/src/*.mc > "$FLEET_DIR/co1.out"
  for f in "$FLEET_DIR"/oracle/*.o; do
    cmp "$f" "$FLEET_DIR/co1/out/$(basename "$f")" || {
      echo "fleet smoke: repeat $i diverged from the oracle"
      exit 1
    }
  done
  grep "^exit:" "$FLEET_DIR/co1.out" > "$FLEET_DIR/co1.exit"
  cmp "$FLEET_DIR/oracle.exit" "$FLEET_DIR/co1.exit"
  i=$((i + 1))
done

# Checkout 2: the network is severed at the fifth wire operation —
# live conversations die and later dials are refused; the build must
# finish from in-process recompute and report the injection.
CMO_NET_FAULT=partition@5 "$CMOC" build -O 4 -j 2 --dist \
  --workers "$W1,$W2" --dir "$FLEET_DIR/co2" --run --input 64,3 \
  "$FLEET_DIR"/co2/src/*.mc \
  > "$FLEET_DIR/co2.out" 2> "$FLEET_DIR/co2.err"
grep -q "net fault plan: [0-9]* net ops, [1-9][0-9]* injected" \
  "$FLEET_DIR/co2.err" || {
  echo "fleet smoke: partition plan never fired"
  cat "$FLEET_DIR/co2.err"
  exit 1
}

# Byte-identity: every object of the severed build matches the
# oracle's, and so does its VM outcome.
for f in "$FLEET_DIR"/oracle/*.o; do
  cmp "$f" "$FLEET_DIR/co2/$(basename "$f")"
done
grep "^exit:" "$FLEET_DIR/co2.out" > "$FLEET_DIR/co2.exit"
cmp "$FLEET_DIR/oracle.exit" "$FLEET_DIR/co2.exit"

# Clean teardown: both listeners die on signal, leaving nothing.
kill "$W1_PID" "$W2_PID"
wait "$W1_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
if kill -0 "$W1_PID" 2>/dev/null || kill -0 "$W2_PID" 2>/dev/null; then
  echo "fleet smoke: worker process survived teardown"
  exit 1
fi
W1_PID=
W2_PID=
echo "fleet smoke OK"

echo "== NAIM pressure smoke (mcad1 at 1/4 scale) =="
# One real program built +O4 +P twice: on a 5 MB machine, where NAIM
# compacts routine IR and symbol tables and offloads pools to the
# repository, and on a 4 GB machine, where it stays off.  Both builds
# must print the same output and the same linker map (so a codegen
# difference the program's output does not show still fails), and the
# pressured one must report all three kinds of unloader traffic.
NAIM_DIR=$(mktemp -d)
mkdir -p "$NAIM_DIR/src"
"$CMOC" gen --bench mcad1 --scale 0.25 --dir "$NAIM_DIR/src" > /dev/null
"$CMOC" train "$NAIM_DIR"/src/*.mc -o "$NAIM_DIR/app.prof" > /dev/null
for mb in 5 4096; do
  "$CMOC" compile -O 4 -P --profile "$NAIM_DIR/app.prof" --machine-mb "$mb" \
    --run --map --report-json "$NAIM_DIR/report$mb.json" "$NAIM_DIR"/src/*.mc \
    > "$NAIM_DIR/out$mb"
done
cmp "$NAIM_DIR/out5" "$NAIM_DIR/out4096"
for counter in compactions symtab_compactions offloads; do
  n=$(grep -o "\"$counter\":[0-9]*" "$NAIM_DIR/report5.json" | cut -d: -f2)
  if [ -z "$n" ] || [ "$n" -eq 0 ]; then
    echo "NAIM smoke: $counter is ${n:-missing} at 5 MB"
    exit 1
  fi
  echo "NAIM smoke: $counter $n at 5 MB"
done
echo "NAIM smoke OK"

echo "CI OK"
