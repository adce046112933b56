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
# property is reproducible in CI logs, and so do the analysis-oracle
# property (dominators, liveness, loops and register-allocation
# intervals held to the reference implementations in
# test/ref_analyses.ml) and the transform-oracle properties (suite
# "xforms": value numbering, copy and constant propagation, CFG
# cleanup and scheduling held to test/ref_transforms.ml) and the
# codec-oracle properties (suite "codec": random primitive streams and
# IL routines written, read, truncated and garbled by the codec and by
# test/ref_codec.ml must give the same bytes, values and Corrupt
# cases) and the VM-oracle properties (suite "vm": random machine
# images run by the pre-decoded VM and by test/ref_vm.ml under five
# cost models, with attribution on and off, must give equal outcomes
# or the same Fault messages), each at ten times its default case
# count (QCHECK_LONG=1).
# Finally the build server is exercised twice: the in-process
# edit-storm smoke (concurrent clients held byte-identical to one-shot
# builds, warm-cache hit rate rising, per-request crash isolation),
# and a process-level cmocd smoke — daemon start, concurrent cmoc
# --remote builds at j=1 and j=4 compared against a local one-shot,
# one $CMO_FAULT chaos request that must fail alone, one cmoc whose
# greeting reports another build identity ($CMO_WORKER_FP) that must
# be refused by name with status 1, profiled remote
# builds (-P --profile, with and without --select 10, with --map)
# compared against the same local commands, and a SIGTERM shutdown
# that must remove the socket.  The distributed build is
# gated the same way:
# the dist-smoke benchmark (partition jobs on worker processes and a
# remote artifact cache, all held byte-identical to the one-shot
# oracle), then a process-level smoke — cmocd as the remote cache,
# two checkouts built with cmoc build --dist at j=2, one worker
# killed mid-protocol via $CMO_FAULT=kill@4, object files compared
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
# permutation), and a process-level canary smoke — cmoc profile
# push/pull without --cohort must land in and come back from the
# default "fleet" cohort byte-identical to a local ingest, then a live
# cmocd holds a stable cohort and two canary cohorts fed from the
# arms of an A/B fleet; the diff against the divergent arm must
# report FLIP (and --fail-on-flip must exit nonzero), the diff against
# the identical arm must report no-flip, a cohort pull must be
# byte-identical to a local ingest of the same shards, and after
# shutdown the diff and listing answered offline from the daemon's
# --state-dir must be byte-identical to the daemon's.  An error-exit
# step then requires cmoc to fail with status 1 and a message, never
# an uncaught exception, on a corrupt and an empty profile database
# and on a train into a missing directory.  A build-equals-compile
# step (li, trained profile) then holds cmoc build to cmoc compile's
# exit value and cycle count at -O 1 -P, -O 2 -P and -O 4 -P, and
# after a -O 1 build left objects in the same --dir, and requires a
# duplicate module name to exit 1 with a message.  The multi-machine transport
# is gated by a TCP worker-fleet smoke: two cmoc-worker --listen
# processes on loopback ephemeral ports serve a cmoc build --dist
# --workers over real sockets, a second build severs the network with
# a sticky $CMO_FAULT=partition@5 mid-protocol, and every object
# file of both fleet builds must match a never-distributed local
# oracle byte for byte before the workers are torn down.  The clean
# fleet build runs 20 times from an empty directory, each compared
# against the oracle, so a race that breaks one build in forty fails
# the gate in about two runs of five.  A -j 1 cmoc compile of a
# two-component program on the same fleet must report workers_used 2
# (one job in flight per endpoint) and print what a local build
# prints.  Last, the NAIM pressure smoke
# builds mcad1 at 1/4 scale on a 5 MB and on a 4 GB machine: both
# must print the same output and linker map, and the 5 MB report must
# show IR compactions, symbol-table compactions and offloads.  A length
# check keeps the pipeline split into stages: no top-level let/and in
# lib/driver/pipeline.ml may span more than 150 lines, and a knob
# check keeps one knob plane: no code in lib/ or bin/ but
# lib/driver/options.ml may call Sys.getenv, and a hashing check keeps
# binary digests off every build path: no code in lib/ or bin/ may
# call Digest.file (worker handshakes use the build identity dune
# fixes when it builds the tools; the fleet smoke checks that cmoc
# and cmoc-worker print the same one).  Run from the repository root.
set -eu

echo "== dune build =="
dune build

echo "== one knob plane (Sys.getenv only in lib/driver/options.ml) =="
if grep -rn --include='*.ml' --include='*.mli' 'Sys\.getenv' lib bin \
  | grep -v '^lib/driver/options\.ml:'; then
  echo "environment read outside Options.from_env (see HACKING's knob table)"
  exit 1
fi

echo "== no run-time binary hashing (no Digest.file in lib/ or bin/) =="
if grep -rn --include='*.ml' --include='*.mli' 'Digest\.file' lib bin; then
  echo "binary hashed at run time (use Cmo_buildid.id, fixed at build time)"
  exit 1
fi

echo "== pipeline stage length (top-level definitions <= 150 lines) =="
# A definition runs from its column-0 let/and to the last non-blank line
# before the next column-0 item.
awk '
  function close_def() {
    if (name != "" && last - start + 1 > 150) {
      printf "%s:%d: %s spans %d lines (limit 150)\n", FILENAME, start, name,
        last - start + 1
      bad = 1
    }
    name = ""
  }
  /^(let|and)[ \t]/ {
    close_def(); name = ($2 == "rec") ? $3 : $2; start = NR; last = NR; next
  }
  /^[^ \t]/ { close_def(); next }
  /[^ \t]/ { last = NR }
  END { close_def(); exit bad }
' lib/driver/pipeline.ml

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

echo "== analysis-oracle property (fixed seed, 10x cases) =="
CMO_FUZZ_SEED=1 QCHECK_LONG=1 dune exec test/test_main.exe -- test analyses

echo "== transform-oracle property (fixed seed, 10x cases) =="
CMO_FUZZ_SEED=1 QCHECK_LONG=1 dune exec test/test_main.exe -- test xforms

echo "== codec-oracle property (fixed seed, 10x cases) =="
CMO_FUZZ_SEED=1 QCHECK_LONG=1 dune exec test/test_main.exe -- test codec

echo "== vm-oracle property (fixed seed, 10x cases) =="
CMO_FUZZ_SEED=1 QCHECK_LONG=1 dune exec test/test_main.exe -- test vm

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

# Version skew: a cmoc reporting another build identity in its
# greeting is refused by name, with exit status 1, and the daemon
# keeps serving the next plain request byte-identically.
set +e
CMO_WORKER_FP=deadbeef "$CMOC" compile -O 4 --remote --socket "$SOCK" \
  "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/skew.out" 2>&1
SKEW_STATUS=$?
set -e
if [ "$SKEW_STATUS" -ne 1 ] || ! grep -q "build identity deadbeef" "$SMOKE_DIR/skew.out"; then
  echo "daemon smoke: skewed cmoc not refused by build identity (status $SKEW_STATUS):"
  cat "$SMOKE_DIR/skew.out"
  exit 1
fi
"$CMOC" compile -O 4 -j 1 --remote --socket "$SOCK" --run --input 64,3 \
  "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/after-skew.out"
cmp "$SMOKE_DIR/local.out" "$SMOKE_DIR/after-skew.out"

# The request carries the profile and every build option: profiled
# remote builds, with and without selectivity, print exactly what the
# same local commands print, linker map included.
"$CMOC" train -o "$SMOKE_DIR/app.prof" --input 64,3 "$SMOKE_DIR"/src/*.mc \
  > /dev/null
for SEL in "" "--select 10"; do
  "$CMOC" compile -O 4 -P --profile "$SMOKE_DIR/app.prof" $SEL --map --run \
    --input 64,3 "$SMOKE_DIR"/src/*.mc > "$SMOKE_DIR/pbo-local.out"
  "$CMOC" compile -O 4 -P --profile "$SMOKE_DIR/app.prof" $SEL --map --run \
    --input 64,3 --remote --socket "$SOCK" "$SMOKE_DIR"/src/*.mc \
    > "$SMOKE_DIR/pbo-remote.out"
  cmp "$SMOKE_DIR/pbo-local.out" "$SMOKE_DIR/pbo-remote.out" || {
    echo "daemon smoke: remote -P --profile $SEL differs from local"
    exit 1
  }
done

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
# The plain fleet flow first: push and pull without --cohort go to the
# default cohort "fleet", and the pull must be byte-identical to a
# local ingest of the same pack.  Then two A/B arms with a planted
# full-rank divergence, three more cohorts on the live daemon: stable
# (arm A), canary (the divergent arm B), and canary-same (arm A
# again).  The listing must show all four; the diff against canary
# must report a FLIP and --fail-on-flip must turn it into a nonzero
# exit; the diff against canary-same must report no-flip; and a
# daemon-side cohort pull must be byte-identical to a local ingest of
# the same shards.  After shutdown the same diff and listing, answered
# offline from the daemon's --state-dir, must be byte-identical to the
# daemon's answers.
unset CMO_COHORT
"$CMOC" profile ab --profile "$PROF_DIR/app.prof" --divergence 1.0 \
  --users 30 -a "$PROF_DIR/armA.shards" -b "$PROF_DIR/armB.shards" \
  "$PROF_DIR"/src/*.mc > /dev/null
CSOCK="$PROF_DIR/cmocd.sock"
"$CMOCD" --socket "$CSOCK" --state-dir "$PROF_DIR/state" -j 2 &
COHORT_PID=$!
i=0
while [ ! -S "$CSOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$CSOCK" ] || { echo "cmocd (cohort) never came up"; exit 1; }
"$CMOC" profile push --socket "$CSOCK" "$PROF_DIR/fleetA.shards" \
  > "$PROF_DIR/push.out"
grep -q "^cohort fleet holds" "$PROF_DIR/push.out" || {
  echo "canary smoke: push did not land in the fleet cohort"
  cat "$PROF_DIR/push.out"
  exit 1
}
"$CMOC" profile pull -o "$PROF_DIR/fleet-pulled.prof" --fp "$FP" \
  --socket "$CSOCK" > /dev/null
cmp "$PROF_DIR/fleet-pulled.prof" "$PROF_DIR/fleetA.prof" || {
  echo "canary smoke: default-cohort pull diverged from a local ingest"
  exit 1
}
"$CMOC" profile cohort create stable --socket "$CSOCK"
"$CMOC" profile cohort ingest stable "$PROF_DIR/armA.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort ingest canary "$PROF_DIR/armB.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort ingest canary-same "$PROF_DIR/armA.shards" \
  --socket "$CSOCK"
"$CMOC" profile cohort list --socket "$CSOCK" > "$PROF_DIR/cohorts.out"
for name in fleet stable canary canary-same; do
  grep -q "^$name " "$PROF_DIR/cohorts.out" || {
    echo "canary smoke: cohort $name missing from the listing"
    exit 1
  }
done
"$CMOC" profile cohort diff stable canary --socket "$CSOCK" \
  --report-json "$PROF_DIR/flip.json" "$PROF_DIR"/src/*.mc \
  > "$PROF_DIR/flip.out"
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
"$CMOC" profile cohort diff stable canary --state-dir "$PROF_DIR/state" \
  --report-json "$PROF_DIR/flip-offline.json" "$PROF_DIR"/src/*.mc \
  > "$PROF_DIR/flip-offline.out"
"$CMOC" profile cohort list --state-dir "$PROF_DIR/state" \
  > "$PROF_DIR/cohorts-offline.out"
for pair in flip.out:flip-offline.out flip.json:flip-offline.json \
  cohorts.out:cohorts-offline.out; do
  cmp "$PROF_DIR/${pair%%:*}" "$PROF_DIR/${pair#*:}" || {
    echo "canary smoke: offline ${pair#*:} differs from the daemon's answer"
    exit 1
  }
done
echo "canary smoke OK"

echo "== cmoc failures exit 1 with a message =="
# A corrupt and an empty profile database, and a train whose output
# directory does not exist: each must exit with status 1 and a
# one-line message, never as an uncaught exception ("internal error",
# status 125).
printf 'garbage' > "$PROF_DIR/corrupt.prof"
: > "$PROF_DIR/empty.prof"
expect_error() {
  status=0
  "$CMOC" "$@" > /dev/null 2> "$PROF_DIR/err.out" || status=$?
  if [ "$status" -ne 1 ] || grep -q "internal error" "$PROF_DIR/err.out"; then
    echo "cmoc $*: exit status $status, stderr:"
    cat "$PROF_DIR/err.out"
    exit 1
  fi
}
expect_error profile-show "$PROF_DIR/corrupt.prof"
expect_error profile-show "$PROF_DIR/empty.prof"
expect_error train -o "$PROF_DIR/no/such/dir/app.prof" --input 1000,17 \
  "$PROF_DIR"/src/*.mc
echo "error exits OK"

echo "== cmoc build runs the stages cmoc compile runs =="
# At -O 1 -P, -O 2 -P and -O 4 -P with a profile, a workspace build
# must run to the exit value and cycle count of a one-shot compile.
# So must a -O 2 -P build in a workspace a -O 1 build left objects in:
# objects are a cache, never reused across options.  Two sources with
# one module name must exit 1 with a message.
exit_cycles() { grep -o '^exit: [-0-9]*  ([0-9]* cycles' "$1" || true; }
same_run() {
  want=$(exit_cycles "$PROF_DIR/compile.out")
  got=$(exit_cycles "$PROF_DIR/build.out")
  if [ -z "$want" ] || [ "$want" != "$got" ]; then
    echo "build vs compile ($1): compile '$want', build '$got'"
    exit 1
  fi
}
for LEVEL in 1 2 4; do
  rm -rf "$PROF_DIR/ws" && mkdir "$PROF_DIR/ws"
  "$CMOC" compile -O "$LEVEL" -P --profile "$PROF_DIR/app.prof" --run \
    --input 1000,17 "$PROF_DIR"/src/*.mc > "$PROF_DIR/compile.out"
  "$CMOC" build -O "$LEVEL" -P --profile "$PROF_DIR/app.prof" \
    --dir "$PROF_DIR/ws" --run --input 1000,17 "$PROF_DIR"/src/*.mc \
    > "$PROF_DIR/build.out"
  same_run "-O $LEVEL -P"
done
rm -rf "$PROF_DIR/ws" && mkdir "$PROF_DIR/ws"
"$CMOC" build -O 1 --dir "$PROF_DIR/ws" "$PROF_DIR"/src/*.mc > /dev/null
"$CMOC" build -O 2 -P --profile "$PROF_DIR/app.prof" --dir "$PROF_DIR/ws" \
  --run --input 1000,17 "$PROF_DIR"/src/*.mc > "$PROF_DIR/build.out"
"$CMOC" compile -O 2 -P --profile "$PROF_DIR/app.prof" --run \
  --input 1000,17 "$PROF_DIR"/src/*.mc > "$PROF_DIR/compile.out"
same_run "-O 1, then -O 2 -P in the same --dir"
mkdir -p "$PROF_DIR/dup"
cp "$PROF_DIR/src/m000.mc" "$PROF_DIR/dup/"
expect_error build -O 4 --dir "$PROF_DIR/ws" "$PROF_DIR"/src/*.mc \
  "$PROF_DIR/dup/m000.mc"
grep -q "duplicate module name m000" "$PROF_DIR/err.out" || {
  echo "cmoc build: duplicate module not named in the error"
  cat "$PROF_DIR/err.out"
  exit 1
}
echo "build equals compile OK"

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
# every module artifact to the daemon; a planned kill destroys one
# worker mid-protocol and the build must degrade invisibly.
CMO_FAULT=kill@4 "$CMOC" build -O 4 -j 2 --dist --socket "$DSOCK" \
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
# matches the oracle's, planned kill and all; so does the VM outcome.
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
# $CMO_FAULT partition mid-protocol and must degrade invisibly
# to in-process recompute, reporting the injection.  Every object
# file of both fleet builds must match a never-distributed local
# oracle byte for byte, and tearing the workers down must leave no
# stray processes.
CMOC_WORKER=_build/default/bin/cmoc_worker.exe
# All three tools of one tree embed one build identity: the one a
# parent or a daemon expects is the one every worker and client reports.
CMOC_ID=$("$CMOC" --version | grep -o '[0-9a-f]\{32\}')
WORKER_ID=$("$CMOC_WORKER" --version | grep -o '[0-9a-f]\{32\}')
CMOCD_ID=$("$CMOCD" --version | grep -o '[0-9a-f]\{32\}')
if [ -z "$CMOC_ID" ] || [ "$CMOC_ID" != "$WORKER_ID" ] \
  || [ "$CMOC_ID" != "$CMOCD_ID" ]; then
  echo "fleet smoke: build identities differ: cmoc '$CMOC_ID'," \
    "cmoc-worker '$WORKER_ID', cmocd '$CMOCD_ID'"
  exit 1
fi
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
  mkdir -p "$FLEET_DIR/co1/out"
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
CMO_FAULT=partition@5 "$CMOC" build -O 4 -j 2 --dist \
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

# Width: at -j 1 the fleet still keeps one partition job in flight per
# endpoint.  This program has two independent components (main's, and
# an exported library coupled by a global), so two jobs run at once:
# the report counts both endpoints and the run prints what a local
# build prints.
mkdir -p "$FLEET_DIR/wide"
printf 'func main() { var s = 0; var i = 0; while (i < 40) { s = s + mix(i, s); i = i + 1; } print(s); return s & 255; }\n' \
  > "$FLEET_DIR/wide/wa.mc"
printf 'static func twist(v) { return v * 5 + 1; }\nfunc mix(x, seed) { return (seed / 3) + twist(x); }\n' \
  > "$FLEET_DIR/wide/wb.mc"
printf 'extern global tally;\nfunc report(v) { tally = tally + pack(v); return tally; }\n' \
  > "$FLEET_DIR/wide/wc.mc"
printf 'global tally = 0;\nfunc pack(v) { return v * 7; }\n' \
  > "$FLEET_DIR/wide/wd.mc"
"$CMOC" compile -O 4 -j 1 --run "$FLEET_DIR"/wide/*.mc \
  > "$FLEET_DIR/wide.oracle"
"$CMOC" compile -O 4 -j 1 --workers "$W1,$W2" \
  --report-json "$FLEET_DIR/wide.json" --run "$FLEET_DIR"/wide/*.mc \
  > "$FLEET_DIR/wide.out"
cmp "$FLEET_DIR/wide.oracle" "$FLEET_DIR/wide.out"
grep -q '"workers_used":2' "$FLEET_DIR/wide.json" || {
  echo "fleet smoke: a -j 1 build on two endpoints did not run two jobs at once"
  exit 1
}

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
