#!/usr/bin/env python3
"""End-to-end benchmark of the cmoc toolchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the three binaries
(cmoc, cmocd, cmoc-worker) with dune, generates MiniC programs from the
seed, drives the binaries as a user would for S seconds, checks every
program output against an independent Python evaluation of the same
program (perfbench/minic.py), and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The programs take their shape from the compiler's own workload
personalities (lib/workload/suite.ml, copied into minic.PERSONALITIES)
and run on each personality's training input, which PBO trains on too.

With --trace 0 the metrics are the end-to-end ones, over every build
of the run (a build is a compile plus a run of the program):

  norm_median_ms  median build latency
  norm_p75_ms     75th percentile of build latency: one fixed
                  percentile for every workload, the highest that keeps
                  at least ten builds beyond it in each (cold makes the
                  fewest, about forty-five in thirty seconds)
  setup_s         median time to bring the workload up (see below)

All three are scaled to nominal host speed by a reference job timed
between builds (see REF_NOMINAL_S).

With --trace 1 every build also asks the compiler for its per-phase
report and Obs counters, and the metrics are per layer: the number of
builds (the sample count behind the end-to-end figures), raw
latencies, the reference time, and phase times and work counts (for
each item, a program's build or a storm step, its fastest repeat; then
the mean over items).  The benchmark's own spans around each call into
the toolchain are written to perfbench/out/.

Workloads (closed loop, one client: a slower build means fewer builds,
never a queue).  Build cost varies more from program to program than
from run to run, so each workload cycles through many programs:

  cold   one-shot +O4 +P (CMO+PBO) builds of programs shaped as mcad1
         at a quarter of its modules (55), with nothing cached and
         machine memory scaled to match (6 MB), so NAIM compacts IR and
         symbol tables and offloads to its repository.  Set-up is PBO
         training (an instrumented build plus the training run).
  storm  16-step edit storms against a cmocd daemon on programs of the
         storm personality (the repository's build-server load): each
         request edits one module (a drifting working set; a quarter of
         the edits are undos) and rebuilds remotely, so the daemon's
         store serves what the edit left unchanged.  Each storm runs on
         a fresh daemon.  Set-up is daemon start plus the first, cold
         build.
  dist   +O4 builds of programs of four li-shaped shards placed on a
         fleet of two `cmoc-worker --listen` TCP endpoints.  Set-up is
         fleet start plus the first build.
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import minic  # noqa: E402

CALL_TIMEOUT_S = 60


class SetupError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- benchmark-side spans ---------------------------------------------


class Spans:
    """Spans recorded by the benchmark around each call into the
    toolchain, kept in memory and written as a Chrome trace at exit."""

    def __init__(self, on):
        self.on = on
        self.events = []
        self.stack = []
        self.t0 = time.perf_counter()
        self.next_id = 1

    @contextlib.contextmanager
    def span(self, name, **args):
        if not self.on:
            yield
            return
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": dict(args, id=sid, parent=parent),
            })

    def write(self, path):
        if not self.on:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


# --- toolchain ----------------------------------------------------------


class Toolchain:
    def __init__(self, root, work, spans):
        bindir = os.path.join(root, "_build", "default", "bin")
        self.cmoc = os.path.join(bindir, "cmoc.exe")
        self.cmocd = os.path.join(bindir, "cmocd.exe")
        self.worker = os.path.join(bindir, "cmoc_worker.exe")
        self.work = work
        self.spans = spans
        # The benchmark fixes every knob itself: no fault plan, trace
        # path or worker fleet leaks in from the caller's environment.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CMO_")}
        self.procs = []

    def run(self, name, args):
        """Run cmoc; (wall seconds, stdout).  Raises on failure."""
        with self.spans.span(name):
            t = time.perf_counter()
            r = subprocess.run([self.cmoc] + args, capture_output=True, text=True,
                               env=self.env, timeout=CALL_TIMEOUT_S, cwd=self.work)
            wall = time.perf_counter() - t
        if r.returncode != 0:
            raise RuntimeError(f"cmoc {args[0]} exited {r.returncode}: {r.stderr.strip()[:400]}")
        return wall, r.stdout

    def spawn(self, args, ready):
        """Start a long-lived process and wait until `ready(log)` holds
        for what it has printed so far."""
        log_path = os.path.join(self.work, f"proc-{time.monotonic_ns()}.log")
        with open(log_path, "w") as log_file:
            p = subprocess.Popen(args, stdout=log_file, stderr=subprocess.STDOUT,
                                 env=self.env, cwd=self.work)
        self.procs.append(p)
        deadline = time.monotonic() + 30
        while True:
            with open(log_path) as f:
                printed = f.read()
            if ready(printed):
                return p
            if p.poll() is not None:
                self.procs.remove(p)
                raise SetupError(f"{os.path.basename(args[0])} exited {p.returncode}: {printed[:400]}")
            if time.monotonic() > deadline:
                raise SetupError(f"{os.path.basename(args[0])} not ready after 30 s")
            time.sleep(0.001)

    def stop(self, p):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs.remove(p)

    def stop_all(self):
        for p in list(self.procs):
            self.stop(p)


def parse_run(stdout):
    """Printed values, return value and cycle count of a `--run`."""
    values, ret, cycles = [], None, None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("exit:"):
            parts = line.split()
            ret = int(parts[1])
            cycles = int(parts[2].lstrip("("))
        elif line.lstrip("-").isdigit():
            values.append(int(line))
    return values, ret, cycles


def write_sources(directory, modules):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for m in modules:
        path = os.path.join(directory, m.name + ".mc")
        with open(path, "w") as f:
            f.write(m.text())
        paths.append(path)
    return paths


# --- per-layer sample from one build's report ---------------------------


def layer_sample(report, counters, latency_s):
    """Per-layer figures of one build: phase times from its report,
    work counts from the report and the Obs counters it ran up."""
    wall = report.get("wall_seconds", {})
    cpu = report.get("cpu_seconds", {})
    hlo = report.get("hlo") or {}
    llo = report.get("llo") or {}
    loader = report.get("loader") or {}
    cache = report.get("cache") or {}
    phases = wall.get("phases", 0.0) + cpu.get("link", 0.0)
    return {
        "frontend_ms": wall.get("frontend", 0.0) * 1e3,
        "hlo_ms": wall.get("hlo", 0.0) * 1e3,
        "llo_ms": wall.get("llo", 0.0) * 1e3,
        "link_ms": cpu.get("link", 0.0) * 1e3,
        "outside_phases_ms": max(0.0, latency_s - phases) * 1e3,
        "par_speedup": report.get("par_speedup", 1.0),
        "workers_used": report.get("workers_used", 0),
        "hlo_inline_ops": hlo.get("inline_operations") or 0,
        "hlo_rewrites": hlo.get("rewrites", 0),
        "hlo_funcs_optimized": hlo.get("funcs_optimized", 0),
        "llo_mach_instrs": llo.get("mach_instrs", 0),
        "llo_spilled_vregs": llo.get("spilled_vregs", 0),
        "naim_peak_kb": report.get("memory", {}).get("peak", 0) / 1024.0,
        "naim_acquires": loader.get("acquires", 0),
        "naim_compactions": loader.get("compactions", 0),
        "naim_symtab_compactions": loader.get("symtab_compactions", 0),
        "naim_offloads": loader.get("offloads", 0),
        "naim_uncompactions": loader.get("uncompactions", 0),
        "naim_repo_loads": loader.get("repo_loads", 0),
        "module_cache_hits": cache.get("hits", 0),
        "cmo_reoptimized": len(cache.get("cmo_reoptimized", [])),
        "phase_cache_hits": counters.get("cache.store/hits", 0),
        "phase_cache_misses": counters.get("cache.store/misses", 0),
        "store_kb": counters.get("cache.store/store_bytes", 0) / 1024.0,
    }


LAYER_UNITS = {
    "frontend_ms": "ms", "hlo_ms": "ms", "llo_ms": "ms",
    "link_ms": "ms", "outside_phases_ms": "ms", "par_speedup": "x",
    "workers_used": "count", "hlo_inline_ops": "count", "hlo_rewrites": "count",
    "hlo_funcs_optimized": "count", "llo_mach_instrs": "count",
    "llo_spilled_vregs": "count", "naim_peak_kb": "KiB", "naim_acquires": "count",
    "naim_compactions": "count", "naim_symtab_compactions": "count",
    "naim_offloads": "count", "naim_uncompactions": "count", "naim_repo_loads": "count",
    "module_cache_hits": "count", "cmo_reoptimized": "count",
    "phase_cache_hits": "count", "phase_cache_misses": "count", "store_kb": "KiB",
}


def report_counters(report):
    return (report.get("trace") or {}).get("counters", {})


# --- a measured session ---------------------------------------------------


def mean_of_fastest(by_item):
    """Mean over items of each item's fastest repeat."""
    return statistics.fmean(min(v) for v in by_item.values())


def percentile(values, p):
    """The order statistic at fraction `p` of the sorted values."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


# Host-speed reference: perfbench/refjob.ml, a fixed allocation-heavy
# OCaml job independent of the code under test, timed (spawn included,
# as a build's is) every REF_EVERY_S of the run.  A shared host's speed
# drifts by tens of percent over seconds to minutes as other tenants
# come and go, and a zlib or Python job tracks a build's slowdowns far
# less closely than an OCaml one.  Each build and set-up is scaled by
# REF_NOMINAL_S, a fixed constant near the job's time on a quiet 2-core
# x86-64 host, over the mean of the references timed just before and
# just after it.
REF_ROUNDS = 25000
REF_NOMINAL_S = 0.035
REF_EVERY_S = 0.5


def build_reference():
    """Compile refjob.ml under perfbench/.build (once per checkout)."""
    ocamlopt = shutil.which("ocamlopt")
    if ocamlopt is None:
        raise SetupError("ocamlopt not found on PATH")
    out = os.path.join(HERE, ".build")
    exe = os.path.join(out, "refjob.exe")
    src = os.path.join(HERE, "refjob.ml")
    if os.path.exists(exe) and os.path.getmtime(exe) >= os.path.getmtime(src):
        return exe
    os.makedirs(out, exist_ok=True)
    shutil.copy(src, os.path.join(out, "refjob.ml"))
    r = subprocess.run([ocamlopt, "refjob.ml", "-o", "refjob.exe"], cwd=out,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SetupError(f"ocamlopt refjob.ml exited {r.returncode}")
    return exe


class Session:
    """The builds of one run, keyed by item: the same work (a program's
    build, a storm step) repeated until the run's time is up."""

    def __init__(self, tc, trace, seconds, ref_exe):
        self.tc = tc
        self.trace = trace
        self.deadline = time.perf_counter() + seconds
        self.walls = {}
        self.layers = {}
        self.cycles = {}
        self.attempted = 0
        self.failed = 0
        self.setup = []  # (seconds, index of the reference before)
        self.timed = []  # every build's (seconds, index of the reference before)
        self.refs = []
        self.last_ref = None
        self.ref_exe = ref_exe
        self.pending = []  # (item, stdout, expected thunk), checked after the clock stops
        # A daemon's Obs counters run up over its life; per-request
        # figures are differences from the previous reply's.
        self.counters_base = None

    def expired(self):
        """Time is up (never before the first build)."""
        return self.attempted > 0 and time.perf_counter() >= self.deadline

    def reference(self, force=False):
        """Time the reference job if REF_EVERY_S has passed since it
        last ran; the index of the latest reference."""
        now = time.perf_counter()
        if force or self.last_ref is None or now - self.last_ref >= REF_EVERY_S:
            with self.tc.spans.span("reference"):
                # Output goes to a pipe, so the wait ends at the job's
                # exit; without one, subprocess polls for it with
                # doubling sleeps and the time reads in steps.
                t = time.perf_counter()
                subprocess.run([self.ref_exe, str(REF_ROUNDS)], capture_output=True,
                               check=True, timeout=CALL_TIMEOUT_S)
                self.refs.append(time.perf_counter() - t)
            self.last_ref = time.perf_counter()
        return len(self.refs) - 1

    def normalized(self, samples):
        """`samples` of (seconds, reference index) at nominal host speed."""
        last = len(self.refs) - 1
        return [w * 2 * REF_NOMINAL_S / (self.refs[i] + self.refs[min(i + 1, last)])
                for w, i in samples]

    def build(self, item, args, check):
        """One measured build-and-run of `item`.  `check` returns the
        expected (values, ret); it runs after the timed loop."""
        ref = self.reference()
        self.attempted += 1
        report_path = os.path.join(self.tc.work, "report.json")
        if self.trace:
            args = args + ["--report-json", report_path,
                           "--trace", os.path.join(self.tc.work, "obs.json")]
        try:
            wall, out = self.tc.run(item, args)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            log(f"{item} failed: {e}")
            self.failed += 1
            return
        self.walls.setdefault(item, []).append(wall)
        self.timed.append((wall, ref))
        if self.trace:
            with open(report_path) as f:
                report = json.load(f)
            counters = report_counters(report)
            if self.counters_base is not None:
                base, self.counters_base = self.counters_base, counters
                counters = {k: v - base.get(k, 0) for k, v in counters.items()}
            self.layers.setdefault(item, []).append(layer_sample(report, counters, wall))
        self.pending.append((item, out, check))

    def timed_setup(self, thunk):
        ref = self.reference()
        t = time.perf_counter()
        with self.tc.spans.span("setup"):
            r = thunk()
        self.setup.append((time.perf_counter() - t, ref))
        return r

    def verify(self):
        memo = {}
        for item, out, check in self.pending:
            values, ret, cycles = parse_run(out)
            if id(check) not in memo:
                with self.tc.spans.span("oracle"):
                    memo[id(check)] = check()
            if (values, ret) != memo[id(check)]:
                log(f"{item}: wrong output {values} exit {ret}, expected {memo[id(check)]}")
                self.failed += 1
            else:
                self.cycles[item] = cycles
        self.pending = []

    def result(self):
        every = [w for w, _ in self.timed] or [0.0]
        if self.trace:
            metrics = {name: {"value": mean_of_fastest(
                           {k: [x[name] for x in v] for k, v in self.layers.items()})
                           if self.layers else 0.0, "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
            metrics["builds"] = {"value": len(every), "unit": "count"}
            metrics["fastest_ms"] = {"value": mean_of_fastest(self.walls) * 1e3
                                     if self.walls else 0.0, "unit": "ms"}
            metrics["latency_median_ms"] = {"value": statistics.median(every) * 1e3, "unit": "ms"}
            metrics["latency_p75_ms"] = {"value": percentile(every, 0.75) * 1e3, "unit": "ms"}
            metrics["ref_ms"] = {"value": statistics.median(self.refs) * 1e3, "unit": "ms"}
            samples = [x for v in self.layers.values() for x in v]
            hits = sum(x["phase_cache_hits"] for x in samples)
            misses = sum(x["phase_cache_misses"] for x in samples)
            metrics["phase_cache_hit_ratio"] = {
                "value": hits / (hits + misses) if hits + misses else 0.0, "unit": "ratio"}
            metrics["vm_kcycles"] = {"value": statistics.fmean(self.cycles.values()) / 1e3
                                     if self.cycles else 0.0, "unit": "kcycles"}
        else:
            norm = self.normalized(self.timed) or [0.0]
            metrics = {
                "norm_median_ms": {"value": statistics.median(norm) * 1e3, "unit": "ms"},
                "norm_p75_ms": {"value": percentile(norm, 0.75) * 1e3, "unit": "ms"},
                "setup_s": {"value": statistics.median(self.normalized(self.setup)), "unit": "s"},
            }
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


# --- workloads --------------------------------------------------------------


# Every build runs the program on its personality's training input, so
# the build, not the run, is most of the latency; PBO trains on the
# same input.
def run_input(cfg):
    return ",".join(map(str, cfg.training_input()))


def run_args(cfg):
    return ["--run", "--input", run_input(cfg)]


def oracle(cfg, modules):
    return lambda: minic.expected(modules, cfg.training_input())


# cold: mcad1 at a quarter of its modules.  Machine memory is scaled
# with it: the full mcad1 peaks near 69 MB against the 24 MB machine
# the repository's NAIM figure uses; the quarter peaks near 17.5 MB,
# and 6 MB puts it past every NAIM threshold.
COLD_SCALE = 0.25
COLD_MACHINE_MB = 6
COLD_PROGRAMS = 32


def workload_cold(s, tc, seed):
    cfg = minic.PERSONALITIES["mcad1"].scale(COLD_SCALE)
    build_args = ["-O", "4", "-P", "--machine-mb", str(COLD_MACHINE_MB)] + run_args(cfg)

    # Program after program (cycling through COLD_PROGRAMS of them, each
    # written when first used) goes through the whole PBO cycle:
    # training (set-up), then a one-shot +O4 +P build with nothing
    # cached.  Many programs, because build cost varies from program to
    # program far more than from run to run.  One-shot, because `cmoc
    # build` fsyncs every object file, and shared-disk fsync latency
    # would drown the compiler's own cost; the store's I/O is measured
    # by the storm workload instead.
    progs = {}
    k = 0
    while not s.expired():
        j = k % COLD_PROGRAMS
        if j not in progs:
            mods = minic.Program(cfg, seed * 1000 + j).sources()
            progs[j] = (write_sources(os.path.join(tc.work, f"p{j}"), mods),
                        oracle(cfg, mods), os.path.join(tc.work, f"p{j}.prof"))
        files, check, prof = progs[j]
        s.timed_setup(lambda: tc.run("train", ["train"] + files + ["-o", prof, "--input", run_input(cfg)]))
        s.build(f"program{j}", ["compile"] + files + ["--profile", prof] + build_args, check)
        k += 1


STORM_STEPS = 16
STORM_PROGRAMS = 32


def storm_steps(modules, seed):
    """The edit storm, as Genprog.storm makes it: STORM_STEPS (module,
    version) edits, one module per step from a working set of up to
    three that drifts every eight steps; a quarter of the steps undo
    the module's last edit."""
    rng = random.Random(f"storm/{seed}")
    ws_size = max(1, min(3, modules // 2))
    version = [0] * modules
    previous = [0] * modules
    fresh = [1] * modules
    base = 0
    steps = []
    for step in range(1, STORM_STEPS + 1):
        if step % 8 == 0:
            base = (base + 1) % modules
        m = (base + rng.randrange(ws_size)) % modules
        if rng.randrange(100) < 25 and version[m] != previous[m]:
            version[m], previous[m] = previous[m], version[m]
        else:
            previous[m] = version[m]
            version[m] = fresh[m]
            fresh[m] += 1
        steps.append((m, version[m]))
    return steps


def workload_storm(s, tc, seed):
    cfg = minic.PERSONALITIES["storm"]
    storms = [(minic.Program(cfg, seed * 1000 + j), storm_steps(cfg.modules, seed * 1000 + j))
              for j in range(STORM_PROGRAMS)]
    checks = {}

    # Round k replays storm k % STORM_PROGRAMS against a fresh daemon,
    # so a storm's step i repeats the same work every time it comes up.
    k = 0
    while not s.expired():
        j = k % STORM_PROGRAMS
        prog, steps = storms[j]
        prog.versions.clear()
        src = os.path.join(tc.work, f"src{j}")
        files = write_sources(src, prog.sources())
        sock = os.path.join(tc.work, f"d{k}.sock")
        state = os.path.join(tc.work, f"state{k}")
        args = [tc.cmocd, "--socket", sock, "--state-dir", state]
        if s.trace:
            args += ["--trace", os.path.join(tc.work, "cmocd-obs.json")]
        report = os.path.join(tc.work, "first-report.json")
        remote = ["-O", "4", "--remote", "--socket", sock]

        def setup():
            daemon = tc.spawn(args, lambda printed: "cmocd: listening" in printed)
            tc.run("first-build", ["compile"] + files + remote + ["--report-json", report])
            return daemon

        daemon = s.timed_setup(setup)
        with open(report) as f:
            s.counters_base = report_counters(json.load(f))
        for i, (m, v) in enumerate(steps):
            prog.edit(0, m, v)
            write_sources(src, [prog.groups[0].module(m, v)])
            key = (j,) + tuple(sorted(prog.versions.items()))
            if key not in checks:
                checks[key] = lambda prog=prog, v=dict(prog.versions): minic.expected(
                    prog.sources(v), cfg.training_input())
            s.build(f"storm{j}-step{i}", ["compile"] + files + remote + run_args(cfg), checks[key])
            if s.expired():
                break
        tc.stop(daemon)
        shutil.rmtree(state, ignore_errors=True)
        k += 1


DIST_SHARDS = 4
DIST_PROGRAMS = 32
DIST_BUILDS_PER_FLEET = 16


def workload_dist(s, tc, seed):
    # Programs of four li-shaped shards; program k's main drives shard
    # k % 4 only, so each build optimizes four independent components
    # (main joins the one it calls) and runs, hence checks, one shard.
    # As in cold, many programs (each written when first used), because
    # build cost varies from program to program.
    cfg = minic.PERSONALITIES["li"]
    progs = {}

    def program(k):
        j = k % DIST_PROGRAMS
        if j not in progs:
            mods = minic.Program(cfg, seed * 1000 + j, groups=DIST_SHARDS,
                                 drive=[j % DIST_SHARDS]).sources()
            progs[j] = (j, write_sources(os.path.join(tc.work, f"p{j}"), mods), oracle(cfg, mods))
        return progs[j]

    # Each round starts a two-worker fleet, builds its first program
    # once to bring it up (set-up), then builds the next programs on it.
    k = 0
    rnd = 0
    while not s.expired():
        ports = [os.path.join(tc.work, f"port{rnd}-{w}") for w in range(2)]

        def setup():
            fleet = [tc.spawn([tc.worker, "--listen", "127.0.0.1:0", "--port-file", pf],
                              lambda _, pf=pf: os.path.exists(pf) and os.path.getsize(pf) > 0)
                     for pf in ports]
            endpoints = []
            for pf in ports:
                with open(pf) as f:
                    endpoints.append("127.0.0.1:" + f.read().strip())
            dist = ["-O", "4", "-j", "1", "--workers", ",".join(endpoints)]
            tc.run("first-build", ["compile"] + program(k)[1] + dist)
            return fleet, dist

        fleet, dist = s.timed_setup(setup)
        for _ in range(DIST_BUILDS_PER_FLEET):
            j, files, check = program(k)
            s.build(f"program{j}", ["compile"] + files + dist + run_args(cfg), check)
            k += 1
            if s.expired():
                break
        for p in fleet:
            tc.stop(p)
        rnd += 1


WORKLOADS = {"cold": workload_cold, "storm": workload_storm, "dist": workload_dist}


# --- main ---------------------------------------------------------------------


def build_toolchain(root):
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isfile(os.path.join(root, "bin", "cmoc.ml"))):
        raise SetupError(f"{root} is not a checkout of the cmoc sources")
    dune = shutil.which("dune")
    if dune is None:
        raise SetupError("dune not found on PATH")
    r = subprocess.run([dune, "build", "--root", root, "bin/cmoc.exe", "bin/cmocd.exe",
                        "bin/cmoc_worker.exe"], stdout=sys.stderr, stderr=sys.stderr, cwd=root)
    if r.returncode != 0:
        raise SetupError(f"dune build exited {r.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    root = os.getcwd()
    trace = a.trace == 1
    spans = Spans(trace)
    work = os.path.join(HERE, ".work", f"{a.workload}-{a.seed}-{os.getpid()}")
    tc = None
    try:
        with spans.span("dune-build"):
            build_toolchain(root)
            ref_exe = build_reference()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        tc = Toolchain(root, work, spans)
        s = Session(tc, trace, a.seconds, ref_exe)
        with spans.span(a.workload, seed=a.seed):
            WORKLOADS[a.workload](s, tc, a.seed)
            s.reference(force=True)
        tc.stop_all()
        s.verify()
        result = s.result()
        every = [w for w, _ in s.timed]
        log(f"{len(every)} builds, {len(s.setup)} set-ups; raw median "
            f"{statistics.median(every) * 1e3:.2f} ms, p75 {percentile(every, 0.75) * 1e3:.2f} ms; "
            f"reference median {statistics.median(s.refs) * 1e3:.2f} ms over {len(s.refs)}")
    except (SetupError, RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(f"error: {e}")
        return 1
    finally:
        if tc:
            tc.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    spans.write(os.path.join(HERE, "out", f"trace-{a.workload}-{a.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
