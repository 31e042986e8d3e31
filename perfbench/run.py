#!/usr/bin/env python3
"""KaGen benchmark: whole-graph runs of example_kagen_tool, checked with cmp.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--out FILE]

Builds example_kagen_tool, the layer probe perf_ledger, the launcher
perf_spawn and the yardstick perf_yardstick from the sources of the
checkout it sits in (Release, into .bench_build/), then runs one workload
(see WORKLOADS and perfbench/README.md) in a scratch directory under
.bench_work/ that also serves as TMPDIR, so outputs, spill files and rank
files stay inside the checkout.

--trace 0 measures what a user of the tool sees: for --seconds seconds it
times whole invocations, each just after a run of the fixed yardstick
kernel, and reports the edge rate and CPU per edge relative to the
yardstick's (rel_edge_rate, rel_cpu_per_edge), peak_rss_mb and setup_s.
--trace 1 reports the per-layer metrics: it runs the workload with
-trace/-metrics and runs perf_ledger on the workload's graph.

Every output is checked outside the timed window: it must be byte-identical
to a reference made by the direct-streaming path (-pes 1, same -chunks),
its header must equal the printed edge count, its size must be 8 + 16 per
edge, and G(n,m) outputs must hold exactly m edges. The last line of
standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Any failed invocation or check makes the exit code 1; a missing build
input, a failed build or a failed reference makes it 2, with no result line.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from trace_report import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_work"

# The largest workload keeps about 1.2 GB on disk at once (reference, one
# rep's output, spill and the ledger's files).
MIN_FREE_BYTES = 3 << 30
INVOCATION_TIMEOUT_S = 120
LEDGER_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840
STOP_GRACE_S = 10       # SIGTERM to SIGKILL when stopping a process group
MIN_PAIRS = 5            # timed pairs even when --seconds runs out first
SETUP_RUNS = 51         # tiny-graph invocations behind setup_s
TRACE_PAIRS = 3         # (untraced, traced) rep pairs even when time runs out
# Directed G(n,m) costs O(log C) per chunk to set up; the undirected
# recursion costs O(C) per chunk, ~95 ms of CPU at C = 256, which would
# swamp the backend's fixed cost that setup_s is for.
TINY_M = 8192
TINY_GRAPH = ("gnm_directed", "-n", "1024", "-m", str(TINY_M))
DEFAULT_SORT_MEMORY = 64 << 20  # kagen_tool's -sort-memory default
THREADS = 4             # no workload runs more; ledger.cpp's kThreads matches
YARDSTICK_RECORDS = 1 << 22  # records perf_yardstick writes (its kRecords)


@dataclass(frozen=True)
class Workload:
    graph: tuple          # model and its size flags: the graph's identity
    chunks: int           # pinned -chunks: bytes independent of P/ranks/workers
    sampler: str = "v1"
    semantics: str = "as_generated"
    budget: int = 0       # -max-buffered-bytes
    ranks: int = 0        # forked backend
    tcp_workers: int = 0  # TCP backend: -listen + this many -worker processes
    sort_memory: int = 0  # > 0: -dedup-out with this -sort-memory
    exact_m: bool = False  # G(n,m): the output holds exactly m edges

    def engine_flags(self, pes=THREADS):
        flags = ["-sampler", self.sampler, "-edge-semantics", self.semantics,
                 "-sink", "file", "-pes", str(pes), "-chunks", str(self.chunks)]
        if self.budget:
            flags += ["-max-buffered-bytes", str(self.budget)]
        return flags

    @property
    def participants(self):
        return self.ranks or self.tcp_workers

    @property
    def m(self):
        return int(self.graph[self.graph.index("-m") + 1])


# Why each workload is here: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # Cheap v2 sampling: ordered delivery, arena first-touch and the write.
    "gnm_v2_file": Workload(
        graph=("gnm_directed", "-n", str(1 << 20), "-m", str(1 << 24)),
        chunks=32, sampler="v2", exact_m=True),
    # Geometric decode, ownership filter, spill park/replay; no sampler.
    "rgg2d_exact_spill": Workload(
        graph=("rgg2d", "-n", str(1 << 21)),
        chunks=256, semantics="exact_once", budget=1 << 22),
    # CPU-heavy decode, skewed ranks, copy_file_range merge, em_sort.
    "rhg_ranks_dedup": Workload(
        graph=("rhg", "-n", str(1 << 18), "-d", "16", "-g", "2.6"),
        chunks=64, ranks=THREADS, sort_memory=1 << 24),
    # v1 sampler CPU, ER ownership filter, gather over loopback sockets.
    "gnm_tcp_v1": Workload(
        graph=("gnm_undirected", "-n", str(1 << 22), "-m", str(1 << 24)),
        chunks=64, semantics="exact_once", tcp_workers=THREADS, exact_m=True),
}

END_TO_END_UNITS = {"rel_edge_rate": "ratio", "rel_cpu_per_edge": "ratio",
                    "peak_rss_mb": "MiB", "setup_s": "s"}

# Per-layer metric -> unit; the order is the report order.
PER_LAYER_UNITS = {
    "sampling.ns_per_sample": "ns/sample",
    "model.ns_per_emitted_edge": "ns/edge",
    "model.emitted_per_output_edge": "ratio",
    "ownership.ns_per_emitted_edge": "ns/edge",
    "ownership.drop_fraction": "ratio",
    "pe.deliver_ns_per_edge": "ns/edge",
    "pe.deliver_cpu_ns_per_edge": "ns/edge",
    "pe.peak_buffered_bytes": "bytes",
    "pe.slabs_reserved": "count",
    "pe.freelist_hit_ratio": "ratio",
    "pool.busy_fraction": "ratio",
    "pool.steal_success_ratio": "ratio",
    "spill.ns_per_edge": "ns/edge",
    "spill.spilled_fraction": "ratio",
    "sink.write_ns_per_edge": "ns/edge",
    "sink.write_GBps": "GB/s",
    "dist.tax_s": "s",
    "dist.rank_imbalance": "ratio",
    "dist.merge_GBps": "GB/s",
    "net.tax_s": "s",
    "net.gather_GBps": "GB/s",
    "em_sort.ns_per_edge": "ns/edge",
    "em_sort.runs": "count",
    "trace.generate_self_s": "s",
    "trace.handoff_self_s": "s",
    "trace.sink_write_self_s": "s",
    "trace.critical_rank_s": "s",
    "trace.busy_fraction": "ratio",
    "trace.startup_s": "s",
    "trace.finish_s": "s",
    "obs.trace_overhead_pct": "%",
    "ledger.residual_pct": "%",
}

# Span names whose self time is the hand-off from finished chunks to the one
# output file: ordered delivery and spill in-process, the rank merge or
# gather in the forked and TCP backends.
HANDOFF_SPANS = ("deliver", "spill_park", "spill_replay", "merge")

EDGES_RE = re.compile(rb"edges\[\w+\]=(\d+)")
UNIQUE_RE = re.compile(rb"unique_edges=(\d+)")


class BenchError(Exception):
    """The benchmark cannot run at all (no result line, exit 2)."""


def run_group(argv, timeout, **kwargs):
    """Runs argv in a process group of its own and returns (exit code,
    stdout, stderr), with exit code None after a timeout. A timeout or an
    exception (SIGTERM included) stops the whole group: SIGTERM first, which
    perf_spawn passes on as SIGKILL to the process groups of the tool
    processes it started, then SIGKILL. So nothing it started (compilers,
    ranks, workers) outlives run.py."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as e:
        for sig, grace in ((signal.SIGTERM, STOP_GRACE_S), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            try:
                proc.communicate(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        return None, b"", b""
    return proc.returncode, out, err


# ---- build and provenance --------------------------------------------------

def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


@dataclass(frozen=True)
class Binaries:
    tool: Path
    ledger: Path
    spawn: Path
    yardstick: Path


def build():
    """Configures (again when a build file changed) and builds the
    benchmark's targets."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources around {HERE.name}/: "
                         f"{ROOT} needs CMakeLists.txt and src/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "perfbench-build.log"
    steps = []
    cache = BUILD_DIR / "CMakeCache.txt"
    lists = (HERE / "CMakeLists.txt", ROOT / "CMakeLists.txt")
    if not cache.is_file() or \
            max(p.stat().st_mtime for p in lists) > cache.stat().st_mtime:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS), "--target",
                  "example_kagen_tool", "perf_ledger", "perf_spawn", "perf_yardstick"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "wb") as out:
        for argv in steps:
            try:
                rc, _, _ = run_group(argv, max(deadline - time.monotonic(), 1),
                                     stdout=out, stderr=subprocess.STDOUT)
            except OSError as e:
                raise BenchError(f"build step {argv[:2]} failed: {e}")
            if rc != 0:
                sys.stderr.write(log.read_text(errors="replace")[-4000:])
                raise BenchError(f"build step {' '.join(argv[:3])} exited {rc} "
                                 f"(log: {log})")
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"{BUILD_DIR} is configured as {build_type!r}, not "
                         f"Release; delete it to let the benchmark reconfigure")
    return Binaries(BUILD_DIR / "kagen" / "example_kagen_tool", BUILD_DIR / "perf_ledger",
                    BUILD_DIR / "perf_spawn", BUILD_DIR / "perf_yardstick")


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "examples", "cmake", HERE.name):
        files += [p for p in (ROOT / d).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def mount_of(path):
    """(fs type, mount point) of the filesystem holding `path`."""
    best = ("unknown", "")
    real = os.path.realpath(path)
    with open("/proc/mounts") as f:
        for line in f:
            fields = line.split()
            point = fields[1]
            inside = real == point or real.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best[1]):
                best = (fields[2], point)
    return best


def provenance(workdir, load_before):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fs_type, mount_point = mount_of(workdir)
    st = os.statvfs(workdir)
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_before": load_before,
        "workdir_fs": fs_type,
        "workdir_mount": mount_point,
        "workdir_free_bytes": st.f_bavail * st.f_frsize,
    }


# ---- running and checking tool invocations -------------------------------

@dataclass
class Invocation:
    error: str = ""       # empty = every process exited 0 within the timeout
    wall_s: float = 0.0   # first launch to the exit of the last process
    cpu_s: float = 0.0    # user + sys summed over every process (wait4)
    rss_mb: float = 0.0   # largest ru_maxrss of any process
    launch_ns: int = 0
    end_ns: int = 0
    stdout: bytes = b""   # of the first process (the tool or coordinator)


def run_processes(spawn, argvs, workdir, env):
    """Starts every argv (no shell) through perf_spawn, waits for all, and
    measures them."""
    argv = [str(spawn), str(INVOCATION_TIMEOUT_S * 1000), str(workdir)]
    for cmd in argvs:
        argv += ["--", *cmd]
    inv = Invocation()
    rc, out, err = run_group(argv, INVOCATION_TIMEOUT_S + 30, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = out.decode().split("\n")
    if rc != 0 or len(lines) < len(argvs) + 1:
        inv.error = f"perf_spawn exited {rc}: " + err.decode(errors="replace")[-300:]
        return inv
    launch_ns, end_ns, stop = lines[0].split()
    inv.launch_ns, inv.end_ns = int(launch_ns), int(end_ns)
    inv.wall_s = (inv.end_ns - inv.launch_ns) * 1e-9
    if stop == "timeout":
        inv.error = f"timed out after {INVOCATION_TIMEOUT_S} s"
    elif stop != "none":
        inv.error = "a process the tool started outlived it"
    for i, line in enumerate(lines[1:len(argvs) + 1]):
        code, cpu_us, maxrss_kib = map(int, line.split())
        inv.cpu_s += cpu_us * 1e-6
        inv.rss_mb = max(inv.rss_mb, maxrss_kib / 1024.0)
        if code != 0 and not inv.error:
            tail = (workdir / f"proc{i}.err").read_bytes()[-300:]
            name = " ".join([Path(argvs[i][0]).name, *argvs[i][1:2]])
            inv.error = (f"process {i} ({name}) exited {code}: "
                         + tail.decode(errors="replace").strip())
    inv.stdout = (workdir / "proc0.out").read_bytes()
    return inv


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def edge_file_error(path, printed, exact_m=None):
    """Checks one binary edge file against the count the tool printed."""
    try:
        size = path.stat().st_size
        with open(path, "rb") as f:
            header = f.read(8)
    except OSError as e:
        return f"{path.name}: {e}"
    if len(header) != 8:
        return f"{path.name}: shorter than its 8-byte header"
    edges = struct.unpack("<Q", header)[0]
    if edges != printed:
        return f"{path.name}: header says {edges} edges, the tool printed {printed}"
    if size != 8 + 16 * edges:
        return f"{path.name}: {size} bytes, expected 8 + 16 * {edges}"
    if exact_m is not None and edges != exact_m:
        return f"{path.name}: {edges} edges, G(n,m) asks for exactly {exact_m}"
    return ""


def same_bytes(a, b):
    if a.stat().st_size != b.stat().st_size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 22), fb.read(1 << 22)
            if x != y:
                return False
            if not x:
                return True


class Runner:
    """Builds and checks one workload's invocations, and counts them."""

    def __init__(self, wl, bins, seed, workdir):
        self.wl, self.bins = wl, bins
        self.seed, self.workdir = seed, workdir
        self.env = dict(os.environ, TMPDIR=str(workdir))
        self.attempted = 0
        self.failures = []
        self.ref = self.ref_dedup = None
        self.out = workdir / "out.bin"
        self.dedup = workdir / "dedup.bin"

    def argvs(self, graph, pes=THREADS, backend=True, extra=()):
        wl = self.wl
        coord = [str(self.bins.tool), *graph, "-s", str(self.seed),
                 *wl.engine_flags(pes), "-o", str(self.out)]
        if wl.sort_memory:
            coord += ["-dedup-out", str(self.dedup),
                      "-sort-memory", str(wl.sort_memory)]
        coord += list(extra)
        if not backend:
            return [coord]
        if wl.ranks:
            coord += ["-ranks", str(wl.ranks)]
        if not wl.tcp_workers:
            return [coord]
        endpoint = f"127.0.0.1:{free_port()}"
        coord += ["-listen", endpoint, "-expect-workers", str(wl.tcp_workers)]
        worker = [str(self.bins.tool), "-worker", endpoint,
                  "-worker-scratch", str(self.workdir)]
        return [coord] + [worker] * wl.tcp_workers

    def invoke(self, argvs, exact_m=None, compare=True):
        """Runs one invocation and checks its outputs (outside its timing).
        Returns the Invocation, or None when it failed."""
        self.attempted += 1
        inv = run_processes(self.bins.spawn, argvs, self.workdir, self.env)
        error = inv.error or self.check(inv, exact_m, compare)
        for path in (self.out, self.dedup):
            if path.exists():
                path.unlink()
        if error:
            self.failures.append(error)
            print(f"FAILED: {error}", file=sys.stderr)
            return None
        return inv

    def check(self, inv, exact_m, compare):
        found = EDGES_RE.search(inv.stdout)
        if found is None:
            return "the tool printed no edge count"
        error = edge_file_error(self.out, int(found.group(1)), exact_m)
        if not error and compare and not same_bytes(self.out, self.ref):
            error = f"{self.out.name} differs from the -pes 1 reference"
        if not error and self.wl.sort_memory:
            unique = UNIQUE_RE.search(inv.stdout)
            if unique is None:
                return "the tool printed no dedup count"
            error = edge_file_error(self.dedup, int(unique.group(1)))
            if not error and compare and not same_bytes(self.dedup, self.ref_dedup):
                error = f"{self.dedup.name} differs from the -pes 1 reference"
        return error

    def make_reference(self):
        """The direct-streaming run every timed output must equal."""
        self.attempted += 1
        argv = self.argvs(self.wl.graph, pes=1, backend=False)
        inv = run_processes(self.bins.spawn, argv, self.workdir, self.env)
        error = inv.error or self.check(inv, self.exact_m(), compare=False)
        if error:
            raise BenchError(f"reference run failed: {error}")
        self.ref = self.workdir / "ref.bin"
        self.out.rename(self.ref)
        if self.wl.sort_memory:
            self.ref_dedup = self.workdir / "ref_dedup.bin"
            self.dedup.rename(self.ref_dedup)
        return int(EDGES_RE.search(inv.stdout).group(1))

    def exact_m(self):
        return self.wl.m if self.wl.exact_m else None

    def yardstick(self):
        """One run of perf_yardstick, timed like a tool invocation."""
        inv = run_processes(self.bins.spawn, [[str(self.bins.yardstick)]],
                            self.workdir, self.env)
        if inv.error:
            raise BenchError(f"perf_yardstick failed: {inv.error}")
        return inv

    def timed_reps(self, seconds):
        """(yardstick, rep) pairs, the yardstick run just before its rep."""
        pairs = []
        deadline = time.monotonic() + seconds
        while len(pairs) < MIN_PAIRS or time.monotonic() < deadline:
            stick = self.yardstick()
            inv = self.invoke(self.argvs(self.wl.graph), self.exact_m())
            if inv is not None:
                pairs.append((stick, inv))
            if len(self.failures) > 3 and not pairs:  # every rep fails
                break
        return pairs

    def setup_walls(self):
        """The per-run fixed cost: the workload's backend flags on a tiny
        G(n,m) graph, SETUP_RUNS times."""
        walls = []
        for _ in range(SETUP_RUNS):
            inv = self.invoke(self.argvs(TINY_GRAPH), TINY_M, compare=False)
            if inv is not None:
                walls.append(inv.wall_s)
        return walls


# ---- the two modes ---------------------------------------------------------

def spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def end_to_end(runner, seconds):
    out_edges = runner.make_reference()
    setup = runner.setup_walls()
    runner.invoke(runner.argvs(runner.wl.graph), runner.exact_m())  # warm-up
    pairs = runner.timed_reps(seconds)
    if not pairs or not setup:
        return {}, {}
    reps = [inv for _, inv in pairs]
    # Per pair: the rep's rate, and its CPU per edge, over the yardstick's.
    rel_rate = [(out_edges / inv.wall_s) / (YARDSTICK_RECORDS / stick.wall_s)
                for stick, inv in pairs]
    rel_cpu = [(inv.cpu_s / out_edges) / (stick.cpu_s / YARDSTICK_RECORDS)
               for stick, inv in pairs]
    stats = {
        "wall_s": spread([r.wall_s for r in reps]),
        "cpu_s": spread([r.cpu_s for r in reps]),
        "yardstick_wall_s": spread([s.wall_s for s, _ in pairs]),
        "yardstick_cpu_s": spread([s.cpu_s for s, _ in pairs]),
        "rel_edge_rate": spread(rel_rate),
        "rel_cpu_per_edge": spread(rel_cpu),
        "peak_rss_mb": spread([r.rss_mb for r in reps]),
        "setup_s": spread(setup),
    }
    stats["setup_s"]["p80"] = statistics.quantiles(setup, n=5)[3]
    stats["edges_per_s"] = out_edges / stats["wall_s"]["median"]
    stats["output_edges"] = out_edges
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS}
    return metrics, stats


def trace_check(trace, participants):
    argv = [sys.executable, str(ROOT / "bench" / "bench_trace_report.py"), "--check"]
    if participants:
        argv += ["--expect-ranks", str(participants)]
    rc, _, err = run_group(argv + [str(trace)], 60,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if rc != 0:
        return "trace --check failed: " + err.decode(errors="replace")[-300:]
    return ""


def trace_metrics(doc, inv, overhead):
    ranks = self_times(doc)
    totals = {}
    for r in ranks.values():
        for name, s in r["self_s"].items():
            totals[name] = totals.get(name, 0.0) + s
    workers = {pid: r for pid, r in ranks.items() if r["label"] != "coordinator"}
    generate = [ev for ev in doc["traceEvents"]
                if ev.get("ph") == "X" and ev["name"] == "generate"]
    gen_start = min(ev["ts"] for ev in generate)
    gen_end = max(ev["ts"] + ev["dur"] for ev in generate)
    generating_threads = {(ev["pid"], ev["tid"]) for ev in generate}
    last_end = max(r["last_us"] for r in ranks.values())
    metrics = {
        "trace.generate_self_s": totals.get("generate", 0.0),
        "trace.handoff_self_s": sum(totals.get(n, 0.0) for n in HANDOFF_SPANS),
        "trace.sink_write_self_s": totals.get("sink_write", 0.0),
        "trace.critical_rank_s": max(r["last_us"] - r["first_us"]
                                     for r in workers.values()) * 1e-6,
        "trace.busy_fraction": totals.get("generate", 0.0) /
            (len(generating_threads) * (gen_end - gen_start) * 1e-6),
        "trace.startup_s": (gen_start * 1e3 - inv.launch_ns) * 1e-9,
        "trace.finish_s": (inv.end_ns - last_end * 1e3) * 1e-9,
        "obs.trace_overhead_pct": (overhead - 1.0) * 100.0,
    }
    return metrics, {str(pid): r for pid, r in sorted(ranks.items())}


def path_cpu(wl, costs):
    """CPU seconds of the ledger layers the workload's command goes through.
    The depths telescope, so this is the deepest probe on the path plus the
    layers measured beside it."""
    if wl.ranks:
        cpu = costs["dist"]["cpu_s"]
    elif wl.tcp_workers:
        cpu = costs["net"]["cpu_s"]
    else:
        engine = costs["engine_spill" if wl.budget else "engine_ordered"]
        cpu = engine["cpu_s"] + costs["sink"]["cpu_s"]
    if wl.sort_memory:
        cpu += costs["em_sort"]["cpu_s"]
    return cpu


def per_layer(runner, ledger_bin, seconds):
    wl = runner.wl
    runner.make_reference()
    # Untraced and traced reps alternate, so the tracing overhead is not
    # confused with a change in the machine's speed. The last traced run's
    # files are the ones analysed.
    trace, metrics_file = runner.workdir / "trace.json", runner.workdir / "metrics.json"
    traced_argv = ["-trace", str(trace), "-metrics", str(metrics_file)]
    baseline, traced = [], []
    deadline = time.monotonic() + seconds / 2
    while len(traced) < TRACE_PAIRS or time.monotonic() < deadline:
        inv = runner.invoke(runner.argvs(wl.graph), runner.exact_m())
        if inv is not None:
            baseline.append(inv)
        inv = runner.invoke(runner.argvs(wl.graph, extra=traced_argv), runner.exact_m())
        error = "" if inv is None else trace_check(trace, wl.participants)
        if error:
            runner.failures.append(error)
            print(f"FAILED: {error}", file=sys.stderr)
        elif inv is not None:
            traced.append(inv)
        if runner.failures:
            return {}, {}
    with open(trace) as f:
        doc = json.load(f)
    base_wall = statistics.median(r.wall_s for r in baseline)
    base_cpu = statistics.median(r.cpu_s for r in baseline)
    metrics, ranks = trace_metrics(doc, traced[-1],
                                   statistics.median(r.wall_s for r in traced) / base_wall)
    with open(metrics_file) as f:
        tool_counters = {name: v for name, v in json.load(f)["counters"].items()
                         if not name.startswith("pool.w")}

    argv = [str(ledger_bin), *wl.graph, "-s", str(runner.seed),
            "-sampler", wl.sampler, "-edge-semantics", wl.semantics,
            "-chunks", str(wl.chunks), "-max-buffered-bytes", str(wl.budget),
            "-sort-memory", str(wl.sort_memory or DEFAULT_SORT_MEMORY),
            "-workdir", str(runner.workdir)]
    runner.attempted += 1
    rc, out, err = run_group(argv, LEDGER_TIMEOUT_S, env=runner.env, cwd=runner.workdir,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ledger = json.loads(out) if rc == 0 else None
        error = "" if ledger else (f"perf_ledger exited {rc}: "
                                   + err.decode(errors="replace")[-300:])
    except json.JSONDecodeError as e:
        error = f"perf_ledger: {e}"
    if error:
        runner.failures.append(error)
        print(f"FAILED: {error}", file=sys.stderr)
        return {}, {}
    metrics.update(ledger["metrics"])
    metrics["ledger.residual_pct"] = \
        (base_cpu - path_cpu(wl, ledger["costs"])) / base_cpu * 100.0
    stats = {"baseline_wall_s": spread([r.wall_s for r in baseline]),
             "baseline_cpu_s": spread([r.cpu_s for r in baseline]),
             "traced_wall_s": spread([r.wall_s for r in traced]), "ranks": ranks,
             "tool_counters": tool_counters, "ledger": ledger}
    return {name: metrics[name] for name in PER_LAYER_UNITS}, stats


def print_ledger(stats):
    costs = stats["ledger"]["costs"]
    edges = stats["ledger"]["output_edges"]
    print(f"{'ledger depth':18s} {'wall_s':>9s} {'cpu_s':>9s} {'cpu ns/edge':>12s}")
    for name, c in costs.items():
        print(f"{name:18s} {c['wall_s']:9.4f} {c['cpu_s']:9.4f} "
              f"{c['cpu_s'] * 1e9 / edges:12.2f}")
    for pid, r in stats["ranks"].items():
        parts = " ".join(f"{n}={s:.4f}" for n, s in r["self_s"].items())
        print(f"self_s {r['label']}: {parts}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every measurement as JSON here")
    args = parser.parse_args()
    # A SIGTERM must still run the cleanup below (kill children, rm workdir).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load_before = list(os.getloadavg())
    try:
        bins = build()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    free = os.statvfs(WORK_ROOT)
    if free.f_bavail * free.f_frsize < MIN_FREE_BYTES:
        print(f"run.py: {WORK_ROOT} has less than {MIN_FREE_BYTES >> 30} GiB free",
              file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload]
        runner = Runner(wl, bins, args.seed, workdir)
        prov = provenance(workdir, load_before)
        if args.trace:
            metrics, stats = per_layer(runner, bins.ledger, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, stats = end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    correct = failed == 0 and bool(metrics)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace and metrics:
        print_ledger(stats)
    for name, s in stats.items():
        if isinstance(s, dict) and "median" in s:
            extra = f", p80 {s['p80']:.6g}" if "p80" in s else ""
            print(f"{name}: median {s['median']:.6g} (min {s['min']:.6g}, "
                  f"max {s['max']:.6g}, n={s['n']}{extra})")
    if "edges_per_s" in stats:
        print(f"edges_per_s (raw, not divided by the yardstick): {stats['edges_per_s']:.6g}")
    print(f"failed_frac: {failed}/{runner.attempted}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "provenance": prov,
                       "failures": runner.failures, "stats": stats,
                       "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
