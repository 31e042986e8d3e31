// Command-line generator: the "library as a product" entry point.
//
// Four execution paths:
//  * per-PE (default): writes one PE's edge list as text ("u v" per line),
//    demonstrating that any rank's output can be produced in isolation —
//    the paper's whole point.
//  * chunked engine (-sink ...): generates the WHOLE graph as K·P logical
//    chunks over the persistent thread pool, streaming into an edge
//    sink — so huge instances can be counted, measured, or written to disk
//    without materializing the edge list (count/stats sinks stream with
//    O(buffer) memory; the ordered file sink holds completed-but-not-yet-
//    delivered chunks in a byte-budgeted window, spilling past it — see
//    -max-buffered-bytes and DESIGN.md §5).
//  * distributed backend (-ranks N -sink ...): forks N worker PROCESSES,
//    which pull contiguous chunk-range leases of the same chunk
//    decomposition until none is left and generate them in their own
//    address spaces with zero inter-worker communication; the coordinator
//    merges per-rank files/stats. Output is byte-identical to
//    the single-process -sink run with the same -pes/-chunks-per-pe.
//  * multi-node TCP backend (-listen/-connect ... -sink ..., workers run
//    `kagen_tool -worker host:port`): the same coordinator and worker loop
//    over TCP instead of socketpairs, so the workers can live on other
//    machines. Output is byte-identical to both paths above; `-manifest`
//    instead of `-o` leaves each rank file on its worker's machine and
//    writes a text manifest naming every piece (DESIGN.md §8).
//
// Every flag value is parsed strictly: non-numeric, trailing-garbage,
// out-of-range, and valueless flags all exit 2 with a diagnostic instead of
// silently running with a default ("-n banana" used to mean n=0).
//
// Run with -help for the full flag reference grouped by subsystem.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <climits>
#include <string>
#include <vector>

#include "graph/em_sort.hpp"
#include "graph/io.hpp"
#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"

using namespace kagen;

namespace {

u64 g_verbose = 0; // -v LEVEL

// -v: per-worker pool utilization (busy ns, tasks) straight
// from the metrics registry. In-process pools only — forked/TCP workers
// count in their own address space; use -metrics for the merged view.
void print_verbose_metrics() {
    if (g_verbose == 0) return;
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    for (const auto& [name, c] : snap.counters) {
        if (name.rfind("pool.", 0) == 0 || name.rfind("pe.arena.", 0) == 0) {
            std::printf("%s=%llu\n", name.c_str(),
                        static_cast<unsigned long long>(c.value));
        }
    }
}

void print_help(std::FILE* out, const char* argv0) {
    std::fprintf(out,
        "usage: %s <model> [flags]   (or: %s -worker host:port | %s -help)\n"
        "\n"
        "model: gnm_directed | gnm_undirected | gnp_directed | gnp_undirected |\n"
        "       rgg2d | rgg3d | rdg2d | rdg3d | rhg | rhg_streaming | ba | rmat\n"
        "\n"
        "Model parameters:\n"
        "  -n N        vertices (default 1024)\n"
        "  -m M        edges (gnm*/rmat; default 8n)\n"
        "  -p P        edge probability (gnp*)\n"
        "  -r R        radius (rgg*)\n"
        "  -d D        average degree (rhg*) / attachment degree (ba; integer)\n"
        "  -g G        power-law exponent gamma (rhg*)\n"
        "  -s S        seed (default 1)\n"
        "  -sampler V  v1 (default; bit-pinned reference sampler) | v2\n"
        "              (batched-variate throughput engine; same distribution,\n"
        "              different byte stream; ER family)\n"
        "\n"
        "Per-PE path (default; text output):\n"
        "  -rank R     generate only rank R (default 0)\n"
        "  -size P     of P total ranks (default 1)\n"
        "  -o FILE     output file (default: stdout; binary for -sink file)\n"
        "\n"
        "Chunked engine (whole graph through a streaming sink):\n"
        "  -sink KIND  memory | count | stats | file\n"
        "  -pes P      simulated PEs (default 4)\n"
        "  -chunks-per-pe K   logical chunks per PE (default 4)\n"
        "  -chunks C   pin the canonical chunk count (graph then independent\n"
        "              of -pes / -chunks-per-pe / -ranks / worker count)\n"
        "  -edge-semantics S  as_generated (default) | exact_once: exact_once\n"
        "              applies the lower-endpoint ownership tie-break so every\n"
        "              edge is emitted exactly once across all chunks\n"
        "\n"
        "Hot path / affinity (DESIGN.md section 9):\n"
        "  -sink-buffer-edges N   inline emit-buffer capacity in edges for the\n"
        "              streaming sinks (default 4096); batches reach the file\n"
        "              sink as single bulk writes of this many edges\n"
        "  -pin-threads 1   pin pool worker threads to distinct CPUs\n"
        "              (CPU affinity; sticky for the process)\n"
        "\n"
        "Ordered delivery / spill window:\n"
        "  -max-buffered-bytes B   byte budget for chunks completing ahead of\n"
        "              the delivery cursor; past it they spill to disk and\n"
        "              replay in order (0 = unbounded). Output is identical;\n"
        "              peak memory is B + one chunk\n"
        "  -spill-path FILE   spill scratch location (default: anonymous $TMPDIR)\n"
        "  -arena-slab-bytes B   per-slab size of the chunk arena backing the\n"
        "              ordered multi-worker path (default 1 MiB). Memory layout\n"
        "              only: output is byte-identical for every value\n"
        "\n"
        "External-memory dedup (after -sink file, -ranks or -listen/-connect):\n"
        "  -dedup-out FILE    sort/dedup pass to FILE — the canonical\n"
        "              undirected edge set (union_undirected) at bounded memory\n"
        "  -sort-memory BYTES memory budget of the sort's run formation, 16 B\n"
        "              per edge (default 64 MiB). Per rank: with -ranks every\n"
        "              rank sorts its own share under it and the coordinator\n"
        "              only merges; TCP workers take their own -sort-memory\n"
        "\n"
        "Distributed backend (multi-process, communication-free):\n"
        "  -ranks N    fork N worker processes; each pulls contiguous chunk\n"
        "              ranges (leases) of the chunk decomposition until none is\n"
        "              left, into a per-rank file; every lease lands at its\n"
        "              canonical offset — byte-identical to the single-process\n"
        "              -sink run (requires -sink count|stats|file)\n"
        "  -threads-per-rank T   pool threads inside each worker (default 1)\n"
        "  -keep-rank-files 1    keep the per-rank scratch files after the merge\n"
        "\n"
        "Multi-node TCP backend (coordinator side; requires -sink count|stats|file,\n"
        "workers run `%s -worker ...` on their machines — DESIGN.md section 11):\n"
        "  -listen H:P    accept -expect-workers worker dial-ins on host:port\n"
        "              (\":P\" listens on every interface)\n"
        "  -connect LIST  dial the comma-separated worker endpoints\n"
        "              (each worker running `-worker :port`)\n"
        "  -expect-workers N   workers a -listen coordinator waits for\n"
        "  -manifest FILE  partitioned output: each worker keeps its rank file\n"
        "              node-local; write a text manifest naming every piece\n"
        "              (instead of -o, which gathers one merged file)\n"
        "  -net-timeout MS   connect/accept, handshake, and file-transfer\n"
        "              inactivity deadline (default 10000)\n"
        "  -net-deadline MS  per-lease and per-report deadline covering\n"
        "              generation itself (default 0 = wait; dead workers still\n"
        "              error immediately via EOF)\n"
        "\n"
        "Worker mode (no model argument; one job, then exit):\n"
        "  -worker H:P    connect to the coordinator at host:port, or with an\n"
        "              empty host (\":P\") listen for the coordinator to dial in\n"
        "  -worker-scratch DIR   rank-file scratch location (default $TMPDIR)\n"
        "  also -max-buffered-bytes, -spill-path, -arena-slab-bytes,\n"
        "              -sink-buffer-edges, -pin-threads, -sort-memory (as\n"
        "              above): run settings are per node, so a -listen/-connect\n"
        "              coordinator rejects them and each worker takes its own\n"
        "\n"
        "Telemetry (trace spans + metrics registry; DESIGN.md section 13):\n"
        "  -trace FILE    write a merged Chrome trace_event JSON timeline with\n"
        "              spans from every rank (load in Perfetto or\n"
        "              chrome://tracing); works on all -sink backends\n"
        "  -metrics FILE  write the merged metrics-registry snapshot as JSON\n"
        "  -v LEVEL    1: also print per-worker pool utilization counters\n"
        "              after the run (default 0)\n"
        "\n"
        "Help:\n"
        "  -help       this reference\n",
        argv0, argv0, argv0, argv0);
}

Model parse_model(const std::string& name) {
    const Model all[] = {Model::GnmDirected, Model::GnmUndirected,
                         Model::GnpDirected, Model::GnpUndirected, Model::Rgg2D,
                         Model::Rgg3D, Model::Rdg2D, Model::Rdg3D, Model::Rhg,
                         Model::RhgStreaming, Model::Ba, Model::Rmat};
    for (const Model m : all) {
        if (name == model_name(m)) return m;
    }
    std::fprintf(stderr, "unknown model '%s' (try -help)\n", name.c_str());
    std::exit(2);
}

// ---- strict flag-value parsing -------------------------------------------
// The old parser fed every value straight into strtoull/strtod with no
// checks: "-n banana" ran with n=0, "-n 1e6" with n=1, "-pin-threads yes"
// silently DISABLED pinning. Each helper rejects empty values, non-numeric
// junk, trailing garbage, range overflow, and (for u64) negative input, and
// exits 2 naming the flag — malformed input must never half-run.

[[noreturn]] void bad_value(const std::string& flag, const char* val,
                            const char* expected) {
    std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n", flag.c_str(),
                 val, expected);
    std::exit(2);
}

u64 parse_u64(const std::string& flag, const char* val) {
    if (val[0] == '\0' || val[0] == '-' || val[0] == '+' ||
        std::isspace(static_cast<unsigned char>(val[0]))) {
        bad_value(flag, val, "a non-negative base-10 integer");
    }
    errno     = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(val, &end, 10);
    if (errno != 0 || end == val || *end != '\0') {
        bad_value(flag, val, "a non-negative base-10 integer");
    }
    return v;
}

double parse_f64(const std::string& flag, const char* val) {
    errno     = 0;
    char* end = nullptr;
    const double v = std::strtod(val, &end);
    if (errno != 0 || end == val || *end != '\0' || !std::isfinite(v)) {
        bad_value(flag, val, "a finite number");
    }
    return v;
}

bool parse_bool(const std::string& flag, const char* val) {
    if (std::strcmp(val, "1") == 0 || std::strcmp(val, "true") == 0) return true;
    if (std::strcmp(val, "0") == 0 || std::strcmp(val, "false") == 0) return false;
    bad_value(flag, val, "0|1|true|false");
}

// The per-process run settings (RunOptions without the telemetry paths).
// In-process and forked runs take them on the command line; under
// -listen/-connect they belong to the workers, which parse them here too.
bool parse_run_flag(const std::string& flag, const char* val, RunOptions& run) {
    if (flag == "-sink-buffer-edges") run.sink_buffer_edges = parse_u64(flag, val);
    else if (flag == "-pin-threads") run.pin_threads = parse_bool(flag, val);
    else if (flag == "-max-buffered-bytes") run.max_buffered_bytes = parse_u64(flag, val);
    else if (flag == "-spill-path") run.spill_path = val;
    else if (flag == "-arena-slab-bytes") run.arena_slab_bytes = parse_u64(flag, val);
    else if (flag == "-sort-memory") run.sort_memory = parse_u64(flag, val);
    else return false;
    return true;
}

int parse_timeout_ms(const std::string& flag, const char* val) {
    const u64 v = parse_u64(flag, val);
    if (v > INT_MAX) bad_value(flag, val, "milliseconds <= INT_MAX");
    return static_cast<int>(v);
}

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        const std::size_t comma = list.find(',', begin);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        out.push_back(list.substr(begin, end - begin));
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    return out;
}

// The forked (-ranks N, ranks != 0) and TCP (-listen/-connect) backends
// share one coordinator and this one printer. Scripts parse its tokens:
// edges[<sem>]= and unique_edges= (perfbench/run.py), ranks= (forked) and
// workers= (TCP) in the CI smokes.
int run_coordinated_sink(const Config& cfg, const std::string& kind, u64 ranks,
                         bool keep_rank_files, net::NetOptions opts,
                         const char* out_path, const char* manifest_path,
                         const char* dedup_out) {
    const bool forked = ranks != 0;
    if (kind == "file") {
        if (manifest_path != nullptr) {
            opts.manifest_path = manifest_path;
        } else if (out_path != nullptr) {
            opts.output_path = out_path;
            if (dedup_out != nullptr) opts.dedup_path = dedup_out;
        } else {
            std::fprintf(stderr, "%s\n",
                         forked ? "-ranks with -sink file requires -o FILE"
                                : "multi-node -sink file requires -o FILE (gather) or "
                                  "-manifest FILE (partitioned)");
            return 2;
        }
    } else if (kind == "stats") {
        opts.degree_stats = true;
    } else if (kind != "count") {
        std::fprintf(stderr, "%s requires -sink count|stats|file, got '%s'\n",
                     forked ? "-ranks" : "-listen/-connect", kind.c_str());
        return 2;
    }
    net::RunResult res;
    if (forked) {
        dist::DistOptions dopt;
        dopt.num_ranks        = ranks;
        dopt.num_pes          = opts.num_pes;
        dopt.threads_per_rank = opts.threads_per_worker;
        dopt.keep_rank_files  = keep_rank_files;
        dopt.output_path      = opts.output_path;
        dopt.degree_stats     = opts.degree_stats;
        dopt.dedup_path       = opts.dedup_path;
        res = generate_distributed(cfg, dopt);
    } else {
        res = net::run_net_coordinator(cfg, opts);
    }
    const char* unit = forked ? "ranks" : "workers";
    if (g_verbose > 0) {
        // How the leases balanced the ranks: busy = summed lease run time.
        for (const auto& rep : res.ranks) {
            std::printf("rank=%llu leases=%zu chunks=%llu busy_seconds=%.6f\n",
                        static_cast<unsigned long long>(rep.rank), rep.leases.size(),
                        static_cast<unsigned long long>(rep.stats.num_chunks),
                        rep.stats.seconds);
        }
    }
    if (kind == "count" || kind == "stats") {
        std::printf("model=%s n=%llu %s %s=%llu chunks=%llu seconds=%.6f\n",
                    model_name(cfg.model), static_cast<unsigned long long>(res.n),
                    kind == "count" ? res.count.str().c_str() : res.degrees.str().c_str(),
                    unit, static_cast<unsigned long long>(res.num_ranks),
                    static_cast<unsigned long long>(res.num_chunks), res.seconds);
        return 0;
    }
    if (manifest_path != nullptr) {
        std::printf("model=%s n=%llu edges[%s]=%llu partitioned across %zu "
                    "workers -> %s (manifest) chunks=%llu seconds=%.6f\n",
                    model_name(cfg.model), static_cast<unsigned long long>(res.n),
                    semantics_name(cfg.edge_semantics),
                    static_cast<unsigned long long>(res.count.num_edges),
                    res.manifest.size(), manifest_path,
                    static_cast<unsigned long long>(res.num_chunks), res.seconds);
        return 0;
    }
    std::printf("model=%s n=%llu edges[%s]=%llu -> %s (binary) %s=%llu "
                "chunks=%llu seconds=%.6f peak_buffered_bytes=%llu "
                "spilled_chunks=%llu spilled_bytes=%llu buffers_recycled=%llu "
                "merged_bytes=%llu copy_file_range_bytes=%llu "
                "copy_file_range_used=%d\n",
                model_name(cfg.model), static_cast<unsigned long long>(res.n),
                semantics_name(cfg.edge_semantics),
                static_cast<unsigned long long>(res.edges_written), out_path, unit,
                static_cast<unsigned long long>(res.num_ranks),
                static_cast<unsigned long long>(res.num_chunks), res.seconds,
                static_cast<unsigned long long>(res.stats.peak_buffered_bytes),
                static_cast<unsigned long long>(res.stats.spilled_chunks),
                static_cast<unsigned long long>(res.stats.spilled_bytes),
                static_cast<unsigned long long>(res.stats.buffers_recycled),
                static_cast<unsigned long long>(res.merged_bytes),
                static_cast<unsigned long long>(res.copy_file_range_bytes),
                res.copy_file_range_used() ? 1 : 0);
    if (dedup_out != nullptr) {
        // The ranks formed the runs, each under its own budget: a forked
        // rank under this command line's, a TCP worker under its own.
        u64 runs = 0;
        for (const auto& rep : res.ranks) runs += rep.runs.size();
        std::printf("dedup -> %s unique_edges=%llu runs=%llu",
                    dedup_out, static_cast<unsigned long long>(res.dedup_edges),
                    static_cast<unsigned long long>(runs));
        if (forked) {
            std::printf(" sort_memory_bytes=%llu",
                        static_cast<unsigned long long>(cfg.sort_memory));
        }
        std::printf("\n");
    }
    return 0;
}

// `kagen_tool -worker host:port [...]`: no model argument — the job frame
// carries the graph; the run settings are this worker's own.
int run_worker_mode(int argc, char** argv) {
    if (argc < 3 || argv[2][0] == '\0') {
        std::fprintf(stderr, "-worker requires host:port (or :port to listen)\n");
        return 2;
    }
    const std::string endpoint = argv[2];
    net::NetWorkerOptions opts;
    for (int i = 3; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "flag '%s' is missing its value\n", flag.c_str());
            return 2;
        }
        const char* val = argv[i + 1];
        if (flag == "-worker-scratch") opts.scratch_dir = val;
        else if (flag == "-net-timeout")
            opts.connect_timeout_ms = parse_timeout_ms(flag, val);
        else if (flag == "-net-deadline")
            opts.io_deadline_ms = parse_timeout_ms(flag, val);
        else if (!parse_run_flag(flag, val, opts.run)) {
            std::fprintf(stderr, "unknown worker flag '%s' (try -help)\n",
                         flag.c_str());
            return 2;
        }
    }
    try {
        return net::run_net_worker(endpoint, opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

int run_chunked_sink(const Config& cfg, const std::string& kind, u64 pes,
                     const char* out_path, const char* dedup_out) {
    const u64 n = num_vertices(cfg);
    if (kind == "count") {
        CountingSink sink(cfg.edge_semantics);
        const ChunkStats stats = generate_chunked(cfg, pes, sink);
        sink.finish();
        // summary() labels the totals with the semantics they were computed
        // under — an as_generated count includes intentional duplicates.
        std::printf("model=%s n=%llu %s chunks=%llu workers=%llu seconds=%.6f\n",
                    model_name(cfg.model), static_cast<unsigned long long>(n),
                    sink.summary().c_str(),
                    static_cast<unsigned long long>(stats.num_chunks),
                    static_cast<unsigned long long>(stats.workers), stats.seconds);
        return 0;
    }
    if (kind == "stats") {
        DegreeStatsSink sink(n, cfg.edge_semantics);
        const ChunkStats stats = generate_chunked(cfg, pes, sink);
        sink.finish();
        std::printf("model=%s n=%llu %s chunks=%llu seconds=%.6f\n",
                    model_name(cfg.model), static_cast<unsigned long long>(n),
                    sink.summary().c_str(),
                    static_cast<unsigned long long>(stats.num_chunks), stats.seconds);
        const auto hist = sink.degree_histogram();
        for (std::size_t d = 0; d < hist.size(); ++d) {
            if (hist[d] != 0) {
                std::printf("deg %zu: %llu\n", d,
                            static_cast<unsigned long long>(hist[d]));
            }
        }
        return 0;
    }
    if (kind == "file") {
        if (out_path == nullptr) {
            std::fprintf(stderr, "-sink file requires -o FILE\n");
            return 2;
        }
        BinaryFileSink sink(out_path,
                            static_cast<std::size_t>(cfg.sink_buffer_edges));
        const ChunkStats stats = generate_chunked(cfg, pes, sink);
        sink.finish();
        std::printf("model=%s n=%llu edges[%s]=%llu -> %s (binary) chunks=%llu "
                    "seconds=%.6f peak_buffered_bytes=%llu spilled_chunks=%llu "
                    "spilled_bytes=%llu bytes_written=%llu buffers_recycled=%llu\n",
                    model_name(cfg.model), static_cast<unsigned long long>(n),
                    semantics_name(cfg.edge_semantics),
                    static_cast<unsigned long long>(sink.num_edges()), out_path,
                    static_cast<unsigned long long>(stats.num_chunks), stats.seconds,
                    static_cast<unsigned long long>(stats.peak_buffered_bytes),
                    static_cast<unsigned long long>(stats.spilled_chunks),
                    static_cast<unsigned long long>(stats.spilled_bytes),
                    static_cast<unsigned long long>(sink.bytes_written()),
                    static_cast<unsigned long long>(stats.buffers_recycled));
        if (dedup_out != nullptr) {
            // External-memory dedup: canonical undirected edge set of the
            // file just written, at bounded memory — union_undirected for
            // graphs that never fit in RAM.
            const em::SortStats sorted =
                em::sort_dedup_file(out_path, dedup_out, cfg.sort_memory);
            std::printf("dedup -> %s unique_edges=%llu runs=%llu "
                        "sort_memory_bytes=%llu\n",
                        dedup_out, static_cast<unsigned long long>(sorted.output_edges),
                        static_cast<unsigned long long>(sorted.runs),
                        static_cast<unsigned long long>(cfg.sort_memory));
        }
        return 0;
    }
    if (kind == "memory") {
        MemorySink sink;
        generate_chunked(cfg, pes, sink);
        sink.finish();
        FILE* out = out_path ? std::fopen(out_path, "w") : stdout;
        if (out == nullptr) {
            std::perror("fopen");
            return 1;
        }
        std::fprintf(out, "%% kagen model=%s n=%llu edges=%zu (chunked)\n",
                     model_name(cfg.model), static_cast<unsigned long long>(n),
                     sink.edges().size());
        for (const auto& [u, v] : sink.edges()) {
            std::fprintf(out, "%llu %llu\n", static_cast<unsigned long long>(u),
                         static_cast<unsigned long long>(v));
        }
        if (out_path) std::fclose(out);
        return 0;
    }
    std::fprintf(stderr, "unknown sink '%s' (memory|count|stats|file)\n", kind.c_str());
    return 2;
}

int run_per_pe(const Config& cfg, u64 rank, u64 size, const char* out_path) {
    const Result result = generate(cfg, rank, size);
    FILE* out           = out_path ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(out, "%% kagen model=%s n=%llu rank=%llu/%llu edges=%zu\n",
                 model_name(cfg.model), static_cast<unsigned long long>(result.n),
                 static_cast<unsigned long long>(rank),
                 static_cast<unsigned long long>(size), result.edges.size());
    for (const auto& [u, v] : result.edges) {
        std::fprintf(out, "%llu %llu\n", static_cast<unsigned long long>(u),
                     static_cast<unsigned long long>(v));
    }
    if (out_path) std::fclose(out);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && (std::strcmp(argv[1], "-help") == 0 ||
                      std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
        print_help(stdout, argv[0]);
        return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "-worker") == 0) {
        return run_worker_mode(argc, argv);
    }
    if (argc < 2) {
        print_help(stderr, argv[0]); // error path: keep stdout clean for data
        return 2;
    }
    Config cfg;
    cfg.model         = parse_model(argv[1]);
    cfg.n             = 1024;
    cfg.chunks_per_pe = 4;
    u64 rank = 0, size = 1, pes = 4;
    u64 ranks             = 0; // 0 = in-process; N = distributed backend
    u64 threads_per_rank  = 1;
    bool keep_rank_files  = false;
    const char* out_path  = nullptr;
    const char* dedup_out = nullptr;
    std::string sink_kind;
    net::NetOptions net_opts;
    const char* manifest_path = nullptr;
    const char* run_flag      = nullptr; // a run setting given on this command line
    bool m_set = false;
    // -p 0 / -r 0 are legitimate requests (empty gnp graph, radius-0 rgg);
    // only an ABSENT flag gets the heuristic default below.
    bool p_set = false, r_set = false;
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            // The old `i + 1 < argc` loop bound silently DROPPED a trailing
            // flag with no value — "-sink file -o" ran with stdout output.
            std::fprintf(stderr, "flag '%s' is missing its value\n", flag.c_str());
            return 2;
        }
        const char* val = argv[i + 1];
        if (flag == "-n") cfg.n = parse_u64(flag, val);
        else if (flag == "-m") { cfg.m = parse_u64(flag, val); m_set = true; }
        else if (flag == "-p") { cfg.p = parse_f64(flag, val); p_set = true; }
        else if (flag == "-r") { cfg.r = parse_f64(flag, val); r_set = true; }
        else if (flag == "-d") {
            cfg.avg_deg = parse_f64(flag, val);
            if (cfg.model == Model::Ba) {
                // strtoull used to TRUNCATE "-d 2.5" to an attachment degree
                // of 2 — a different graph than the one asked for.
                if (cfg.avg_deg < 0.0 ||
                    cfg.avg_deg != std::floor(cfg.avg_deg)) {
                    bad_value(flag, val,
                              "a non-negative integer attachment degree for ba");
                }
                cfg.ba_degree = static_cast<u64>(cfg.avg_deg);
            }
        }
        else if (flag == "-g") cfg.gamma = parse_f64(flag, val);
        else if (flag == "-s") cfg.seed = parse_u64(flag, val);
        else if (flag == "-sampler") {
            if (std::strcmp(val, "v1") == 0) cfg.sampler_version = SamplerVersion::v1;
            else if (std::strcmp(val, "v2") == 0) cfg.sampler_version = SamplerVersion::v2;
            else {
                std::fprintf(stderr, "unknown sampler '%s' (v1|v2)\n", val);
                return 2;
            }
        }
        else if (flag == "-rank") rank = parse_u64(flag, val);
        else if (flag == "-size") size = parse_u64(flag, val);
        else if (flag == "-o") out_path = val;
        else if (flag == "-sink") sink_kind = val;
        else if (flag == "-pes") pes = parse_u64(flag, val);
        else if (flag == "-chunks-per-pe") cfg.chunks_per_pe = parse_u64(flag, val);
        else if (flag == "-chunks") cfg.total_chunks = parse_u64(flag, val);
        else if (flag == "-ranks") ranks = parse_u64(flag, val);
        else if (flag == "-threads-per-rank")
            threads_per_rank = parse_u64(flag, val);
        else if (flag == "-keep-rank-files")
            keep_rank_files = parse_bool(flag, val);
        else if (parse_run_flag(flag, val, cfg)) run_flag = argv[i];
        else if (flag == "-dedup-out") dedup_out = val;
        else if (flag == "-edge-semantics") {
            if (!parse_semantics(val, &cfg.edge_semantics)) {
                std::fprintf(stderr,
                             "unknown semantics '%s' (as_generated|exact_once)\n", val);
                return 2;
            }
        }
        else if (flag == "-listen") net_opts.listen = val;
        else if (flag == "-connect") net_opts.connect = split_commas(val);
        else if (flag == "-expect-workers")
            net_opts.expect_workers = parse_u64(flag, val);
        else if (flag == "-manifest") manifest_path = val;
        else if (flag == "-net-timeout")
            net_opts.connect_timeout_ms = parse_timeout_ms(flag, val);
        else if (flag == "-net-deadline")
            net_opts.job_deadline_ms = parse_timeout_ms(flag, val);
        else if (flag == "-trace") cfg.trace_path = val;
        else if (flag == "-metrics") cfg.metrics_path = val;
        else if (flag == "-v") g_verbose = parse_u64(flag, val);
        else {
            std::fprintf(stderr, "unknown flag '%s' (try -help)\n", flag.c_str());
            return 2;
        }
    }
    if (!m_set) cfg.m = 8 * cfg.n;
    if (!p_set) cfg.p = 8.0 / static_cast<double>(cfg.n);
    if (!r_set) {
        cfg.r = 0.6 * std::sqrt(std::log(static_cast<double>(cfg.n)) /
                                static_cast<double>(cfg.n));
    }

    const bool net_mode = !net_opts.listen.empty() || !net_opts.connect.empty();
    if (!net_opts.listen.empty() && !net_opts.connect.empty()) {
        std::fprintf(stderr, "-listen and -connect are mutually exclusive\n");
        return 2;
    }
    if (!net_opts.listen.empty() && net_opts.expect_workers == 0) {
        std::fprintf(stderr, "-listen requires -expect-workers N\n");
        return 2;
    }
    if (net_mode && ranks != 0) {
        std::fprintf(stderr, "-ranks (fork backend) and -listen/-connect "
                             "(TCP backend) are mutually exclusive\n");
        return 2;
    }
    if (net_mode && run_flag != nullptr) {
        // The job carries only the graph: a run setting given here would
        // silently not apply on the workers.
        std::fprintf(stderr,
                     "%s is a per-node run setting: with -listen/-connect set it on "
                     "the workers (%s -worker H:P %s ...)\n",
                     run_flag, argv[0], run_flag);
        return 2;
    }
    if (net_mode && sink_kind.empty()) {
        std::fprintf(stderr, "-listen/-connect requires -sink count|stats|file\n");
        return 2;
    }
    if (manifest_path != nullptr && (!net_mode || sink_kind != "file")) {
        std::fprintf(stderr, "-manifest requires -listen/-connect with -sink file\n");
        return 2;
    }
    if (manifest_path != nullptr && dedup_out != nullptr) {
        std::fprintf(stderr, "-dedup-out needs a gathered file (-o), "
                             "not a -manifest run\n");
        return 2;
    }
    if (dedup_out != nullptr && sink_kind != "file") {
        // Silently ignoring the flag would leave scripts failing later on a
        // missing dedup file with no hint why — also on the per-PE path.
        std::fprintf(stderr, "-dedup-out requires -sink file\n");
        return 2;
    }
    if (ranks != 0 && sink_kind.empty()) {
        std::fprintf(stderr, "-ranks requires -sink count|stats|file\n");
        return 2;
    }
    if ((!cfg.trace_path.empty() || !cfg.metrics_path.empty()) &&
        sink_kind.empty()) {
        // The per-PE path returns edges without running the chunk engine;
        // silently writing no telemetry file would look like a lost trace.
        std::fprintf(stderr, "-trace/-metrics require a -sink run\n");
        return 2;
    }

    try {
        int rc;
        if (net_mode || ranks != 0) {
            net_opts.num_pes            = pes;
            net_opts.threads_per_worker = threads_per_rank;
            rc = run_coordinated_sink(cfg, sink_kind, ranks, keep_rank_files, net_opts,
                                      out_path, manifest_path, dedup_out);
        } else if (!sink_kind.empty()) {
            rc = run_chunked_sink(cfg, sink_kind, pes, out_path, dedup_out);
        } else {
            rc = run_per_pe(cfg, rank, size, out_path);
        }
        if (rc == 0) print_verbose_metrics();
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
