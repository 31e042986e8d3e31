// Layer-by-layer cost ledger for one benchmark workload.
//
// Runs the workload's graph through the library's public entry points at
// increasing pipeline depth and prints one JSON object: the wall and CPU
// seconds of every depth over the whole graph, and the per-layer metrics
// perfbench/run.py reports with `--trace 1`. A layer's cost is the
// difference between two adjacent depths, so the layers on a workload's path
// add up to its deepest run and run.py can compare their sum against the
// end-to-end CPU time (ledger.residual_pct).
//
//   sampling   sorted_sample at the workload's chunk-row shape
//   model      kagen::generate, as_generated, every chunk, one thread
//   ownership  the same with exact_once, minus model
//   pool       generate_chunked on T = kThreads threads into an unordered null sink,
//              minus one thread with the workload's semantics
//   pe         the same into an ordered null sink, minus pool
//   spill      the same under the spill budget, minus pe
//   sink       BinaryFileSink::deliver + finish of the output edge count
//   dist       dist::run_distributed over T forked ranks into a merged file
//   em_sort    em::sort_dedup_file of that merged file
//   net        net::run_net_coordinator with T in-process run_net_worker threads
//
// Every layer is measured on every workload's graph, so each metric exists
// for each workload; run.py's residual only sums the layers the workload's
// real command goes through.
//
// usage: perf_ledger <model> -workdir DIR [graph flags as kagen_tool takes
//        them: -n -m -d -g -s -sampler -edge-semantics -chunks
//        -max-buffered-bytes -sort-memory]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace kagen;

namespace {

/// Threads, ranks and workers of the multi-threaded probes: the machine's 4
/// CPUs, the most any workload's command uses (perfbench/run.py THREADS).
constexpr u64 kThreads = 4;

/// Reps of each engine depth; the ledger reports their medians.
constexpr u64 kReps = 3;

/// Budget the spill probe uses when the workload sets none: small enough
/// that most chunks of every workload park on disk.
constexpr u64 kDefaultSpillBudget = u64{1} << 22;

/// Samples the sampling probe draws; enough to amortize per-chunk setup.
constexpr u64 kSamplingProbeSamples = u64{1} << 23;

/// Edges per BinaryFileSink::deliver call in the sink probe: 1 MiB, the
/// arena slab size, which is what ordered delivery hands the sink.
constexpr std::size_t kSinkBatchEdges = std::size_t{1} << 16;

struct Cost {
    double wall = 0.0;
    double cpu  = 0.0;

    Cost& operator+=(const Cost& other) {
        wall += other.wall;
        cpu += other.cpu;
        return *this;
    }
};

double seconds_of(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// CPU of this process (all threads) plus every child reaped so far, so a
/// probe that forks and waits (dist) is charged for its ranks.
double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9 +
           seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

template <typename Fn>
Cost measure(Fn&& fn) {
    const auto t0  = std::chrono::steady_clock::now();
    const double c0 = cpu_now();
    fn();
    Cost cost;
    cost.cpu  = cpu_now() - c0;
    cost.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return cost;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Median wall and median CPU of several measurements.
Cost median_cost(const std::vector<Cost>& costs) {
    std::vector<double> walls, cpus;
    for (const Cost& c : costs) {
        walls.push_back(c.wall);
        cpus.push_back(c.cpu);
    }
    return {median(walls), median(cpus)};
}

/// Counts edges and drops them. `ordered` selects which delivery path of the
/// chunked engine the sink asks for.
class NullSink final : public EdgeSink {
public:
    explicit NullSink(bool ordered) : ordered_(ordered) {}
    bool ordered() const override { return ordered_; }
    u64 edges() const { return edges_.load(std::memory_order_relaxed); }

protected:
    void consume(const Edge*, std::size_t count) override {
        edges_.fetch_add(count, std::memory_order_relaxed);
    }

private:
    bool ordered_;
    std::atomic<u64> edges_{0};
};


/// Sums the durations of every drained trace span of `phase`, in seconds.
double drained_span_seconds(obs::Phase phase) {
    std::vector<obs::TraceEvent> events;
    obs::TraceRecorder::global().drain(events);
    u64 ns = 0;
    for (const auto& ev : events) {
        if (ev.is_span != 0 && ev.phase == phase) ns += ev.dur_ns;
    }
    return static_cast<double>(ns) * 1e-9;
}

/// Arms the process trace recorder for one probe and disarms it on every
/// exit path, so the merge spans of dist/net can be read back.
class RecorderScope {
public:
    RecorderScope() {
        std::vector<obs::TraceEvent> stale;
        obs::TraceRecorder::global().drain(stale);
        obs::TraceRecorder::global().enable(true);
    }
    ~RecorderScope() { obs::TraceRecorder::global().enable(false); }
    RecorderScope(const RecorderScope&)            = delete;
    RecorderScope& operator=(const RecorderScope&) = delete;
};

/// Joins every thread it holds when it goes out of scope.
struct Joiner {
    std::vector<std::thread> threads;
    Joiner() = default;
    ~Joiner() {
        for (auto& t : threads) {
            if (t.joinable()) t.join();
        }
    }
    Joiner(const Joiner&)            = delete;
    Joiner& operator=(const Joiner&) = delete;
};

void remove_file(const std::string& path) {
    if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
        std::fprintf(stderr, "perf_ledger: cannot remove %s: %s\n", path.c_str(),
                     std::strerror(errno));
    }
}

[[noreturn]] void usage_error(const std::string& msg) {
    std::fprintf(stderr, "perf_ledger: %s\n", msg.c_str());
    std::exit(2);
}

u64 parse_u64(const std::string& flag, const char* val) {
    errno     = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(val, &end, 10);
    if (val[0] == '-' || errno != 0 || end == val || *end != '\0') {
        usage_error(flag + ": expected a non-negative integer, got '" + val + "'");
    }
    return v;
}

double parse_f64(const std::string& flag, const char* val) {
    errno     = 0;
    char* end = nullptr;
    const double v = std::strtod(val, &end);
    if (errno != 0 || end == val || *end != '\0' || !std::isfinite(v)) {
        usage_error(flag + ": expected a finite number, got '" + val + "'");
    }
    return v;
}

Model parse_model(const std::string& name) {
    for (int m = 0; m <= static_cast<int>(Model::Rmat); ++m) {
        if (name == model_name(static_cast<Model>(m))) return static_cast<Model>(m);
    }
    usage_error("unknown model '" + name + "'");
}

struct Options {
    Config cfg;
    std::string workdir;
    u64 sort_memory = u64{64} << 20; // kagen_tool's -sort-memory default
};

/// Parses the graph flags with kagen_tool's spellings and defaults, so the
/// ledger builds exactly the graph the tool builds from the same flags.
Options parse_options(int argc, char** argv) {
    if (argc < 2) usage_error("usage: perf_ledger <model> -workdir DIR [flags]");
    Options o;
    Config& cfg  = o.cfg;
    cfg.model    = parse_model(argv[1]);
    cfg.n        = 1024;
    bool m_set = false;
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage_error("flag '" + flag + "' is missing its value");
        const char* val = argv[i + 1];
        if (flag == "-n") cfg.n = parse_u64(flag, val);
        else if (flag == "-m") { cfg.m = parse_u64(flag, val); m_set = true; }
        else if (flag == "-d") cfg.avg_deg = parse_f64(flag, val);
        else if (flag == "-g") cfg.gamma = parse_f64(flag, val);
        else if (flag == "-s") cfg.seed = parse_u64(flag, val);
        else if (flag == "-chunks") cfg.total_chunks = parse_u64(flag, val);
        else if (flag == "-max-buffered-bytes") cfg.max_buffered_bytes = parse_u64(flag, val);
        else if (flag == "-sort-memory") o.sort_memory = parse_u64(flag, val);
        else if (flag == "-workdir") o.workdir = val;
        else if (flag == "-sampler") {
            if (std::strcmp(val, "v1") == 0) cfg.sampler_version = SamplerVersion::v1;
            else if (std::strcmp(val, "v2") == 0) cfg.sampler_version = SamplerVersion::v2;
            else usage_error(std::string("unknown sampler '") + val + "'");
        } else if (flag == "-edge-semantics") {
            if (!parse_semantics(val, &cfg.edge_semantics)) {
                usage_error(std::string("unknown semantics '") + val + "'");
            }
        } else {
            usage_error("unknown flag '" + flag + "'");
        }
    }
    if (!m_set) cfg.m = 8 * cfg.n;
    cfg.r = 0.6 * std::sqrt(std::log(static_cast<double>(cfg.n)) / static_cast<double>(cfg.n));
    if (o.workdir.empty()) usage_error("-workdir is required");
    if (cfg.total_chunks == 0) usage_error("-chunks is required (the ledger pins C)");
    return o;
}

/// Prints `"name": value` pairs as one flat JSON object body.
class JsonObject {
public:
    void num(const char* name, double value) {
        add(name);
        std::printf("%.9g", value);
    }
    void count(const char* name, u64 value) {
        add(name);
        std::printf("%llu", static_cast<unsigned long long>(value));
    }
    void cost(const char* name, const Cost& c) {
        add(name);
        std::printf("{\"wall_s\": %.9g, \"cpu_s\": %.9g}", c.wall, c.cpu);
    }
    void open(const char* name) {
        add(name);
        std::printf("{");
        first_ = true;
    }
    void close() {
        std::printf("}");
        first_ = false;
    }

private:
    void add(const char* name) {
        std::printf("%s\"%s\": ", first_ ? "" : ", ", name);
        first_ = false;
    }
    bool first_ = true;
};

int run(const Options& o) {
    const Config& cfg = o.cfg;

    Config as_generated  = cfg;
    as_generated.edge_semantics = EdgeSemantics::as_generated;
    Config exact_once    = cfg;
    exact_once.edge_semantics = EdgeSemantics::exact_once;

    // model / ownership: one thread, every chunk, null sink. The two
    // semantics alternate chunk by chunk, so a change in the machine's speed
    // during the probe cancels in their difference.
    Cost model, exact;
    NullSink emitted_sink(false), kept_sink(false);
    for (u64 c = 0; c < cfg.total_chunks; ++c) {
        model += measure([&] { generate(as_generated, c, cfg.total_chunks, emitted_sink); });
        exact += measure([&] { generate(exact_once, c, cfg.total_chunks, kept_sink); });
    }
    emitted_sink.finish();
    kept_sink.finish();
    const u64 emitted    = emitted_sink.edges();
    const u64 kept       = kept_sink.edges();
    const bool exact_run = cfg.edge_semantics == EdgeSemantics::exact_once;
    const u64 out_edges  = exact_run ? kept : emitted;
    const Cost one_thread = exact_run ? exact : model;
    if (out_edges == 0) throw std::runtime_error("the workload graph has no edges");

    // sampling: sorted_sample at the chunk-row shape of the adjacency matrix
    // (rows n/C, n columns, out_edges/C samples), the shape the ER chunks
    // draw from. rgg/rhg never call it; their row is a sampler reference.
    const u64 rows     = std::max<u64>(cfg.n / cfg.total_chunks, 1);
    const u128 uni128  = static_cast<u128>(rows) * cfg.n;
    const u64 universe = static_cast<u64>(std::min<u128>(uni128, u128{1} << 62));
    const u64 k = std::clamp<u64>(out_edges / cfg.total_chunks, 1, universe);
    const u64 sample_chunks =
        std::clamp<u64>(kSamplingProbeSamples / k, 1, cfg.total_chunks);
    u64 sample_acc = 0;
    const Cost sampling = measure([&] {
        for (u64 c = 0; c < sample_chunks; ++c) {
            Rng rng = Rng::for_ids(cfg.seed, {c});
            sorted_sample(rng, universe, k, [&](u64 s) { sample_acc += s; },
                          cfg.sampler_version);
        }
    });

    // sink: the output's bytes through BinaryFileSink alone.
    const std::string sink_path = o.workdir + "/ledger_sink.bin";
    std::vector<Edge> batch(kSinkBatchEdges);
    for (std::size_t i = 0; i < batch.size(); ++i) batch[i] = {i, i * 7 + 1};
    const Cost sink = measure([&] {
        BinaryFileSink file(sink_path);
        for (u64 left = out_edges; left > 0;) {
            const std::size_t n =
                static_cast<std::size_t>(std::min<u64>(left, batch.size()));
            file.deliver(batch.data(), n);
            left -= n;
        }
        file.finish();
    });
    remove_file(sink_path);

    // dist, then em_sort on its merged file. Runs before any probe starts
    // the global thread pool, so the coordinator forks a single-threaded
    // process as kagen_tool -ranks does.
    dist::DistOptions dopt;
    dopt.num_ranks        = kThreads;
    dopt.num_pes          = kThreads;
    dopt.threads_per_rank = 1;
    dopt.output_path      = o.workdir + "/ledger_dist.bin";
    dopt.scratch_dir      = o.workdir;
    dist::DistResult dres;
    double dist_merge_s = 0.0;
    Cost dist_cost;
    {
        const RecorderScope recorder;
        dist_cost    = measure([&] { dres = dist::run_distributed(cfg, dopt); });
        dist_merge_s = drained_span_seconds(obs::Phase::merge);
    }
    if (dres.edges_written != out_edges) {
        throw std::runtime_error("dist probe wrote " + std::to_string(dres.edges_written) +
                                 " edges, expected " + std::to_string(out_edges));
    }
    double rank_max = 0.0, rank_sum = 0.0;
    for (const auto& rep : dres.ranks) {
        rank_max = std::max(rank_max, rep.stats.seconds);
        rank_sum += rep.stats.seconds;
    }
    const double rank_mean = rank_sum / static_cast<double>(dres.ranks.size());

    const std::string dedup_path = o.workdir + "/ledger_dedup.bin";
    em::SortStats sorted;
    const Cost em_sort = measure(
        [&] { sorted = em::sort_dedup_file(dopt.output_path, dedup_path, o.sort_memory); });
    remove_file(dopt.output_path);
    remove_file(dedup_path);

    // net: coordinator on this thread, T real workers on loopback threads.
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions nopt;
    nopt.listener       = &listener;
    nopt.expect_workers = kThreads;
    nopt.num_pes        = kThreads;
    nopt.output_path    = o.workdir + "/ledger_net.bin";
    const std::string endpoint = "127.0.0.1:" + std::to_string(listener.port());
    net::NetResult nres;
    double net_merge_s = 0.0;
    std::vector<std::string> worker_errors(kThreads);
    Cost net_cost;
    {
        const RecorderScope recorder;
        net_cost = measure([&] {
            Joiner workers; // joined before the timing ends, and on throw
            for (u64 w = 0; w < kThreads; ++w) {
                workers.threads.emplace_back([&, w] {
                    try {
                        net::NetWorkerOptions wopt;
                        wopt.scratch_dir = o.workdir;
                        net::run_net_worker(endpoint, wopt);
                    } catch (const std::exception& e) {
                        worker_errors[w] = e.what();
                    }
                });
            }
            nres = net::run_net_coordinator(cfg, nopt);
        });
        net_merge_s = drained_span_seconds(obs::Phase::merge);
    }
    remove_file(nopt.output_path);
    for (const auto& err : worker_errors) {
        if (!err.empty()) throw std::runtime_error("net probe worker: " + err);
    }
    if (nres.edges_written != out_edges) {
        throw std::runtime_error("net probe wrote " + std::to_string(nres.edges_written) +
                                 " edges, expected " + std::to_string(out_edges));
    }

    // pool / pe / spill: the chunked engine on T threads, the three depths
    // interleaved rep by rep for the same reason as above.
    auto engine = [&](bool ordered, u64 budget, ChunkStats* stats) {
        Config run = cfg;
        run.max_buffered_bytes = budget;
        NullSink null(ordered);
        const Cost cost =
            measure([&] { *stats = generate_chunked(run, kThreads, null, kThreads); });
        null.finish();
        if (null.edges() != out_edges) {
            throw std::runtime_error("engine probe delivered " + std::to_string(null.edges()) +
                                     " edges, expected " + std::to_string(out_edges));
        }
        return cost;
    };
    const u64 budget = cfg.max_buffered_bytes != 0 ? cfg.max_buffered_bytes : kDefaultSpillBudget;
    std::vector<Cost> pools, ordereds, spills;
    ChunkStats unordered_stats, ordered_stats, spill_stats;
    u64 busy_ns = 0, steals = 0, stolen = 0;
    for (u64 r = 0; r < kReps; ++r) {
        pools.push_back(engine(false, 0, &unordered_stats));
        const obs::Snapshot base = obs::Registry::global().snapshot();
        ordereds.push_back(engine(true, 0, &ordered_stats));
        const obs::Snapshot delta = obs::Registry::global().snapshot().subtract(base);
        busy_ns += delta.counter_or("pool.busy_ns");
        steals += delta.counter_or("pool.steal_attempts");
        stolen += delta.counter_or("pool.steal_successes");
        spills.push_back(engine(true, budget, &spill_stats));
    }
    const Cost pool    = median_cost(pools);
    const Cost ordered = median_cost(ordereds);
    const Cost spill   = median_cost(spills);

    const double E      = static_cast<double>(out_edges);
    const double reps   = static_cast<double>(kReps);
    const double busy_s = static_cast<double>(busy_ns) * 1e-9;
    const double slabs  = static_cast<double>(ordered_stats.buffers_allocated +
                                              ordered_stats.buffers_recycled);
    const double spill_edges = static_cast<double>(spill_stats.spilled_bytes) / sizeof(Edge);

    std::printf("{");
    JsonObject j;
    j.count("output_edges", out_edges);
    j.count("emitted_as_generated", emitted);
    j.count("sample_checksum", sample_acc); // keeps the sampling loop alive
    j.open("costs");
    j.cost("sampling", sampling);
    j.cost("model", model);
    j.cost("exact_once", exact);
    j.cost("one_thread", one_thread);
    j.cost("engine_unordered", pool);
    j.cost("engine_ordered", ordered);
    j.cost("engine_spill", spill);
    j.cost("sink", sink);
    j.cost("dist", dist_cost);
    j.cost("em_sort", em_sort);
    j.cost("net", net_cost);
    j.close();
    j.open("metrics");
    j.num("sampling.ns_per_sample",
          sampling.cpu * 1e9 / static_cast<double>(sample_chunks * k));
    j.num("model.ns_per_emitted_edge", model.cpu * 1e9 / static_cast<double>(emitted));
    j.num("model.emitted_per_output_edge", static_cast<double>(emitted) / E);
    j.num("ownership.ns_per_emitted_edge",
          (exact.cpu - model.cpu) * 1e9 / static_cast<double>(emitted));
    j.num("ownership.drop_fraction", 1.0 - static_cast<double>(kept) / static_cast<double>(emitted));
    j.num("pe.deliver_ns_per_edge", (ordered.wall - pool.wall) * 1e9 / E);
    j.num("pe.deliver_cpu_ns_per_edge", (ordered.cpu - pool.cpu) * 1e9 / E);
    j.count("pe.peak_buffered_bytes", ordered_stats.peak_buffered_bytes);
    j.count("pe.slabs_reserved", ordered_stats.buffers_allocated);
    j.num("pe.freelist_hit_ratio",
          slabs > 0 ? static_cast<double>(ordered_stats.buffers_recycled) / slabs : 0.0);
    j.num("pool.busy_fraction",
          busy_s / (reps * static_cast<double>(ordered_stats.workers) * ordered.wall));
    // No attempt means no failed steal.
    j.num("pool.steal_success_ratio",
          steals > 0 ? static_cast<double>(stolen) / static_cast<double>(steals) : 1.0);
    j.num("spill.ns_per_edge", (spill.wall - ordered.wall) * 1e9 / E);
    j.num("spill.spilled_fraction", spill_edges / E);
    j.num("sink.write_ns_per_edge", sink.wall * 1e9 / E);
    j.num("sink.write_GBps", E * sizeof(Edge) / sink.wall * 1e-9);
    j.num("dist.tax_s", dist_cost.wall - dres.seconds);
    j.num("dist.rank_imbalance", rank_mean > 0 ? rank_max / rank_mean : 0.0);
    j.num("dist.merge_GBps",
          dist_merge_s > 0 ? static_cast<double>(dres.merged_bytes) / dist_merge_s * 1e-9 : 0.0);
    j.num("net.tax_s", net_cost.wall - nres.seconds);
    j.num("net.gather_GBps",
          net_merge_s > 0 ? static_cast<double>(nres.merged_bytes) / net_merge_s * 1e-9 : 0.0);
    j.num("em_sort.ns_per_edge", em_sort.wall * 1e9 / static_cast<double>(sorted.input_edges));
    j.count("em_sort.runs", sorted.runs);
    j.close();
    std::printf("}\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Options opts = parse_options(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perf_ledger: %s\n", e.what());
        return 1;
    }
}
