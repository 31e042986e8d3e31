// Headline claim (abstract / §9): "instances of up to 2^43 vertices and
// 2^47 edges in less than 22 minutes on 32768 cores" using the directed
// G(n,m) generator. We cannot rent SuperMUC, but the generator is
// communication-free, so the claim reduces to per-core throughput:
// PerCoreThroughput measures this machine's sustained per-PE edge rate —
// now through the chunked execution engine + CountingSink, so no edge list
// is ever materialized — and reports how long 2^47 edges would take on
// 32768 such cores.
//
// ChunkingSpeedup measures what the engine adds on top of the paper: with
// K = chunks_per_pe > 1, the K·P logical chunks are claimed one at a time
// from the persistent pool's shared cursor, so stragglers (the skewed chunks of a
// power-law RHG instance) stop dominating the makespan. It reports the
// 1-chunk-per-PE makespan, the K-chunk makespan, and their ratio — on a
// multicore host speedup_vs_1chunk > 1 for the skewed workload.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_common.hpp"

namespace {

/// Global-new interposition for the AllocationChurn bench: one relaxed
/// fetch_add per allocation, negligible against the counted work. Counts
/// every heap allocation in the process, including generator internals —
/// the arena PR's claim is that the *pipeline's* share is zero, so the
/// total collapses from O(chunks) to a small per-run constant plus
/// whatever the generators themselves allocate.
std::atomic<unsigned long long> g_alloc_calls{0};

} // namespace

void* operator new(std::size_t size) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a =
        std::max(static_cast<std::size_t>(align), sizeof(void*));
    void* p = nullptr;
    if (posix_memalign(&p, a, size ? size : a) != 0) throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using namespace kagen;

void PerCoreThroughput(benchmark::State& state) {
    const u64 pes      = static_cast<u64>(state.range(0));
    const u64 m_per_pe = u64{1} << state.range(1);
    const u64 m        = m_per_pe * pes;

    Config cfg;
    cfg.model = Model::GnmDirected;
    cfg.n     = m / 16;
    cfg.m     = m;
    cfg.seed  = 1;

    const double makespan = kagen::bench::engine_scaling_run(state, cfg, pes);
    const double per_core_rate =
        static_cast<double>(m_per_pe) / makespan; // edges/s/PE at full load
    state.counters["edges_per_s_per_PE"] = per_core_rate;
    // Projection: 2^47 edges over 32768 cores, plus the paper's observed
    // O(log P) recursion overhead (negligible at this granularity).
    const double projected_minutes =
        (static_cast<double>(u64{1} << 47) / 32768.0) / per_core_rate / 60.0;
    state.counters["projected_minutes_2e47_on_32768"] = projected_minutes;
}

BENCHMARK(PerCoreThroughput)
    ->Args({16, 20})
    ->Args({16, 22})
    ->UseManualTime()
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void SamplerVersionSpeedup(benchmark::State& state) {
    // The PR-6 tentpole claim: sampler v2 (batched variates + branch-light
    // Method D, DESIGN.md §10) delivers >= 2x edges/s on the directed
    // G(n,m) headline. v1 and v2 runs are interleaved within every
    // iteration so frequency drift and cache state hit both engines
    // equally; the ratio counter, not either absolute time, is the claim.
    const u64 pes = 16;

    Config cfg;
    cfg.model = Model::GnmDirected;
    cfg.n     = (u64{1} << 22) / 16;
    cfg.m     = u64{1} << 22;
    cfg.seed  = 1;

    {
        CountingSink warmup;
        generate_chunked(cfg, pes, warmup);
    }
    double t_v1 = 0.0, t_v2 = 0.0;
    u64 edges = 0;
    for (auto _ : state) {
        cfg.sampler_version = SamplerVersion::v1;
        CountingSink s1;
        t_v1 = generate_chunked(cfg, pes, s1).seconds;

        cfg.sampler_version = SamplerVersion::v2;
        CountingSink s2;
        t_v2  = generate_chunked(cfg, pes, s2).seconds;
        edges = s2.num_edges();
        state.SetIterationTime(t_v1 + t_v2);
    }
    state.counters["PEs"]            = static_cast<double>(pes);
    state.counters["edges"]          = static_cast<double>(edges);
    state.counters["makespan_v1_s"]  = t_v1;
    state.counters["makespan_v2_s"]  = t_v2;
    state.counters["Medges/s_v1"]    = static_cast<double>(edges) / t_v1 / 1e6;
    state.counters["Medges/s_v2"]    = static_cast<double>(edges) / t_v2 / 1e6;
    state.counters["speedup_v2_over_v1"] = t_v1 / t_v2;
}

BENCHMARK(SamplerVersionSpeedup)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void ChunkingSpeedup(benchmark::State& state) {
    const u64 K = static_cast<u64>(state.range(0));
    const u64 P = std::max<u64>(2, std::thread::hardware_concurrency());

    // Skewed workload: a power-law RHG close to gamma = 2 concentrates work
    // in the chunks holding the high-degree core, so per-chunk cost varies
    // by an order of magnitude — the load-balancing case chunking targets.
    Config cfg;
    cfg.model   = Model::Rhg;
    cfg.n       = u64{1} << 15;
    cfg.avg_deg = 16;
    cfg.gamma   = 2.2;
    cfg.seed    = 7;

    {
        CountingSink warmup;
        generate_chunked(cfg, P, warmup);
    }
    double t_one = 0.0, t_k = 0.0;
    u64 edges = 0;
    for (auto _ : state) {
        cfg.chunks_per_pe = 1;
        CountingSink base;
        t_one = generate_chunked(cfg, P, base).seconds;

        cfg.chunks_per_pe = K;
        CountingSink chunked;
        t_k   = generate_chunked(cfg, P, chunked).seconds;
        edges = chunked.num_edges();
        state.SetIterationTime(t_one + t_k);
    }
    state.counters["PEs"]                 = static_cast<double>(P);
    state.counters["chunks_per_pe"]       = static_cast<double>(K);
    state.counters["edges"]               = static_cast<double>(edges);
    state.counters["makespan_1chunk_s"]   = t_one;
    state.counters["makespan_Kchunks_s"]  = t_k;
    state.counters["speedup_vs_1chunk"]   = t_one / t_k;
}

BENCHMARK(ChunkingSpeedup)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void ExactOnceOverhead(benchmark::State& state) {
    // exact_once vs as_generated, side by side on the same instance. Both
    // models skip, while generating, the edges another chunk keeps:
    // gnm_undirected its row chunks, rgg2d the halo cells below its first
    // cell. So exact_once_overhead reads at most 1 (well below it for
    // gnm_undirected). Tracked here so BENCH_* json shows both over time;
    // the duplicate counters record how much redundancy the tie-break
    // removes.
    const u64 P = std::max<u64>(2, std::thread::hardware_concurrency());

    Config cfg;
    cfg.model         = state.range(0) == 0 ? Model::GnmUndirected : Model::Rgg2D;
    cfg.n             = u64{1} << 18;
    cfg.m             = 16 * cfg.n;
    cfg.r             = 0.002;
    cfg.seed          = 3;
    cfg.chunks_per_pe = 4;

    {
        CountingSink warmup;
        generate_chunked(cfg, P, warmup);
    }
    double t_as_gen = 0.0, t_exact = 0.0;
    u64 edges_as_gen = 0, edges_exact = 0;
    for (auto _ : state) {
        cfg.edge_semantics = EdgeSemantics::as_generated;
        CountingSink as_gen(cfg.edge_semantics);
        t_as_gen      = generate_chunked(cfg, P, as_gen).seconds;
        edges_as_gen  = as_gen.num_edges();

        cfg.edge_semantics = EdgeSemantics::exact_once;
        CountingSink exact(cfg.edge_semantics);
        t_exact     = generate_chunked(cfg, P, exact).seconds;
        edges_exact = exact.num_edges();
        state.SetIterationTime(t_as_gen + t_exact);
    }
    state.counters["PEs"]                  = static_cast<double>(P);
    state.counters["edges_as_generated"]   = static_cast<double>(edges_as_gen);
    state.counters["edges_exact_once"]     = static_cast<double>(edges_exact);
    state.counters["duplicates_removed"]   = static_cast<double>(edges_as_gen - edges_exact);
    state.counters["makespan_as_generated_s"] = t_as_gen;
    state.counters["makespan_exact_once_s"]   = t_exact;
    state.counters["exact_once_overhead"]     = t_exact / t_as_gen;
    state.counters["Medges/s_as_generated"] =
        static_cast<double>(edges_as_gen) / t_as_gen / 1e6;
    state.counters["Medges/s_exact_once"] =
        static_cast<double>(edges_exact) / t_exact / 1e6;
}

BENCHMARK(ExactOnceOverhead)
    ->Arg(0) // gnm_undirected
    ->Arg(1) // rgg2d
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void FileSinkThroughput(benchmark::State& state) {
    // The PR-5 headline (DESIGN.md §9): edges/s from generation to their
    // final resting place on disk, through the full hot path — inlined
    // sampler emit, direct streaming (single worker) or recycled chunk
    // buffers (multi-worker), bulk batched fwrite into a 1 MiB stream
    // buffer. The paper's headline model (directed G(n,m)) so the write
    // path, not the sampler, is what the number stresses. Arg(0): default
    // 4096-edge emit buffer; Arg(1): the pre-PR 1024-edge capacity for the
    // buffer-size ablation.
    const u64 P = 4;

    Config cfg;
    cfg.model             = Model::GnmDirected;
    cfg.n                 = u64{1} << 18;
    cfg.m                 = u64{1} << 22;
    cfg.seed              = 3;
    cfg.chunks_per_pe     = 4;
    cfg.sink_buffer_edges = state.range(0) == 0 ? 0 : 1024;

    const std::string out = "/tmp/kagen_bench_file_sink_throughput.bin";
    {
        CountingSink warmup;
        generate_chunked(cfg, P, warmup);
    }
    double t = 0.0;
    ChunkStats stats;
    u64 edges = 0, bytes = 0;
    for (auto _ : state) {
        BinaryFileSink sink(out, static_cast<std::size_t>(cfg.sink_buffer_edges));
        stats = generate_chunked(cfg, P, sink);
        sink.finish();
        t     = stats.seconds;
        edges = sink.num_edges();
        bytes = sink.bytes_written();
        state.SetIterationTime(t);
    }
    std::remove(out.c_str());
    state.counters["PEs"]               = static_cast<double>(P);
    state.counters["edges"]             = static_cast<double>(edges);
    state.counters["bytes_written"]     = static_cast<double>(bytes);
    state.counters["buffers_recycled"]  = static_cast<double>(stats.buffers_recycled);
    state.counters["sink_buffer_edges"] = static_cast<double>(
        cfg.sink_buffer_edges == 0 ? EdgeSink::kDefaultBufferEdges
                                   : cfg.sink_buffer_edges);
    state.counters["makespan_s"]        = t;
    state.counters["Medges/s"]          = static_cast<double>(edges) / t / 1e6;
    state.counters["MB_written/s"]      = static_cast<double>(bytes) / t / 1e6;
}

BENCHMARK(FileSinkThroughput)
    ->Arg(0) // default emit-buffer capacity (4096)
    ->Arg(1) // pre-PR capacity (1024) for the ablation
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BoundedDeliveryOverhead(benchmark::State& state) {
    // Ordered file output with the spill window engaged vs unbounded
    // buffering, side by side on the same instance: the price of a strict
    // memory bound is spill-file round-trips for chunks completing ahead
    // of the cursor. Counters record peak resident chunk-buffer bytes and
    // how much actually spilled, so the bound is visible, not asserted.
    // The second argument picks the model: 0 is undirected G(n,m), which
    // knows its chunk sizes and writes in place; 1 is exact_once RGG2D
    // (the rgg2d_exact_spill shape at half its n) through ordered
    // delivery. Its spilled chunk count swings with thread timing (1 to
    // over 200 of 256 in rgg2d_exact_spill runs), so the RGG row that the
    // telemetry overhead gate times runs unbounded.
    const u64 P            = std::max<u64>(2, std::thread::hardware_concurrency());
    const u64 budget_bytes = state.range(0) == 0 ? 0 : u64{1} << 20; // 1 MiB

    Config cfg;
    cfg.seed          = 3;
    cfg.chunks_per_pe = 4;
    if (state.range(1) == 0) {
        cfg.model = Model::GnmUndirected;
        cfg.n     = u64{1} << 18;
        cfg.m     = 16 * cfg.n;
    } else {
        cfg.model          = Model::Rgg2D;
        cfg.n              = u64{1} << 20;
        cfg.r              = 0.6 * std::sqrt(std::log(static_cast<double>(cfg.n)) /
                                             static_cast<double>(cfg.n));
        cfg.edge_semantics = EdgeSemantics::exact_once;
        cfg.chunks_per_pe  = 16;
    }

    const std::string out = "/tmp/kagen_bench_bounded_delivery.bin";
    {
        CountingSink warmup;
        generate_chunked(cfg, P, warmup);
    }
    double t = 0.0;
    ChunkStats stats;
    u64 edges = 0;
    for (auto _ : state) {
        cfg.max_buffered_bytes = budget_bytes;
        BinaryFileSink sink(out);
        stats = generate_chunked(cfg, P, sink);
        sink.finish();
        t     = stats.seconds;
        edges = sink.num_edges();
        state.SetIterationTime(t);
    }
    std::remove(out.c_str());
    state.counters["PEs"]                 = static_cast<double>(P);
    state.counters["edges"]               = static_cast<double>(edges);
    state.counters["budget_bytes"]        = static_cast<double>(budget_bytes);
    state.counters["peak_buffered_bytes"] = static_cast<double>(stats.peak_buffered_bytes);
    state.counters["spilled_chunks"]      = static_cast<double>(stats.spilled_chunks);
    state.counters["spilled_bytes"]       = static_cast<double>(stats.spilled_bytes);
    state.counters["makespan_s"]          = t;
    state.counters["Medges/s"]            = static_cast<double>(edges) / t / 1e6;
}

BENCHMARK(BoundedDeliveryOverhead)
    ->Args({0, 0}) // G(n,m), unbounded buffering
    ->Args({1, 0}) // G(n,m), 1 MiB window + disk spill
    ->Args({0, 1}) // RGG2D exact_once, unbounded buffering
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void AllocationChurn(benchmark::State& state) {
    // The arena-PR headline metric (DESIGN.md §14): heap-allocation calls
    // per run of the multi-worker ordered hot path, counted by the
    // interposed operator new above. Before the arena, the pipeline
    // allocated O(chunks) vectors (plus doubling regrowth); with slab
    // recycling the pipeline's share is zero, so the reported total is a
    // small per-run constant plus generator internals — allocs_per_Medge
    // should sit orders of magnitude below one per thousand edges.
    const u64 P = 4;

    Config cfg;
    cfg.model         = Model::GnmDirected;
    cfg.n             = u64{1} << 18;
    cfg.m             = u64{1} << 22;
    cfg.seed          = 3;
    cfg.chunks_per_pe = 4;

    const std::string out = "/tmp/kagen_bench_allocation_churn.bin";
    {
        CountingSink warmup;
        generate_chunked(cfg, P, warmup);
    }
    double t = 0.0;
    u64 edges = 0;
    unsigned long long allocs = 0;
    for (auto _ : state) {
        BinaryFileSink sink(out);
        g_alloc_calls.store(0, std::memory_order_relaxed);
        const ChunkStats stats = generate_chunked(cfg, P, sink);
        allocs                 = g_alloc_calls.load(std::memory_order_relaxed);
        sink.finish();
        t     = stats.seconds;
        edges = sink.num_edges();
        state.SetIterationTime(t);
    }
    std::remove(out.c_str());
    state.counters["PEs"]             = static_cast<double>(P);
    state.counters["edges"]           = static_cast<double>(edges);
    state.counters["allocs"]          = static_cast<double>(allocs);
    state.counters["allocs_per_Medge"] =
        static_cast<double>(allocs) / (static_cast<double>(edges) / 1e6);
    state.counters["makespan_s"] = t;
    state.counters["Medges/s"]   = static_cast<double>(edges) / t / 1e6;
}

BENCHMARK(AllocationChurn)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

} // namespace

KAGEN_BENCH_MAIN(
    "# Headline — (1) projected time for 2^47 directed G(n,m) edges on "
    "32768 cores, from per-PE throughput measured through the chunked "
    "engine (CountingSink: zero edges materialized); the paper reports "
    "< 22 minutes and the projection should land in the same order of "
    "magnitude. (2) Dynamic chunk-scheduling speedup: K·P logical chunks vs "
    "one chunk per PE on a skewed RHG instance; speedup_vs_1chunk > 1 "
    "on multicore hosts. (3) Exact-once overhead: exact_once vs "
    "as_generated makespans side by side on duplicate-carrying models — "
    "the cost of streaming duplicate-free counts with zero communication. "
    "(4) Bounded-delivery overhead: ordered file output under a 1 MiB "
    "spill window vs unbounded buffering — peak_buffered_bytes shows the "
    "memory bound holding, spilled_* what it cost. (5) File-sink "
    "throughput: the PR-5 hot-path headline — directed G(n,m) edges/s "
    "from generation to disk (bulk batched writes, recycled buffers, "
    "direct streaming). (6) Sampler-version speedup: the PR-6 headline — "
    "interleaved v1/v2 runs of the directed G(n,m) instance; "
    "speedup_v2_over_v1 >= 2 is the tentpole claim. (7) Allocation churn: "
    "heap-allocation calls per hot-path run via interposed operator new — "
    "the arena PR's zero-steady-state-malloc claim as a tracked number "
    "(allocs_per_Medge). EXPERIMENTS.md records the before/after.")
