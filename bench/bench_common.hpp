/// \file bench_common.hpp
/// \brief Shared helpers for the per-figure benchmark binaries.
///
/// Conventions:
///  * Scaling benchmarks use manual timing: one "iteration" runs all P
///    simulated PEs concurrently on threads and records the makespan — the
///    quantity an MPI job reports as its running time. `scaling_run`
///    drives per-rank functions (the comparison figures, whose baselines
///    have no sink form); `engine_scaling_run` drives the chunked engine
///    (bench_scaling.cpp, the weak/strong figures).
///  * Each binary prints a header mapping it to the paper figure it
///    regenerates and the scale substitutions (see EXPERIMENTS.md for the
///    recorded outcomes).
///  * Counters: "edges" = total edges the run produced across PEs (including
///    intentional cross-PE duplicates), "Medges/s" = edges / makespan.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "kagen.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen::bench {

/// Runs `fn` over P simulated PEs per iteration, reporting the makespan and
/// edge-rate counters.
inline void scaling_run(benchmark::State& state, u64 pes, const pe::RankFn& fn) {
    // Untimed warmup: thread pool spin-up, page faults, and allocator arena
    // growth otherwise dominate the first (often only) timed iteration.
    pe::run_timed(pes, fn);

    std::atomic<u64> edges{0};
    auto counted = [&](u64 rank, u64 size) {
        EdgeList e = fn(rank, size);
        edges.fetch_add(e.size(), std::memory_order_relaxed);
        return e;
    };
    u64 iterations = 0;
    for (auto _ : state) {
        state.SetIterationTime(pe::run_timed(pes, counted));
        ++iterations;
    }
    const double per_iter =
        static_cast<double>(edges.load()) / static_cast<double>(iterations);
    state.counters["PEs"]   = static_cast<double>(pes);
    state.counters["edges"] = per_iter;
    state.counters["Medges/s"] =
        benchmark::Counter(per_iter / 1e6, benchmark::Counter::kIsIterationInvariantRate);
}

/// One chunked run of `cfg` over `pes` PEs into a counting sink: edges are
/// produced and discarded in a stream, nothing is stored.
struct EngineRun {
    double seconds = 0.0; ///< makespan of the generation phase
    u64 edges      = 0;   ///< edges emitted, cross-chunk duplicates included
};

inline EngineRun engine_run(const Config& cfg, u64 pes) {
    CountingSink sink;
    const ChunkStats stats = generate_chunked(cfg, pes, sink);
    sink.finish();
    return {stats.seconds, sink.num_edges()};
}

/// Runs `cfg` through the chunked execution engine per iteration, reporting
/// makespan-based counters. Returns the last iteration's makespan.
inline double engine_scaling_run(benchmark::State& state, const Config& cfg, u64 pes) {
    engine_run(cfg, pes); // untimed warmup: pool spin-up, page faults
    double makespan = 0.0;
    u64 edges       = 0;
    for (auto _ : state) {
        const EngineRun run = engine_run(cfg, pes);
        makespan            = run.seconds;
        edges               = run.edges;
        state.SetIterationTime(run.seconds);
    }
    state.counters["PEs"]    = static_cast<double>(pes);
    state.counters["chunks"] = static_cast<double>(
        cfg.total_chunks != 0 ? cfg.total_chunks : cfg.chunks_per_pe * pes);
    state.counters["edges"]  = static_cast<double>(edges);
    state.counters["Medges/s"] = benchmark::Counter(
        static_cast<double>(edges) / 1e6, benchmark::Counter::kIsIterationInvariantRate);
    return makespan;
}

} // namespace kagen::bench

namespace kagen::bench {

/// KAGEN_OBS_FORCE=1 arms the trace recorder for the whole benchmark
/// process. Running the same binary twice — once bare, once with the env
/// var — and diffing the two JSON files with bench_delta.py --fail-above
/// measures the telemetry overhead on the identical workload (the CI
/// perf-smoke job gates this at 3%; DESIGN.md §13).
inline void arm_telemetry_from_env() {
    const char* force = std::getenv("KAGEN_OBS_FORCE");
    if (force != nullptr && force[0] != '\0' && force[0] != '0') {
        obs::TraceRecorder::global().enable(true);
        std::fputs("telemetry: trace recorder armed (KAGEN_OBS_FORCE)\n",
                   stderr);
    }
}

} // namespace kagen::bench

/// Defines main(): prints the figure banner, then runs the benchmarks.
/// The banner goes to stderr so `--benchmark_format=json > out.json`
/// (the CI dist-bench artifact) stays machine-parseable.
#define KAGEN_BENCH_MAIN(banner)                                   \
    int main(int argc, char** argv) {                              \
        std::fputs(banner "\n", stderr);                           \
        kagen::bench::arm_telemetry_from_env();                    \
        benchmark::Initialize(&argc, argv);                        \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) {  \
            return 1;                                              \
        }                                                          \
        benchmark::RunSpecifiedBenchmarks();                       \
        benchmark::Shutdown();                                     \
        return 0;                                                  \
    }
