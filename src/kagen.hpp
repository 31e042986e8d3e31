/// \file kagen.hpp
/// \brief Public facade of the KaGen reproduction: one entry point for all
///        communication-free generators.
///
/// Usage (materialized):
/// \code
///   kagen::Config cfg;
///   cfg.model = kagen::Model::Rgg2D;
///   cfg.n     = 1 << 20;
///   cfg.r     = 0.001;
///   auto result = kagen::generate(cfg, rank, size);   // this PE's edges
/// \endcode
///
/// Usage (streaming — no edge list is ever held in memory; under exact_once
/// the incident-edge models skip their intentional cross-chunk duplicates
/// while generating, so the sink sees every edge of the graph exactly once):
/// \code
///   cfg.edge_semantics = kagen::EdgeSemantics::exact_once;
///   kagen::DegreeStatsSink sink(kagen::num_vertices(cfg));
///   kagen::generate_chunked(cfg, /*num_pes=*/8, sink); // whole graph
///   sink.finish();
/// \endcode
///
/// Every generator is a pure function of (GraphSpec, rank, size): ranks can
/// run on MPI processes, threads, or sequentially — outputs are
/// bit-identical. The chunked engine reuses the same rank-splitting math
/// with chunk ids in the rank role: `chunks_per_pe` (K) schedules K·P
/// logical chunks over a self-balancing thread pool, and pinning
/// `total_chunks` makes the generated graph independent of both P and K.
/// `Config` bundles the three kinds of input: the `GraphSpec` (what is
/// generated), the `RunOptions` (how this process runs it — never part of
/// the graph's identity) and K/C. See DESIGN.md for the
/// model-by-model algorithm map (paper sections), the PE-simulation
/// argument, and the sink/chunk architecture; the per-model headers under
/// er/, rgg/, rdg/, rhg/, ba/, rmat/ have algorithmic detail.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "ba/ba.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "config.hpp"
#include "dist/runner.hpp"
#include "er/er.hpp"
#include "graph/edge_list.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "obs/trace.hpp"
#include "pe/pe.hpp"
#include "rdg/rdg.hpp"
#include "rgg/rgg.hpp"
#include "rhg/rhg.hpp"
#include "rmat/rmat.hpp"
#include "sink/ownership.hpp"
#include "sink/sinks.hpp"

namespace kagen {

struct Result {
    EdgeList edges; ///< this PE's edges (semantics per model header)
    u64 n = 0;      ///< global vertex count
};

inline const char* model_name(Model model) {
    switch (model) {
        case Model::GnmDirected:   return "gnm_directed";
        case Model::GnmUndirected: return "gnm_undirected";
        case Model::GnpDirected:   return "gnp_directed";
        case Model::GnpUndirected: return "gnp_undirected";
        case Model::Rgg2D:         return "rgg2d";
        case Model::Rgg3D:         return "rgg3d";
        case Model::Rdg2D:         return "rdg2d";
        case Model::Rdg3D:         return "rdg3d";
        case Model::Rhg:           return "rhg";
        case Model::RhgStreaming:  return "rhg_streaming";
        case Model::Ba:            return "ba";
        case Model::Rmat:          return "rmat";
    }
    return "unknown";
}

/// Global vertex count of the graph `cfg` describes. Identical to the `n`
/// field of every Result for the same config. For Rmat, n is rounded up to
/// the next power of two — except n <= 1, which stays as-is (2^0 = 1 would
/// otherwise turn an explicitly empty graph into a one-vertex one), and
/// n > 2^63, which cannot be rounded within u64 and throws.
inline u64 num_vertices(const GraphSpec& cfg) {
    if (cfg.model != Model::Rmat || cfg.n <= 1) return cfg.n;
    if (cfg.n > (u64{1} << 63)) {
        throw std::invalid_argument(
            "kagen: Rmat vertex count beyond 2^63 cannot be rounded to a power of two");
    }
    return ceil_pow2(cfg.n);
}

/// Streams the edges PE `rank` of `size` is responsible for into `sink`
/// (flushed, not finished — the caller owns the sink lifecycle). Under
/// `cfg.edge_semantics == exact_once` the streams of all ranks are globally
/// disjoint and their union is the graph — each rank still a pure function
/// of (cfg, rank, size), no communication. The duplicate-carrying models
/// (undirected ER, RGG, RDG, in-memory RHG) take the semantics and skip the
/// edges whose lower endpoint another rank owns; the others emit globally
/// disjoint streams under both semantics.
inline void generate(const GraphSpec& cfg, u64 rank, u64 size, EdgeSink& sink) {
    if (size == 0 || rank >= size) {
        throw std::invalid_argument("kagen::generate: rank/size out of range");
    }
    switch (cfg.model) {
        case Model::GnmDirected:
            er::gnm_directed(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnmUndirected:
            er::gnm_undirected(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                               cfg.sampler_version, cfg.edge_semantics);
            break;
        case Model::GnpDirected:
            er::gnp_directed(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnpUndirected:
            er::gnp_undirected(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                               cfg.sampler_version, cfg.edge_semantics);
            break;
        case Model::Rgg2D:
            rgg::generate<2>({cfg.n, cfg.r, cfg.seed}, rank, size, sink,
                             cfg.edge_semantics);
            break;
        case Model::Rgg3D:
            rgg::generate<3>({cfg.n, cfg.r, cfg.seed}, rank, size, sink,
                             cfg.edge_semantics);
            break;
        case Model::Rdg2D:
            rdg::generate<2>({cfg.n, cfg.seed}, rank, size, sink, cfg.edge_semantics);
            break;
        case Model::Rdg3D:
            rdg::generate<3>({cfg.n, cfg.seed}, rank, size, sink, cfg.edge_semantics);
            break;
        case Model::Rhg:
            rhg::generate_inmemory({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank,
                                   size, sink, cfg.edge_semantics);
            break;
        case Model::RhgStreaming:
            rhg::generate_streaming({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank,
                                    size, sink);
            break;
        case Model::Ba:
            ba::generate({cfg.n, cfg.ba_degree, cfg.seed}, rank, size, sink);
            break;
        case Model::Rmat: {
            const u64 nv = num_vertices(cfg); // throws for n > 2^63
            if (nv <= 1) break; // no non-trivial edges exist; see num_vertices
            const u64 log_n = floor_log2(nv);
            rmat::generate({log_n, cfg.m, cfg.rmat_a, cfg.rmat_b, cfg.rmat_c, cfg.seed},
                           rank, size, sink);
            break;
        }
    }
}

/// Generates the edges PE `rank` of `size` is responsible for.
inline Result generate(const GraphSpec& cfg, u64 rank, u64 size) {
    Result out;
    out.n = num_vertices(cfg);
    MemorySink sink(&out.edges);
    generate(cfg, rank, size, sink);
    return out;
}

/// Stats of a chunked run: the engine's own per-run struct (pe/pe.hpp).
using ChunkStats = pe::ChunkRunStats;

/// Whole-graph chunked engine: runs every canonical chunk (total_chunks,
/// or chunks_per_pe·num_pes when unset) of the graph through the generator
/// and streams the edges into `sink`, claimed in canonical order from the
/// persistent thread pool by at most `threads` workers (0 = one per
/// simulated PE, capped by the hardware). A chunk id plays exactly the rank
/// role of the per-PE API, so the edge stream equals the concatenation of
/// generate(cfg, c, C) for c = 0..C-1 — bit-identical for every thread
/// count, and for every (P, K) combination once total_chunks is pinned.
/// Under the default `as_generated` semantics, models whose per-PE output
/// carries intentional cross-PE duplicates (undirected ER/Gnp, Rgg, Rdg,
/// in-memory Rhg) keep them here chunk-for-chunk; with
/// `cfg.edge_semantics = exact_once` each chunk emits only the edges whose
/// lower endpoint it owns (skipping, while generating, the edges another
/// chunk keeps), so the whole run emits every edge exactly once — counting/stats/file sinks then see the true
/// graph with no post-hoc dedup pass. The caller owns sink.finish().
inline ChunkStats generate_chunked(const Config& cfg, u64 num_pes, EdgeSink& sink,
                                   u64 threads = 0, pe::ThreadPool* pool = nullptr) {
    const u64 num_chunks = resolve_num_chunks(cfg, num_pes);
    (void)num_vertices(cfg); // validates the config before any chunk runs

    // Telemetry scope (DESIGN.md §13): the trace and the metrics delta
    // cover this run only.
    const bool want_obs = !cfg.trace_path.empty() || !cfg.metrics_path.empty();
    obs::TelemetryScope telemetry(want_obs);

    pe::ChunkOptions opt;
    opt.num_pes            = num_pes;
    opt.total_chunks       = num_chunks;
    opt.threads            = threads;
    opt.pool               = pool;
    opt.max_buffered_bytes = cfg.max_buffered_bytes;
    opt.spill_path         = cfg.spill_path;
    opt.arena_slab_bytes   = cfg.arena_slab_bytes;
    opt.pin_threads        = cfg.pin_threads;
    const ChunkStats stats = pe::run_chunked(
        opt,
        [&cfg](u64 chunk, u64 num_chunks, EdgeSink& chunk_sink) {
            generate(cfg, chunk, num_chunks, chunk_sink);
        },
        sink);

    if (want_obs) {
        obs::RankTelemetry t = telemetry.end(0);
        if (!cfg.trace_path.empty()) {
            obs::write_chrome_trace(cfg.trace_path, {{0, 0, "rank 0", std::move(t.events)}});
        }
        if (!cfg.metrics_path.empty()) obs::write_metrics_file(cfg.metrics_path, t.metrics);
    }
    return stats;
}

/// Multi-process distributed run (dist/runner.hpp): forks
/// `opts.num_ranks` (default 1) worker processes, each generating its
/// contiguous share of the canonical chunk decomposition with `cfg`'s
/// RunOptions into a per-rank file — no inter-worker communication, only one report
/// per worker back to the coordinator — then merges the rank files in
/// canonical order. The merged output file is byte-identical to a
/// single-process `generate_chunked` run into a `BinaryFileSink` with the
/// same (P, K) decomposition, and the merged `CountingSummary` /
/// `DegreeStatsSummary` equal the in-process sink statistics exactly.
/// Throws with a descriptive message if any rank fails (no hang, no
/// partial files). See DESIGN.md §8.
inline dist::DistResult generate_distributed(const Config& cfg,
                                             const dist::DistOptions& opts = {}) {
    return dist::run_distributed(cfg, opts);
}

} // namespace kagen
