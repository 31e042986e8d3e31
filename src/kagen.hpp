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
/// Usage (streaming — no edge list is ever held in memory; exact_once
/// suppresses the incident-edge models' intentional cross-chunk duplicate
/// emissions, so the sink sees every edge of the graph exactly once):
/// \code
///   cfg.edge_semantics = kagen::EdgeSemantics::exact_once;
///   kagen::DegreeStatsSink sink(kagen::num_vertices(cfg));
///   kagen::generate_chunked(cfg, /*num_pes=*/8, sink); // whole graph
///   sink.finish();
/// \endcode
///
/// Every generator is a pure function of (cfg, rank, size): ranks can run
/// on MPI processes, threads, or sequentially — outputs are bit-identical.
/// The chunked engine reuses the same rank-splitting math with chunk ids in
/// the rank role: `chunks_per_pe` (K) schedules K·P logical chunks over a
/// self-balancing thread pool, and pinning `total_chunks` makes
/// the generated graph independent of both P and K. See DESIGN.md for the
/// model-by-model algorithm map (paper sections), the PE-simulation
/// argument, and the sink/chunk architecture; the per-model headers under
/// er/, rgg/, rdg/, rhg/, ba/, rmat/ have algorithmic detail.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "ba/ba.hpp"
#include "common/bytes.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
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

enum class Model {
    GnmDirected,   ///< Erdős–Rényi G(n,m), directed (§4.1)
    GnmUndirected, ///< Erdős–Rényi G(n,m), undirected (§4.2)
    GnpDirected,   ///< Gilbert G(n,p), directed (§4.3)
    GnpUndirected, ///< Gilbert G(n,p), undirected (§4.3)
    Rgg2D,         ///< random geometric graph, unit square (§5)
    Rgg3D,         ///< random geometric graph, unit cube (§5)
    Rdg2D,         ///< random Delaunay graph, unit torus (§6)
    Rdg3D,         ///< random Delaunay graph, 3-torus (§6)
    Rhg,           ///< random hyperbolic graph, in-memory generator (§7.1)
    RhgStreaming,  ///< random hyperbolic graph, streaming generator (§7.2)
    Ba,            ///< Barabási–Albert preferential attachment (§3.5.1)
    Rmat,          ///< R-MAT baseline (§3.5.2)
};

struct Config {
    Model model = Model::GnmDirected;
    u64 n       = 0;    ///< vertices (for Rmat: rounded up to 2^ceil(log2 n))
    u64 m       = 0;    ///< edges (GnmDirected/GnmUndirected/Rmat)
    double p    = 0.0;  ///< edge probability (Gnp*)
    double r    = 0.0;  ///< radius (Rgg*)
    double avg_deg = 8.0; ///< target average degree (Rhg*)
    double gamma   = 3.0; ///< power-law exponent (Rhg*)
    u64 ba_degree  = 4;   ///< attachment edges per vertex (Ba)
    double rmat_a = 0.57, rmat_b = 0.19, rmat_c = 0.19;
    u64 seed = 1;

    // --- chunked execution engine (generate_chunked) ---
    u64 chunks_per_pe = 1; ///< K: logical chunks scheduled per PE
    u64 total_chunks  = 0; ///< canonical chunk count; 0 = K·P. Pinning this
                           ///< makes the graph independent of P and K.

    /// Byte budget for the ordered-delivery window (pe::ChunkOptions):
    /// chunks completing ahead of the delivery cursor may hold at most this
    /// many resident edge bytes before further out-of-window chunks spill
    /// to disk and are replayed in canonical order. 0 = unbounded. Output
    /// is byte-identical for every budget; only peak memory changes.
    u64 max_buffered_bytes = 0;

    /// Spill scratch location; empty = anonymous temp file under $TMPDIR.
    std::string spill_path;

    /// Per-slab size of the chunk arena backing the ordered multi-worker
    /// path (pe/arena.hpp; tool: -arena-slab-bytes). 0 = the arena default
    /// (1 MiB). Memory layout only — the output stream is byte-identical
    /// for every value, so like trace_path/metrics_path this field is
    /// deliberately NOT part of `encode_config`: it cannot change the
    /// graph, hence it must not change the config's content-address (TCP
    /// workers simply use their local setting).
    u64 arena_slab_bytes = 0;

    /// Inline emit-buffer capacity (edges) for sinks the library constructs
    /// on the caller's behalf — the per-rank BinaryFileSink of the
    /// distributed backend in particular. 0 = EdgeSink::kDefaultBufferEdges.
    /// Sinks the caller constructs directly take the same knob as a
    /// constructor argument (tool: -sink-buffer-edges).
    u64 sink_buffer_edges = 0;

    /// Pin pool worker threads to distinct CPUs for chunked/distributed
    /// runs (pe::ThreadPool::pin_workers; tool: -pin-threads). Opt-in:
    /// pinning is sticky for the pool's lifetime.
    bool pin_threads = false;

    /// Worker processes of the distributed backend (dist/runner.hpp):
    /// `generate_distributed` forks this many ranks, each generating a
    /// contiguous share of the canonical chunk decomposition in its own
    /// address space with zero inter-worker communication. 1 = a single
    /// (still forked) worker — useful as the identity baseline; the merged
    /// output is byte-identical to `generate_chunked` for every value.
    u64 num_processes = 1;

    /// Sequential sampling engine (sampling/sampling.hpp) used inside the
    /// ER family's chunks. v1 (default) is the bit-pinned reference stream
    /// every golden file and byte-identity sweep locks; v2 trades byte
    /// identity for throughput — batched variates, inline polynomial
    /// log/exp, and a geometric-skip Bernoulli fast path for Gnp — while
    /// keeping the same output *distribution* (tool: -sampler). Both keep
    /// the pure-function-of-(cfg, rank, size) contract, so chunked /
    /// distributed runs stay reproducible under either engine.
    SamplerVersion sampler_version = SamplerVersion::v1;

    /// Runtime telemetry (src/obs/, DESIGN.md §13; tool: -trace/-metrics).
    /// Non-empty `trace_path`: the run records chunk-lifecycle spans and
    /// budget-park instants and writes a Chrome trace_event JSON timeline
    /// there at the end; non-empty `metrics_path`: the run's metrics-
    /// registry delta is written there as JSON. Observation never perturbs
    /// output (byte-identity is test-pinned), and neither field enters
    /// `encode_config` — telemetry cannot change the graph, so it must not
    /// change the config's content-address either.
    std::string trace_path;
    std::string metrics_path;

    /// Edge-stream semantics (sink/ownership.hpp). `as_generated` keeps the
    /// paper's per-chunk redundancy: the incident-edge models (undirected
    /// ER/Gnp, RGG, RDG, in-memory RHG) emit every cross-chunk edge on both
    /// owning chunks. `exact_once` filters each chunk's stream to the edges
    /// whose canonical lower endpoint the chunk owns, so across all chunks
    /// every edge appears exactly once — with zero communication, and
    /// bit-deterministically for every (P, K, threads) combination once
    /// `total_chunks` is pinned. Models without intentional duplicates are
    /// byte-identical under both settings.
    EdgeSemantics edge_semantics = EdgeSemantics::as_generated;
};

struct Result {
    EdgeList edges; ///< this PE's edges (semantics per model header)
    u64 n = 0;      ///< global vertex count
};

/// Canonical byte encoding of a Config (little-endian, fixed field order,
/// versioned) — ONE encode for every consumer that needs a config to
/// survive a boundary: the TCP job frame of the net backend today, and the
/// daemon's cache key / wire form on the ROADMAP. Two equal configs encode
/// to identical bytes, so the encoding doubles as a content-address.
/// Bump `kConfigEncodingVersion` whenever a field is added or reordered;
/// `decode_config` rejects any other version rather than misreading fields.
constexpr u64 kConfigEncodingVersion = 1;

inline void encode_config(std::vector<u8>& out, const Config& cfg) {
    bytes::put_u64(out, kConfigEncodingVersion);
    bytes::put_u64(out, static_cast<u64>(cfg.model));
    bytes::put_u64(out, cfg.n);
    bytes::put_u64(out, cfg.m);
    bytes::put_f64(out, cfg.p);
    bytes::put_f64(out, cfg.r);
    bytes::put_f64(out, cfg.avg_deg);
    bytes::put_f64(out, cfg.gamma);
    bytes::put_u64(out, cfg.ba_degree);
    bytes::put_f64(out, cfg.rmat_a);
    bytes::put_f64(out, cfg.rmat_b);
    bytes::put_f64(out, cfg.rmat_c);
    bytes::put_u64(out, cfg.seed);
    bytes::put_u64(out, cfg.chunks_per_pe);
    bytes::put_u64(out, cfg.total_chunks);
    bytes::put_u64(out, cfg.max_buffered_bytes);
    bytes::put_string(out, cfg.spill_path);
    bytes::put_u64(out, cfg.sink_buffer_edges);
    bytes::put_u64(out, cfg.pin_threads ? 1 : 0);
    bytes::put_u64(out, cfg.num_processes);
    bytes::put_u64(out, static_cast<u64>(cfg.sampler_version));
    bytes::put_u64(out, static_cast<u64>(cfg.edge_semantics));
    // trace_path / metrics_path are deliberately NOT encoded: telemetry
    // never changes the generated graph, and the encoding doubles as the
    // config's content-address — two runs differing only in observation
    // must hash identically (and the committed codec corpus stays valid).
}

/// Bounds-checked decode of `encode_config`'s layout; advances `p`. Throws
/// std::runtime_error on truncation, version mismatch, or an enum value the
/// decoder does not know — a config must never decode to a *different*
/// graph than the one encoded, so unknown inputs fail loudly.
inline Config decode_config(const u8*& p, const u8* end) {
    const u64 version = bytes::get_u64(p, end);
    if (version != kConfigEncodingVersion) {
        throw std::runtime_error("kagen: config encoding version " +
                                 std::to_string(version) + " not supported (want " +
                                 std::to_string(kConfigEncodingVersion) + ")");
    }
    Config cfg;
    const u64 model = bytes::get_u64(p, end);
    if (model > static_cast<u64>(Model::Rmat)) {
        throw std::runtime_error("kagen: config carries unknown model id " +
                                 std::to_string(model));
    }
    cfg.model              = static_cast<Model>(model);
    cfg.n                  = bytes::get_u64(p, end);
    cfg.m                  = bytes::get_u64(p, end);
    cfg.p                  = bytes::get_f64(p, end);
    cfg.r                  = bytes::get_f64(p, end);
    cfg.avg_deg            = bytes::get_f64(p, end);
    cfg.gamma              = bytes::get_f64(p, end);
    cfg.ba_degree          = bytes::get_u64(p, end);
    cfg.rmat_a             = bytes::get_f64(p, end);
    cfg.rmat_b             = bytes::get_f64(p, end);
    cfg.rmat_c             = bytes::get_f64(p, end);
    cfg.seed               = bytes::get_u64(p, end);
    cfg.chunks_per_pe      = bytes::get_u64(p, end);
    cfg.total_chunks       = bytes::get_u64(p, end);
    cfg.max_buffered_bytes = bytes::get_u64(p, end);
    cfg.spill_path         = bytes::get_string(p, end);
    cfg.sink_buffer_edges  = bytes::get_u64(p, end);
    const u64 pin          = bytes::get_u64(p, end);
    if (pin > 1) {
        // Encoded bytes double as the config's content-address, so decode
        // must accept only the canonical encoding: a bool travels as 0 or 1,
        // never as "any nonzero word" (two byte strings must not alias one
        // config).
        throw std::runtime_error("kagen: config carries non-canonical bool " +
                                 std::to_string(pin));
    }
    cfg.pin_threads        = pin != 0;
    cfg.num_processes      = bytes::get_u64(p, end);
    const u64 sampler      = bytes::get_u64(p, end);
    if (sampler > static_cast<u64>(SamplerVersion::v2)) {
        throw std::runtime_error("kagen: config carries unknown sampler version " +
                                 std::to_string(sampler));
    }
    cfg.sampler_version = static_cast<SamplerVersion>(sampler);
    const u64 semantics = bytes::get_u64(p, end);
    if (semantics > static_cast<u64>(EdgeSemantics::exact_once)) {
        throw std::runtime_error("kagen: config carries unknown edge semantics " +
                                 std::to_string(semantics));
    }
    cfg.edge_semantics = static_cast<EdgeSemantics>(semantics);
    return cfg;
}

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
inline u64 num_vertices(const Config& cfg) {
    if (cfg.model != Model::Rmat || cfg.n <= 1) return cfg.n;
    if (cfg.n > (u64{1} << 63)) {
        throw std::invalid_argument(
            "kagen: Rmat vertex count beyond 2^63 cannot be rounded to a power of two");
    }
    return ceil_pow2(cfg.n);
}

/// Whether the model's per-chunk output carries the paper's intentional
/// cross-chunk duplicate edges (the §4.2/§5.1 redundancy trick): every edge
/// crossing a chunk boundary is recomputed — identically — by both owning
/// chunks. These are exactly the models `EdgeSemantics::exact_once`
/// filters; the rest (directed ER/Gnp, both RHG-streaming and the
/// partition-output BA/R-MAT) already emit globally disjoint streams and
/// pass through unfiltered, byte-identically.
inline bool carries_duplicates(Model model) {
    switch (model) {
        case Model::GnmUndirected:
        case Model::GnpUndirected:
        case Model::Rgg2D:
        case Model::Rgg3D:
        case Model::Rdg2D:
        case Model::Rdg3D:
        case Model::Rhg:
            return true;
        case Model::GnmDirected:
        case Model::GnpDirected:
        case Model::RhgStreaming:
        case Model::Ba:
        case Model::Rmat:
            return false;
    }
    return false;
}

/// Vertex-id intervals chunk `rank` of `size` owns under `cfg`'s model —
/// the tie-break table of the exact-once filter (sink/ownership.hpp),
/// dispatched to the per-model builders. Empty for models without
/// intentional duplicates (nothing to filter).
inline IdIntervals owned_vertex_intervals(const Config& cfg, u64 rank, u64 size) {
    switch (cfg.model) {
        case Model::GnmUndirected:
        case Model::GnpUndirected:
            return er::owned_vertex_range(cfg.n, rank, size);
        case Model::Rgg2D:
            return rgg::owned_vertex_range<2>({cfg.n, cfg.r, cfg.seed}, rank, size);
        case Model::Rgg3D:
            return rgg::owned_vertex_range<3>({cfg.n, cfg.r, cfg.seed}, rank, size);
        case Model::Rdg2D:
            return rdg::owned_vertex_range<2>({cfg.n, cfg.seed}, rank, size);
        case Model::Rdg3D:
            return rdg::owned_vertex_range<3>({cfg.n, cfg.seed}, rank, size);
        case Model::Rhg:
            return rhg::owned_vertex_intervals(
                {cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank, size);
        default:
            return {};
    }
}

namespace detail {

/// The raw per-model dispatch: streams chunk `rank` of `size` exactly as
/// the paper's generators produce it (as-generated semantics).
inline void dispatch_generate(const Config& cfg, u64 rank, u64 size, EdgeSink& sink) {
    switch (cfg.model) {
        case Model::GnmDirected:
            er::gnm_directed(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnmUndirected:
            er::gnm_undirected(cfg.n, cfg.m, cfg.seed, rank, size, sink,
                               cfg.sampler_version);
            break;
        case Model::GnpDirected:
            er::gnp_directed(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                             cfg.sampler_version);
            break;
        case Model::GnpUndirected:
            er::gnp_undirected(cfg.n, cfg.p, cfg.seed, rank, size, sink,
                               cfg.sampler_version);
            break;
        case Model::Rgg2D:
            rgg::generate<2>({cfg.n, cfg.r, cfg.seed}, rank, size, sink);
            break;
        case Model::Rgg3D:
            rgg::generate<3>({cfg.n, cfg.r, cfg.seed}, rank, size, sink);
            break;
        case Model::Rdg2D:
            rdg::generate<2>({cfg.n, cfg.seed}, rank, size, sink);
            break;
        case Model::Rdg3D:
            rdg::generate<3>({cfg.n, cfg.seed}, rank, size, sink);
            break;
        case Model::Rhg:
            rhg::generate_inmemory({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, rank,
                                   size, sink);
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

} // namespace detail

/// Streams the edges PE `rank` of `size` is responsible for into `sink`
/// (flushed, not finished — the caller owns the sink lifecycle). Under
/// `cfg.edge_semantics == exact_once` the duplicate-carrying models are
/// wrapped in a per-chunk `OwnershipFilterSink`, so the streams of all
/// ranks are globally disjoint and their union is the graph — each rank
/// still a pure function of (cfg, rank, size), no communication.
inline void generate(const Config& cfg, u64 rank, u64 size, EdgeSink& sink) {
    if (size == 0 || rank >= size) {
        throw std::invalid_argument("kagen::generate: rank/size out of range");
    }
    if (cfg.edge_semantics == EdgeSemantics::exact_once &&
        carries_duplicates(cfg.model)) {
        OwnershipFilterSink filter(owned_vertex_intervals(cfg, rank, size), sink);
        detail::dispatch_generate(cfg, rank, size, filter);
        filter.finish(); // drains the filter and flushes `sink`; no more
        return;          // (the target sink's finish() stays with the caller)
    }
    detail::dispatch_generate(cfg, rank, size, sink);
}

/// Generates the edges PE `rank` of `size` is responsible for.
inline Result generate(const Config& cfg, u64 rank, u64 size) {
    Result out;
    out.n = num_vertices(cfg);
    MemorySink sink(&out.edges);
    generate(cfg, rank, size, sink);
    return out;
}

struct ChunkStats {
    u64 n          = 0;   ///< global vertex count
    u64 num_chunks = 0;   ///< canonical chunks executed
    u64 workers    = 0;   ///< parallel participants used
    double seconds = 0.0; ///< makespan of the generation phase

    // Ordered-delivery accounting (zero for unordered sinks and for
    // single-worker runs, which stream directly — no chunk buffers).
    u64 peak_buffered_bytes = 0; ///< max resident chunk-buffer bytes
    u64 spilled_chunks      = 0; ///< chunks parked on disk
    u64 spilled_bytes       = 0; ///< edge bytes written to the spill file

    // Chunk-arena accounting (multi-worker ordered runs only). A "buffer"
    // is a slab of the chunk arena (pe/arena.hpp).
    u64 buffers_recycled  = 0; ///< slab acquires served from the freelist
    u64 buffers_allocated = 0; ///< slabs freshly reserved (mmap/fallback)
    u64 arena_chains      = 0; ///< chunks that chained a second+ slab
    u64 arena_slab_bytes  = 0; ///< per-slab size the run used
};

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
/// `cfg.edge_semantics = exact_once` each chunk's stream is
/// ownership-filtered so the whole run emits every edge exactly once —
/// counting/stats/file sinks then see the true graph with no post-hoc
/// dedup pass. The caller owns sink.finish().
inline ChunkStats generate_chunked(const Config& cfg, u64 num_pes, EdgeSink& sink,
                                   u64 threads = 0, pe::ThreadPool* pool = nullptr) {
    if (num_pes == 0) {
        throw std::invalid_argument("kagen::generate_chunked: num_pes must be >= 1");
    }
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument("kagen::generate_chunked: chunks_per_pe must be >= 1");
    }
    ChunkStats out;
    out.n = num_vertices(cfg); // validates the config before any chunk runs

    // Telemetry scope (DESIGN.md §13): arm the recorder and take a metrics
    // base before the run; drain + write after. The guard disarms on every
    // exit path so an exception never leaves the process-global recorder
    // armed for an un-instrumented caller.
    const bool want_obs = !cfg.trace_path.empty() || !cfg.metrics_path.empty();
    obs::Snapshot obs_base;
    struct RecorderGuard {
        bool active = false;
        ~RecorderGuard() {
            if (active) obs::TraceRecorder::global().enable(false);
        }
    } guard;
    if (want_obs) {
        obs_base = obs::Registry::global().snapshot();
        std::vector<obs::TraceEvent> stale;
        obs::TraceRecorder::global().drain(stale); // trace covers this run only
        obs::TraceRecorder::global().enable(true);
        guard.active = true;
    }

    pe::ChunkOptions opt;
    opt.num_pes            = num_pes;
    opt.chunks_per_pe      = cfg.chunks_per_pe;
    opt.total_chunks       = cfg.total_chunks;
    opt.threads            = threads;
    opt.pool               = pool;
    opt.max_buffered_bytes = cfg.max_buffered_bytes;
    opt.spill_path         = cfg.spill_path;
    opt.arena_slab_bytes   = cfg.arena_slab_bytes;
    opt.pin_threads        = cfg.pin_threads;
    const auto stats       = pe::run_chunked(
        opt,
        [&cfg](u64 chunk, u64 num_chunks, EdgeSink& chunk_sink) {
            generate(cfg, chunk, num_chunks, chunk_sink);
        },
        sink);
    out.num_chunks          = stats.num_chunks;
    out.workers             = stats.workers;
    out.seconds             = stats.seconds;
    out.peak_buffered_bytes = stats.peak_buffered_bytes;
    out.spilled_chunks      = stats.spilled_chunks;
    out.spilled_bytes       = stats.spilled_bytes;
    out.buffers_recycled    = stats.buffers_recycled;
    out.buffers_allocated   = stats.buffers_allocated;
    out.arena_chains        = stats.arena_chains;
    out.arena_slab_bytes    = stats.arena_slab_bytes;

    if (want_obs) {
        obs::TraceRecorder::global().enable(false);
        guard.active = false;
        if (!cfg.trace_path.empty()) {
            obs::RankTimeline timeline;
            timeline.rank  = 0;
            timeline.label = "rank 0";
            obs::TraceRecorder::global().drain(timeline.events);
            obs::write_chrome_trace(cfg.trace_path, {timeline});
        }
        if (!cfg.metrics_path.empty()) {
            obs::write_metrics_file(
                cfg.metrics_path,
                obs::Registry::global().snapshot().subtract(obs_base));
        }
    }
    return out;
}

/// Multi-process distributed run (dist/runner.hpp): forks
/// `opts.num_ranks` (default `cfg.num_processes`) worker processes, each
/// generating its contiguous share of the canonical chunk decomposition
/// into a per-rank file — no inter-worker communication, only one report
/// per worker back to the coordinator — then merges the rank files in
/// canonical order. The merged output file is byte-identical to a
/// single-process `generate_chunked` run into a `BinaryFileSink` with the
/// same (P, K) decomposition, and the merged `CountingSummary` /
/// `DegreeStatsSummary` equal the in-process sink statistics exactly.
/// Throws with a descriptive message if any rank fails (no hang, no
/// partial files). See DESIGN.md §8.
inline dist::DistResult generate_distributed(const Config& cfg,
                                             dist::DistOptions opts = {}) {
    if (opts.num_ranks == 0) {
        opts.num_ranks = cfg.num_processes != 0 ? cfg.num_processes : 1;
    }
    return dist::run_distributed(cfg, opts);
}

} // namespace kagen
