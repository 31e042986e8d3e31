/// \file config.hpp
/// \brief What a run generates (`GraphSpec`), how one process runs it
///        (`RunOptions`), the `Config` facade over both, and the canonical
///        encoding of the graph identity (GraphSpec + chunk count C).
///
/// Each chunk's edges are a pure function of (GraphSpec, chunk, C), so only
/// that crosses the wire; run options never change the output bytes.
/// tests/test_config_codec.cpp enforces the split field by field.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "sampling/sampling.hpp"
#include "sink/ownership.hpp"

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

/// The graph: exactly what `generate()` reads. Together with the chunk
/// count C of a chunked run it is the graph's identity — every chunk's
/// edges are a pure function of (GraphSpec, chunk, C).
struct GraphSpec {
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

    /// Sampling engine of the ER family (sampling/sampling.hpp; tool:
    /// -sampler). v1 is the bit-pinned reference stream the golden files
    /// lock; v2 trades byte identity for throughput (batched variates,
    /// polynomial log/exp, geometric-skip Bernoulli) with the same output
    /// distribution. Both are pure functions of (spec, rank, size).
    SamplerVersion sampler_version = SamplerVersion::v1;

    /// Edge-stream semantics (sink/ownership.hpp). `as_generated` keeps the
    /// paper's per-chunk redundancy: the incident-edge models (undirected
    /// ER/Gnp, RGG, RDG, in-memory RHG) emit every cross-chunk edge on both
    /// owning chunks. `exact_once` keeps only the edges whose canonical
    /// lower endpoint the chunk owns, so every edge appears exactly once,
    /// with zero communication. Models without intentional duplicates are
    /// byte-identical under both settings.
    EdgeSemantics edge_semantics = EdgeSemantics::as_generated;
};

/// How one process executes its share of a run: memory, scratch, affinity
/// and telemetry settings. None of them can change the output bytes, so
/// none of them crosses the wire — a TCP worker uses its own (tool: the
/// flags below, given to `-worker`), a forked rank the coordinator's.
struct RunOptions {
    /// Byte budget of chunks completed ahead of the ordered-delivery cursor
    /// (pe::ChunkOptions); past it they spill to disk and replay in order.
    /// 0 = unbounded (tool: -max-buffered-bytes).
    u64 max_buffered_bytes = 0;

    /// Spill scratch location; empty = anonymous temp file under $TMPDIR.
    /// A rank of a distributed run appends ".rank<r>" (tool: -spill-path).
    std::string spill_path;

    /// Per-slab size of the chunk arena backing the ordered multi-worker
    /// path (pe/arena.hpp). 0 = the arena default, 1 MiB
    /// (tool: -arena-slab-bytes).
    u64 arena_slab_bytes = 0;

    /// Emit-buffer capacity (edges) of sinks the library builds for the
    /// caller — a rank's BinaryFileSink. 0 = EdgeSink::kDefaultBufferEdges
    /// (tool: -sink-buffer-edges).
    u64 sink_buffer_edges = 0;

    /// Memory budget of external-memory run formation (graph/em_sort.hpp;
    /// tool: -sort-memory): keys plus radix scratch at 16 B per edge. In a
    /// distributed dedup run every rank forms its runs under its own.
    u64 sort_memory = u64{64} << 20;

    /// Pin pool worker threads to distinct CPUs for chunked/distributed
    /// runs (pe::ThreadPool::pin_workers; tool: -pin-threads). Opt-in:
    /// pinning is sticky for the pool's lifetime.
    bool pin_threads = false;

    /// Telemetry outputs (DESIGN.md §13; tool: -trace/-metrics): a Chrome
    /// trace_event timeline and the run's metrics-registry delta as JSON.
    /// In a distributed run the coordinator writes both, merged.
    std::string trace_path;
    std::string metrics_path;
};

/// The facade's one-struct view of a run: the graph, this process's run
/// options, and the chunk decomposition's inputs.
struct Config : GraphSpec, RunOptions {
    u64 chunks_per_pe = 1; ///< K: logical chunks scheduled per PE
    u64 total_chunks  = 0; ///< canonical chunk count; 0 = K·P. Pinning this
                           ///< makes the graph independent of P and K.
};

/// The canonical chunk count C of a run of `cfg` over `num_pes` simulated
/// PEs: `total_chunks` when pinned, K·P otherwise. The one place C is
/// resolved — the chunked engine and the coordinator both call it.
inline u64 resolve_num_chunks(const Config& cfg, u64 num_pes) {
    if (num_pes == 0) throw std::invalid_argument("kagen: num_pes must be >= 1");
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument("kagen: chunks_per_pe must be >= 1");
    }
    return cfg.total_chunks != 0 ? cfg.total_chunks : cfg.chunks_per_pe * num_pes;
}

/// Canonical byte encoding of a graph identity — a GraphSpec and the chunk
/// count C its chunks are cut into (little-endian, fixed field order,
/// versioned): the job frame of both multi-process transports, and a
/// content address — equal encodings produce the same chunked edge stream.
/// Bump `kConfigEncodingVersion` whenever a field is added or reordered;
/// `decode_config` rejects any other version rather than misreading fields.
constexpr u64 kConfigEncodingVersion = 2;

inline void encode_config(std::vector<u8>& out, const GraphSpec& spec, u64 num_chunks) {
    bytes::put_u64(out, kConfigEncodingVersion);
    bytes::put_u64(out, static_cast<u64>(spec.model));
    bytes::put_u64(out, spec.n);
    bytes::put_u64(out, spec.m);
    bytes::put_f64(out, spec.p);
    bytes::put_f64(out, spec.r);
    bytes::put_f64(out, spec.avg_deg);
    bytes::put_f64(out, spec.gamma);
    bytes::put_u64(out, spec.ba_degree);
    bytes::put_f64(out, spec.rmat_a);
    bytes::put_f64(out, spec.rmat_b);
    bytes::put_f64(out, spec.rmat_c);
    bytes::put_u64(out, spec.seed);
    bytes::put_u64(out, static_cast<u64>(spec.sampler_version));
    bytes::put_u64(out, static_cast<u64>(spec.edge_semantics));
    bytes::put_u64(out, num_chunks);
}

/// Bounds-checked decode of `encode_config`'s layout into the spec and
/// `*num_chunks`; advances `p`. Throws std::runtime_error on truncation,
/// version mismatch, or an enum value the decoder does not know — an
/// encoding must never decode to a *different* graph than the one encoded,
/// so unknown inputs fail loudly.
inline GraphSpec decode_config(const u8*& p, const u8* end, u64* num_chunks) {
    const u64 version = bytes::get_u64(p, end);
    if (version != kConfigEncodingVersion) {
        throw std::runtime_error("kagen: config encoding version " +
                                 std::to_string(version) + " not supported (want " +
                                 std::to_string(kConfigEncodingVersion) + ")");
    }
    GraphSpec spec;
    const u64 model = bytes::get_u64(p, end);
    if (model > static_cast<u64>(Model::Rmat)) {
        throw std::runtime_error("kagen: config carries unknown model id " +
                                 std::to_string(model));
    }
    spec.model     = static_cast<Model>(model);
    spec.n         = bytes::get_u64(p, end);
    spec.m         = bytes::get_u64(p, end);
    spec.p         = bytes::get_f64(p, end);
    spec.r         = bytes::get_f64(p, end);
    spec.avg_deg   = bytes::get_f64(p, end);
    spec.gamma     = bytes::get_f64(p, end);
    spec.ba_degree = bytes::get_u64(p, end);
    spec.rmat_a    = bytes::get_f64(p, end);
    spec.rmat_b    = bytes::get_f64(p, end);
    spec.rmat_c    = bytes::get_f64(p, end);
    spec.seed      = bytes::get_u64(p, end);
    const u64 sampler = bytes::get_u64(p, end);
    if (sampler > static_cast<u64>(SamplerVersion::v2)) {
        throw std::runtime_error("kagen: config carries unknown sampler version " +
                                 std::to_string(sampler));
    }
    spec.sampler_version = static_cast<SamplerVersion>(sampler);
    const u64 semantics  = bytes::get_u64(p, end);
    if (semantics > static_cast<u64>(EdgeSemantics::exact_once)) {
        throw std::runtime_error("kagen: config carries unknown edge semantics " +
                                 std::to_string(semantics));
    }
    spec.edge_semantics = static_cast<EdgeSemantics>(semantics);
    *num_chunks         = bytes::get_u64(p, end);
    return spec;
}

} // namespace kagen
