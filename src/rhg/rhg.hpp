/// \file rhg.hpp
/// \brief The two random-hyperbolic-graph generators of paper §7.
///
/// Both consume the identical deterministic point structure (`hyp::HypGrid`),
/// so their outputs are comparable edge-for-edge:
///
///  * `generate_inmemory` (§7.1, "RHG") — query-centric: each PE generates
///    its chunk's vertices, then for every vertex performs an annulus-wise
///    neighbourhood query (outward *and* inward). A query's window depends
///    only on its source and target annulus (taken from both lower
///    boundaries). Per target annulus the chunks the queries reach are
///    recomputed once into one angle-sorted array, so each query is a step
///    of one forward cursor per annulus pair plus a linear scan. Produces a
///    partitioned output: every edge incident to a local vertex is emitted
///    locally (`exact_once`: only those whose lower id is local).
///
///  * `generate_streaming` (§7.2, "sRHG") — request-centric: annuli split
///    into lower *global* annuli (requests wider than a chunk; their
///    vertices are recomputed on all PEs and their request executions
///    distributed) and upper *streaming* annuli (requests no wider than a
///    chunk; processed by an angular sweep whose active-request set uses the
///    vectorization-friendly precomputed form, with an endgame over the two
///    adjacent chunks). Emits each edge from its request source, so the
///    union over PEs is the full graph but the output is not partitioned —
///    exactly the paper's stated trade-off.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::rhg {

/// In-memory query-centric generator (§7.1). Streams the PE's (locally
/// deduplicated) edges, sorted. Under
/// `exact_once` a query skips every candidate with an id no larger than its
/// (local) vertex's, local or not, so a cross-chunk edge is kept only by the
/// chunk owning its lower id; annuli below the vertex's, which hold only
/// lower ids, are not queried. The streaming generator needs no semantics:
/// its request-execution rules already hand every edge to exactly one PE,
/// which `tests/test_exact_once.cpp` asserts.
void generate_inmemory(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink,
                       EdgeSemantics semantics = EdgeSemantics::as_generated);

/// Streaming request-centric generator (§7.2).
void generate_streaming(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink);

/// Theta(n^2) all-pairs reference over the same point set.
EdgeList brute_force(const hyp::Params& params, u64 size);

/// First streaming annulus index for `size` PEs (test/bench introspection);
/// annuli below it are "global" (§7.2).
u32 first_streaming_annulus(const hyp::HypGrid& grid);

} // namespace kagen::rhg
