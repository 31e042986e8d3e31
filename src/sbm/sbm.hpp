/// \file sbm.hpp
/// \brief Communication-free stochastic block model generator.
///
/// The paper names the SBM as the first target for extending the
/// communication-free paradigm (§9, Future Work); this module implements
/// that extension with the same machinery as the G(n,p) generators (§4.3):
///
/// Vertices are the contiguous blocks B_0, B_1, ... (community k owns a
/// consecutive id range); an edge {u, v}, u in B_i, v in B_j, exists
/// independently with probability probs[i][j]. The undirected adjacency
/// matrix decomposes into rectangles (chunk-pair x block-pair intersections)
/// and diagonal triangles; since Bernoulli sampling is independent across
/// regions, each region's edge count is a Binomial variate seeded by the
/// region's structural id — so both owners of a region regenerate the same
/// edges, exactly like the undirected G(n,p) chunks, and no communication
/// or hypergeometric recursion is needed.
///
/// Output semantics match er::gnp_undirected: every edge incident to PE
/// `rank`'s vertices, emitted as (u, v) with u > v; cross-PE edges appear
/// identically on both owners. Under `exact_once` PE `rank` skips its row
/// chunks (rank, q < rank), whose lower endpoints PE q keeps.
///
/// The generator streams into an `EdgeSink`; the SBM has no facade model,
/// so a caller that wants an `EdgeList` passes a `MemorySink`.
#pragma once

#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::sbm {

struct Params {
    /// Size of each block/community; vertex ids are assigned consecutively.
    std::vector<u64> block_sizes;
    /// Symmetric edge-probability matrix, probs[i][j] = probs[j][i],
    /// one row per block.
    std::vector<std::vector<double>> probs;
    u64 seed = 1;
};

/// Total vertex count (sum of block sizes).
u64 num_vertices(const Params& params);

/// Convenience constructor: `blocks` equal communities over n vertices with
/// intra-block probability `p_in` and inter-block probability `p_out`
/// (the planted-partition model).
Params planted_partition(u64 n, u64 blocks, double p_in, double p_out, u64 seed);

/// Edges incident to PE `rank`'s vertex range (block partition of [0, n)),
/// streamed region by region.
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics = EdgeSemantics::as_generated);

} // namespace kagen::sbm
