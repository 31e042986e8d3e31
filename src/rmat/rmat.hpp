/// \file rmat.hpp
/// \brief R-MAT recursive-matrix generator (Chakrabarti et al. [3]),
///        the Graph 500 baseline the paper benchmarks against (§3.5.2, §8.6.1).
///
/// Each of the m edges is sampled independently by recursively descending
/// the adjacency matrix's quadrants with probabilities (a, b, c, d),
/// a+b+c+d = 1, for log2(n) levels — Θ(m log n) work and Θ(log n) random
/// variates per edge, which is exactly why the paper's generators (O(1)
/// variates per edge) outrun it by an order of magnitude.
///
/// Edges are derived from a counter-based pseudorandom stream keyed by the
/// edge index, so the edge list is independent of the PE count (like the
/// Graph 500 reference implementation). Self-loops and duplicates are kept,
/// Graph 500 style.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include "common/types.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::rmat {

struct Params {
    u64 log_n = 0;    ///< n = 2^log_n vertices
    u64 m     = 0;    ///< number of edges
    double a  = 0.57; ///< Graph 500 defaults
    double b  = 0.19;
    double c  = 0.19;
    u64 seed  = 1;
};

/// The edges with indices in `rank`'s block of [0, m), streamed in index
/// order.
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink);

/// Single edge by index (test hook; the generator is this, blocked).
Edge edge_at(const Params& params, u64 index);

} // namespace kagen::rmat
