/// \file rgg.hpp
/// \brief Communication-free random geometric graph generator (paper §5).
///
/// The unit cube is partitioned into 2^(D*b) chunks (b chosen so there are at
/// least P chunks); chunks are assigned to PEs as contiguous Morton-order
/// blocks ("locality-aware via a Z-order curve", §5.1). Chunks subdivide
/// into a power-of-two cell grid whose side length is kept >= r whenever the
/// chunk granularity allows; otherwise the halo widens to ceil(r/side)
/// layers. Each PE generates its own cells plus the halo cells of
/// neighbouring chunks by *recomputation* through the shared `PointGrid`
/// substrate — no communication. Every edge incident to a local vertex is
/// emitted; edges crossing a PE boundary therefore appear on both owners.
/// Under `exact_once` only the owner of the lower endpoint emits them: ids
/// follow Morton cell order, so a halo cell below the PE's first cell holds
/// only lower ids, and the PE never scans (or recomputes) it.
///
/// The sweep runs over one flat structure-of-arrays point table per chunk:
/// local cells indexed by their Morton offset, each halo cell recomputed
/// once into the same table. Its distance test is branch-free — each
/// candidate is stored into the sink's inline buffer and kept by advancing
/// the write position by the test result — and keeps one emission order:
/// local cells in Morton order, neighbours in odometer order, p then q in
/// id order. `rgg.pair_tests` and `rgg.halo_cells` count the work per chunk.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include <utility>

#include "common/types.hpp"
#include "geometry/point_grid.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::rgg {

struct Params {
    u64 n       = 0;   ///< number of vertices
    double r    = 0.0; ///< connection radius
    u64 seed    = 1;
};

/// Chunk depth: smallest b with 2^(D*b) >= size.
template <int D>
u32 chunk_levels(u64 size);

/// Cell depth used for (n, r, size); >= chunk_levels and chosen so cells
/// have side >= r when possible but stay at O(n) cells.
template <int D>
u32 cell_levels(u64 n, double r, u64 size);

/// The deterministic point set the generator operates on. Exposed so tests
/// and the naive baseline can build the exact reference graph.
template <int D>
PointGrid<D> point_grid(const Params& params, u64 size);

/// Morton cell range [lo, hi) of PE `rank` in a grid with `levels` cell
/// levels shared by `size` PEs: the PE's contiguous chunk block, widened to
/// cell resolution. Shared by the RGG and RDG generators, so both agree on
/// the decomposition by construction.
template <int D>
std::pair<u64, u64> cell_range(u32 levels, u64 rank, u64 size);

/// Edges of PE `rank`: all edges incident to vertices of its chunks
/// (`exact_once`: those whose lower endpoint is local). Canonical (min-id,
/// max-id) orientation; each edge appears once per PE, streamed as the
/// cell sweep finds it.
template <int D>
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics = EdgeSemantics::as_generated);

/// Theta(n^2) reference over the same point set (tests, small benches).
template <int D>
EdgeList brute_force(const Params& params, u64 size);

} // namespace kagen::rgg
