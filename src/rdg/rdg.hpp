/// \file rdg.hpp
/// \brief Communication-free random Delaunay graph generator (paper §6).
///
/// Points come from the same `PointGrid` substrate as the RGG generator,
/// with cell side ~ the mean (D+1)-th-nearest-neighbour distance
/// ((D+1)/n)^(1/D) [37]. The triangulation is *periodic* (unit torus): for
/// every point x, conceptual copies x + o, o in {-1,0,1}^D, exist; two
/// vertices are adjacent if any of their copies are adjacent (§2.1.4).
///
/// Each PE triangulates its chunk's cells plus an expanding halo of
/// recomputed neighbour cells. The halo is sufficient once
///   * no simplex incident to a local vertex touches the super-simplex, and
///   * every simplex incident to a local vertex has its circumsphere fully
///     inside generated space (§6);
/// then the star of every local vertex provably coincides with the true
/// periodic Delaunay triangulation, so all incident edges are exact.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include "common/types.hpp"
#include "geometry/point_grid.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::rdg {

struct Params {
    u64 n    = 0;
    u64 seed = 1;
};

/// Cell depth: side ~ ((D+1)/n)^(1/D), never finer than the chunk grid.
template <int D>
u32 cell_levels(u64 n, u64 size);

/// The deterministic point set (same ids/positions on every PE and for the
/// reference triangulation).
template <int D>
PointGrid<D> point_grid(const Params& params, u64 size);

/// Delaunay edges incident to PE `rank`'s vertices, canonical (min,max) ids,
/// deduplicated within the PE. Cross-PE edges appear on both owners — the
/// §6 halo guarantee has both endpoint owners find every Delaunay edge — so
/// `exact_once` keeps an edge only on the PE owning its lower id: PE
/// `rank`'s Morton cell block owns one consecutive id interval, as in RGG.
/// The (per-PE deduplicated) edges stream out once the halo triangulation
/// converges.
template <int D>
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics = EdgeSemantics::as_generated);

/// Sequential reference: triangulates all 3^D periodic copies and projects
/// edges back to the quotient torus. Exact ground truth for tests.
template <int D>
EdgeList reference(const Params& params, u64 size);

} // namespace kagen::rdg
