/// \file ba.hpp
/// \brief Communication-free Barabási–Albert preferential attachment
///        (Sanders & Schulz [4], adopted by the paper §3.5.1).
///
/// The sequential Batagelj–Brandes algorithm fills a virtual edge array
/// E[0..2nd): E[2i] = i/d (the source of edge i) and E[2i+1] = E[r] for a
/// uniformly random r < 2i+1 — choosing an endpoint proportionally to its
/// current degree. Sanders–Schulz parallelize it by deriving r from a hash
/// of the *position* 2i+1: any PE can resolve any entry by chasing the
/// pseudorandom dependency chain until it hits an even position (which
/// decodes to a concrete vertex). Expected chain length is O(1) and the
/// maximum is O(log n) w.h.p., so each PE generates the d edges of each of
/// its n/P vertices independently — zero communication, and the output is
/// *identical for every PE count*.
///
/// As in the original model/algorithm, self-loops and parallel edges may
/// occur (they are rare); the graph is returned as directed "new -> old"
/// attachment edges.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include "common/types.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::ba {

struct Params {
    u64 n      = 0; ///< number of vertices
    u64 degree = 1; ///< attachment edges per vertex (d)
    u64 seed   = 1;
};

/// Edges (v, target) for all vertices v owned by `rank` (block partition).
/// Streams each attachment edge as its dependency chain resolves.
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink);

/// Resolves the virtual edge-array entry at `position` (test hook).
VertexId resolve(const Params& params, u64 position);

} // namespace kagen::ba
