/// \file er.hpp
/// \brief Communication-free Erdős–Rényi generators (paper §4).
///
/// G(n,m):
///  * directed   — the adjacency matrix (minus the diagonal) is cut into P
///    row-block chunks; the number of samples per chunk follows the
///    divide-and-conquer hypergeometric recursion of Sanders et al. [18]
///    (`sampling::ChunkedSampler`), and samples are converted to edges by
///    offset arithmetic (§4.1).
///  * undirected — the lower triangular adjacency matrix is cut into a
///    triangular P×P chunk matrix; a recursion over {top triangle,
///    rectangle, bottom triangle} with per-subtree hash-seeded
///    hypergeometric variates assigns sample counts to chunks. PE i owns
///    chunk row i and chunk column i, so every edge {u, v} is generated by
///    both the PE owning u and the PE owning v, from the *same* per-chunk
///    random stream (§4.2). This ≤ 2m recomputation is an `as_generated`
///    cost: under `exact_once` PE i skips its row chunks (i, j < i), which
///    PE j keeps as column chunks (their lower endpoints lie in block j).
///
/// G(n,p): identical chunk geometry, but per-chunk sample counts are
/// binomial variates seeded by the chunk id alone — no recursion (§4.3).
///
/// All functions are pure in (params, seed, rank, size): calling them twice,
/// or on different "machines", yields bit-identical output.
///
/// Every generator here streams into an `EdgeSink`; the facade
/// `kagen::generate(cfg, rank, size)` (kagen.hpp) is the one form that
/// returns an `EdgeList`.
#pragma once

#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "sampling/sampling.hpp"
#include "sink/edge_sink.hpp"
#include "sink/ownership.hpp"

namespace kagen::er {

/// Number of ordered vertex pairs (u, v), u != v.
inline u128 directed_universe(u64 n) { return static_cast<u128>(n) * (n - 1); }

/// Number of unordered vertex pairs {u, v}, u != v.
inline u128 undirected_universe(u64 n) {
    return static_cast<u128>(n) * (n - 1) / 2;
}

/// All generators take a trailing `SamplerVersion` (sampling/sampling.hpp):
/// v1 (default) keeps the bit-pinned reference stream; v2 swaps in the
/// batched-variate engine per chunk. The chunk geometry, hypergeometric /
/// binomial count layer, and both-owner stream identity are shared — v1 and
/// v2 agree on *which chunks hold how many edges*, differing only in the
/// within-chunk positions (and, for G(n,p) v2, counts and positions fuse
/// into one geometric-skip Bernoulli stream per chunk).

/// Directed G(n,m): edges of PE `rank` of `size`. Edges (u, v) with u local.
void gnm_directed(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version = SamplerVersion::v1);

/// Undirected G(n,m): all edges incident to PE `rank`'s vertices; an edge
/// {u, v} with owners a != b appears in both PEs' outputs (identically).
/// `exact_once` keeps those with a local lower endpoint, in as_generated
/// order. Edges are (u, v), u > v.
void gnm_undirected(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version = SamplerVersion::v1,
                    EdgeSemantics semantics = EdgeSemantics::as_generated);

/// Edge counts of the `size` chunks of directed G(n,m): `[rank]` is exactly
/// what `gnm_directed(n, m, seed, rank, size, ...)` emits, for either
/// sampler. One pass over the hypergeometric split, O(size) variates.
std::vector<u64> gnm_directed_chunk_counts(u64 n, u64 m, u64 seed, u64 size);

/// Edge counts of the `size` chunks of undirected G(n,m) under `semantics`,
/// for either sampler. One pass over the triangle/rectangle recursion: each
/// node draws its variates once, O(size^2) leaves at most, which is 0.5 s
/// of CPU at size 1024 — so the pass is cut into subtrees that `for_each`
/// may tally concurrently (null = one thread).
std::vector<u64> gnm_undirected_chunk_counts(u64 n, u64 m, u64 seed, u64 size,
                                             EdgeSemantics semantics,
                                             const ForEachTask& for_each = nullptr);

/// Directed G(n,p) via per-chunk binomial counts (v1) or a geometric-skip
/// Bernoulli stream over the row block (v2).
void gnp_directed(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version = SamplerVersion::v1);

/// Undirected G(n,p) via per-chunk binomial counts (v1) or per-chunk
/// geometric-skip Bernoulli streams (v2); `semantics` as for G(n,m).
void gnp_undirected(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version = SamplerVersion::v1,
                    EdgeSemantics semantics = EdgeSemantics::as_generated);

} // namespace kagen::er
