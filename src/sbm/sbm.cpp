#include "sbm/sbm.hpp"

#include <algorithm>
#include <cassert>

#include "common/math.hpp"
#include "sampling/sampling.hpp"
#include "variates/variates.hpp"

namespace kagen::sbm {
namespace {

constexpr u64 kTagRegion = 0x5b30;

struct Interval {
    u64 lo = 0;
    u64 hi = 0;
    u64 size() const { return hi - lo; }
    bool empty() const { return hi <= lo; }
};

Interval intersect(Interval a, Interval b) {
    return Interval{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

/// Bernoulli-samples the rows x cols rectangle with probability p; all row
/// ids must exceed all col ids (guaranteed by the caller's decomposition).
void sample_rectangle(u64 seed, Interval rows, Interval cols, double p, EdgeSink& out) {
    if (rows.empty() || cols.empty() || p <= 0.0) return;
    const u64 universe = rows.size() * cols.size();
    // Region id = its corner in the global adjacency matrix (unique across
    // the chunk x block overlay); both owners derive the same stream.
    Rng count_rng   = Rng::for_ids(seed, {kTagRegion, rows.lo, cols.lo, 0});
    const u64 count = binomial(count_rng, universe, p);
    if (count == 0) return;
    Rng rng = Rng::for_ids(seed, {kTagRegion, rows.lo, cols.lo, 1});
    sorted_sample(rng, universe, count, [&](u64 idx) {
        out.emit(rows.lo + idx / cols.size(), cols.lo + idx % cols.size());
    });
}

/// Bernoulli-samples the strictly-lower triangle of the square over `span`.
void sample_triangle(u64 seed, Interval span, double p, EdgeSink& out) {
    if (span.size() < 2 || p <= 0.0) return;
    const u64 universe = static_cast<u64>(triangle(span.size()));
    Rng count_rng      = Rng::for_ids(seed, {kTagRegion, span.lo, span.lo, 2});
    const u64 count    = binomial(count_rng, universe, p);
    if (count == 0) return;
    Rng rng = Rng::for_ids(seed, {kTagRegion, span.lo, span.lo, 3});
    sorted_sample(rng, universe, count, [&](u64 idx) {
        const u64 r = triangle_row(idx);
        out.emit(span.lo + r, span.lo + idx - static_cast<u64>(triangle(r)));
    });
}

struct Layout {
    u64 n = 0;
    std::vector<u64> block_offset; // block_sizes.size() + 1 entries

    Interval block(u64 b) const { return {block_offset[b], block_offset[b + 1]}; }

    /// Blocks intersecting a vertex interval.
    std::pair<u64, u64> blocks_over(Interval iv) const {
        const auto lo = static_cast<u64>(
            std::upper_bound(block_offset.begin(), block_offset.end(), iv.lo) -
            block_offset.begin() - 1);
        u64 hi = lo;
        while (hi + 1 < block_offset.size() && block_offset[hi + 1] < iv.hi) ++hi;
        return {lo, hi};
    }
};

/// Generates all edges of the chunk pair (row chunk cp, col chunk cq),
/// cq <= cp, split along block boundaries.
void generate_chunk_pair(const Params& params, const Layout& layout, u64 size, u64 cp,
                         u64 cq, EdgeSink& out) {
    const Interval rows{block_begin(layout.n, size, cp),
                        block_begin(layout.n, size, cp + 1)};
    const Interval cols{block_begin(layout.n, size, cq),
                        block_begin(layout.n, size, cq + 1)};
    if (rows.empty() || cols.empty()) return;
    const auto [rb_lo, rb_hi] = layout.blocks_over(rows);
    const auto [cb_lo, cb_hi] = layout.blocks_over(cols);
    for (u64 bi = rb_lo; bi <= rb_hi; ++bi) {
        for (u64 bj = cb_lo; bj <= cb_hi; ++bj) {
            const Interval r = intersect(rows, layout.block(bi));
            const Interval c = intersect(cols, layout.block(bj));
            if (r.empty() || c.empty()) continue;
            const double p = params.probs[bi][bj];
            if (cp != cq || bi > bj) {
                // Disjoint id ranges: plain rectangle, rows all above cols.
                sample_rectangle(params.seed, r, c, p, out);
            } else if (bi == bj) {
                // Same block on the diagonal chunk: triangle over r == c.
                assert(r.lo == c.lo && r.hi == c.hi);
                sample_triangle(params.seed, r, p, out);
            }
            // bi < bj on the diagonal chunk: the mirror (bj, bi) handles it.
        }
    }
}

} // namespace

u64 num_vertices(const Params& params) {
    u64 n = 0;
    for (const u64 s : params.block_sizes) n += s;
    return n;
}

Params planted_partition(u64 n, u64 blocks, double p_in, double p_out, u64 seed) {
    Params params;
    params.seed = seed;
    params.block_sizes.resize(blocks);
    for (u64 b = 0; b < blocks; ++b) params.block_sizes[b] = block_size(n, blocks, b);
    params.probs.assign(blocks, std::vector<double>(blocks, p_out));
    for (u64 b = 0; b < blocks; ++b) params.probs[b][b] = p_in;
    return params;
}

void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics) {
    assert(params.probs.size() == params.block_sizes.size());
    Layout layout;
    layout.n = num_vertices(params);
    layout.block_offset.resize(params.block_sizes.size() + 1, 0);
    for (std::size_t b = 0; b < params.block_sizes.size(); ++b) {
        layout.block_offset[b + 1] = layout.block_offset[b] + params.block_sizes[b];
    }

    // Row chunks (rank, q <= rank): edges whose higher endpoint is local.
    // Under exact_once only the diagonal one has a local lower endpoint.
    const u64 first_row_chunk = semantics == EdgeSemantics::exact_once ? rank : 0;
    for (u64 q = first_row_chunk; q <= rank; ++q) {
        generate_chunk_pair(params, layout, size, rank, q, sink);
    }
    // Column chunks (p > rank, rank): edges whose lower endpoint is local.
    for (u64 p = rank + 1; p < size; ++p) {
        generate_chunk_pair(params, layout, size, p, rank, sink);
    }
    sink.flush();
}

} // namespace kagen::sbm
