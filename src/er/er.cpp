#include "er/er.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <vector>

#include "common/math.hpp"
#include "sampling/sampling.hpp"
#include "variates/variates.hpp"

namespace kagen::er {
namespace {

// Structural tags keeping the hash-seeded random streams of distinct
// recursion node types disjoint.
constexpr u64 kTagTriangleNode = 0x7217e5;
constexpr u64 kTagRectNode     = 0x2ec7a0;
constexpr u64 kTagChunk        = 0xc4a9c;
constexpr u64 kTagGnp          = 0x9a9b;

/// Vertex range of chunk row/column `i` (consecutive blocks of ~n/P).
struct Blocks {
    u64 n;
    u64 p;
    u64 begin(u64 i) const { return block_begin(n, p, i); }
    u64 size(u64 i) const { return block_size(n, p, i); }
    u64 span(u64 lo, u64 hi) const { return begin(hi) - begin(lo); }
};

/// --- Directed -----------------------------------------------------------

/// Decodes a stream of *nondecreasing* sample offsets of a row-major
/// universe (rows of `width` slots each) into (row, rel-column) pairs
/// without a u64 division per sample. `sorted_sample` emits offsets in
/// increasing order, so the row advances monotonically: nearby offsets
/// resolve with a few adds (amortized O(samples + rows crossed) over a
/// chunk), and only a jump spanning many rows pays one division — the
/// emit path's former 20–30 ns/edge divide drops out of the dense case
/// entirely (DESIGN.md §9). Output is identical by construction.
class SortedRowDecoder {
public:
    explicit SortedRowDecoder(u64 width) : width_(width) {}

    /// (row index, column offset within the row) of `offset`; offsets must
    /// not decrease between calls on the same decoder.
    std::pair<u64, u64> decode(u64 offset) {
        u64 rel = offset - row_start_;
        if (rel >= width_) {
            if (rel >= kJumpRows * width_) {
                // Sparse stream: one division moves the cursor in O(1); no
                // worse than the old per-sample divide.
                const u64 skip = rel / width_;
                row_ += skip;
                row_start_ += skip * width_;
                rel -= skip * width_;
            } else {
                do {
                    ++row_;
                    row_start_ += width_;
                    rel -= width_;
                } while (rel >= width_);
            }
        }
        return {row_, rel};
    }

private:
    static constexpr u64 kJumpRows = 8; // adds are ~20x cheaper than a divide

    const u64 width_;
    u64 row_       = 0;
    u64 row_start_ = 0;
};

/// Maps a sample offset within a row-block chunk to a directed edge.
/// Row r of the adjacency matrix has n-1 valid columns (self loop removed).
void emit_directed(u64 row_begin, SortedRowDecoder& rows, u64 offset, EdgeSink& out) {
    const auto [r, c] = rows.decode(offset);
    const u64 row     = row_begin + r;
    // Branchless diagonal skip (SNIPPETS.md idiom): col >= row is an
    // unpredictable comparison in the dense regime, so fold it into an add.
    const u64 col = c + (c >= row ? 1 : 0);
    out.emit(row, col);
}

/// --- Undirected chunk materialization ------------------------------------

/// Diagonal chunk (i, i): a triangular universe over the block's vertices.
void emit_diagonal_chunk(const Blocks& blocks, u64 i, u64 count, u64 seed, EdgeSink& out,
                         SamplerVersion version) {
    const u64 base  = blocks.begin(i);
    const u64 sz    = blocks.size(i);
    const u128 uni  = triangle(sz);
    if (count == 0) return;
    assert(static_cast<u128>(count) <= uni);
    Rng rng = Rng::for_ids(seed, {kTagChunk, i, i});
    sorted_sample(rng, static_cast<u64>(uni), count, [&](u64 s) {
        const u64 r = triangle_row(s);
        const u64 c = s - static_cast<u64>(triangle(r));
        out.emit(base + r, base + c);
    }, version);
}

/// Off-diagonal chunk (i, j), i > j: a |V_i| x |V_j| rectangular universe.
void emit_rect_chunk(const Blocks& blocks, u64 i, u64 j, u64 count, u64 seed, EdgeSink& out,
                     SamplerVersion version) {
    if (count == 0) return;
    const u64 rbase = blocks.begin(i);
    const u64 cbase = blocks.begin(j);
    const u64 cols  = blocks.size(j);
    const u128 uni  = static_cast<u128>(blocks.size(i)) * cols;
    assert(static_cast<u128>(count) <= uni);
    Rng rng = Rng::for_ids(seed, {kTagChunk, i, j});
    SortedRowDecoder rows(cols);
    sorted_sample(rng, static_cast<u64>(uni), count, [&](u64 s) {
        const auto [r, c] = rows.decode(s);
        out.emit(rbase + r, cbase + c);
    }, version);
}

void emit_chunk(const Blocks& blocks, u64 i, u64 j, u64 count, u64 seed, EdgeSink& out,
                SamplerVersion version) {
    if (i == j) {
        emit_diagonal_chunk(blocks, i, count, seed, out, version);
    } else {
        emit_rect_chunk(blocks, i, j, count, seed, out, version);
    }
}

/// --- Undirected G(n,m) divide and conquer --------------------------------
///
/// One recursion, two visitors: `ChunkEmitter` walks only the subtrees a PE
/// needs and draws their edges; `ChunkCounter` walks every subtree once and
/// tallies what each PE will emit. Both see the same hash-seeded variates
/// at every node, so the tally is exact by construction. A visitor answers
/// `enters_rect` / `enters_triangle` (prune a subtree holding k samples)
/// and `leaf(i, j, k)` (chunk (i, j) holds k samples).

struct URec {
    Blocks blocks;
    u64 seed;
};

/// Rectangle of chunks rows [rlo, rhi) x cols [clo, chi).
template <typename Visitor>
void descend_rect(const URec& rec, Visitor& visit, u64 rlo, u64 rhi, u64 clo, u64 chi,
                  u64 k) {
    if (k == 0 || !visit.enters_rect(rlo, rhi, clo, chi, k)) return;
    if (rhi - rlo == 1 && chi - clo == 1) {
        visit.leaf(rlo, clo, k);
        return;
    }
    const u128 total = static_cast<u128>(rec.blocks.span(rlo, rhi)) * rec.blocks.span(clo, chi);
    Rng rng = Rng::for_ids(rec.seed, {kTagRectNode, rlo, rhi, clo, chi});
    if (rhi - rlo >= chi - clo) {
        const u64 rmid  = rlo + (rhi - rlo) / 2;
        const u128 top  = static_cast<u128>(rec.blocks.span(rlo, rmid)) * rec.blocks.span(clo, chi);
        const u64 k_top = hypergeometric(rng, total, top, k);
        descend_rect(rec, visit, rlo, rmid, clo, chi, k_top);
        descend_rect(rec, visit, rmid, rhi, clo, chi, k - k_top);
    } else {
        const u64 cmid   = clo + (chi - clo) / 2;
        const u128 left  = static_cast<u128>(rec.blocks.span(rlo, rhi)) * rec.blocks.span(clo, cmid);
        const u64 k_left = hypergeometric(rng, total, left, k);
        descend_rect(rec, visit, rlo, rhi, clo, cmid, k_left);
        descend_rect(rec, visit, rlo, rhi, cmid, chi, k - k_left);
    }
}

/// Triangular region of chunk rows/cols [lo, hi). Splits into the top
/// triangle, the rectangle, and the bottom triangle (paper Fig. 1, right).
template <typename Visitor>
void descend_triangle(const URec& rec, Visitor& visit, u64 lo, u64 hi, u64 k) {
    if (k == 0) return;
    if (hi - lo == 1) {
        visit.leaf(lo, lo, k);
        return;
    }
    const u64 mid     = lo + (hi - lo) / 2;
    const u128 total  = triangle(rec.blocks.span(lo, hi));
    const u128 t_top  = triangle(rec.blocks.span(lo, mid));
    const u128 rect   = static_cast<u128>(rec.blocks.span(mid, hi)) * rec.blocks.span(lo, mid);
    Rng rng           = Rng::for_ids(rec.seed, {kTagTriangleNode, lo, hi});
    const u64 k_top   = hypergeometric(rng, total, t_top, k);
    const u64 k_rect  = hypergeometric(rng, total - t_top, rect, k - k_top);
    const u64 k_bot   = k - k_top - k_rect;
    if (visit.enters_triangle(lo, mid, k_top)) descend_triangle(rec, visit, lo, mid, k_top);
    descend_rect(rec, visit, mid, hi, lo, mid, k_rect);
    if (visit.enters_triangle(mid, hi, k_bot)) descend_triangle(rec, visit, mid, hi, k_bot);
}

/// Draws the chunks of one PE: it needs either one chunk row (pe in rows) or
/// one chunk column (pe in cols) of a rectangle; under exact_once only the
/// column (a row chunk's lower endpoints are not local).
struct ChunkEmitter {
    const URec& rec;
    u64 pe;
    EdgeSink& out;
    SamplerVersion version;
    bool columns_only; // exact_once: skip the row chunks (pe, j < pe)

    bool enters_rect(u64 rlo, u64 rhi, u64 clo, u64 chi, u64 /*k*/) const {
        const bool in_rows = pe >= rlo && pe < rhi;
        const bool in_cols = pe >= clo && pe < chi;
        return in_cols || (in_rows && !columns_only);
    }
    bool enters_triangle(u64 lo, u64 hi, u64 /*k*/) const { return pe >= lo && pe < hi; }
    void leaf(u64 i, u64 j, u64 k) { emit_chunk(rec.blocks, i, j, k, rec.seed, out, version); }
};

/// Tallies every PE's edge count: chunk (i, j) is emitted by its column PE
/// j and, under as_generated, also by its row PE i. Subtrees may be
/// tallied concurrently, so the adds are atomic.
struct ChunkCounter {
    std::vector<u64>& counts;
    bool columns_only;

    bool enters_rect(u64, u64, u64, u64, u64) const { return true; }
    bool enters_triangle(u64, u64, u64) const { return true; }
    void leaf(u64 i, u64 j, u64 k) {
        std::atomic_ref<u64>(counts[j]).fetch_add(k, std::memory_order_relaxed);
        if (i != j && !columns_only) {
            std::atomic_ref<u64>(counts[i]).fetch_add(k, std::memory_order_relaxed);
        }
    }
};

/// A subtree of the recursion: a triangle [lo, hi) (rlo = clo = lo,
/// rhi = chi = hi) or a rectangle, holding k samples.
struct Subtree {
    bool triangle;
    u64 rlo, rhi, clo, chi, k;
};

/// Cuts the recursion into subtrees of at most `grain` chunks each, the
/// tasks of a parallel count pass; walks only the nodes above them.
struct SubtreeCollector {
    std::vector<Subtree>& tasks;
    u64 grain;

    bool enters_rect(u64 rlo, u64 rhi, u64 clo, u64 chi, u64 k) {
        if ((rhi - rlo) * (chi - clo) > grain) return true;
        tasks.push_back({false, rlo, rhi, clo, chi, k});
        return false;
    }
    bool enters_triangle(u64 lo, u64 hi, u64 k) {
        if (k == 0) return false;
        if (triangle(hi - lo + 1) > grain) return true; // hi - lo chunks a side
        tasks.push_back({true, lo, hi, lo, hi, k});
        return false;
    }
    void leaf(u64 i, u64 j, u64 k) { tasks.push_back({false, i, i + 1, j, j + 1, k}); }
};

} // namespace

void gnm_directed(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version) {
    assert(n >= 2 && size >= 1 && rank < size);
    assert(static_cast<u128>(m) <= directed_universe(n));
    ChunkedSampler sampler(seed, make_row_universe(n, size, n - 1), m);
    const u64 row_begin = block_begin(n, size, rank);
    SortedRowDecoder rows(n - 1);
    sampler.sample_chunk(
        rank, [&](u64 offset) { emit_directed(row_begin, rows, offset, sink); },
        version);
    sink.flush();
}

void gnm_undirected(u64 n, u64 m, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version, EdgeSemantics semantics) {
    assert(n >= 2 && size >= 1 && rank < size);
    assert(static_cast<u128>(m) <= undirected_universe(n));
    const URec rec{Blocks{n, size}, seed};
    ChunkEmitter visit{rec, rank, sink, version, semantics == EdgeSemantics::exact_once};
    descend_triangle(rec, visit, 0, size, m);
    sink.flush();
}

std::vector<u64> gnm_directed_chunk_counts(u64 n, u64 m, u64 seed, u64 size) {
    assert(n >= 2 && size >= 1);
    return ChunkedSampler(seed, make_row_universe(n, size, n - 1), m).chunk_counts();
}

std::vector<u64> gnm_undirected_chunk_counts(u64 n, u64 m, u64 seed, u64 size,
                                             EdgeSemantics semantics,
                                             const ForEachTask& for_each) {
    assert(n >= 2 && size >= 1);
    std::vector<u64> counts(size, 0);
    const URec rec{Blocks{n, size}, seed};
    ChunkCounter counter{counts, semantics == EdgeSemantics::exact_once};
    if (!for_each) {
        descend_triangle(rec, counter, 0, size, m);
        return counts;
    }
    // About 64 subtrees of near-equal area: enough for the pool's cursor to
    // balance them, few enough that walking the nodes above them is free.
    std::vector<Subtree> tasks;
    SubtreeCollector collect{tasks, std::max<u64>(static_cast<u64>(triangle(size + 1) / 64), 1)};
    if (collect.enters_triangle(0, size, m)) descend_triangle(rec, collect, 0, size, m);
    for_each(tasks.size(), [&](u64 t) {
        const Subtree& sub = tasks[t];
        if (sub.triangle) {
            descend_triangle(rec, counter, sub.rlo, sub.rhi, sub.k);
        } else {
            descend_rect(rec, counter, sub.rlo, sub.rhi, sub.clo, sub.chi, sub.k);
        }
    });
    return counts;
}

void gnp_directed(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                  SamplerVersion version) {
    assert(n >= 2 && size >= 1 && rank < size);
    const u64 row_begin = block_begin(n, size, rank);
    const u128 universe = static_cast<u128>(block_size(n, size, rank)) * (n - 1);
    assert(universe <= static_cast<u128>(~u64{0}));
    SortedRowDecoder rows(n - 1);
    if (version == SamplerVersion::v2) {
        // Geometric-skip fast path: the binomial count + sorted positions of
        // v1 and a single Bernoulli(p) sweep over the universe induce the
        // same product distribution, so v2 fuses them into one stream — no
        // count variate, one exponential per edge.
        Rng rng = Rng::for_ids(seed, {kTagChunk, rank});
        bernoulli_sample(rng, static_cast<u64>(universe), p, [&](u64 offset) {
            emit_directed(row_begin, rows, offset, sink);
        });
        sink.flush();
        return;
    }
    Rng count_rng   = Rng::for_ids(seed, {kTagGnp, rank});
    const u64 count = binomial(count_rng, static_cast<u64>(universe), p);
    Rng rng = Rng::for_ids(seed, {kTagChunk, rank});
    sorted_sample(rng, static_cast<u64>(universe), count,
                  [&](u64 offset) { emit_directed(row_begin, rows, offset, sink); });
    sink.flush();
}

void gnp_undirected(u64 n, double p, u64 seed, u64 rank, u64 size, EdgeSink& sink,
                    SamplerVersion version, EdgeSemantics semantics) {
    assert(n >= 2 && size >= 1 && rank < size);
    const Blocks blocks{n, size};
    // exact_once skips the row chunks (rank, j < rank): PE j keeps them.
    const u64 first_row = semantics == EdgeSemantics::exact_once ? rank : 0;
    if (version == SamplerVersion::v2) {
        // Per-chunk geometric-skip Bernoulli streams. The chunk rng is
        // seeded exactly as v1's position stream ({kTagChunk, i, j}), so
        // both owners of chunk (i, j) still draw identical edges.
        auto emit_bernoulli = [&](u64 i, u64 j) {
            Rng rng = Rng::for_ids(seed, {kTagChunk, i, j});
            if (i == j) {
                const u64 base = blocks.begin(i);
                bernoulli_sample(rng, static_cast<u64>(triangle(blocks.size(i))), p,
                                 [&](u64 s) {
                                     const u64 r = triangle_row(s);
                                     const u64 c = s - static_cast<u64>(triangle(r));
                                     sink.emit(base + r, base + c);
                                 });
            } else {
                const u64 rbase = blocks.begin(i);
                const u64 cbase = blocks.begin(j);
                const u64 cols  = blocks.size(j);
                const u128 uni  = static_cast<u128>(blocks.size(i)) * cols;
                SortedRowDecoder rows(cols);
                bernoulli_sample(rng, static_cast<u64>(uni), p, [&](u64 s) {
                    const auto [r, c] = rows.decode(s);
                    sink.emit(rbase + r, cbase + c);
                });
            }
        };
        for (u64 j = first_row; j <= rank; ++j) emit_bernoulli(rank, j);
        for (u64 i = rank + 1; i < size; ++i) emit_bernoulli(i, rank);
        sink.flush();
        return;
    }
    auto chunk_count = [&](u64 i, u64 j) {
        const u128 uni = (i == j) ? triangle(blocks.size(i))
                                  : static_cast<u128>(blocks.size(i)) * blocks.size(j);
        Rng rng = Rng::for_ids(seed, {kTagGnp, i, j});
        return binomial(rng, static_cast<u64>(uni), p);
    };
    // Row chunks, then the diagonal chunk (rank, rank).
    for (u64 j = first_row; j <= rank; ++j) {
        emit_chunk(blocks, rank, j, chunk_count(rank, j), seed, sink,
                   SamplerVersion::v1);
    }
    // Column chunks (i > rank, rank) — edges whose lower endpoint is local.
    for (u64 i = rank + 1; i < size; ++i) {
        emit_chunk(blocks, i, rank, chunk_count(i, rank), seed, sink,
                   SamplerVersion::v1);
    }
    sink.flush();
}

} // namespace kagen::er
