#include "rgg/rgg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/math.hpp"
#include "obs/metrics.hpp"

namespace kagen::rgg {
namespace {

/// Largest cell depth that still keeps cell side >= r.
u32 levels_for_radius(double r) {
    if (r >= 1.0) return 0;
    const double raw = std::floor(std::log2(1.0 / r));
    return static_cast<u32>(std::max(0.0, raw));
}

/// Cap so the grid has O(n) cells even for tiny radii.
template <int D>
u32 levels_for_density(u64 n) {
    u32 l = 0;
    while ((u64{1} << (static_cast<u64>(l + 1) * D)) <= std::max<u64>(n, 1)) ++l;
    return l;
}

} // namespace

template <int D>
u32 chunk_levels(u64 size) {
    u32 b = 0;
    while ((u64{1} << (static_cast<u64>(b) * D)) < size) ++b;
    return b;
}

template <int D>
u32 cell_levels(u64 n, double r, u64 size) {
    const u32 b = chunk_levels<D>(size);
    const u32 wanted = std::min(levels_for_radius(r), levels_for_density<D>(n));
    const u32 l      = std::max(b, wanted);
    // Morton codes must fit one u64 word (and leave room for D=3 spreads).
    return std::min<u32>(l, D == 2 ? 28 : 18);
}

template <int D>
PointGrid<D> point_grid(const Params& params, u64 size) {
    return PointGrid<D>(params.seed, params.n, cell_levels<D>(params.n, params.r, size));
}

template <int D>
std::pair<u64, u64> cell_range(u32 levels, u64 rank, u64 size) {
    const u32 b          = chunk_levels<D>(size);
    const u32 shift      = (levels - b) * D; // cells per chunk = 2^shift
    const u64 num_chunks = u64{1} << (static_cast<u64>(b) * D);
    return {block_begin(num_chunks, size, rank) << shift,
            block_begin(num_chunks, size, rank + 1) << shift};
}

namespace {

/// A cell's rows in the chunk's point table: row `begin + i` is the point
/// with id `first_id + i`.
struct CellRows {
    std::size_t begin = 0;
    u64 count         = 0;
    u64 first_id      = 0;
};

/// The pair kernel over the chunk's point table. Every candidate (p, q) is
/// written to the sink's window and the write position advances by the
/// distance test's result, so no branch depends on a distance and no call
/// is made per edge. Candidates come in stream order: p, then q, in id
/// order. Ids follow Morton cell order, so a pair of cells orients all its
/// edges alike: (p, q) when q's cell lies above p's, (q, p) below.
template <int D>
class PairSweep {
public:
    PairSweep(EdgeSink& sink, double r_sq) : sink_(sink), r_sq_(r_sq) {
        window_ = sink_.window(room_);
    }

    /// Pairs of two rows of `p` (q after p).
    void within(const typename PointGrid<D>::Columns& x, const CellRows& p) {
        for (u64 i = 0; i + 1 < p.count; ++i) {
            rows<false>(x, p.begin + i, p.first_id + i, p.begin + i + 1,
                        p.count - i - 1, p.first_id + i + 1);
        }
        tests_ += p.count * (p.count - 1) / 2;
    }

    /// Pairs of a row of `p` and a row of `q`, another cell.
    void across(const typename PointGrid<D>::Columns& x, const CellRows& p,
                const CellRows& q, bool q_below) {
        for (u64 i = 0; i < p.count; ++i) {
            if (q_below) {
                rows<true>(x, p.begin + i, p.first_id + i, q.begin, q.count, q.first_id);
            } else {
                rows<false>(x, p.begin + i, p.first_id + i, q.begin, q.count, q.first_id);
            }
        }
        tests_ += p.count * q.count;
    }

    /// Hands the kept prefix of the window to the sink; the last call.
    void finish() { sink_.commit(written_); }

    u64 tests() const { return tests_; }

private:
    /// Row `pr` (id `pid`) against the `count` rows from `qr` (ids from
    /// `qid`). Each pass of the inner loop fits the window, whatever it keeps.
    template <bool kSwap>
    void rows(const typename PointGrid<D>::Columns& x, std::size_t pr, u64 pid,
              std::size_t qr, u64 count, u64 qid) {
        std::array<double, D> p{};
        std::array<const double*, D> q{};
        for (int d = 0; d < D; ++d) {
            p[d] = x[d][pr];
            q[d] = x[d].data() + qr;
        }
        Edge* window  = window_;
        std::size_t w = written_;
        u64 j         = 0;
        while (j < count) {
            if (w == room_) {
                sink_.commit(w);
                window = window_ = sink_.window(room_);
                w                = 0;
            }
            const u64 stop = std::min<u64>(count, j + (room_ - w));
            for (; j < stop; ++j) {
                // The same sum, in the same order, as distance_sq(p, q).
                double s = 0.0;
                for (int d = 0; d < D; ++d) {
                    const double delta = p[d] - q[d][j];
                    s += delta * delta;
                }
                window[w] = kSwap ? Edge{qid + j, pid} : Edge{pid, qid + j};
                w += s <= r_sq_ ? 1 : 0;
            }
        }
        written_ = w;
    }

    EdgeSink& sink_;
    const double r_sq_;
    Edge* window_        = nullptr;
    std::size_t room_    = 0;
    std::size_t written_ = 0; ///< kept edges at the front of the window
    u64 tests_           = 0;
};

} // namespace

template <int D>
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics) {
    const PointGrid<D> grid       = point_grid<D>(params, size);
    const auto [cell_lo, cell_hi] = cell_range<D>(grid.levels(), rank, size);
    const bool exact_once         = semantics == EdgeSemantics::exact_once;
    const u64 per_dim             = grid.cells_per_dim();
    // Halo width in cells: 1 when the cell side is >= r, wider otherwise.
    const auto halo = static_cast<i64>(
        std::ceil(params.r * static_cast<double>(per_dim)));

    // One flat point table for the chunk. Local cells fill its first rows in
    // one walk down the split tree, in Morton order, so local cell
    // `cell_lo + k` owns rows [start[k], start[k + 1]) and row i has id
    // `local_first + i`. Halo cells are recomputed on first use, once each,
    // into the rows after them — the "redundantly generated border layers"
    // of §5.1, through the deterministic PointGrid, no communication.
    typename PointGrid<D>::Columns x;
    std::vector<std::size_t> start(cell_hi - cell_lo + 1);
    std::size_t started = 0; // local cells whose first row is known
    u64 local_first     = 0;
    auto start_until = [&](u64 k) {
        while (started <= k) start[started++] = x[0].size();
    };
    grid.for_cells_in_range(cell_lo, cell_hi, [&](u64 cell, u64 count, u64 first_id) {
        if (x[0].empty()) local_first = first_id;
        start_until(cell - cell_lo);
        grid.append_cell_points(cell, count, x);
    });
    start_until(cell_hi - cell_lo);

    auto local_rows = [&](u64 cell) {
        const u64 k = cell - cell_lo;
        return CellRows{start[k], start[k + 1] - start[k], local_first + start[k]};
    };
    std::unordered_map<u64, CellRows> halo_rows;
    auto rows_of = [&](u64 cell) {
        if (cell >= cell_lo && cell < cell_hi) return local_rows(cell);
        auto [it, inserted] = halo_rows.try_emplace(cell);
        if (inserted) {
            const auto occ = grid.occupancy(cell);
            it->second     = CellRows{x[0].size(), occ.count, occ.first_id};
            grid.append_cell_points(cell, occ.count, x);
        }
        return it->second;
    };

    PairSweep<D> sweep(sink, params.r * params.r);
    std::array<u64, D> nb{};
    for (u64 cell = cell_lo; cell < cell_hi; ++cell) {
        const CellRows mine = local_rows(cell);
        if (mine.count == 0) continue;
        const auto coords = Morton<D>::decode(cell);

        // Enumerate the Chebyshev ball of neighbouring cells.
        std::array<i64, D> delta;
        delta.fill(-halo);
        for (;;) {
            bool in_grid = true;
            for (int d = 0; d < D; ++d) {
                const i64 c = static_cast<i64>(coords[d]) + delta[d];
                if (c < 0 || c >= static_cast<i64>(per_dim)) {
                    in_grid = false;
                    break;
                }
                nb[d] = static_cast<u64>(c);
            }
            if (in_grid) {
                const u64 other = Morton<D>::encode(nb);
                // Local pairs are processed once (from the lower Morton id).
                // A halo cell below `cell` lies below the whole local range,
                // so its ids are lower: exact_once leaves its edges to its
                // owner; as_generated emits them here too.
                const bool below = other < cell;
                if (other == cell) {
                    sweep.within(x, mine);
                } else if (!below || (!exact_once && other < cell_lo)) {
                    const CellRows theirs = rows_of(other);
                    if (theirs.count != 0) sweep.across(x, mine, theirs, below);
                }
            }
            // Next delta (odometer increment).
            int d = 0;
            while (d < D && ++delta[d] > halo) {
                delta[d] = -halo;
                ++d;
            }
            if (d == D) break;
        }
    }
    sweep.finish();
    // Within a PE each edge appears once: a local pair of cells is swept
    // from the lower one only. Cross-PE duplicates are intended (paper
    // §5.1) unless exact_once skipped them.
    sink.flush();

    // Per chunk, never per edge: the distance tests made and the halo cells
    // recomputed (the §5.1 redundancy; none when one chunk holds the grid).
    static obs::Counter& tests_ctr = obs::Registry::global().counter("rgg.pair_tests");
    static obs::Counter& halo_ctr  = obs::Registry::global().counter("rgg.halo_cells");
    tests_ctr.add(sweep.tests());
    halo_ctr.add(halo_rows.size());
}

template <int D>
EdgeList brute_force(const Params& params, u64 size) {
    const PointGrid<D> grid = point_grid<D>(params, size);
    const auto pts          = grid.all_points();
    const double r_sq       = params.r * params.r;
    EdgeList edges;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (distance_sq(pts[i].pos, pts[j].pos) <= r_sq) {
                edges.emplace_back(std::min(pts[i].id, pts[j].id),
                                   std::max(pts[i].id, pts[j].id));
            }
        }
    }
    return edges;
}

template u32 chunk_levels<2>(u64);
template u32 chunk_levels<3>(u64);
template u32 cell_levels<2>(u64, double, u64);
template u32 cell_levels<3>(u64, double, u64);
template PointGrid<2> point_grid<2>(const Params&, u64);
template PointGrid<3> point_grid<3>(const Params&, u64);
template std::pair<u64, u64> cell_range<2>(u32, u64, u64);
template std::pair<u64, u64> cell_range<3>(u32, u64, u64);
template void generate<2>(const Params&, u64, u64, EdgeSink&, EdgeSemantics);
template void generate<3>(const Params&, u64, u64, EdgeSink&, EdgeSemantics);
template EdgeList brute_force<2>(const Params&, u64);
template EdgeList brute_force<3>(const Params&, u64);

} // namespace kagen::rgg
