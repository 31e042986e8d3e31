/// \file point_grid.hpp
/// \brief Deterministic uniform points in [0,1)^D, organized in a power-of-
///        two cell grid whose per-cell occupancy any PE can recompute locally.
///
/// This is the shared point substrate of the RGG (§5) and RDG (§6)
/// generators. Space is split recursively into 2^(D*levels) equal cells in
/// Morton order; because every split halves the volume, the number of points
/// in each half is Binomial(k, 1/2), seeded by a hash of the recursion node
/// (§5.1). Consequences used throughout:
///   * the joint cell-occupancy distribution is exactly multinomial —
///     i.e. the grid emulates throwing n i.i.d. uniform points;
///   * any PE can compute any cell's count, its points, and the points'
///     *global ids* (prefix count + index) in O(levels) variates, without
///     communication — this is what makes halo recomputation free of
///     coordination;
///   * the point set depends only on (seed, n, levels) — NOT on the number
///     of PEs — so tests can compare any distributed run against a
///     sequential brute-force reference on the identical point set.
///
/// Points come out in two shapes from one draw: `cell_points` returns a
/// cell's `IdPoint`s, and `append_cell_points` appends the same coordinates
/// to structure-of-arrays columns, as the RGG sweep keeps one flat point
/// table per chunk (rgg/rgg.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "common/types.hpp"
#include "geometry/morton.hpp"
#include "geometry/vec.hpp"
#include "prng/rng.hpp"
#include "variates/variates.hpp"

namespace kagen {

template <int D>
class PointGrid {
public:
    /// A point together with its global vertex id.
    struct IdPoint {
        VertexId id;
        Vec<D> pos;
    };

    PointGrid(u64 seed, u64 n, u32 levels) : seed_(seed), n_(n), levels_(levels) {
        assert(levels_ * D < 63);
    }

    u64 num_points() const { return n_; }
    u32 levels() const { return levels_; }
    u64 cells_per_dim() const { return u64{1} << levels_; }
    u64 num_cells() const { return u64{1} << (static_cast<u64>(levels_) * D); }
    double cell_side() const { return 1.0 / static_cast<double>(cells_per_dim()); }

    /// A cell's point count and the global id of its first point.
    struct Occupancy {
        u64 count;
        u64 first_id;
    };

    /// Structure-of-arrays point storage: coordinate d of point i is
    /// `columns[d][i]`.
    using Columns = std::array<std::vector<double>, static_cast<std::size_t>(D)>;

    /// Walks the Morton prefix tree from the root to `cell`, drawing one
    /// Binomial(k, 1/2) per level; O(levels) variates.
    Occupancy occupancy(u64 cell) const {
        u64 lo     = 0;
        u64 hi     = num_cells();
        u64 count  = n_;
        u64 prefix = 0;
        while (hi - lo > 1) {
            const u64 mid = lo + (hi - lo) / 2;
            Rng rng       = Rng::for_ids(seed_, {kTagSplit, lo, hi});
            const u64 left = binomial(rng, count, 0.5);
            if (cell < mid) {
                hi    = mid;
                count = left;
            } else {
                lo = mid;
                prefix += left;
                count -= left;
            }
            if (count == 0) break;
        }
        return Occupancy{count, prefix};
    }

    /// Number of points in Morton cell `cell`.
    u64 count_in_cell(u64 cell) const { return occupancy(cell).count; }

    /// Number of points in all cells with Morton index < `cell`
    /// (== the global id of the first point of `cell`).
    u64 first_id(u64 cell) const {
        if (cell == num_cells()) return n_;
        return occupancy(cell).first_id;
    }

    /// The points of `cell` with their global ids, in id order.
    /// Bit-identical on every PE that asks.
    std::vector<IdPoint> cell_points(u64 cell) const {
        const Occupancy occ = occupancy(cell);
        std::vector<IdPoint> pts(occ.count);
        for_each_point(cell, occ.count, [&](u64 i, const Vec<D>& pos) {
            pts[i] = IdPoint{occ.first_id + i, pos};
        });
        return pts;
    }

    /// Appends the `count` points of `cell` (its occupancy, known to the
    /// caller) to `columns` in id order: the same variates as `cell_points`,
    /// written in place with no per-cell vector.
    void append_cell_points(u64 cell, u64 count, Columns& columns) const {
        const std::size_t base = columns[0].size();
        for (auto& column : columns) column.resize(base + count);
        for_each_point(cell, count, [&](u64 i, const Vec<D>& pos) {
            for (int d = 0; d < D; ++d) columns[d][base + i] = pos[d];
        });
    }

    /// Enumerates every cell in the Morton range [lo, hi) in one walk down
    /// the split tree: O(hi - lo + levels) binomial variates total, versus
    /// O((hi - lo) * levels) for per-cell `occupancy` queries. This is the
    /// "generate all cells of my chunk" path of the generators; the variates
    /// drawn are identical to per-cell queries (same per-node seeds), so
    /// mixing both access patterns across PEs stays consistent.
    ///
    /// `fn(cell, count, first_id)` is invoked for every *non-empty* cell;
    /// `empty(range_lo, range_hi)` (optional) for maximal empty subranges.
    template <typename F, typename E>
    void for_cells_in_range(u64 lo, u64 hi, F&& fn, E&& empty) const {
        walk_range(0, num_cells(), n_, 0, lo, hi, fn, empty);
    }

    template <typename F>
    void for_cells_in_range(u64 lo, u64 hi, F&& fn) const {
        for_cells_in_range(lo, hi, fn, [](u64, u64) {});
    }

    /// Grid coordinates of the cell containing `pos`.
    std::array<u64, static_cast<std::size_t>(D)> cell_coords_of(const Vec<D>& pos) const {
        std::array<u64, static_cast<std::size_t>(D)> c;
        for (int d = 0; d < D; ++d) {
            auto v = static_cast<i64>(pos[d] * static_cast<double>(cells_per_dim()));
            c[d]   = static_cast<u64>(std::clamp<i64>(v, 0, static_cast<i64>(cells_per_dim()) - 1));
        }
        return c;
    }

    /// All points of the grid (test/baseline helper; Θ(n + cells)).
    std::vector<IdPoint> all_points() const {
        std::vector<IdPoint> pts;
        pts.reserve(n_);
        for (u64 cell = 0; cell < num_cells(); ++cell) {
            const auto cp = cell_points(cell);
            pts.insert(pts.end(), cp.begin(), cp.end());
        }
        return pts;
    }

private:
    static constexpr u64 kTagSplit  = 0x5b117;
    static constexpr u64 kTagPoints = 0xb0145;

    /// Draws the `count` points of `cell` in id order: `put(i, pos)`.
    template <typename F>
    void for_each_point(u64 cell, u64 count, F&& put) const {
        const auto coords = Morton<D>::decode(cell);
        const double side = cell_side();
        Rng rng = Rng::for_ids(seed_, {kTagPoints, cell});
        for (u64 i = 0; i < count; ++i) {
            Vec<D> pos;
            for (int d = 0; d < D; ++d) {
                pos[d] = (static_cast<double>(coords[d]) + rng.uniform()) * side;
            }
            put(i, pos);
        }
    }

    template <typename F, typename E>
    void walk_range(u64 rlo, u64 rhi, u64 count, u64 prefix, u64 lo, u64 hi, F&& fn,
                    E&& empty) const {
        if (rhi <= lo || rlo >= hi) return; // disjoint with the query range
        if (count == 0) {
            empty(std::max(rlo, lo), std::min(rhi, hi));
            return;
        }
        if (rhi - rlo == 1) {
            fn(rlo, count, prefix);
            return;
        }
        const u64 mid = rlo + (rhi - rlo) / 2;
        Rng rng       = Rng::for_ids(seed_, {kTagSplit, rlo, rhi});
        const u64 left = binomial(rng, count, 0.5);
        walk_range(rlo, mid, left, prefix, lo, hi, fn, empty);
        walk_range(mid, rhi, count - left, prefix + left, lo, hi, fn, empty);
    }

    u64 seed_;
    u64 n_;
    u32 levels_;
};

} // namespace kagen
