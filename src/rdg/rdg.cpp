#include "rdg/rdg.hpp"

#include <cmath>
#include <map>
#include <set>

#include "common/math.hpp"
#include "delaunay/delaunay.hpp"
#include "rgg/rgg.hpp"

namespace kagen::rdg {
namespace {

/// Per-inserted-point bookkeeping: which torus vertex it is a copy of and
/// whether it belongs to one of the PE's own (unwrapped) cells.
struct CopyInfo {
    VertexId gid = 0;
    bool local   = false;
};

template <int D>
using RawCoord = std::array<i64, D>;

/// Deterministic sub-resolution jitter for periodic copies. Non-primary
/// copies are exact translates of their originals, so configurations like
/// {a, b, a+o, b+o} are *exactly* degenerate (coplanar in 3D) — poison for
/// inexact geometric predicates. Perturbing each copy by a hash of
/// (vertex id, offset) breaks the translation symmetry identically on every
/// PE and in the reference triangulation, while staying ~6 orders of
/// magnitude below the minimum point spacing (so no non-degenerate
/// adjacency can flip).
template <int D>
Vec<D> place_copy(const Vec<D>& pos, VertexId id, const std::array<i64, D>& offset) {
    Vec<D> out = pos;
    bool primary = true;
    for (int d = 0; d < D; ++d) {
        out[d] += static_cast<double>(offset[d]);
        primary &= offset[d] == 0;
    }
    if (primary) return out;
    for (int d = 0; d < D; ++d) {
        const u64 h = spooky::hash_words(
            0x7177e2, {id, static_cast<u64>(d),
                       static_cast<u64>(offset[0] + 8),
                       static_cast<u64>(offset[D - 1] + 8),
                       D == 3 ? static_cast<u64>(offset[1] + 8) : 0});
        out[d] += (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * 1e-9;
    }
    return out;
}

/// Triangulates local cells plus an expanding halo; shared by generate().
template <int D>
class HaloTriangulator {
public:
    HaloTriangulator(const PointGrid<D>& grid, u64 cell_lo, u64 cell_hi)
        : grid_(grid),
          cell_lo_(cell_lo),
          cell_hi_(cell_hi),
          g_(static_cast<i64>(grid.cells_per_dim())),
          // All raw coordinates stay within one torus wrap: [-g, 2g).
          dt_(make_lo(), make_hi()) {}

    EdgeList run() {
        // h = 0: own cells; h = 1: the directly adjacent layer (§6).
        insert_ring(0);
        insert_ring(1);
        i64 h = 1;
        // The halo can never usefully exceed one full wrap: at h = g the
        // generated region covers all {-1,0,1}^D copies, i.e. the complete
        // periodic point set.
        while (h < g_ && !halo_sufficient()) {
            ++h;
            insert_ring(h);
        }
        return extract_edges();
    }

private:
    static Vec<D> make_lo() {
        Vec<D> v;
        for (int d = 0; d < D; ++d) v[d] = -1.5;
        return v;
    }
    static Vec<D> make_hi() {
        Vec<D> v;
        for (int d = 0; d < D; ++d) v[d] = 2.5;
        return v;
    }

    bool is_local_cell(u64 cell) const { return cell >= cell_lo_ && cell < cell_hi_; }

    /// Inserts every not-yet-generated cell at Chebyshev distance exactly
    /// `h` from some local cell (h = 0 inserts the local cells themselves).
    void insert_ring(i64 h) {
        for (u64 cell = cell_lo_; cell < cell_hi_; ++cell) {
            const auto base = Morton<D>::decode(cell);
            RawCoord<D> delta;
            delta.fill(-h);
            for (;;) {
                // Only the surface of the box is new at distance h.
                i64 cheb = 0;
                for (int d = 0; d < D; ++d) {
                    cheb = std::max<i64>(cheb, delta[d] < 0 ? -delta[d] : delta[d]);
                }
                if (cheb == h) {
                    RawCoord<D> raw;
                    for (int d = 0; d < D; ++d) {
                        raw[d] = static_cast<i64>(base[d]) + delta[d];
                    }
                    insert_cell(raw);
                }
                int d = 0;
                while (d < D && ++delta[d] > h) {
                    delta[d] = -h;
                    ++d;
                }
                if (d == D) break;
            }
        }
    }

    void insert_cell(const RawCoord<D>& raw) {
        if (!generated_.insert(raw).second) return;
        // Wrap into the torus: cell = raw mod g, offset = floor(raw / g).
        std::array<u64, D> wrapped;
        std::array<i64, D> offset;
        bool primary = true;
        for (int d = 0; d < D; ++d) {
            i64 q = raw[d] / g_;
            i64 r = raw[d] % g_;
            if (r < 0) {
                r += g_;
                --q;
            }
            wrapped[d] = static_cast<u64>(r);
            offset[d]  = q;
            primary &= q == 0;
        }
        const u64 cell   = Morton<D>::encode(wrapped);
        const bool local = is_local_cell(cell) && primary;
        for (const auto& p : grid_.cell_points(cell)) {
            const u32 idx = dt_.insert(place_copy<D>(p.pos, p.id, offset));
            if (idx >= info_.size()) info_.resize(idx + 1);
            info_[idx] = CopyInfo{p.id, local};
        }
    }

    bool simplex_is_relevant(const typename Delaunay<D>::Simplex& s) const {
        for (const u32 v : s.v) {
            if (!dt_.is_super(v) && info_[v].local) return true;
        }
        return false;
    }

    /// The §6 termination test over all simplices incident to local points.
    bool halo_sufficient() const {
        bool ok = true;
        dt_.for_each_simplex([&](const auto& s) {
            if (!ok || !simplex_is_relevant(s)) return;
            std::array<Vec<D>, D + 1> verts;
            for (int i = 0; i <= D; ++i) {
                if (dt_.is_super(s.v[i])) {
                    ok = false; // local vertex on the hull: halo too small
                    return;
                }
                verts[i] = dt_.point(s.v[i]);
            }
            const auto sphere = circumsphere<D>(verts);
            if (!ball_covered(sphere)) ok = false;
        });
        return ok;
    }

    /// Every cell intersecting the circumball's bounding box must have been
    /// generated (conservative over-approximation of ball coverage).
    bool ball_covered(const Circumsphere<D>& sphere) const {
        const double r    = std::sqrt(sphere.radius2);
        const double side = grid_.cell_side();
        RawCoord<D> lo, hi;
        for (int d = 0; d < D; ++d) {
            lo[d] = static_cast<i64>(std::floor((sphere.center[d] - r) / side));
            hi[d] = static_cast<i64>(std::floor((sphere.center[d] + r) / side));
        }
        RawCoord<D> it = lo;
        for (;;) {
            if (!generated_.count(it)) return false;
            int d = 0;
            while (d < D && ++it[d] > hi[d]) {
                it[d] = lo[d];
                ++d;
            }
            if (d == D) break;
        }
        return true;
    }

    EdgeList extract_edges() const {
        EdgeList edges;
        dt_.for_each_simplex([&](const auto& s) {
            if (!simplex_is_relevant(s)) return;
            for (int i = 0; i <= D; ++i) {
                for (int j = i + 1; j <= D; ++j) {
                    const u32 a = s.v[i];
                    const u32 b = s.v[j];
                    if (dt_.is_super(a) || dt_.is_super(b)) continue;
                    if (!info_[a].local && !info_[b].local) continue;
                    const VertexId ga = info_[a].gid;
                    const VertexId gb = info_[b].gid;
                    if (ga == gb) continue; // a point and its own wrap copy
                    edges.emplace_back(std::min(ga, gb), std::max(ga, gb));
                }
            }
        });
        sort_unique(edges);
        return edges;
    }

    const PointGrid<D>& grid_;
    u64 cell_lo_;
    u64 cell_hi_;
    i64 g_;
    Delaunay<D> dt_;
    std::vector<CopyInfo> info_;
    std::set<RawCoord<D>> generated_;
};

} // namespace

template <int D>
u32 cell_levels(u64 n, u64 size) {
    const u32 b = rgg::chunk_levels<D>(size);
    if (n <= D + 1) return b;
    // side = 2^-l ~ ((D+1)/n)^(1/D)  =>  l ~ log2(n/(D+1)) / D
    const double raw =
        std::log2(static_cast<double>(n) / (D + 1)) / static_cast<double>(D);
    const u32 wanted = static_cast<u32>(std::max(0.0, std::floor(raw)));
    return std::min<u32>(std::max(b, wanted), D == 2 ? 28 : 18);
}

template <int D>
PointGrid<D> point_grid(const Params& params, u64 size) {
    return PointGrid<D>(params.seed, params.n, cell_levels<D>(params.n, size));
}

template <int D>
void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink,
              EdgeSemantics semantics) {
    if (params.n == 0) {
        sink.flush();
        return;
    }
    const PointGrid<D> grid       = point_grid<D>(params, size);
    const auto [cell_lo, cell_hi] = rgg::cell_range<D>(grid.levels(), rank, size);
    HaloTriangulator<D> tri(grid, cell_lo, cell_hi);
    // exact_once keeps (u, v), u < v, iff u is one of the local ids. It
    // compares ids, not the copies' `local` flags: torus wrap copies of local
    // points are halo copies that carry local ids.
    const bool exact_once = semantics == EdgeSemantics::exact_once;
    const VertexId own_lo = grid.first_id(cell_lo);
    const VertexId own_hi = grid.first_id(cell_hi);
    // The incremental triangulation must converge before any edge is final,
    // so the PE's edges stream out after the (local) halo fixpoint.
    for (const auto& [u, v] : tri.run()) {
        if (exact_once && (u < own_lo || u >= own_hi)) continue;
        sink.emit(u, v);
    }
    sink.flush();
}

template <int D>
EdgeList reference(const Params& params, u64 size) {
    if (params.n == 0) return {};
    const PointGrid<D> grid = point_grid<D>(params, size);
    const auto pts          = grid.all_points();

    Vec<D> lo, hi;
    for (int d = 0; d < D; ++d) {
        lo[d] = -1.0;
        hi[d] = 2.0;
    }
    Delaunay<D> dt(lo, hi);
    std::vector<std::pair<VertexId, bool>> info; // (gid, is primary copy)
    RawCoord<D> off;
    off.fill(-1);
    for (;;) {
        bool primary = true;
        for (int d = 0; d < D; ++d) {
            if (off[d] != 0) primary = false;
        }
        for (const auto& p : pts) {
            const u32 idx = dt.insert(place_copy<D>(p.pos, p.id, off));
            if (idx >= info.size()) info.resize(idx + 1);
            info[idx] = {p.id, primary};
        }
        int d = 0;
        while (d < D && ++off[d] > 1) {
            off[d] = -1;
            ++d;
        }
        if (d == D) break;
    }

    EdgeList edges;
    dt.for_each_simplex([&](const auto& s) {
        for (int i = 0; i <= D; ++i) {
            for (int j = i + 1; j <= D; ++j) {
                const u32 a = s.v[i];
                const u32 b = s.v[j];
                if (dt.is_super(a) || dt.is_super(b)) continue;
                if (!info[a].second && !info[b].second) continue;
                const VertexId ga = info[a].first;
                const VertexId gb = info[b].first;
                if (ga == gb) continue;
                edges.emplace_back(std::min(ga, gb), std::max(ga, gb));
            }
        }
    });
    sort_unique(edges);
    return edges;
}

template u32 cell_levels<2>(u64, u64);
template u32 cell_levels<3>(u64, u64);
template PointGrid<2> point_grid<2>(const Params&, u64);
template PointGrid<3> point_grid<3>(const Params&, u64);
template void generate<2>(const Params&, u64, u64, EdgeSink&, EdgeSemantics);
template void generate<3>(const Params&, u64, u64, EdgeSink&, EdgeSemantics);
template EdgeList reference<2>(const Params&, u64);
template EdgeList reference<3>(const Params&, u64);

} // namespace kagen::rdg
