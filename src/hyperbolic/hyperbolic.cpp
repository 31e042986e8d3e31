#include "hyperbolic/hyperbolic.hpp"

#include <algorithm>

#include "common/math.hpp"
#include "variates/variates.hpp"

namespace kagen::hyp {

HypGrid::HypGrid(const Params& params, u64 num_chunks)
    : space_(params), seed_(params.seed), num_chunks_(std::max<u64>(num_chunks, 1)) {
    // k = max(1, floor(alpha*R / ln 2)) equal-height annuli (§7.1).
    const double r = space_.radius();
    const auto k   = std::max<u32>(
        1, static_cast<u32>(std::floor(space_.alpha() * r / std::numbers::ln2)));
    bounds_.resize(k + 1);
    for (u32 i = 0; i <= k; ++i) {
        bounds_[i] = r * static_cast<double>(i) / static_cast<double>(k);
    }
    lower_terms_.reserve(k);
    for (u32 i = 0; i < k; ++i) lower_terms_.push_back(RadialTerms::of(bounds_[i]));

    // Annulus occupancy: one multinomial over the radial masses, drawn from
    // a single hash-seeded stream so every PE computes identical counts.
    std::vector<double> probs(k);
    for (u32 i = 0; i < k; ++i) {
        probs[i] = space_.radial_cdf(bounds_[i + 1]) - space_.radial_cdf(bounds_[i]);
    }
    Rng rng        = Rng::for_ids(seed_, {kTagAnnuli});
    annulus_count_ = multinomial(rng, params.n, probs);
    annulus_offset_.resize(k + 1, 0);
    for (u32 i = 0; i < k; ++i) {
        annulus_offset_[i + 1] = annulus_offset_[i] + annulus_count_[i];
    }
}

u64 HypGrid::chunk_of_angle(double theta) const {
    const auto c = static_cast<u64>(theta / chunk_width());
    return std::min(c, num_chunks_ - 1);
}

HypGrid::Node HypGrid::descend(u32 a, u64 chunk) const {
    u64 lo     = 0;
    u64 hi     = num_chunks_;
    u64 count  = annulus_count_[a];
    u64 prefix = 0;
    while (hi - lo > 1 && count > 0) {
        const u64 mid  = lo + (hi - lo) / 2;
        const double p = static_cast<double>(mid - lo) / static_cast<double>(hi - lo);
        Rng rng        = Rng::for_ids(seed_, {kTagChunk, a, lo, hi});
        const u64 left = binomial(rng, count, p);
        if (chunk < mid) {
            hi    = mid;
            count = left;
        } else {
            lo = mid;
            prefix += left;
            count -= left;
        }
    }
    return Node{count, prefix};
}

std::vector<HypPoint> HypGrid::chunk_points(u32 a, u64 chunk) const {
    const Node node = descend(a, chunk);
    std::vector<HypPoint> pts;
    pts.reserve(node.count);
    if (node.count == 0) return pts;

    // Power-of-two cells per chunk targeting a constant occupancy (§7.2.1).
    const u64 cells = ceil_pow2(std::max<u64>(node.count / 8, 1));
    // Per-cell counts by equal-probability binary splits.
    std::vector<u64> cell_count(cells, 0);
    struct Range {
        u64 lo, hi, k;
    };
    std::vector<Range> stack{{0, cells, node.count}};
    while (!stack.empty()) {
        const auto [lo, hi, k] = stack.back();
        stack.pop_back();
        if (hi - lo == 1) {
            cell_count[lo] = k;
            continue;
        }
        const u64 mid  = lo + (hi - lo) / 2;
        Rng rng        = Rng::for_ids(seed_, {kTagCell, a, chunk, lo, hi});
        const u64 left = binomial(rng, k, 0.5);
        if (left > 0) stack.push_back({lo, mid, left});
        if (k - left > 0) stack.push_back({mid, hi, k - left});
    }

    const double c_begin = chunk_begin(chunk);
    const double c_width = chunk_width() / static_cast<double>(cells);
    const auto radii     = space_.radial_range(annulus_lower(a), annulus_upper(a));
    u64 next_id = annulus_first_id(a) + node.prefix;
    std::vector<std::pair<double, double>> cell_pts; // (theta, radius)
    for (u64 cell = 0; cell < cells; ++cell) {
        if (cell_count[cell] == 0) continue;
        Rng rng = Rng::for_ids(seed_, {kTagPoint, a, chunk, cell});
        cell_pts.clear();
        for (u64 i = 0; i < cell_count[cell]; ++i) {
            const double theta =
                c_begin + (static_cast<double>(cell) + rng.uniform()) * c_width;
            const double r = space_.inv_radial(radii, rng.uniform());
            cell_pts.emplace_back(theta, r);
        }
        // Sort inside the cell so ids are angle-monotone within the chunk —
        // the streaming generator's sweep depends on this order.
        std::sort(cell_pts.begin(), cell_pts.end());
        for (const auto& [theta, r] : cell_pts) {
            pts.push_back(space_.make_point(next_id++, r, theta));
        }
    }
    return pts;
}

std::vector<HypPoint> HypGrid::all_points() const {
    std::vector<HypPoint> pts;
    pts.reserve(space_.n());
    for (u32 a = 0; a < num_annuli(); ++a) {
        for (u64 c = 0; c < num_chunks_; ++c) {
            const auto cp = chunk_points(a, c);
            pts.insert(pts.end(), cp.begin(), cp.end());
        }
    }
    return pts;
}

} // namespace kagen::hyp
