/// \file hyperbolic.hpp
/// \brief Hyperbolic-plane substrate shared by the RHG generators (§7).
///
/// Implements the threshold random hyperbolic graph model of Krioukov et
/// al. [9]: n points on a disk of radius R = 2 ln n + C, angle uniform,
/// radius with density  f(r) = α sinh(αr) / (cosh(αR) − 1); two vertices are
/// adjacent iff their hyperbolic distance is below R. The power-law exponent
/// is γ = 1 + 2α; C is derived from the target average degree via Eq. (2).
///
/// `HypGrid` is the deterministic point structure all RHG variants (and the
/// test brute force) share: the disk is cut into O(log n) constant-height
/// annuli, each annulus into P angular chunks, each chunk into power-of-two
/// cells (§7.1/§7.2.1). Counts at every level come from hash-seeded
/// binomial/multinomial variates, so any PE can recompute any chunk —
/// including the vertex *ids* — without communication, and the point set
/// depends only on (params, seed, P), never on which PE asks.
///
/// Per §7.2.1, points carry precomputed coth(r), 1/sinh(r), cos(θ), sin(θ):
/// a distance threshold test then costs five multiplications and two
/// additions (Eq. 9) instead of trigonometric calls. The query windows
/// (`Space::delta_theta`, Eq. A.3) get the same treatment: cosh/sinh of
/// every radius involved are computed once (`RadialTerms`; the grid keeps
/// them for each annulus' lower boundary), so a window costs one acos. The
/// in-memory generator takes every window between two lower boundaries:
/// k² acos per chunk for k annuli. Point generation hoists the cosh of an
/// annulus' two boundaries out of its inverse-cdf draws (`RadialRange`).
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "prng/rng.hpp"

namespace kagen::hyp {

struct Params {
    u64 n          = 0;
    double avg_deg = 8.0;  ///< target average degree d̄
    double gamma   = 3.0;  ///< power-law exponent (> 2), α = (γ-1)/2
    u64 seed       = 1;
};

/// A point of the hyperbolic disk with the §7.2.1 precomputations.
struct HypPoint {
    VertexId id       = 0;
    double r          = 0.0;
    double theta      = 0.0;
    double coth_r     = 0.0;
    double inv_sinh_r = 0.0;
    double cos_t      = 0.0;
    double sin_t      = 0.0;
};

/// A radius with its hyperbolic cosine and sine, computed once and reused
/// by every window query the radius takes part in.
struct RadialTerms {
    double r      = 0.0;
    double cosh_r = 0.0;
    double sinh_r = 0.0;

    static RadialTerms of(double r) { return {r, std::cosh(r), std::sinh(r)}; }
};

/// Model geometry: disk radius, radial distribution, distance predicates.
class Space {
public:
    explicit Space(const Params& params)
        : n_(params.n), alpha_((params.gamma - 1.0) / 2.0) {
        // Eq. (1)/(2): R = 2 ln n + C with C from the target degree.
        const double k = alpha_ / (alpha_ - 0.5);
        const double c = 2.0 * std::log(2.0 * k * k / (params.avg_deg * std::numbers::pi));
        radius_        = 2.0 * std::log(static_cast<double>(std::max<u64>(n_, 2))) + c;
        radius_        = std::max(radius_, 1e-3);
        cosh_r_        = std::cosh(radius_);
    }

    double alpha() const { return alpha_; }
    double radius() const { return radius_; }
    u64 n() const { return n_; }

    /// P(radius <= r), Eq. (A.2).
    double radial_cdf(double r) const {
        return (std::cosh(alpha_ * r) - 1.0) / (std::cosh(alpha_ * radius_) - 1.0);
    }

    /// Inverse radial cdf restricted to [a, b): maps u in [0,1).
    double inv_radial(double a, double b, double u) const {
        return inv_radial(radial_range(a, b), u);
    }

    /// cosh(α·a) and cosh(α·b) of a radial range [a, b), computed once for
    /// every draw inside it.
    struct RadialRange {
        double cosh_lo = 0.0;
        double cosh_hi = 0.0;
    };
    RadialRange radial_range(double a, double b) const {
        return {std::cosh(alpha_ * a), std::cosh(alpha_ * b)};
    }

    /// The same inverse cdf from the range's precomputed cosh terms.
    /// Bit-identical to the (a, b, u) form, which delegates here.
    double inv_radial(const RadialRange& range, double u) const {
        return std::acosh(range.cosh_lo + u * (range.cosh_hi - range.cosh_lo)) / alpha_;
    }

    /// Maximum angular deviation of a neighbour at radius `b` from a point
    /// at radius `r` (Eq. A.3); the query overestimate uses the annulus'
    /// lower boundary for `b`.
    double delta_theta(double r, double b) const {
        return delta_theta(RadialTerms::of(r), RadialTerms::of(b));
    }

    /// The same window from precomputed cosh/sinh of both radii: one acos.
    /// Bit-identical to the (r, b) form, which delegates here.
    double delta_theta(const RadialTerms& p, const RadialTerms& b) const {
        if (p.r + b.r < radius_) return std::numbers::pi;
        const double num = p.cosh_r * b.cosh_r - cosh_r_;
        const double den = p.sinh_r * b.sinh_r;
        if (den <= 0.0) return std::numbers::pi;
        return std::acos(std::clamp(num / den, -1.0, 1.0));
    }

    /// Hyperbolic distance (Eq. 4) — the slow reference form.
    double distance(const HypPoint& p, const HypPoint& q) const {
        const double arg = std::cosh(p.r) * std::cosh(q.r) -
                           std::sinh(p.r) * std::sinh(q.r) * std::cos(p.theta - q.theta);
        return std::acosh(std::max(arg, 1.0));
    }

    /// Threshold adjacency test via the precomputed form (Eq. 9): no
    /// trigonometric evaluations on the hot path.
    bool edge(const HypPoint& p, const HypPoint& q) const {
        if (p.r + q.r < radius_) return true; // triangle inequality shortcut
        if (p.r < kTinyRadius || q.r < kTinyRadius) {
            return distance(p, q) < radius_; // stable fallback near the pole
        }
        const double lhs = p.cos_t * q.cos_t + p.sin_t * q.sin_t; // cos(Δθ)
        const double rhs =
            p.coth_r * q.coth_r - cosh_r_ * p.inv_sinh_r * q.inv_sinh_r;
        return lhs > rhs;
    }

    HypPoint make_point(VertexId id, double r, double theta) const {
        HypPoint p;
        p.id    = id;
        p.r     = r;
        p.theta = theta;
        const double sh = std::sinh(r);
        p.coth_r        = sh > 0.0 ? std::cosh(r) / sh : 0.0;
        p.inv_sinh_r    = sh > 0.0 ? 1.0 / sh : 0.0;
        p.cos_t         = std::cos(theta);
        p.sin_t         = std::sin(theta);
        return p;
    }

private:
    static constexpr double kTinyRadius = 1e-8;

    u64 n_;
    double alpha_;
    double radius_;
    double cosh_r_;
};

/// Deterministic annulus/chunk/cell point structure.
class HypGrid {
public:
    HypGrid(const Params& params, u64 num_chunks);

    const Space& space() const { return space_; }
    u32 num_annuli() const { return static_cast<u32>(annulus_count_.size()); }
    u64 num_chunks() const { return num_chunks_; }

    double annulus_lower(u32 a) const { return bounds_[a]; }
    /// cosh/sinh of annulus `a`'s lower boundary, the radius every window
    /// into `a` is taken against.
    const RadialTerms& annulus_lower_terms(u32 a) const { return lower_terms_[a]; }
    double annulus_upper(u32 a) const { return bounds_[a + 1]; }
    u64 annulus_count(u32 a) const { return annulus_count_[a]; }
    u64 annulus_first_id(u32 a) const { return annulus_offset_[a]; }

    double chunk_width() const {
        return 2.0 * std::numbers::pi / static_cast<double>(num_chunks_);
    }
    double chunk_begin(u64 chunk) const {
        return chunk_width() * static_cast<double>(chunk);
    }
    u64 chunk_of_angle(double theta) const;

    /// Number of points of annulus `a` inside chunk `chunk` — O(log P).
    u64 chunk_count(u32 a, u64 chunk) const { return descend(a, chunk).count; }

    /// Global id range [lo, hi) of annulus `a`'s points inside `chunk`
    /// (ids are assigned annulus-major, chunk-minor) — O(log P), one
    /// descend. Bit-identical on every PE, like all grid queries.
    std::pair<u64, u64> chunk_id_range(u32 a, u64 chunk) const {
        const Node node = descend(a, chunk);
        const u64 lo    = annulus_first_id(a) + node.prefix;
        return {lo, lo + node.count};
    }

    /// The chunk's points, sorted by angle, with their global ids.
    /// Bit-identical on every PE.
    std::vector<HypPoint> chunk_points(u32 a, u64 chunk) const;

    /// Every point of the disk (test/baseline helper).
    std::vector<HypPoint> all_points() const;

private:
    static constexpr u64 kTagAnnuli = 0xa22u;
    static constexpr u64 kTagChunk  = 0xc1142u;
    static constexpr u64 kTagCell   = 0xce11u;
    static constexpr u64 kTagPoint  = 0x90147u;

    struct Node {
        u64 count;
        u64 prefix;
    };
    Node descend(u32 a, u64 chunk) const;

    Space space_;
    u64 seed_;
    u64 num_chunks_;
    std::vector<double> bounds_;           // k + 1 radial boundaries
    std::vector<RadialTerms> lower_terms_; // per annulus, of bounds_[a]
    std::vector<u64> annulus_count_;       // points per annulus
    std::vector<u64> annulus_offset_;      // id offset per annulus
};

} // namespace kagen::hyp
