/// \file testing.hpp
/// \brief Shared statistical and edge-semantics helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "config.hpp"
#include "graph/edge_list.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "rdg/rdg.hpp"
#include "rgg/rgg.hpp"
#include "sink/sinks.hpp"

namespace kagen::testing {

/// The edges a sink-taking generator call emits, collected in order:
/// `collect([&](EdgeSink& sink) { er::gnm_directed(n, m, seed, r, P, sink); })`.
template <typename Generate>
EdgeList collect(Generate&& generate) {
    MemorySink sink;
    generate(sink);
    return sink.take();
}

/// Half-open vertex-id interval [lo, hi).
struct IdInterval {
    u64 lo = 0;
    u64 hi = 0;
};

/// Sorted, disjoint ids one chunk owns: one block for ER/SBM/RGG/RDG, one
/// interval per annulus for the in-memory RHG.
using IdIntervals = std::vector<IdInterval>;

/// The consecutive block chunk `rank` of `size` owns in [0, n) — the ER
/// and SBM chunk geometry.
inline IdIntervals block_interval(u64 n, u64 rank, u64 size) {
    return {{block_begin(n, size, rank), block_begin(n, size, rank + 1)}};
}

/// Vertex ids chunk `rank` of `size` owns under `cfg`'s model: the lower
/// endpoints its exact_once stream keeps (the test-side reference of the
/// lower-endpoint rule, DESIGN.md §6). Empty for models without
/// intentional cross-chunk duplicates.
inline IdIntervals owned_vertex_intervals(const GraphSpec& cfg, u64 rank, u64 size) {
    const auto morton_block = [&](const auto& grid, auto cell_range) -> IdIntervals {
        const auto [cell_lo, cell_hi] = cell_range(grid.levels(), rank, size);
        return {{grid.first_id(cell_lo), grid.first_id(cell_hi)}};
    };
    switch (cfg.model) {
        case Model::GnmUndirected:
        case Model::GnpUndirected:
            return block_interval(cfg.n, rank, size);
        case Model::Rgg2D:
            return morton_block(rgg::point_grid<2>({cfg.n, cfg.r, cfg.seed}, size),
                                rgg::cell_range<2>);
        case Model::Rgg3D:
            return morton_block(rgg::point_grid<3>({cfg.n, cfg.r, cfg.seed}, size),
                                rgg::cell_range<3>);
        case Model::Rdg2D:
            if (cfg.n == 0) return {{0, 0}};
            return morton_block(rdg::point_grid<2>({cfg.n, cfg.seed}, size),
                                rgg::cell_range<2>);
        case Model::Rdg3D:
            if (cfg.n == 0) return {{0, 0}};
            return morton_block(rdg::point_grid<3>({cfg.n, cfg.seed}, size),
                                rgg::cell_range<3>);
        case Model::Rhg: {
            // Ids are assigned annulus-major, so the per-annulus ranges are
            // already sorted and disjoint.
            const hyp::HypGrid grid({cfg.n, cfg.avg_deg, cfg.gamma, cfg.seed}, size);
            IdIntervals owned;
            for (u32 a = 0; a < grid.num_annuli(); ++a) {
                const auto [lo, hi] = grid.chunk_id_range(a, rank);
                if (lo < hi) owned.push_back({lo, hi});
            }
            return owned;
        }
        default:
            return {};
    }
}

/// The edges of `edges` whose lower endpoint lies in `owned`, in order: what
/// the lower-endpoint rule keeps of a chunk's as_generated stream.
inline EdgeList keep_owned_lower_endpoints(const EdgeList& edges,
                                           const IdIntervals& owned) {
    EdgeList kept;
    for (const Edge& e : edges) {
        const VertexId lower = std::min(e.first, e.second);
        for (const IdInterval& iv : owned) {
            if (lower >= iv.lo && lower < iv.hi) {
                kept.push_back(e);
                break;
            }
        }
    }
    return kept;
}

/// Redundant emissions in the concatenated per-chunk streams beyond the
/// canonical undirected edge set — i.e. how many duplicate copies the
/// paper's §4.2/§5.1 recomputation trick produced. 0 iff the streams are
/// globally exact-once. (Undirected canonicalization is applied, so use
/// this on undirected models only.)
inline u64 duplicate_excess(const std::vector<EdgeList>& per_chunk) {
    u64 total = 0;
    EdgeList all;
    for (const auto& part : per_chunk) {
        total += part.size();
        append(all, part);
    }
    return total - undirected_set(std::move(all)).size();
}

/// `expected_duplicates`-style assertion: a streamed emission total must be
/// the canonical edge count plus exactly the expected duplicate copies —
/// `expected_duplicates == 0` is the exact-once contract, and
/// `expected_duplicates == duplicate_excess(per_chunk)` pins as-generated
/// streams to the legacy per-chunk outputs.
inline ::testing::AssertionResult total_matches_semantics(u64 streamed_total,
                                                          u64 canonical_edges,
                                                          u64 expected_duplicates) {
    if (streamed_total == canonical_edges + expected_duplicates) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "streamed total " << streamed_total << " != canonical "
           << canonical_edges << " + expected duplicates " << expected_duplicates
           << " (off by "
           << (static_cast<i64>(streamed_total) -
               static_cast<i64>(canonical_edges + expected_duplicates))
           << ")";
}

/// Pearson chi-square statistic over observed vs expected counts.
inline double chi_square(const std::vector<double>& observed,
                         const std::vector<double>& expected) {
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double diff = observed[i] - expected[i];
        stat += diff * diff / expected[i];
    }
    return stat;
}

/// Approximate upper critical value of the chi-square distribution with `df`
/// degrees of freedom at significance ~1e-4 (Wilson–Hilferty). Tests using
/// fixed seeds are deterministic, so a rare-tail threshold avoids flakes
/// while still catching real distribution bugs by orders of magnitude.
inline double chi_square_critical(double df, double z = 3.72) {
    const double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
    return df * t * t * t;
}

/// Bins integer samples against an exact pmf: consecutive support values are
/// merged until each bin's expected count is >= `min_expected`, then the
/// chi-square statistic and degrees of freedom are computed.
struct BinnedChiSquare {
    double statistic = 0.0;
    double df        = 0.0;
};

inline BinnedChiSquare binned_chi_square(const std::map<u64, u64>& histogram,
                                         const std::vector<double>& pmf, u64 support_lo,
                                         u64 total_samples, double min_expected = 8.0) {
    std::vector<double> obs_bins;
    std::vector<double> exp_bins;
    double obs_acc = 0.0;
    double exp_acc = 0.0;
    for (std::size_t k = 0; k < pmf.size(); ++k) {
        const auto it = histogram.find(support_lo + k);
        obs_acc += (it == histogram.end()) ? 0.0 : static_cast<double>(it->second);
        exp_acc += pmf[k] * static_cast<double>(total_samples);
        if (exp_acc >= min_expected) {
            obs_bins.push_back(obs_acc);
            exp_bins.push_back(exp_acc);
            obs_acc = exp_acc = 0.0;
        }
    }
    if (exp_acc > 0.0 && !exp_bins.empty()) { // fold the tail into the last bin
        obs_bins.back() += obs_acc;
        exp_bins.back() += exp_acc;
    }
    BinnedChiSquare out;
    out.statistic = chi_square(obs_bins, exp_bins);
    out.df        = static_cast<double>(obs_bins.size()) - 1.0;
    return out;
}

/// One-sample Kolmogorov–Smirnov statistic: sup |F_n(x) - F(x)| over the
/// sample, with `cdf` the hypothesized CDF evaluated at each sample value.
/// Samples need not be pre-sorted. For n iid samples the ~1e-4-significance
/// threshold is ks_critical(n) (asymptotic K-distribution tail:
/// c(alpha) / sqrt(n) with c(1e-4) ~ 2.08) — same rare-tail philosophy as
/// chi_square_critical: fixed-seed tests never flake, real bugs exceed the
/// threshold by orders of magnitude.
template <typename Cdf>
double ks_statistic(std::vector<double> samples, Cdf&& cdf) {
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    double stat    = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double f  = cdf(samples[i]);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        stat            = std::max({stat, f - lo, hi - f});
    }
    return stat;
}

inline double ks_critical(std::size_t n, double c = 2.08) {
    return c / std::sqrt(static_cast<double>(n));
}

} // namespace kagen::testing
