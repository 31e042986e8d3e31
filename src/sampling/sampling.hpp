/// \file sampling.hpp
/// \brief Sampling without replacement: sequential and distributed (§2.2).
///
/// Three layers:
///  1. `floyd_sample`      — Floyd's O(k) expected set sampling (unsorted).
///  2. `sorted_sample`     — Vitter's sequential sampling (Method A for dense
///                           draws, skip-based Method D otherwise); emits the
///                           sample in increasing order with O(k) work.
///  3. `ChunkedSampler`    — the divide-and-conquer distributed sampler of
///                           Sanders et al. [18]: the universe is split into
///                           consecutive chunks, the number of samples per
///                           chunk subtree follows a hypergeometric
///                           distribution, and per-subtree hash seeds make
///                           every PE that walks the same subtree draw the
///                           same variates — no communication required.
///
/// The per-sample callbacks are template parameters, not std::function:
/// every sample of every generator funnels through `emit`, and a type-erased
/// indirect call per edge is exactly the kind of per-edge overhead the
/// hot-path work (DESIGN.md §9) eliminates. With a template parameter the
/// decode-and-emit lambdas of the callers inline into the skip loop. The
/// variate sequence is untouched — outputs are bit-identical.
#pragma once

#include <cassert>
#include <cmath>
#include <functional>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "prng/rng.hpp"
#include "variates/batch.hpp"
#include "variates/variates.hpp"

namespace kagen {

/// Selects the sequential sampling engine inside a chunk.
///
/// `v1` is the reference engine: scalar Vitter Method D, libm
/// transcendentals, one variate per draw. Its output is pinned bit-exactly
/// by the golden-file tests and stays the default.
///
/// `v2` is the throughput engine: the same Method D recurrence fed from
/// block-refilled variate buffers (variates/batch.hpp) with inline
/// polynomial log/exp (variates/fast_math.hpp), a straight-line quick-accept
/// path, and a geometric-skip fast path for Bernoulli-regime draws
/// (`bernoulli_sample`). Identical *distribution*, different byte stream;
/// validated by the statistical suites in tests/test_sampling.cpp.
/// DESIGN.md §10 describes the split.
enum class SamplerVersion { v1, v2 };

/// Floyd's algorithm: k distinct integers from [0, universe), unsorted.
std::vector<u64> floyd_sample(Rng& rng, u64 universe, u64 k);

namespace detail {

/// Vitter's Method A: sequential scan with direct skip search. O(universe)
/// but with tiny constants; used when the sampling fraction is high.
template <typename Emit>
void method_a(Rng& rng, u64 universe, u64 k, u64 offset, Emit&& emit) {
    u64 cur      = 0;
    double nreal = static_cast<double>(universe);
    while (k >= 2) {
        const double v = rng.uniform_pos();
        u64 skip       = 0;
        double top     = nreal - static_cast<double>(k);
        double quot    = top / nreal;
        while (quot > v) {
            ++skip;
            top -= 1.0;
            nreal -= 1.0;
            quot *= top / nreal;
        }
        emit(offset + cur + skip);
        cur += skip + 1;
        nreal -= 1.0;
        --k;
    }
    if (k == 1) {
        const u64 skip = std::min<u64>(static_cast<u64>(nreal * rng.uniform()),
                                       static_cast<u64>(nreal) - 1);
        emit(offset + cur + skip);
    }
}

/// Method D, v2 engine: the same acceptance-rejection scheme as the v1
/// body in `sorted_sample`, in Vitter's *fresh-draw* formulation and
/// restructured so the cross-sample dependency chain is a handful of adds
/// and multiplies instead of a log→exp round trip.
///
/// v1 follows Vitter's "reuse" optimization: the quick-accept test's
/// by-product y1·(1-x/n)·(q/(q-s)) is conditionally U^(1/(k-1))-
/// distributed and becomes the next proposal vprime — saving one exp call
/// per sample at the price of welding every sample's transcendentals into
/// one serial chain (that chain *is* the 45 ns/sample of v1). v2 instead
/// draws each proposal fresh, vprime = U^(1/k) = exp(-E/k), with E pulled
/// from the batched exponential buffer — equally exact (it is the
/// unoptimized form of Vitter's Algorithm D), and the draw depends only
/// on per-sample constants, so it schedules off the chain.
///
/// Remaining per-sample transcendentals are the short series kernels:
/// exp(-E/k) and the quick-accept's (u·n/q)^(1/(k-1)) — rewritten as
/// exp((log(n/q) - E')/(k-1)) with log(n/q) = neg_log1p((k-1)/n) — both
/// hit fast_exp_small for large k. The quick-accept comparison is cleared
/// of its division (y1·vprime·q <= q - s, all factors positive). The rare
/// slow-accept (D4) keeps libm: it contributes nothing to runtime and its
/// y2 product can leave the contracted fast_log domain.
template <typename Emit>
void sorted_sample_v2_core(Rng& rng, u64 universe, u64 k, Emit&& emit) {
    constexpr double kAlphaInv = 13.0; // same Method A switch point as v1
    u64 cur          = 0;
    u64 remaining_n  = universe;
    u64 remaining_k  = k;
    double nreal     = static_cast<double>(remaining_n);
    double kreal     = static_cast<double>(remaining_k);
    double kinv      = 1.0 / kreal;
    BatchedVariates var(rng);
    double vprime    = fast_exp_auto(-var.exponential() * kinv);
    double threshold = kAlphaInv * kreal;

    while (remaining_k > 1 && threshold < nreal) {
        const double kmin1inv = 1.0 / (kreal - 1.0);
        const double qu1real  = nreal - kreal + 1.0;
        const u64 qu1         = remaining_n - remaining_k + 1;
        // log(nreal/qu1real); t = (kreal-1)/nreal < 1/13 inside Method D.
        const double logratio = neg_log1p((kreal - 1.0) / nreal);
        u64 skip;
        double skipreal;
        for (;;) {
            // D2: propose a skip from the continuous approximation.
            const double x = nreal * (1.0 - vprime);
            skip           = static_cast<u64>(x);
            if (skip >= qu1) [[unlikely]] {
                vprime = fast_exp_auto(-var.exponential() * kinv);
                continue;
            }
            // D3: quick acceptance — straight-line, division-free.
            // y1 = (u·nreal/qu1real)^(1/(k-1)), with log u = -E batched.
            const double y1 =
                fast_exp_auto((logratio - var.exponential()) * kmin1inv);
            skipreal = static_cast<double>(skip);
            if (y1 * vprime * qu1real <= qu1real - skipreal) [[likely]] break;
            // D4: slow acceptance via the exact ratio. v1 evaluates the
            // ratio of falling factorials y2 = Π (top-i)/(bottom-i) with an
            // O(skip) serial divide loop; at ~0.14% entry rate × ~n/k
            // iterations that loop still costs more than everything else in
            // the engine combined (~2.4 divide iterations per sample).
            // v2 uses the closed form via lgamma — four calls instead of
            // thousands of divides. The ~1e-5 relative error of differencing
            // large lgammas perturbs a test that decides ~0.1% of samples;
            // distributionally invisible (tests/test_sampling.cpp bounds it).
            double top0 = nreal - 1.0;
            double bot0;
            double niter; // loop length of v1's product, in closed form
            if (kreal - 1.0 > skipreal) {
                bot0  = nreal - kreal;
                niter = skipreal;
            } else {
                bot0  = nreal - skipreal - 1.0;
                niter = kreal - 1.0;
            }
            const double log_y2 = lgamma_threadsafe(top0 + 1.0) -
                                  lgamma_threadsafe(top0 + 1.0 - niter) -
                                  lgamma_threadsafe(bot0 + 1.0) +
                                  lgamma_threadsafe(bot0 + 1.0 - niter);
            if (nreal / (nreal - x) >= y1 * std::exp(log_y2 * kmin1inv)) {
                break; // accepted; the bottom-of-sample draw refreshes vprime
            }
            vprime = fast_exp_auto(-var.exponential() * kinv);
        }
        emit(cur + skip);
        cur += skip + 1;
        remaining_n -= skip + 1;
        nreal -= skipreal + 1.0;
        --remaining_k;
        kreal -= 1.0;
        kinv = kmin1inv;
        threshold -= kAlphaInv;
        // Fresh proposal for the next sample at its k. Depends only on the
        // new kinv and the buffer cursor — off the skip→nreal→skip chain.
        vprime = fast_exp_auto(-var.exponential() * kinv);
    }

    if (remaining_k > 1) {
        // Method A does no transcendental work — shared with v1 verbatim.
        method_a(rng, remaining_n, remaining_k, cur, emit);
    } else {
        // Here vprime = U^(1/1) = U: same final-skip law as v1.
        const u64 skip = std::min<u64>(static_cast<u64>(nreal * vprime), remaining_n - 1);
        emit(cur + skip);
    }
}

} // namespace detail

/// Sequential sampling of `k` distinct integers from [0, universe), emitted
/// in increasing order through `emit`. Uses Vitter's Method D (skip
/// distances via acceptance-rejection) and falls back to Method A when the
/// sampling fraction is high. Expected time O(k) regardless of universe.
/// `version` selects the engine; the default v1 stream is bit-pinned.
template <typename Emit>
void sorted_sample(Rng& rng, u64 universe, u64 k, Emit&& emit,
                   SamplerVersion version = SamplerVersion::v1) {
    assert(k <= universe);
    if (k == 0) return;
    if (k == universe) {
        for (u64 i = 0; i < universe; ++i) emit(i);
        return;
    }
    if (version == SamplerVersion::v2) {
        detail::sorted_sample_v2_core(rng, universe, k, emit);
        return;
    }

    // Vitter's Method D with fallback to Method A for dense draws.
    constexpr double kAlphaInv = 13.0; // Vitter's recommended switch point
    u64 offset       = 0;              // universe positions already consumed
    u64 cur          = 0;
    u64 remaining_n  = universe;
    u64 remaining_k  = k;
    double nreal     = static_cast<double>(remaining_n);
    double kreal     = static_cast<double>(remaining_k);
    double kinv      = 1.0 / kreal;
    double vprime    = std::exp(std::log(rng.uniform_pos()) * kinv);
    double threshold = kAlphaInv * kreal;

    while (remaining_k > 1 && threshold < nreal) {
        const double kmin1inv = 1.0 / (kreal - 1.0);
        const double qu1real  = nreal - kreal + 1.0;
        const u64 qu1         = remaining_n - remaining_k + 1;
        u64 skip;
        double x, negSreal;
        for (;;) {
            // Step D2: propose a skip from the continuous approximation.
            for (;;) {
                x    = nreal * (1.0 - vprime);
                skip = static_cast<u64>(x);
                if (skip < qu1) break;
                vprime = std::exp(std::log(rng.uniform_pos()) * kinv);
            }
            const double u = rng.uniform_pos();
            negSreal       = -static_cast<double>(skip);
            // Step D3: quick acceptance.
            const double y1 = std::exp(std::log(u * nreal / qu1real) * kmin1inv);
            vprime          = y1 * (-x / nreal + 1.0) * (qu1real / (negSreal + qu1real));
            if (vprime <= 1.0) break;
            // Step D4: slow acceptance via the exact ratio.
            double y2  = 1.0;
            double top = nreal - 1.0;
            double bottom;
            double limit;
            if (kreal - 1.0 > -negSreal) {
                bottom = nreal - kreal;
                limit  = nreal - static_cast<double>(skip);
            } else {
                bottom = nreal + negSreal - 1.0;
                limit  = qu1real;
            }
            for (double t = nreal - 1.0; t >= limit; t -= 1.0) {
                y2 = y2 * top / bottom;
                top -= 1.0;
                bottom -= 1.0;
            }
            if (nreal / (nreal - x) >= y1 * std::exp(std::log(y2) * kmin1inv)) {
                vprime = std::exp(std::log(rng.uniform_pos()) * kmin1inv);
                break;
            }
            vprime = std::exp(std::log(rng.uniform_pos()) * kinv);
        }
        emit(offset + cur + skip);
        cur += skip + 1;
        remaining_n -= skip + 1;
        nreal = negSreal + (nreal - 1.0);
        --remaining_k;
        kreal -= 1.0;
        kinv = kmin1inv;
        threshold -= kAlphaInv;
    }

    if (remaining_k > 1) {
        detail::method_a(rng, remaining_n, remaining_k, offset + cur, emit);
    } else {
        const u64 skip = std::min<u64>(static_cast<u64>(nreal * vprime), remaining_n - 1);
        emit(offset + cur + skip);
    }
}

/// Geometric-skip Bernoulli sampling (sampler v2's dense/Gnp fast path):
/// emits each position of [0, universe) independently with probability `p`,
/// in increasing order, in O(p · universe) expected time. Skip lengths are
/// floor(E/λ) with E ~ Exp(1) and λ = -log1p(-p), so
/// P(skip = s) = (1-p)^s · p — exactly the gap law of iid Bernoulli(p)
/// trials. Replaces v1's binomial-count + sorted_sample pair for Gnp: same
/// product distribution over subsets, one exponential per emitted sample
/// instead of a log/exp pair per skip.
template <typename Emit>
void bernoulli_sample(Rng& rng, u64 universe, double p, Emit&& emit) {
    assert(p >= 0.0 && p <= 1.0);
    if (universe == 0 || p <= 0.0) return;
    if (p >= 1.0) {
        for (u64 i = 0; i < universe; ++i) emit(i);
        return;
    }
    BatchedVariates var(rng);
    const double lambda_inv = -1.0 / std::log1p(-p);
    u64 cur                 = 0;
    for (;;) {
        const double skip = var.exponential() * lambda_inv;
        // Compare in double first: skip can exceed u64 range for tiny p.
        if (skip >= static_cast<double>(universe - cur)) return;
        cur += static_cast<u64>(skip);
        if (cur >= universe) return; // double→u64 rounding guard
        emit(cur);
        ++cur;
    }
}

/// Describes a universe partitioned into `num_chunks` consecutive chunks.
/// `chunk_size(i)` must be O(1); prefix sizes are derived by the sampler's
/// recursion, never by scanning. (These run once per chunk, not per sample,
/// so type erasure is harmless here.)
struct ChunkUniverse {
    u64 num_chunks = 0;
    std::function<u128(u64)> chunk_size;              // size of chunk i
    std::function<u128(u64, u64)> range_size;         // total size of chunks [lo, hi)
};

/// Convenience constructor for a universe of `n` rows split into nearly
/// equal consecutive blocks of rows, each row having `row_width` slots.
ChunkUniverse make_row_universe(u64 n, u64 num_chunks, u128 row_width);

/// Divide-and-conquer distributed sampler.
class ChunkedSampler {
public:
    /// \param seed     base seed; all subtree seeds derive from it.
    /// \param universe chunk layout (sizes must be stable).
    /// \param samples  total number of samples over the whole universe.
    ChunkedSampler(u64 seed, ChunkUniverse universe, u64 samples);

    /// Number of samples that land in chunk `chunk` (deterministic in
    /// `seed`; identical on every PE). O(log num_chunks) variates.
    u64 samples_in_chunk(u64 chunk) const;

    /// Sample counts of all chunks, `[c] == samples_in_chunk(c)`, from one
    /// pass over the recursion: each tree node draws its variate once, so
    /// the whole table costs O(num_chunks) variates.
    std::vector<u64> chunk_counts() const;

    /// Emits the samples of chunk `chunk` as offsets *within* the chunk,
    /// in increasing order. Deterministic in `seed` (and, for v2, in
    /// `version` — the hypergeometric count layer above is engine-agnostic,
    /// so v1 and v2 draw the *same number* of samples per chunk and differ
    /// only in the within-chunk positions).
    template <typename Emit>
    void sample_chunk(u64 chunk, Emit&& emit,
                      SamplerVersion version = SamplerVersion::v1) const {
        const u64 k = descend(chunk);
        if (k == 0) return;
        const u128 size = universe_.chunk_size(chunk);
        assert(size <= static_cast<u128>(~u64{0}) && "per-chunk universe must fit 64 bits");
        Rng rng = Rng::for_ids(seed_, {0x1eafULL, chunk});
        sorted_sample(rng, static_cast<u64>(size), k, emit, version);
    }

private:
    /// Recursion over chunk index ranges; returns the sample count of the
    /// subtree containing `chunk` at its leaf.
    u64 descend(u64 chunk) const;

    /// Writes the counts of chunks [lo, hi), a subtree holding k samples.
    void count_subtree(u64 lo, u64 hi, u64 k, std::vector<u64>& out) const;

    u64 seed_;
    ChunkUniverse universe_;
    u64 samples_;
};

} // namespace kagen
