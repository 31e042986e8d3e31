#include "sampling/sampling.hpp"

#include "common/math.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace kagen {

std::vector<u64> floyd_sample(Rng& rng, u64 universe, u64 k) {
    assert(k <= universe);
    std::unordered_set<u64> chosen;
    chosen.reserve(static_cast<std::size_t>(k) * 2);
    std::vector<u64> out;
    out.reserve(k);
    for (u64 j = universe - k; j < universe; ++j) {
        const u64 t = rng.range(j + 1);
        if (chosen.insert(t).second) {
            out.push_back(t);
        } else {
            chosen.insert(j);
            out.push_back(j);
        }
    }
    return out;
}

ChunkUniverse make_row_universe(u64 n, u64 num_chunks, u128 row_width) {
    ChunkUniverse uni;
    uni.num_chunks = num_chunks;
    uni.chunk_size = [n, num_chunks, row_width](u64 chunk) -> u128 {
        return static_cast<u128>(block_size(n, num_chunks, chunk)) * row_width;
    };
    uni.range_size = [n, num_chunks, row_width](u64 lo, u64 hi) -> u128 {
        const u64 rows = block_begin(n, num_chunks, hi) - block_begin(n, num_chunks, lo);
        return static_cast<u128>(rows) * row_width;
    };
    return uni;
}

ChunkedSampler::ChunkedSampler(u64 seed, ChunkUniverse universe, u64 samples)
    : seed_(seed), universe_(std::move(universe)), samples_(samples) {
    assert(universe_.num_chunks >= 1);
    assert(static_cast<u128>(samples_) <= universe_.range_size(0, universe_.num_chunks));
}

namespace {

/// Samples of node [lo, hi) that fall into its left half [lo, mid).
/// Per-subtree seed: PEs descending through the same (lo, hi) node draw the
/// identical variate regardless of which child they follow.
u64 left_samples(u64 seed, const ChunkUniverse& universe, u64 lo, u64 mid, u64 hi,
                 u64 k) {
    Rng rng = Rng::for_ids(seed, {0x5eedc0deULL, lo, hi});
    return hypergeometric(rng, universe.range_size(lo, hi),
                          universe.range_size(lo, mid), k);
}

} // namespace

u64 ChunkedSampler::descend(u64 chunk) const {
    u64 lo = 0;
    u64 hi = universe_.num_chunks;
    u64 k  = samples_;
    while (hi - lo > 1 && k > 0) {
        const u64 mid = lo + (hi - lo) / 2;
        const u64 h   = left_samples(seed_, universe_, lo, mid, hi, k);
        if (chunk < mid) {
            hi = mid;
            k  = h;
        } else {
            lo = mid;
            k -= h;
        }
    }
    return k;
}

u64 ChunkedSampler::samples_in_chunk(u64 chunk) const {
    assert(chunk < universe_.num_chunks);
    return descend(chunk);
}

std::vector<u64> ChunkedSampler::chunk_counts() const {
    std::vector<u64> out(universe_.num_chunks, 0);
    count_subtree(0, universe_.num_chunks, samples_, out);
    return out;
}

void ChunkedSampler::count_subtree(u64 lo, u64 hi, u64 k, std::vector<u64>& out) const {
    if (k == 0) return;
    if (hi - lo == 1) {
        out[lo] = k;
        return;
    }
    const u64 mid = lo + (hi - lo) / 2;
    const u64 h   = left_samples(seed_, universe_, lo, mid, hi, k);
    count_subtree(lo, mid, h, out);
    count_subtree(mid, hi, k - h, out);
}

} // namespace kagen
