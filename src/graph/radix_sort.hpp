/// \file radix_sort.hpp
/// \brief The one LSD radix sort over packed edge keys, (u << b) | v, shared
///        by `sort_unique` (graph/edge_list.hpp) and `em::form_runs`
///        (graph/em_sort.cpp).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace kagen {

/// Bits needed to hold every id in [0, max_id].
inline unsigned id_bits(u64 max_id) {
    return max_id == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(max_id));
}

/// Digit layout and histograms of an LSD radix sort over keys below
/// 2^key_bits: as few passes as digits of at most kMaxDigitBits allow,
/// split evenly. `count` builds every pass's histogram in the caller's one
/// pass over the keys; a digit every key shares skips its scatter pass.
class RadixSort {
public:
    static constexpr unsigned kMaxDigitBits = 12; ///< radix ≤ 4096: 3 passes for 36 bits

    explicit RadixSort(unsigned key_bits)
        : passes_((key_bits + kMaxDigitBits - 1) / kMaxDigitBits),
          width_(passes_ == 0 ? 0 : (key_bits + passes_ - 1) / passes_),
          radix_(std::size_t{1} << width_), hist_(passes_ * radix_, 0) {}

    template <class Key>
    void count(Key k) {
        for (unsigned p = 0; p < passes_; ++p) ++hist_[p * radix_ + digit(k, p)];
    }

    /// Sorts the `n` counted keys through `scratch` of the same size;
    /// returns whichever of the two arrays holds them sorted.
    template <class Key>
    Key* sort(Key* keys, Key* scratch, std::size_t n) {
        for (unsigned p = 0; p < passes_ && n > 1; ++p) {
            std::size_t* h = &hist_[p * radix_];
            if (h[digit(keys[0], p)] == n) continue;
            std::size_t sum = 0;
            for (std::size_t d = 0; d < radix_; ++d) {
                const std::size_t c = h[d];
                h[d]                = sum;
                sum += c;
            }
            for (std::size_t i = 0; i < n; ++i) scratch[h[digit(keys[i], p)]++] = keys[i];
            std::swap(keys, scratch);
        }
        return keys;
    }

private:
    template <class Key>
    std::size_t digit(Key k, unsigned p) const {
        return static_cast<std::size_t>(k >> (p * width_)) & (radix_ - 1);
    }

    unsigned passes_, width_;
    std::size_t radix_;
    std::vector<std::size_t> hist_;
};

} // namespace kagen
