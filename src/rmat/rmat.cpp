#include "rmat/rmat.hpp"

#include <cassert>

#include "common/math.hpp"
#include "prng/spooky.hpp"

namespace kagen::rmat {
namespace {

/// Counter-based stream: cheap per-edge seeding (a full PRNG init per edge
/// would dominate the measurement; the Graph 500 reference uses the same
/// trick with a hash-keyed stream).
class SplitMix {
public:
    explicit SplitMix(u64 seed) : state_(seed) {}

    u64 next() {
        state_ += 0x9e3779b97f4a7c15ULL;
        u64 z = state_;
        z     = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z     = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    u64 state_;
};

} // namespace

Edge edge_at(const Params& params, u64 index) {
    SplitMix rng(spooky::hash_words(params.seed, {0x2a47u, index}));
    u64 row = 0;
    u64 col = 0;
    const double ab  = params.a + params.b;
    const double abc = ab + params.c;
    for (u64 level = 0; level < params.log_n; ++level) {
        const double u = rng.uniform();
        row <<= 1;
        col <<= 1;
        if (u >= ab) row |= 1;                       // lower half
        if (u >= params.a && u < ab) col |= 1;       // quadrant b
        if (u >= abc) col |= 1;                      // quadrant d
    }
    return {row, col};
}

void generate(const Params& params, u64 rank, u64 size, EdgeSink& sink) {
    assert(params.a + params.b + params.c <= 1.0 + 1e-12);
    const u64 lo = block_begin(params.m, size, rank);
    const u64 hi = block_begin(params.m, size, rank + 1);
    for (u64 i = lo; i < hi; ++i) sink.emit(edge_at(params, i));
    sink.flush();
}

} // namespace kagen::rmat
