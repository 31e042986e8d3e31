#include "graph/em_sort.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include <unistd.h>

#include "common/fileio.hpp"
#include "graph/io.hpp"
#include "graph/radix_sort.hpp"
#include "obs/trace.hpp"
#include "sink/sinks.hpp"
#include "sink/spill.hpp"

namespace kagen::em {
namespace {

constexpr u64 kMinRunEdges        = 1024; ///< run floor under tiny budgets
constexpr std::size_t kBatchEdges = 4096; ///< edges per run write / merge read

/// The OR of the `count` raw edges' ids at `raw`: its bit length is the
/// key width the block needs.
u64 id_union(const void* raw, std::size_t count) {
    const auto* bytes = static_cast<const unsigned char*>(raw);
    u64 ids           = 0;
    for (std::size_t w = 0; w < 2 * count; ++w) {
        u64 id;
        std::memcpy(&id, bytes + w * sizeof(u64), sizeof(id));
        ids |= id;
    }
    return ids;
}

/// Turns the `count` raw edges read into the front of `keys` (2 · count
/// keys long: the keys, then their radix scratch) into one run appended to
/// `fd`. One pass canonicalizes, packs in place (a key never outgrows the
/// 16 bytes of the edge it replaces, so key i never overwrites an edge not
/// yet read) and counts digits; the radix sort runs through the scratch;
/// one more pass drops repeats and unpacks. Returns the run's length.
template <class Key>
u64 park_run(Key* keys, std::size_t count, unsigned bits, bool canonicalize, int fd,
             Edge* batch) {
    const auto* raw = reinterpret_cast<const unsigned char*>(keys);
    RadixSort radix(2 * bits);
    u64 ids = 0;
    for (std::size_t i = 0; i < count; ++i) {
        u64 e[2];
        std::memcpy(e, raw + i * sizeof(Edge), sizeof(e));
        ids |= e[0] | e[1];
        if (canonicalize && e[0] > e[1]) std::swap(e[0], e[1]);
        const Key k = (static_cast<Key>(e[0]) << bits) | static_cast<Key>(e[1]);
        keys[i]     = k;
        radix.count(k);
    }
    if (id_bits(ids) > bits) {
        throw std::runtime_error("em: a vertex id needs " + std::to_string(id_bits(ids)) +
                                 " bits, beyond the graph's " + std::to_string(bits));
    }
    const Key* sorted = radix.sort(keys, keys + count, count);
    const Key mask    = (static_cast<Key>(1) << bits) - 1;
    u64 length        = 0;
    std::size_t fill  = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Key k = sorted[i];
        if (i > 0 && k == sorted[i - 1]) continue;
        batch[fill++] = {static_cast<u64>(k >> bits), static_cast<u64>(k & mask)};
        ++length;
        if (fill == kBatchEdges) {
            fileio::write_all(fd, batch, fill * sizeof(Edge));
            fill = 0;
        }
    }
    fileio::write_all(fd, batch, fill * sizeof(Edge));
    return length;
}

/// An edge as one integer, (u << 64) | v: it orders exactly like the pair.
u128 edge_key(const Edge& e) { return (static_cast<u128>(e.first) << 64) | e.second; }

/// Bounded sequential reader over one run: batched `pread`s, and the check
/// that every edge exceeds the one before it.
class RunCursor {
public:
    RunCursor(int fd, u64 offset, u64 length, std::size_t source, std::size_t run)
        : fd_(fd), offset_(offset), left_(length), source_(source), run_(run),
          buf_(static_cast<std::size_t>(std::min<u64>(length, kBatchEdges))) {}

    /// Stores the run's next edge in `key`; false once the run is exhausted.
    bool next(u128& key) {
        if (pos_ == fill_) {
            if (left_ == 0) return false;
            refill();
        }
        const u128 k = edge_key(buf_[pos_++]);
        if (started_ && k <= last_) fail("does not strictly increase");
        last_    = k;
        started_ = true;
        key      = k;
        return true;
    }

private:
    [[noreturn]] void fail(const char* what) const {
        throw RunOrderError(source_, "em: run " + std::to_string(run_) + " " + what);
    }

    void refill() {
        fill_            = static_cast<std::size_t>(std::min<u64>(left_, buf_.size()));
        auto* p          = reinterpret_cast<char*>(buf_.data());
        std::size_t want = fill_ * sizeof(Edge);
        while (want > 0) {
            const ssize_t got = ::pread(fd_, p, want, static_cast<off_t>(offset_));
            if (got < 0 && errno == EINTR) continue;
            if (got < 0) {
                throw std::runtime_error(std::string("em: reading a run failed: ") +
                                         std::strerror(errno));
            }
            if (got == 0) fail("is truncated");
            p += got;
            offset_ += static_cast<u64>(got);
            want -= static_cast<std::size_t>(got);
        }
        left_ -= fill_;
        pos_ = 0;
    }

    int fd_;
    u64 offset_;
    u64 left_; ///< edges not yet read into buf_
    std::size_t source_, run_;
    std::vector<Edge> buf_;
    std::size_t pos_ = 0, fill_ = 0;
    u128 last_    = 0;
    bool started_ = false;
};

/// Loser tree over k cursors: node 0 holds the current winner, nodes
/// [1, k) the losers of their matches, leaf i sits at node k + i. The
/// heads sit in one array; one replay per emitted edge costs ⌈log2 k⌉
/// branch-free 128-bit comparisons.
class LoserTree {
public:
    explicit LoserTree(std::vector<RunCursor>& cursors)
        : cursors_(cursors), k_(cursors.size()), heads_(k_), live_(k_),
          nodes_(std::max<std::size_t>(k_, 1)) {
        for (std::size_t i = 0; i < k_; ++i) load(i);
        if (k_ > 0) nodes_[0] = build(1);
    }

    bool empty() const { return k_ == 0 || !live_[nodes_[0]]; }
    u128 top() const { return heads_[nodes_[0]]; }

    /// Advances the winner and replays its path to the root. Which run
    /// wins a match is data-dependent, so the replay selects, not branches.
    void pop() {
        std::size_t w = nodes_[0];
        load(w);
        for (std::size_t node = (w + k_) / 2; node >= 1; node /= 2) {
            const std::size_t n = nodes_[node];
            const bool beaten   = less(n, w);
            nodes_[node]        = beaten ? w : n;
            w                   = beaten ? n : w;
        }
        nodes_[0] = w;
    }

private:
    /// An exhausted cursor holds the largest key and loses every tie.
    void load(std::size_t i) {
        live_[i] = cursors_[i].next(heads_[i]);
        if (!live_[i]) heads_[i] = ~u128{0};
    }

    bool less(std::size_t a, std::size_t b) const {
        const u128 x = heads_[a], y = heads_[b];
        return (x < y) | ((x == y) & (live_[a] > live_[b]));
    }

    std::size_t build(std::size_t node) {
        if (node >= k_) return node - k_;
        const std::size_t a = build(2 * node);
        const std::size_t b = build(2 * node + 1);
        const bool a_wins   = !less(b, a);
        nodes_[node]        = a_wins ? b : a;
        return a_wins ? a : b;
    }

    std::vector<RunCursor>& cursors_;
    std::size_t k_;
    std::vector<u128> heads_;
    std::vector<char> live_;
    std::vector<std::size_t> nodes_;
};

} // namespace

std::vector<u64> form_runs(const std::string& input_path, int runs_fd,
                           u64 max_memory_bytes, u64 n, bool canonicalize) {
    io::EdgeFileReader in(input_path);
    const obs::Span span(obs::Phase::em_sort, in.edges() * sizeof(Edge));
    std::vector<u64> runs;
    // Keys plus radix scratch cost 2 · sizeof(key) per edge: 16 B for a
    // 64-bit key, 32 B for a 128-bit one. A known n fixes the key type; a
    // derived width starts with 64-bit keys and, once a block needs more,
    // takes 128-bit keys for good, in the same bytes at half the block.
    const unsigned n_bits = id_bits(n == 0 ? 0 : n - 1);
    bool wide             = n != 0 && 2 * n_bits > 64;
    std::size_t block     = static_cast<std::size_t>(std::min(
        in.edges(), std::max(kMinRunEdges, max_memory_bytes / (wide ? 32 : 16))));
    std::unique_ptr<u64[]> narrow_keys;
    std::unique_ptr<u128[]> wide_keys;
    if (wide) {
        wide_keys.reset(new u128[2 * block]);
    } else if (block > 0) {
        narrow_keys.reset(new u64[2 * block]);
    }
    const auto batch = std::make_unique<Edge[]>(kBatchEdges);
    unsigned bits    = n_bits;
    while (in.remaining() > 0) {
        if (!wide) {
            const std::size_t count = in.read(narrow_keys.get(), block);
            if (n == 0) bits = id_bits(id_union(narrow_keys.get(), count));
            if (2 * bits <= 64) {
                runs.push_back(park_run(narrow_keys.get(), count, bits, canonicalize,
                                        runs_fd, batch.get()));
                continue;
            }
            in.unread(count);
            narrow_keys.reset();
            block = std::max<std::size_t>(block / 2, 1);
            wide_keys.reset(new u128[2 * block]);
            wide = true;
        }
        const std::size_t count = in.read(wide_keys.get(), block);
        if (n == 0) bits = std::max(bits, id_bits(id_union(wide_keys.get(), count)));
        runs.push_back(
            park_run(wide_keys.get(), count, bits, canonicalize, runs_fd, batch.get()));
    }
    obs::Registry& reg = obs::Registry::global();
    reg.counter("em.input_edges").add(in.edges());
    reg.counter("em.runs").add(runs.size());
    return runs;
}

u64 merge_runs(const std::vector<RunFile>& sources, const std::string& output_path) {
    u64 total = 0;
    for (const RunFile& src : sources) {
        for (const u64 len : src.lengths) total += len;
    }
    const obs::Span span(obs::Phase::em_sort, total * sizeof(Edge));
    u64 unique = 0;
    try {
        std::vector<RunCursor> cursors;
        for (std::size_t s = 0; s < sources.size(); ++s) {
            u64 offset = sources[s].offset;
            for (std::size_t r = 0; r < sources[s].lengths.size(); ++r) {
                const u64 len = sources[s].lengths[r];
                cursors.emplace_back(sources[s].fd, offset, len, s, r);
                offset += len * sizeof(Edge);
            }
        }
        LoserTree tree(cursors);
        BinaryFileSink out(output_path);
        u128 last = 0;
        for (; !tree.empty(); tree.pop()) {
            const u128 k = tree.top();
            if (unique == 0 || k != last) {
                out.emit(static_cast<u64>(k >> 64), static_cast<u64>(k));
                last = k;
                ++unique;
            }
        }
        out.finish();
    } catch (...) {
        fileio::unlink_or_warn(output_path.c_str(), "partial dedup output");
        throw;
    }
    obs::Registry::global().counter("em.output_edges").add(unique);
    return unique;
}

SortStats sort_dedup_file(const std::string& input_path,
                          const std::string& output_path, u64 max_memory_bytes,
                          bool canonicalize) {
    SortStats stats;
    stats.input_edges = io::EdgeFileReader(input_path).edges();
    spill::SpillFile scratch; // anonymous: reclaimed even if this process dies
    RunFile runs;
    runs.fd      = scratch.fd();
    runs.lengths = form_runs(input_path, runs.fd, max_memory_bytes, 0, canonicalize);
    stats.runs   = runs.lengths.size();
    stats.output_edges = merge_runs({runs}, output_path);
    return stats;
}

} // namespace kagen::em
