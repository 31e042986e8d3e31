/// \file metrics.hpp
/// \brief Process-wide metrics registry: named monotonic counters and
///        log-bucketed histograms with mergeable, serializable snapshots.
///
/// Hot paths `add()` to a cached `Counter&` (one relaxed atomic RMW), and
/// orchestration code takes a `Snapshot` — a deterministic, sorted
/// name→value map that serializes over the dist/net telemetry channel,
/// merges across ranks exactly like the sink summaries (sum for monotonic
/// counters, max for peak gauges), and renders to JSON for `-metrics FILE`.
///
/// The registry is the cumulative mirror of `pe::ChunkRunStats`, not its
/// replacement. That struct stays the per-run unit because it is exact per
/// rank even when ranks share a process: TCP workers run as threads of one
/// process in tests and in the benchmark's net probe, and a registry delta
/// taken by one of them would count the others' work too.
///
/// Because the registry is process-global and lives across runs (tests,
/// the future daemon), per-run numbers are taken as *deltas*: capture a
/// base snapshot before the run and `subtract()` it from the end snapshot.
/// This also makes fork workers free — the child inherits the parent's
/// counts and ships only what it added. DESIGN.md §13.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kagen::obs {

/// How a counter combines across ranks in `Snapshot::merge`.
enum class MergeKind : u8 {
    sum = 0, ///< monotonic totals (edges written, bytes spilled, tasks)
    max = 1, ///< peak gauges (peak buffered bytes): ranks don't coexist in
             ///< one address space, so the fleet peak is the max, not a sum
};

/// Monotonic counter; add/record are wait-free relaxed atomics. Obtain via
/// Registry::counter() once (setup path) and cache the reference — the
/// lookup takes a mutex, the increments never do.
class Counter {
public:
    void add(u64 delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

    /// Raises the counter to `candidate` if larger (for MergeKind::max
    /// gauges tracked as running peaks).
    void record_max(u64 candidate) {
        u64 cur = value_.load(std::memory_order_relaxed);
        while (cur < candidate &&
               !value_.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
        }
    }

    u64 value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<u64> value_{0};
};

/// Log2-bucketed histogram: observe(v) lands in bucket floor(log2(v))+1,
/// bucket 0 holds zeros. Fixed 65 buckets cover the full u64 range with no
/// allocation on the hot path; count/sum give exact totals and means while
/// the buckets give the shape (chunk edge counts, span latencies in ns).
class Histogram {
public:
    static constexpr int kBuckets = 65;

    void observe(u64 value) {
        buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    static int bucket_of(u64 value) {
        return value == 0 ? 0 : 64 - __builtin_clzll(value) ;
    }

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }
    u64 bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

private:
    std::atomic<u64> buckets_[kBuckets]{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
};

/// Point-in-time copy of every instrument, detached from the atomics.
/// Deterministically ordered (std::map) so serialization, JSON, and merges
/// are reproducible byte-for-byte across runs and ranks.
struct Snapshot {
    struct CounterValue {
        u64 value      = 0;
        MergeKind kind = MergeKind::sum;
    };
    struct HistogramValue {
        u64 count = 0;
        u64 sum   = 0;
        /// Sparse nonzero buckets, ascending index.
        std::vector<std::pair<u32, u64>> buckets;
    };

    std::map<std::string, CounterValue> counters;
    std::map<std::string, HistogramValue> histograms;

    /// Folds `other` in: sum-kind counters and histograms add, max-kind
    /// counters take the max. Kind mismatches resolve toward `other`
    /// (last writer wins; never happens between same-version peers).
    void merge(const Snapshot& other);

    /// Returns this snapshot minus `base` (per-run delta against a
    /// registry that outlives the run). Counters clamp at 0 rather than
    /// wrap if `base` is newer; max-kind counters pass through unchanged
    /// (a peak is not a rate). Histograms subtract per bucket.
    Snapshot subtract(const Snapshot& base) const;

    /// Convenience: counter value by name, `fallback` when absent.
    u64 counter_or(const std::string& name, u64 fallback = 0) const;

    /// Deterministic pretty-printed JSON document.
    std::string to_json() const;

    /// Explicit little-endian wire form (common/bytes.hpp discipline) for
    /// the dist/net telemetry frames.
    void serialize(std::vector<u8>& out) const;

    /// Bounds-checked decode; throws std::runtime_error on truncation,
    /// implausible element counts, or unknown merge kinds. Does NOT
    /// require consuming `end` — telemetry frames append fields after it.
    static Snapshot deserialize(const u8*& p, const u8* end);
};

/// Name→instrument registry. Lookup is mutex-guarded (setup cost);
/// instruments are never deallocated, so cached references stay valid for
/// the process lifetime.
class Registry {
public:
    /// Returns (creating on first use) the named counter. The merge kind
    /// is fixed at creation; later lookups ignore the argument.
    Counter& counter(const std::string& name, MergeKind kind = MergeKind::sum);

    /// Returns (creating on first use) the named histogram.
    Histogram& histogram(const std::string& name);

    /// Copies every instrument's current value. Safe concurrently with
    /// hot-path increments (values are atomics; the snapshot is a
    /// consistent-enough point-in-time read, exact once writers quiesce).
    Snapshot snapshot() const;

    /// Process-wide instance every instrumented module uses.
    static Registry& global();

private:
    struct Impl;
    Impl& impl() const;
};

/// Writes `snap.to_json()` to `path` (truncating); throws
/// std::runtime_error on I/O failure.
void write_metrics_file(const std::string& path, const Snapshot& snap);

} // namespace kagen::obs
