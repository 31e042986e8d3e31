/// \file trace.hpp
/// \brief Lock-free per-thread trace recorder emitting Chrome `trace_event`
///        JSON, plus the process's single monotonic clock entry point.
///
/// Spans cover the chunk lifecycle (`generate`, `deliver`, `spill_park`,
/// `spill_replay`, `sink_write`, `em_sort`, `merge`); instants mark
/// budget-parks. The hot path is two `monotonic_now()` reads and one
/// store into a thread-local ring — recording threads never share a cache
/// line, never take a lock, and when tracing is disabled a span is a single
/// relaxed flag load. Buffers are bounded (events past capacity are counted
/// as dropped, never reallocated) and drained once at run end by the
/// orchestrator.
///
/// Clock discipline: every timestamp in the codebase flows through
/// `obs::monotonic_now()` — CLOCK_MONOTONIC, never wall clock — so
/// `tools/lint_determinism.py` can enforce "no time-dependent generation"
/// with exactly one allowlisted implementation site (trace.cpp). Traces
/// from remote ranks are aligned by offsetting their timeline with the
/// coordinator's send-time handshake (DESIGN.md §13); fork workers share
/// the machine clock and need offset 0.
///
/// Compile-out: building with -DKAGEN_OBS_OFF=1 turns Span/instant() into
/// empty inlines (no flag load, no code); `monotonic_now()` always works —
/// run timing needs it regardless of tracing.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

#ifndef KAGEN_OBS_OFF
#define KAGEN_OBS_OFF 0
#endif

namespace kagen::obs {

/// Nanoseconds of CLOCK_MONOTONIC — the one place the codebase reads a
/// clock (see file comment).
u64 monotonic_now();

/// Traced phases. Span phases first, then the instant phase.
enum class Phase : u8 {
    generate = 0, ///< chunk generator body (arg = chunk id)
    deliver,      ///< ordered delivery of one chunk into the sink (arg = chunk)
    spill_park,   ///< writing an over-budget chunk to the spill file (arg = chunk)
    spill_replay, ///< reading a spilled chunk back (arg = chunk)
    sink_write,   ///< sink flush of one batch (arg = bytes)
    em_sort,      ///< external-memory run formation or run merge (arg =
                  ///< bytes read)
    merge,        ///< coordinator merging one rank file (arg = rank)
    budget_park,  ///< instant: chunk parked to disk by the byte budget (arg = chunk)
};

/// Stable lowercase name used in trace JSON and reports.
const char* phase_name(Phase phase);

/// One recorded event, 32 bytes. `dur_ns == 0` together with an
/// instant-range phase renders as a Chrome instant event.
struct TraceEvent {
    u64 begin_ns = 0; ///< monotonic_now() at span start / instant time
    u64 dur_ns   = 0;
    u64 arg      = 0; ///< phase-specific payload (chunk id, bytes, rank)
    u32 tid      = 0; ///< recording thread, registration order
    Phase phase  = Phase::generate;
    u8 is_span   = 1;
    u8 pad_[2]   = {0, 0};
};

/// Per-thread ring recorder. One process-wide instance; threads register
/// lazily on first record. Draining uses a per-buffer watermark and never
/// resets the write counters, so it is safe while other runs share the
/// global thread pool (their late events simply land in the next drain).
class TraceRecorder {
public:
    /// Events retained per recording thread; beyond this, events are
    /// dropped (counted, bounded memory: 32 B × capacity × threads).
    static constexpr u64 kDefaultCapacity = u64{1} << 16;

    /// Flips recording on/off. Enabling is monotonic for buffer memory:
    /// buffers stick around until process exit.
    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    void record(Phase phase, u64 begin_ns, u64 dur_ns, u64 arg, bool is_span);

    /// Appends every event recorded since the previous drain (all
    /// threads), advancing the watermark. Call after the traced work
    /// joined; events recorded concurrently land in the next drain.
    void drain(std::vector<TraceEvent>& out);

    /// Events discarded because a thread buffer was full.
    u64 dropped() const { return dropped_.load(std::memory_order_relaxed); }

    static TraceRecorder& global();

private:
    struct ThreadBuffer;
    ThreadBuffer& local_buffer();

    std::atomic<bool> enabled_{false};
    std::atomic<u64> dropped_{0};
    struct Impl;
    Impl& impl();
};

/// RAII span: stamps begin on construction, records on destruction. When
/// tracing is disabled (runtime flag or KAGEN_OBS_OFF) it costs at most
/// one relaxed load.
class Span {
public:
    explicit Span(Phase phase, u64 arg = 0) {
#if !KAGEN_OBS_OFF
        if (TraceRecorder::global().enabled()) {
            phase_ = phase;
            arg_   = arg;
            begin_ = monotonic_now();
            live_  = true;
        }
#else
        (void)phase;
        (void)arg;
#endif
    }

    ~Span() {
#if !KAGEN_OBS_OFF
        if (live_) {
            TraceRecorder::global().record(phase_, begin_,
                                           monotonic_now() - begin_, arg_, true);
        }
#endif
    }

    Span(const Span&)            = delete;
    Span& operator=(const Span&) = delete;

private:
#if !KAGEN_OBS_OFF
    u64 begin_   = 0;
    u64 arg_     = 0;
    Phase phase_ = Phase::generate;
    bool live_   = false;
#endif
};

/// Records an instant event (budget-park) if tracing is enabled.
inline void instant(Phase phase, u64 arg = 0) {
#if !KAGEN_OBS_OFF
    TraceRecorder& rec = TraceRecorder::global();
    if (rec.enabled()) rec.record(phase, monotonic_now(), 0, arg, false);
#else
    (void)phase;
    (void)arg;
#endif
}

// ---------------------------------------------------------------------------
// Cross-rank aggregation
// ---------------------------------------------------------------------------

/// Everything one rank ships back when telemetry is requested: its trace
/// events, its metrics delta, and `clock_base_ns` — the rank's
/// monotonic_now() at job receipt, which the coordinator pairs with its
/// own send timestamp to place the rank's timeline on the coordinator
/// clock (offset = t_sent − clock_base_ns; 0 for same-machine forks).
struct RankTelemetry {
    u64 rank          = 0;
    u64 clock_base_ns = 0;
    u64 dropped       = 0;
    std::vector<TraceEvent> events;
    Snapshot metrics;
};

/// One rank-scoped telemetry window. Construction with `on` drains stale
/// events, takes the metrics base and arms the process recorder; `end`
/// disarms it and packages everything recorded since (the caller stamps
/// `clock_base_ns`; 0 = same machine as the merger). Every other way out
/// disarms too, so an exception never leaves the process-global recorder
/// armed for an un-instrumented caller.
class TelemetryScope {
public:
    explicit TelemetryScope(bool on);
    ~TelemetryScope();
    TelemetryScope(const TelemetryScope&)            = delete;
    TelemetryScope& operator=(const TelemetryScope&) = delete;

    /// Only on a scope constructed with `on`, and only once.
    RankTelemetry end(u64 rank);

private:
    bool armed_;
    Snapshot base_;
};

std::vector<u8> serialize_telemetry(const RankTelemetry& t);

/// Bounds-checked decode; throws std::runtime_error on truncation,
/// implausible event counts, unknown phases, or trailing bytes.
RankTelemetry deserialize_telemetry(const std::vector<u8>& payload);

/// One rank's events placed on the merged timeline.
struct RankTimeline {
    u64 rank          = 0;     ///< Chrome pid
    i64 offset_ns     = 0;     ///< added to every timestamp
    std::string label;         ///< process_name metadata ("rank 3", "coordinator")
    std::vector<TraceEvent> events;
};

/// Writes a Chrome `trace_event` JSON document (object form, Perfetto and
/// chrome://tracing loadable): one process per rank with named metadata,
/// spans as "X" events, instants as "i". Throws std::runtime_error on I/O
/// failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<RankTimeline>& ranks);

} // namespace kagen::obs
