#include "obs/trace.hpp"

#include <ctime>

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/bytes.hpp"

namespace kagen::obs {

u64 monotonic_now() {
    // The codebase's single clock read (lint_determinism.py: monotonic-clock
    // allowlist). CLOCK_MONOTONIC by design: timestamps must never observe
    // wall-clock adjustments, and generation output must never depend on
    // them either way — tracing only ever *records*.
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<u64>(ts.tv_sec) * 1000000000ull + static_cast<u64>(ts.tv_nsec);
}

const char* phase_name(Phase phase) {
    switch (phase) {
        case Phase::generate: return "generate";
        case Phase::deliver: return "deliver";
        case Phase::spill_park: return "spill_park";
        case Phase::spill_replay: return "spill_replay";
        case Phase::sink_write: return "sink_write";
        case Phase::em_sort: return "em_sort";
        case Phase::merge: return "merge";
        case Phase::budget_park: return "budget_park";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Single-writer ring: only the owning thread stores events and bumps
/// `count` (release); the drainer reads `count` (acquire) and everything
/// below it. The watermark (drainer-private) makes drains incremental
/// without ever writing the producer's counter — no reset races with pool
/// threads that outlive a run.
struct TraceRecorder::ThreadBuffer {
    std::vector<TraceEvent> slots;
    std::atomic<u64> count{0};
    u64 drained = 0;
    u32 tid     = 0;
};

struct TraceRecorder::Impl {
    std::mutex m; // guards registration and drain bookkeeping only
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

TraceRecorder::Impl& TraceRecorder::impl() {
    static Impl instance;
    return instance;
}

TraceRecorder& TraceRecorder::global() {
    static TraceRecorder instance;
    return instance;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
    thread_local ThreadBuffer* buf = nullptr;
    if (buf == nullptr) {
        auto owned = std::make_unique<ThreadBuffer>();
        owned->slots.resize(kDefaultCapacity);
        buf = owned.get();
        Impl& im = impl();
        std::lock_guard<std::mutex> lock(im.m);
        buf->tid = static_cast<u32>(im.buffers.size());
        im.buffers.push_back(std::move(owned));
    }
    return *buf;
}

void TraceRecorder::record(Phase phase, u64 begin_ns, u64 dur_ns, u64 arg,
                           bool is_span) {
    ThreadBuffer& buf = local_buffer();
    const u64 idx     = buf.count.load(std::memory_order_relaxed);
    if (idx >= buf.slots.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    TraceEvent& ev = buf.slots[idx];
    ev.begin_ns    = begin_ns;
    ev.dur_ns      = dur_ns;
    ev.arg         = arg;
    ev.tid         = buf.tid;
    ev.phase       = phase;
    ev.is_span     = is_span ? 1 : 0;
    buf.count.store(idx + 1, std::memory_order_release);
}

void TraceRecorder::drain(std::vector<TraceEvent>& out) {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.m);
    for (auto& buf : im.buffers) {
        const u64 upto = buf->count.load(std::memory_order_acquire);
        for (u64 i = buf->drained; i < upto; ++i) out.push_back(buf->slots[i]);
        buf->drained = upto;
    }
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------

namespace {
constexpr u64 kMaxPhase = static_cast<u64>(Phase::budget_park);
} // namespace

TelemetryScope::TelemetryScope(bool on) : armed_(on) {
    if (!armed_) return;
    base_ = Registry::global().snapshot();
    std::vector<TraceEvent> stale;
    TraceRecorder::global().drain(stale); // this run's trace starts empty
    TraceRecorder::global().enable(true);
}

TelemetryScope::~TelemetryScope() {
    if (armed_) TraceRecorder::global().enable(false);
}

RankTelemetry TelemetryScope::end(u64 rank) {
    armed_             = false;
    TraceRecorder& rec = TraceRecorder::global();
    rec.enable(false);
    RankTelemetry t;
    t.rank    = rank;
    t.dropped = rec.dropped();
    rec.drain(t.events);
    t.metrics = Registry::global().snapshot().subtract(base_);
    return t;
}

std::vector<u8> serialize_telemetry(const RankTelemetry& t) {
    std::vector<u8> out;
    bytes::put_u64(out, t.rank);
    bytes::put_u64(out, t.clock_base_ns);
    bytes::put_u64(out, t.dropped);
    t.metrics.serialize(out);
    bytes::put_u64(out, t.events.size());
    for (const TraceEvent& ev : t.events) {
        bytes::put_u64(out, ev.begin_ns);
        bytes::put_u64(out, ev.dur_ns);
        bytes::put_u64(out, ev.arg);
        bytes::put_u64(out, (static_cast<u64>(ev.tid) << 16) |
                                (static_cast<u64>(ev.phase) << 8) |
                                static_cast<u64>(ev.is_span));
    }
    return out;
}

RankTelemetry deserialize_telemetry(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    RankTelemetry t;
    t.rank          = bytes::get_u64(p, end);
    t.clock_base_ns = bytes::get_u64(p, end);
    t.dropped       = bytes::get_u64(p, end);
    t.metrics       = Snapshot::deserialize(p, end);
    const u64 count = bytes::get_u64(p, end);
    // 32 bytes per serialized event; a count past the remaining payload is
    // a corrupt or hostile frame, rejected before any allocation.
    if (count > static_cast<u64>(end - p) / 32) {
        throw std::runtime_error("obs: implausible telemetry event count");
    }
    t.events.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        TraceEvent ev;
        ev.begin_ns     = bytes::get_u64(p, end);
        ev.dur_ns       = bytes::get_u64(p, end);
        ev.arg          = bytes::get_u64(p, end);
        const u64 meta  = bytes::get_u64(p, end);
        const u64 phase = (meta >> 8) & 0xff;
        if (phase > kMaxPhase) {
            throw std::runtime_error("obs: unknown trace phase in telemetry frame");
        }
        ev.tid     = static_cast<u32>(meta >> 16);
        ev.phase   = static_cast<Phase>(phase);
        ev.is_span = (meta & 1) != 0 ? 1 : 0;
        t.events.push_back(ev);
    }
    if (p != end) {
        throw std::runtime_error("obs: trailing bytes in telemetry frame");
    }
    return t;
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

namespace {

void append_ts_us(std::string& out, u64 ns, i64 offset_ns) {
    // Chrome wants microseconds; keep ns precision as a fraction. Offsets
    // can push an early event slightly negative — clamp, Perfetto rejects
    // negative timestamps.
    const i64 shifted = static_cast<i64>(ns) + offset_ns;
    const i64 clamped = shifted < 0 ? 0 : shifted;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(clamped / 1000),
                  static_cast<long long>(clamped % 1000));
    out += buf;
}

void append_u64_str(std::string& out, u64 v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace

void write_chrome_trace(const std::string& path,
                        const std::vector<RankTimeline>& ranks) {
    std::string out;
    out += "{\"traceEvents\": [\n";
    bool first = true;
    for (const RankTimeline& rank : ranks) {
        out += first ? "" : ",\n";
        first = false;
        // Process metadata so Perfetto shows "rank N" instead of a bare pid.
        out += "{\"ph\": \"M\", \"pid\": ";
        append_u64_str(out, rank.rank);
        out += ", \"name\": \"process_name\", \"args\": {\"name\": \"";
        out += rank.label;
        out += "\"}}";
        for (const TraceEvent& ev : rank.events) {
            out += ",\n{\"ph\": \"";
            out += ev.is_span != 0 ? "X" : "i";
            out += "\", \"pid\": ";
            append_u64_str(out, rank.rank);
            out += ", \"tid\": ";
            append_u64_str(out, ev.tid);
            out += ", \"name\": \"";
            out += phase_name(ev.phase);
            out += "\", \"ts\": ";
            append_ts_us(out, ev.begin_ns, rank.offset_ns);
            if (ev.is_span != 0) {
                out += ", \"dur\": ";
                append_ts_us(out, ev.dur_ns, 0);
            } else {
                out += ", \"s\": \"t\"";
            }
            out += ", \"args\": {\"arg\": ";
            append_u64_str(out, ev.arg);
            out += "}}";
        }
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("obs: cannot open trace file " + path);
    file << out;
    file.flush();
    if (!file) throw std::runtime_error("obs: write to trace file failed: " + path);
}

} // namespace kagen::obs
