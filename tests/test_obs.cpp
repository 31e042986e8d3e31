// Telemetry layer (DESIGN.md §13): metrics-registry semantics (merge,
// subtract, wire codec), the per-thread trace-recorder protocol, hardened
// telemetry-frame decoding (torn, oversized, hostile), Chrome trace JSON
// shape — and the property the whole subsystem exists to preserve:
// generation output stays byte-identical with telemetry on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/bytes.hpp"
#include "kagen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace kagen {
namespace {

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "kagen_obs_" + std::to_string(::getpid()) +
           "_" + name;
}

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void remove_quiet(const std::string& path) { std::remove(path.c_str()); }

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketOfIsLog2Shaped) {
    EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
    EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
    EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
    EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
    EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
    EXPECT_EQ(obs::Histogram::bucket_of((u64{1} << 32) - 1), 32);
    EXPECT_EQ(obs::Histogram::bucket_of(u64{1} << 32), 33);
    EXPECT_EQ(obs::Histogram::bucket_of(~u64{0}), 64);
}

TEST(ObsMetrics, CounterRecordMaxKeepsPeak) {
    obs::Counter c;
    c.record_max(10);
    c.record_max(3);
    EXPECT_EQ(c.value(), 10u);
    c.record_max(42);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetrics, RegistryReturnsSameInstrumentByName) {
    obs::Registry& reg = obs::Registry::global();
    obs::Counter& a    = reg.counter("test_obs.same");
    obs::Counter& b    = reg.counter("test_obs.same");
    EXPECT_EQ(&a, &b);
    const u64 before = reg.snapshot().counter_or("test_obs.same");
    a.add(7);
    EXPECT_EQ(reg.snapshot().counter_or("test_obs.same"), before + 7);
}

// ---------------------------------------------------------------------------
// Snapshot algebra
// ---------------------------------------------------------------------------

TEST(ObsMetrics, SubtractClampsSumsAndPassesMaxThrough) {
    obs::Snapshot base, end;
    base.counters["sum"]  = {10, obs::MergeKind::sum};
    end.counters["sum"]   = {4, obs::MergeKind::sum}; // "newer" base: clamp
    base.counters["peak"] = {100, obs::MergeKind::max};
    end.counters["peak"]  = {60, obs::MergeKind::max};
    end.counters["fresh"] = {5, obs::MergeKind::sum};

    const obs::Snapshot delta = end.subtract(base);
    EXPECT_EQ(delta.counter_or("sum"), 0u);   // clamped, not wrapped
    EXPECT_EQ(delta.counter_or("peak"), 60u); // a peak is not a rate
    EXPECT_EQ(delta.counter_or("fresh"), 5u);
}

TEST(ObsMetrics, MergeSumsMaxesAndFoldsHistograms) {
    obs::Snapshot a, b;
    a.counters["edges"] = {10, obs::MergeKind::sum};
    b.counters["edges"] = {32, obs::MergeKind::sum};
    a.counters["peak"]  = {100, obs::MergeKind::max};
    b.counters["peak"]  = {250, obs::MergeKind::max};
    a.histograms["h"]   = {2, 5, {{1, 1}, {3, 1}}};
    b.histograms["h"]   = {3, 9, {{3, 2}, {7, 1}}};

    a.merge(b);
    EXPECT_EQ(a.counter_or("edges"), 42u);
    EXPECT_EQ(a.counter_or("peak"), 250u);
    const auto& h = a.histograms.at("h");
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 14u);
    const std::vector<std::pair<u32, u64>> want = {{1, 1}, {3, 3}, {7, 1}};
    EXPECT_EQ(h.buckets, want);
}

TEST(ObsMetrics, SnapshotSerializeRoundTrips) {
    obs::Snapshot snap;
    snap.counters["a.sum"]  = {123456789, obs::MergeKind::sum};
    snap.counters["b.peak"] = {~u64{0}, obs::MergeKind::max};
    snap.histograms["lat"]  = {7, 1000, {{0, 2}, {12, 4}, {64, 1}}};

    std::vector<u8> wire;
    snap.serialize(wire);
    const u8* p              = wire.data();
    const u8* end            = p + wire.size();
    const obs::Snapshot back = obs::Snapshot::deserialize(p, end);
    EXPECT_EQ(p, end);
    EXPECT_EQ(back.counters.size(), 2u);
    EXPECT_EQ(back.counter_or("a.sum"), 123456789u);
    EXPECT_EQ(back.counters.at("b.peak").kind, obs::MergeKind::max);
    EXPECT_EQ(back.histograms.at("lat").sum, 1000u);
    EXPECT_EQ(back.histograms.at("lat").buckets,
              snap.histograms.at("lat").buckets);
}

// ---------------------------------------------------------------------------
// Telemetry frame codec — round trip and hostile-input rejection
// ---------------------------------------------------------------------------

obs::RankTelemetry sample_telemetry() {
    obs::RankTelemetry t;
    t.rank          = 3;
    t.clock_base_ns = 999;
    t.dropped       = 1;
    obs::TraceEvent ev;
    ev.begin_ns = 100;
    ev.dur_ns   = 50;
    ev.arg      = 7;
    ev.tid      = 2;
    ev.phase    = obs::Phase::spill_replay;
    ev.is_span  = 1;
    t.events.push_back(ev);
    ev.phase   = obs::Phase::budget_park;
    ev.is_span = 0;
    ev.dur_ns  = 0;
    t.events.push_back(ev);
    t.metrics.counters["edges"] = {42, obs::MergeKind::sum};
    return t;
}

TEST(ObsTelemetry, RoundTrips) {
    const obs::RankTelemetry t    = sample_telemetry();
    const std::vector<u8> wire    = obs::serialize_telemetry(t);
    const obs::RankTelemetry back = obs::deserialize_telemetry(wire);
    EXPECT_EQ(back.rank, t.rank);
    EXPECT_EQ(back.clock_base_ns, t.clock_base_ns);
    EXPECT_EQ(back.dropped, t.dropped);
    ASSERT_EQ(back.events.size(), 2u);
    EXPECT_EQ(back.events[0].phase, obs::Phase::spill_replay);
    EXPECT_EQ(back.events[0].is_span, 1);
    EXPECT_EQ(back.events[1].phase, obs::Phase::budget_park);
    EXPECT_EQ(back.events[1].is_span, 0);
    EXPECT_EQ(back.events[1].tid, 2u);
    EXPECT_EQ(back.metrics.counter_or("edges"), 42u);
}

TEST(ObsTelemetry, RejectsImplausibleEventCount) {
    // Hand-built frame announcing ~2^61 events with an empty body: must be
    // rejected up front, before any allocation.
    std::vector<u8> wire;
    bytes::put_u64(wire, 0); // rank
    bytes::put_u64(wire, 0); // clock base
    bytes::put_u64(wire, 0); // dropped
    obs::Snapshot{}.serialize(wire);
    bytes::put_u64(wire, u64{1} << 61); // event count
    EXPECT_THROW(obs::deserialize_telemetry(wire), std::runtime_error);
}

TEST(ObsTelemetry, RejectsUnknownPhase) {
    obs::RankTelemetry t = sample_telemetry();
    std::vector<u8> wire = obs::serialize_telemetry(t);
    // The meta word of the first event is its final 8 bytes of the first
    // 32-byte record; poison the phase byte (bits 8..15).
    const std::size_t meta_at = wire.size() - 2 * 32 + 24;
    wire[meta_at + 1]         = 0xee;
    EXPECT_THROW(obs::deserialize_telemetry(wire), std::runtime_error);
}

TEST(ObsTelemetry, RejectsTornAndTrailingFrames) {
    const std::vector<u8> wire = obs::serialize_telemetry(sample_telemetry());
    for (const std::size_t cut : {wire.size() - 1, wire.size() / 2,
                                  std::size_t{8}, std::size_t{0}}) {
        const std::vector<u8> torn(wire.begin(),
                                   wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(obs::deserialize_telemetry(torn), std::runtime_error)
            << "cut at " << cut;
    }
    std::vector<u8> trailing = wire;
    trailing.push_back(0);
    EXPECT_THROW(obs::deserialize_telemetry(trailing), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Recorder protocol
// ---------------------------------------------------------------------------

TEST(ObsRecorder, SpansAndInstantsDrainOnceThroughWatermark) {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    std::vector<obs::TraceEvent> stale;
    rec.drain(stale); // isolate from earlier tests sharing the process

    rec.enable(true);
    {
        const obs::Span span(obs::Phase::em_sort, 77);
    }
    obs::instant(obs::Phase::budget_park, 5);
    rec.enable(false);

    std::vector<obs::TraceEvent> events;
    rec.drain(events);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, obs::Phase::em_sort);
    EXPECT_EQ(events[0].is_span, 1);
    EXPECT_EQ(events[0].arg, 77u);
    EXPECT_EQ(events[1].phase, obs::Phase::budget_park);
    EXPECT_EQ(events[1].is_span, 0);
    EXPECT_EQ(events[1].arg, 5u);
    EXPECT_GT(events[0].begin_ns, 0u);

    // The watermark advanced: a second drain returns nothing new.
    std::vector<obs::TraceEvent> again;
    rec.drain(again);
    EXPECT_TRUE(again.empty());
}

TEST(ObsRecorder, DisabledRecorderRecordsNothing) {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    std::vector<obs::TraceEvent> stale;
    rec.drain(stale);
    ASSERT_FALSE(rec.enabled());
    {
        const obs::Span span(obs::Phase::generate, 1);
    }
    obs::instant(obs::Phase::budget_park);
    std::vector<obs::TraceEvent> events;
    rec.drain(events);
    EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------------

TEST(ObsTrace, ChromeJsonCarriesRankProcessesSpansAndInstants) {
    obs::RankTimeline r0;
    r0.rank  = 0;
    r0.label = "rank 0";
    obs::TraceEvent ev;
    ev.begin_ns = 1500;
    ev.dur_ns   = 2500;
    ev.phase    = obs::Phase::generate;
    ev.is_span  = 1;
    r0.events.push_back(ev);

    obs::RankTimeline r1;
    r1.rank      = 1;
    r1.label     = "coordinator";
    r1.offset_ns = -5000; // clamps the early event to ts 0
    ev.begin_ns  = 1000;
    ev.dur_ns    = 0;
    ev.phase     = obs::Phase::budget_park;
    ev.is_span   = 0;
    r1.events.push_back(ev);

    const std::string path = tmp_path("trace.json");
    obs::write_chrome_trace(path, {r0, r1});
    const std::string doc = read_text(path);
    remove_quiet(path);

    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"rank 0\""), std::string::npos);
    EXPECT_NE(doc.find("\"coordinator\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"s\": \"t\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"generate\""), std::string::npos);
    // µs with ns fraction: 1500 ns → 1.500; the offset rank clamps to 0.
    EXPECT_NE(doc.find("\"ts\": 1.500"), std::string::npos);
    EXPECT_NE(doc.find("\"ts\": 0.000"), std::string::npos);
    // Balanced braces ⇒ at least structurally a JSON object.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(doc.front(), '{');
}

// ---------------------------------------------------------------------------
// End to end: telemetry must not change a single output byte
// ---------------------------------------------------------------------------

Config sweep_config(Model model) {
    Config cfg;
    cfg.model         = model;
    cfg.n             = 1200;
    cfg.seed          = 5;
    cfg.chunks_per_pe = 4;
    switch (model) {
        case Model::GnmUndirected: cfg.m = 6000; break;
        case Model::GnpUndirected: cfg.p = 0.01; break;
        case Model::Rgg2D: cfg.r = 0.05; break;
        case Model::Rhg:
            cfg.avg_deg = 6.0;
            cfg.gamma   = 2.9;
            break;
        default: break;
    }
    return cfg;
}

std::string chunked_file(const Config& cfg, const std::string& tag) {
    const std::string path = tmp_path(tag + ".bin");
    BinaryFileSink sink(path);
    // Explicit 4-participant pool: the ordered-parallel engine path must be
    // exercised (and instrumented) even on single-core CI machines.
    pe::ThreadPool pool(3);
    generate_chunked(cfg, 4, sink, 4, &pool);
    sink.finish();
    return path;
}

TEST(ObsEndToEnd, ChunkedOutputByteIdenticalWithTelemetryOn) {
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D, Model::Rhg}) {
        Config cfg             = sweep_config(model);
        const std::string off  = chunked_file(cfg, "off");
        cfg.trace_path         = tmp_path("on.trace.json");
        cfg.metrics_path       = tmp_path("on.metrics.json");
        const std::string on   = chunked_file(cfg, "on");
        EXPECT_EQ(read_text(off), read_text(on)) << model_name(model);
        EXPECT_FALSE(read_text(cfg.trace_path).empty());
        const std::string metrics = read_text(cfg.metrics_path);
        EXPECT_FALSE(metrics.empty());
        if (model == Model::Rhg) {
            EXPECT_NE(metrics.find("\"rhg.candidates\""), std::string::npos);
        }
        if (model == Model::Rgg2D) {
            EXPECT_NE(metrics.find("\"rgg.pair_tests\""), std::string::npos);
            EXPECT_NE(metrics.find("\"rgg.halo_cells\""), std::string::npos);
        }
        remove_quiet(off);
        remove_quiet(on);
        remove_quiet(cfg.trace_path);
        remove_quiet(cfg.metrics_path);
    }
}

TEST(ObsEndToEnd, DistributedOutputByteIdenticalWithTelemetryOn) {
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D, Model::Rhg}) {
        SCOPED_TRACE(model_name(model));
        Config cfg = sweep_config(model);
        dist::DistOptions opts;
        opts.num_ranks   = 3;
        opts.num_pes     = 4;
        opts.output_path = tmp_path("dist_off.bin");
        const dist::DistResult off = generate_distributed(cfg, opts);

        cfg.trace_path   = tmp_path("dist.trace.json");
        cfg.metrics_path = tmp_path("dist.metrics.json");
        opts.output_path = tmp_path("dist_on.bin");
        const dist::DistResult on = generate_distributed(cfg, opts);

        EXPECT_EQ(off.edges_written, on.edges_written);
        EXPECT_EQ(read_text(tmp_path("dist_off.bin")), read_text(tmp_path("dist_on.bin")));

        // The merged trace names every rank timeline plus the coordinator.
        const std::string trace = read_text(cfg.trace_path);
        EXPECT_NE(trace.find("\"rank 0\""), std::string::npos);
        EXPECT_NE(trace.find("\"rank 1\""), std::string::npos);
        EXPECT_NE(trace.find("\"rank 2\""), std::string::npos);
        EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
        EXPECT_NE(trace.find("\"name\": \"generate\""), std::string::npos);
        EXPECT_NE(trace.find("\"name\": \"merge\""), std::string::npos);

        // Merged metrics agree with the run summary: the file sink of every
        // rank counted exactly the edges the merge wrote out. The model's
        // own counters travel with them.
        const std::string metrics = read_text(cfg.metrics_path);
        EXPECT_NE(metrics.find("\"sink.edges_written\""), std::string::npos);
        EXPECT_NE(metrics.find("\"dist.merged_bytes\""), std::string::npos);
        if (model == Model::Rhg) {
            EXPECT_NE(metrics.find("\"rhg.queries\""), std::string::npos);
            EXPECT_NE(metrics.find("\"rhg.points_recomputed\""), std::string::npos);
        }
        if (model == Model::Rgg2D) {
            EXPECT_NE(metrics.find("\"rgg.pair_tests\""), std::string::npos);
            EXPECT_NE(metrics.find("\"rgg.halo_cells\""), std::string::npos);
        }

        remove_quiet(tmp_path("dist_off.bin"));
        remove_quiet(tmp_path("dist_on.bin"));
        remove_quiet(cfg.trace_path);
        remove_quiet(cfg.metrics_path);
    }
}

TEST(ObsEndToEnd, MetricsDeltaMatchesRunSummary) {
    Config cfg       = sweep_config(Model::GnmUndirected);
    cfg.metrics_path = tmp_path("delta.metrics.json");
    const std::string path = tmp_path("delta.bin");

    const obs::Snapshot base = obs::Registry::global().snapshot();
    BinaryFileSink sink(path);
    pe::ThreadPool pool(3);
    const ChunkStats stats = generate_chunked(cfg, 4, sink, 4, &pool);
    sink.finish();
    const obs::Snapshot delta =
        obs::Registry::global().snapshot().subtract(base);

    // Registry view == per-run struct view (satellite of DESIGN.md §13:
    // ChunkRunStats is a thin view over the same instruments).
    EXPECT_EQ(delta.counter_or("pe.chunks"), stats.num_chunks);
    EXPECT_EQ(delta.counter_or("pe.runs"), 1u);
    EXPECT_EQ(delta.counter_or("pe.spilled_chunks"), stats.spilled_chunks);
    EXPECT_EQ(delta.counter_or("sink.edges_written"), sink.num_edges());
    // Every chunk's edge count flowed through the histogram.
    const auto& hist = delta.histograms.at("pe.chunk_edges");
    EXPECT_EQ(hist.count, stats.num_chunks);
    EXPECT_EQ(hist.sum, sink.num_edges());

    remove_quiet(path);
    remove_quiet(cfg.metrics_path);
}

} // namespace
} // namespace kagen
