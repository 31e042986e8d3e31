/// \file test_config_codec.cpp
/// \brief The graph identity (config.hpp) and every wire codec that carries
///        it, adversarially.
///
/// `encode_config` serializes a GraphSpec plus the chunk count C: the job
/// payload of both multi-process transports and the graph's content
/// address. Two properties make that honest, and the first tests pin them
/// field by field:
///   * no RunOptions field changes the output bytes or the encoding;
///   * every GraphSpec field, and C, changes the encoding.
/// Then the codecs are attacked so a malformed buffer can only ever throw —
/// no out-of-bounds read (the ASan/UBSan configurations of this suite check
/// that mechanically), no silent misdecode:
///   1. every strict prefix of a valid config encoding, job frame and report
///      frame (truncation at each byte);
///   2. every single-bit flip of each (must throw or decode — and when it
///      decodes, re-encoding must reproduce the mutated bytes, i.e. the
///      decode was faithful and the frame has one canonical encoding);
///   3. a committed corpus (tests/corpus/config/*.bin): `ok_*` files must
///      decode and re-encode byte-identically, `bad_*` files must throw.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"

namespace {

using kagen::Config;
using kagen::GraphSpec;
using kagen::RunOptions;
using kagen::u64;
using kagen::u8;

std::vector<u8> encode(const GraphSpec& spec, u64 num_chunks) {
    std::vector<u8> out;
    kagen::encode_config(out, spec, num_chunks);
    return out;
}

/// Decodes a whole buffer and re-encodes it; throws where decode throws,
/// and on trailing bytes.
std::vector<u8> reencode_config(const std::vector<u8>& buf) {
    const u8* p   = buf.data();
    const u8* end = buf.data() + buf.size();
    u64 num_chunks       = 0;
    const GraphSpec spec = kagen::decode_config(p, end, &num_chunks);
    if (p != end) throw std::runtime_error("trailing bytes after the config");
    return encode(spec, num_chunks);
}

std::vector<u8> reencode_job(const std::vector<u8>& buf) {
    return kagen::net::encode_job(kagen::net::decode_job(buf));
}

std::vector<u8> reencode_report(const std::vector<u8>& buf) {
    return kagen::net::encode_report(kagen::net::decode_report(buf));
}

std::vector<u8> reencode_lease(const std::vector<u8>& buf) {
    return kagen::net::encode_lease(kagen::net::decode_lease(buf, 64));
}

/// A lease_data payload: the type tag, then the edges' bytes.
std::vector<u8> lease_data_payload(const std::vector<u8>& edge_bytes) {
    std::vector<u8> out;
    kagen::bytes::put_u64(out, static_cast<u64>(kagen::net::Msg::lease_data));
    out.insert(out.end(), edge_bytes.begin(), edge_bytes.end());
    return out;
}

std::vector<u8> reencode_lease_data(const std::vector<u8>& buf) {
    const kagen::net::LeaseData data = kagen::net::decode_lease_data(buf);
    return lease_data_payload(std::vector<u8>(data.bytes, data.bytes + 16 * data.edges));
}

std::vector<u8> reencode_lease_done(const std::vector<u8>& buf) {
    return kagen::net::encode_lease_done(kagen::net::decode_lease_done(buf));
}

/// A spec exercising every field with distinctive values.
GraphSpec rich_spec() {
    GraphSpec spec;
    spec.model           = kagen::Model::Rhg;
    spec.n               = 0x0123456789abcdefULL;
    spec.m               = 42;
    spec.p               = 0.001;
    spec.r               = 0.25;
    spec.avg_deg         = 16.5;
    spec.gamma           = 2.9;
    spec.ba_degree       = 7;
    spec.rmat_a          = 0.5;
    spec.rmat_b          = 0.3;
    spec.rmat_c          = 0.1;
    spec.seed            = 1337;
    spec.sampler_version = kagen::SamplerVersion::v2;
    spec.edge_semantics  = kagen::EdgeSemantics::exact_once;
    return spec;
}

kagen::net::JobSpec rich_job() {
    kagen::net::JobSpec job;
    job.graph             = rich_spec();
    job.task.rank         = 2;
    job.task.num_chunks   = 64;
    job.task.first        = {8, 12, 5000, 1234};
    job.task.threads      = 3;
    job.task.degree_stats = true;
    job.task.form_runs    = true;
    job.want_file         = true;
    job.send_file         = false;
    job.want_trace        = true;
    return job;
}

kagen::dist::RankReport rich_report() {
    kagen::dist::RankReport report;
    report.rank                       = 2;
    report.stats.num_chunks           = 4;
    report.stats.workers              = 3;
    report.stats.seconds              = 0.125;
    report.stats.peak_buffered_bytes  = 4096;
    report.stats.spilled_chunks       = 1;
    report.stats.spilled_bytes        = 960;
    report.stats.buffers_recycled     = 5;
    report.stats.buffers_allocated    = 6;
    report.leases                     = {{8, 12, 60}, {20, 21, 39}};
    report.file_edges           = 99;
    report.runs                 = {40, 30, 20};
    report.count.num_edges      = 99;
    report.has_degrees          = true;
    report.degrees.num_edges    = 99;
    report.degrees.degrees      = {5, 0, 7};
    return report;
}

kagen::dist::RankReport failure_report() {
    kagen::dist::RankReport report;
    report.rank  = 1;
    report.ok    = false;
    report.error = "injected";
    return report;
}

// ---------------------------------------------------------------------------
// What the identity covers
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "kagen_codec_" + std::to_string(::getpid()) + "_" + name;
}

/// The whole chunked output of `cfg` on P = 4 over four workers of a local
/// pool, through a file sink sized the way the tool sizes it.
std::string chunked_bytes(const Config& cfg) {
    const std::string path = tmp_path("out.bin");
    kagen::pe::ThreadPool pool(3);
    kagen::BinaryFileSink sink(path, static_cast<std::size_t>(cfg.sink_buffer_edges));
    kagen::generate_chunked(cfg, 4, sink, 4, &pool);
    sink.finish();
    std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(GraphIdentity, NoRunOptionChangesTheOutputOrTheEncoding) {
    Config base;
    base.model          = kagen::Model::GnmUndirected;
    base.n              = 4000;
    base.m              = 30000;
    base.seed           = 3;
    base.chunks_per_pe  = 4;
    base.edge_semantics = kagen::EdgeSemantics::exact_once;
    const std::string ref_bytes = chunked_bytes(base);
    const std::vector<u8> ref_encoding =
        encode(base, kagen::resolve_num_chunks(base, 4));
    ASSERT_GT(ref_bytes.size(), 8u);

    // One entry per RunOptions field. The structured binding stops compiling
    // when a field is added, so a new run option cannot skip this test.
    [[maybe_unused]] auto& [budget, spill, slab, buffer, sort, pin, trace, metrics] =
        static_cast<RunOptions&>(base);
    const std::vector<std::pair<const char*, std::function<void(RunOptions&)>>>
        perturbations = {
            {"max_buffered_bytes", [](RunOptions& r) { r.max_buffered_bytes = 4096; }},
            {"spill_path", [](RunOptions& r) { r.spill_path = tmp_path("spill.bin"); }},
            {"arena_slab_bytes", [](RunOptions& r) { r.arena_slab_bytes = 65536; }},
            {"sink_buffer_edges", [](RunOptions& r) { r.sink_buffer_edges = 100; }},
            {"sort_memory", [](RunOptions& r) { r.sort_memory = 1; }},
            {"pin_threads", [](RunOptions& r) { r.pin_threads = true; }},
            {"trace_path", [](RunOptions& r) { r.trace_path = tmp_path("trace.json"); }},
            {"metrics_path",
             [](RunOptions& r) { r.metrics_path = tmp_path("metrics.json"); }},
        };
    for (const auto& [field, perturb] : perturbations) {
        Config cfg = base;
        perturb(cfg);
        EXPECT_EQ(chunked_bytes(cfg), ref_bytes) << field << " changed the output";
        EXPECT_EQ(encode(cfg, kagen::resolve_num_chunks(cfg, 4)), ref_encoding)
            << field << " changed the encoding";
        std::remove(cfg.trace_path.c_str());
        std::remove(cfg.metrics_path.c_str());
    }
}

TEST(GraphIdentity, EveryGraphFieldAndTheChunkCountChangeTheEncoding) {
    const GraphSpec base      = rich_spec();
    const std::vector<u8> ref = encode(base, 64);
    // One entry per GraphSpec field; the binding pins the field count.
    GraphSpec probe = base;
    [[maybe_unused]] auto& [model, n, m, p, r, avg_deg, gamma, ba_degree, rmat_a, rmat_b,
                            rmat_c, seed, sampler, semantics] = probe;
    const std::vector<std::pair<const char*, std::function<void(GraphSpec&)>>>
        perturbations = {
            {"model", [](GraphSpec& s) { s.model = kagen::Model::RhgStreaming; }},
            {"n", [](GraphSpec& s) { s.n += 1; }},
            {"m", [](GraphSpec& s) { s.m += 1; }},
            {"p", [](GraphSpec& s) { s.p *= 2; }},
            {"r", [](GraphSpec& s) { s.r *= 2; }},
            {"avg_deg", [](GraphSpec& s) { s.avg_deg += 1; }},
            {"gamma", [](GraphSpec& s) { s.gamma += 0.1; }},
            {"ba_degree", [](GraphSpec& s) { s.ba_degree += 1; }},
            {"rmat_a", [](GraphSpec& s) { s.rmat_a -= 0.01; }},
            {"rmat_b", [](GraphSpec& s) { s.rmat_b -= 0.01; }},
            {"rmat_c", [](GraphSpec& s) { s.rmat_c -= 0.01; }},
            {"seed", [](GraphSpec& s) { s.seed += 1; }},
            {"sampler_version",
             [](GraphSpec& s) { s.sampler_version = kagen::SamplerVersion::v1; }},
            {"edge_semantics",
             [](GraphSpec& s) { s.edge_semantics = kagen::EdgeSemantics::as_generated; }},
        };
    for (const auto& [field, perturb] : perturbations) {
        GraphSpec spec = base;
        perturb(spec);
        EXPECT_NE(encode(spec, 64), ref) << field << " did not change the encoding";
    }
    EXPECT_NE(encode(base, 65), ref) << "C did not change the encoding";
}

TEST(GraphIdentity, KAndPEnterOnlyThroughTheResolvedChunkCount) {
    Config a;
    a.chunks_per_pe = 2;
    Config b        = a;
    b.chunks_per_pe = 4;
    EXPECT_EQ(kagen::resolve_num_chunks(a, 4), 8u);
    EXPECT_EQ(encode(a, kagen::resolve_num_chunks(a, 4)),
              encode(b, kagen::resolve_num_chunks(b, 2)));
    a.total_chunks = 10; // pinned: P and K no longer matter
    EXPECT_EQ(kagen::resolve_num_chunks(a, 7), 10u);
    a.chunks_per_pe = 0;
    EXPECT_THROW((void)kagen::resolve_num_chunks(a, 4), std::invalid_argument);
    EXPECT_THROW((void)kagen::resolve_num_chunks(b, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

TEST(ConfigCodec, RoundTripRich) {
    const std::vector<u8> buf = encode(rich_spec(), 64);
    EXPECT_EQ(reencode_config(buf), buf);
    const u8* p = buf.data();
    u64 num_chunks = 0;
    const GraphSpec back = kagen::decode_config(p, buf.data() + buf.size(), &num_chunks);
    EXPECT_EQ(num_chunks, 64u);
    EXPECT_EQ(back.n, rich_spec().n);
    EXPECT_EQ(back.gamma, rich_spec().gamma);
    EXPECT_EQ(back.edge_semantics, kagen::EdgeSemantics::exact_once);
}

TEST(ConfigCodec, RoundTripDefault) {
    const std::vector<u8> buf = encode(GraphSpec{}, 1);
    EXPECT_EQ(reencode_config(buf), buf);
}

/// Every strict prefix of `full` must throw; every single-bit flip must
/// throw or re-encode to exactly the mutated bytes.
void sweep(const char* what, const std::vector<u8>& full,
           const std::function<std::vector<u8>(const std::vector<u8>&)>& reencode) {
    ASSERT_EQ(reencode(full), full) << what << " does not round-trip";
    for (std::size_t len = 0; len < full.size(); ++len) {
        const std::vector<u8> cut(full.begin(), full.begin() + static_cast<long>(len));
        EXPECT_THROW((void)reencode(cut), std::runtime_error)
            << what << " prefix of length " << len << " decoded without error";
    }
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<u8> mut = full;
            mut[byte] = static_cast<u8>(mut[byte] ^ (1u << bit));
            try {
                EXPECT_EQ(reencode(mut), mut)
                    << what << ": unfaithful decode at byte " << byte << " bit " << bit;
            } catch (const std::runtime_error&) {
                // Rejected loudly: exactly the contract.
            }
        }
    }
}

TEST(ConfigCodec, EveryTruncationThrowsAndEveryBitFlipThrowsOrDecodesFaithfully) {
    sweep("config", encode(rich_spec(), 64), reencode_config);
}

TEST(ConfigCodec, UnknownEnumsAndVersionsRejected) {
    const std::vector<u8> good = encode(rich_spec(), 64);
    for (const auto& [word, value] : std::vector<std::pair<std::size_t, u8>>{
             {0, 1}, {0, 99}, {1, 0x7f}, {13, 2}, {14, 2}}) {
        std::vector<u8> buf = good;
        buf[word * 8]       = value; // version, model, sampler, semantics
        EXPECT_THROW((void)reencode_config(buf), std::runtime_error)
            << "word " << word << " = " << int{value};
    }
}

TEST(WireCodec, JobFrameSurvivesTruncationAndBitFlips) {
    sweep("job", kagen::net::encode_job(rich_job()), reencode_job);
}

TEST(WireCodec, ReportFramesSurviveTruncationAndBitFlips) {
    sweep("report", kagen::net::encode_report(rich_report()), reencode_report);
    sweep("failure report", kagen::net::encode_report(failure_report()),
          reencode_report);
}

// Every ChunkRunStats field crosses the wire: a report's stats decode to
// exactly what the rank folded.
TEST(WireCodec, ReportCarriesEveryStatsField) {
    const kagen::dist::RankReport report = rich_report();
    EXPECT_EQ(kagen::net::decode_report(kagen::net::encode_report(report)).stats,
              report.stats);
}

TEST(WireCodec, LeaseFramesSurviveTruncationAndBitFlips) {
    sweep("lease", kagen::net::encode_lease({8, 12, 5000, 1234}), reencode_lease);
    sweep("lease done", kagen::net::encode_lease({12, 12, 0}), reencode_lease);
    sweep("lease_done", kagen::net::encode_lease_done(99), reencode_lease_done);
    // A lease_data payload is as long as its frame says; with one edge every
    // strict prefix is a torn edge.
    std::vector<u8> edge(16);
    for (std::size_t i = 0; i < edge.size(); ++i) edge[i] = static_cast<u8>(i * 7 + 1);
    sweep("lease_data", lease_data_payload(edge), reencode_lease_data);
}

// A grant's slots must fit an output file, and lease_data must hold 1 to
// kLeaseDataEdges whole edges.
TEST(WireCodec, GrantSlotsAndLeaseDataSizesAreChecked) {
    const u64 max = kagen::net::kMaxOutputEdges;
    EXPECT_NO_THROW(kagen::net::decode_lease(kagen::net::encode_lease({0, 1, 5, max - 5}), 4));
    EXPECT_THROW(kagen::net::decode_lease(kagen::net::encode_lease({0, 1, 6, max - 5}), 4),
                 std::runtime_error);
    EXPECT_THROW(kagen::net::decode_lease(kagen::net::encode_lease({0, 1, 0, max + 1}), 4),
                 std::runtime_error);
    kagen::net::JobSpec job = rich_job();
    job.task.first          = {8, 12, max, 1};
    EXPECT_THROW(kagen::net::decode_job(kagen::net::encode_job(job)), std::runtime_error);
    job.task.first = {8, 12, 0, 0};
    job.place      = true; // and want_file: no rank file on a placed job
    EXPECT_THROW(kagen::net::decode_job(kagen::net::encode_job(job)), std::runtime_error);

    EXPECT_THROW(kagen::net::decode_lease_data(lease_data_payload({})), std::runtime_error);
    EXPECT_THROW(kagen::net::decode_lease_data(lease_data_payload(std::vector<u8>(17))),
                 std::runtime_error);
    const std::vector<u8> full(16 * kagen::net::kLeaseDataEdges);
    EXPECT_EQ(kagen::net::decode_lease_data(lease_data_payload(full)).edges,
              kagen::net::kLeaseDataEdges);
    EXPECT_LE(lease_data_payload(full).size(), kagen::net::kLeaseFrameBytes);
    EXPECT_THROW(kagen::net::decode_lease_data(
                     lease_data_payload(std::vector<u8>(full.size() + 16))),
                 std::runtime_error);
    EXPECT_THROW(kagen::net::decode_lease_data(kagen::net::encode_lease_done(3)),
                 std::runtime_error);
}

TEST(WireCodec, BoolsAreCanonical) {
    // The job's six flags are its last six words; a report's `ok` is its
    // third word (after type and rank), `has_degrees` a degree-less report's
    // last.
    const std::vector<u8> job = kagen::net::encode_job(rich_job());
    for (std::size_t k = 1; k <= 6; ++k) {
        std::vector<u8> bad = job;
        bad[bad.size() - 8 * k] = 2;
        EXPECT_THROW(kagen::net::decode_job(bad), std::runtime_error) << "flag " << k;
    }
    std::vector<u8> bad_ok = kagen::net::encode_report(failure_report());
    bad_ok[16]             = 2;
    EXPECT_THROW(kagen::net::decode_report(bad_ok), std::runtime_error);
    kagen::dist::RankReport plain = rich_report();
    plain.has_degrees             = false;
    std::vector<u8> bad_degrees   = kagen::net::encode_report(plain);
    bad_degrees[bad_degrees.size() - 8] = 2;
    EXPECT_THROW(kagen::net::decode_report(bad_degrees), std::runtime_error);
}

TEST(WireCodec, HugeStringLengthRejectedWithoutOverflow) {
    // A file frame whose path length claims 2^64 - 8 bytes: a naive
    // `p + size` bound check would wrap and pass.
    std::vector<u8> buf = kagen::net::encode_file({"", 42});
    for (int i = 0; i < 8; ++i) buf[8 + static_cast<std::size_t>(i)] = 0xff;
    buf[8] = 0xf8;
    EXPECT_THROW(kagen::net::decode_file(buf), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Committed corpus
// ---------------------------------------------------------------------------

TEST(ConfigCodecCorpus, CommittedFilesBehaveByName) {
    const std::filesystem::path dir = CONFIG_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t ok = 0, bad = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".bin") continue;
        const std::string name  = entry.path().filename().string();
        const std::string bytes = read_file(entry.path().string());
        const std::vector<u8> b(bytes.begin(), bytes.end());
        if (name.rfind("ok_", 0) == 0) {
            ++ok;
            std::vector<u8> re;
            ASSERT_NO_THROW(re = reencode_config(b)) << name;
            EXPECT_EQ(re, b) << name << " re-encode differs: not a canonical encoding";
        } else if (name.rfind("bad_", 0) == 0) {
            ++bad;
            const u8* p = b.data();
            u64 num_chunks = 0;
            EXPECT_THROW((void)kagen::decode_config(p, b.data() + b.size(), &num_chunks),
                         std::runtime_error)
                << name;
        } else {
            FAIL() << "corpus file " << name << " must be named ok_* or bad_*";
        }
    }
    // The corpus must actually exist — an empty directory would silently
    // turn this test into a no-op.
    EXPECT_GE(ok, 2u);
    EXPECT_GE(bad, 5u);
}

} // namespace
