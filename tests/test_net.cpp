// TCP workers: the transport matrix (tests/transport_matrix.hpp) over
// loopback worker threads, plus what only TCP has — endpoint parsing, the
// frame layer and message codecs (over socketpairs, no ports needed), a
// worker that never connects, a torn report frame, and a live worker that
// stalls past the job deadline — all erroring fast and naming the rank.
#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "transport_matrix.hpp"

namespace kagen {
namespace {

using testing::file_exists;
using testing::model_config;
using testing::Sabotage;
using testing::tmp_path;
using testing::Transport;
using testing::TransportMatrix;

INSTANTIATE_TEST_SUITE_P(Tcp, TransportMatrix,
                         ::testing::Values(Transport::tcp));

/// A connected AF_UNIX stream pair wrapped in two framed Sockets — the
/// frame layer is transport-agnostic, so unix sockets exercise it fully
/// without ports.
struct SocketPair {
    net::Socket a, b;
    SocketPair() {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Socket(fds[0]);
        b = net::Socket(fds[1]);
    }
};

// ---------------------------------------------------------------------------
// Endpoints and the frame layer
// ---------------------------------------------------------------------------

TEST(NetEndpoint, ParsesHostPortAndWildcard) {
    const net::Endpoint ep = net::parse_endpoint("example.org:5555");
    EXPECT_EQ(ep.host, "example.org");
    EXPECT_EQ(ep.port, 5555);
    const net::Endpoint wild = net::parse_endpoint(":80");
    EXPECT_TRUE(wild.host.empty());
    EXPECT_EQ(wild.port, 80);
    // IPv6 literals keep their colons; the LAST colon splits the port.
    EXPECT_EQ(net::parse_endpoint("::1:4242").port, 4242);
}

TEST(NetEndpoint, RejectsMalformedSpecs) {
    EXPECT_THROW(net::parse_endpoint(""), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("no-port"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:banana"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:70000"), std::invalid_argument);
    EXPECT_THROW(net::parse_endpoint("host:-1"), std::invalid_argument);
}

TEST(NetFrame, RoundTripsPayloads) {
    SocketPair pair;
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{4096}, std::size_t{100000}}) {
        std::vector<u8> sent(size);
        for (std::size_t i = 0; i < size; ++i) sent[i] = static_cast<u8>(i * 31);
        pair.a.send_frame(sent);
        std::vector<u8> got;
        ASSERT_TRUE(pair.b.recv_frame(got, 2000));
        EXPECT_EQ(got, sent);
    }
}

TEST(NetFrame, CleanEofBetweenFramesReturnsFalse) {
    SocketPair pair;
    pair.a.close();
    std::vector<u8> got;
    EXPECT_FALSE(pair.b.recv_frame(got, 2000));
}

TEST(NetFrame, TornFrameThrows) {
    SocketPair pair;
    // A valid header announcing 100 payload bytes, then death after 10.
    std::vector<u8> partial;
    bytes::put_u64(partial, net::kFrameMagic);
    bytes::put_u64(partial, 100);
    partial.resize(partial.size() + 10, u8{0xab});
    ASSERT_EQ(::send(pair.a.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    pair.a.close();
    std::vector<u8> got;
    try {
        pair.b.recv_frame(got, 2000);
        FAIL() << "torn frame must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, BadMagicThrows) {
    SocketPair pair;
    std::vector<u8> junk;
    bytes::put_u64(junk, 0xdeadbeefdeadbeefULL);
    bytes::put_u64(junk, 4);
    ASSERT_EQ(::send(pair.a.fd(), junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    std::vector<u8> got;
    EXPECT_THROW(pair.b.recv_frame(got, 2000), std::runtime_error);
}

TEST(NetFrame, DeadlineExpiresInsteadOfHanging) {
    SocketPair pair; // peer stays alive but silent
    std::vector<u8> got;
    const auto start = std::chrono::steady_clock::now();
    try {
        pair.b.recv_frame(got, 150);
        FAIL() << "silent peer must time out";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
            << e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              5000);
}

// ---------------------------------------------------------------------------
// Config + message codecs
// ---------------------------------------------------------------------------

TEST(NetCodec, ConfigRoundTripsEveryField) {
    Config cfg;
    cfg.model              = Model::Rhg;
    cfg.n                  = 123456;
    cfg.m                  = 789;
    cfg.p                  = 0.25;
    cfg.r                  = 0.0625;
    cfg.avg_deg            = 6.5;
    cfg.gamma              = 2.9;
    cfg.ba_degree          = 3;
    cfg.rmat_a             = 0.5;
    cfg.rmat_b             = 0.3;
    cfg.rmat_c             = 0.1;
    cfg.seed               = 424242;
    cfg.chunks_per_pe      = 5;
    cfg.total_chunks       = 40;
    cfg.max_buffered_bytes = 1 << 20;
    cfg.spill_path         = "/tmp/spill.scratch";
    cfg.sink_buffer_edges  = 512;
    cfg.pin_threads        = true;
    cfg.num_processes      = 3;
    cfg.sampler_version    = SamplerVersion::v2;
    cfg.edge_semantics     = EdgeSemantics::exact_once;

    std::vector<u8> buf;
    encode_config(buf, cfg);
    const u8* p       = buf.data();
    const u8* end     = p + buf.size();
    const Config back = decode_config(p, end);
    EXPECT_EQ(p, end) << "decode must consume the encoding exactly";
    EXPECT_EQ(back.model, cfg.model);
    EXPECT_EQ(back.n, cfg.n);
    EXPECT_EQ(back.m, cfg.m);
    EXPECT_EQ(back.p, cfg.p);
    EXPECT_EQ(back.r, cfg.r);
    EXPECT_EQ(back.avg_deg, cfg.avg_deg);
    EXPECT_EQ(back.gamma, cfg.gamma);
    EXPECT_EQ(back.ba_degree, cfg.ba_degree);
    EXPECT_EQ(back.rmat_a, cfg.rmat_a);
    EXPECT_EQ(back.rmat_b, cfg.rmat_b);
    EXPECT_EQ(back.rmat_c, cfg.rmat_c);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.chunks_per_pe, cfg.chunks_per_pe);
    EXPECT_EQ(back.total_chunks, cfg.total_chunks);
    EXPECT_EQ(back.max_buffered_bytes, cfg.max_buffered_bytes);
    EXPECT_EQ(back.spill_path, cfg.spill_path);
    EXPECT_EQ(back.sink_buffer_edges, cfg.sink_buffer_edges);
    EXPECT_EQ(back.pin_threads, cfg.pin_threads);
    EXPECT_EQ(back.num_processes, cfg.num_processes);
    EXPECT_EQ(back.sampler_version, cfg.sampler_version);
    EXPECT_EQ(back.edge_semantics, cfg.edge_semantics);
}

TEST(NetCodec, ConfigRejectsUnknownVersionAndEnums) {
    Config cfg;
    std::vector<u8> buf;
    encode_config(buf, cfg);
    {
        std::vector<u8> bad = buf;
        bad[0] ^= 0xff; // corrupt the version word
        const u8* p   = bad.data();
        const u8* end = p + bad.size();
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
    {
        std::vector<u8> bad = buf;
        bad[8] = 0xee; // model id far outside the enum
        const u8* p   = bad.data();
        const u8* end = p + bad.size();
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
    { // truncation must throw, not read past the end
        const u8* p   = buf.data();
        const u8* end = p + buf.size() / 2;
        EXPECT_THROW(decode_config(p, end), std::runtime_error);
    }
}

TEST(NetCodec, JobAndReportRoundTrip) {
    net::JobSpec job;
    job.cfg               = model_config(Model::GnmUndirected);
    job.task.rank         = 2;
    job.task.num_chunks   = 16;
    job.task.chunk_begin  = 8;
    job.task.chunk_end    = 12;
    job.task.threads      = 3;
    job.task.degree_stats = true;
    job.task.rank_path    = "/never/crosses/the/wire";
    job.want_file         = true;
    job.send_file         = false;
    job.want_trace        = true;
    const net::JobSpec back = net::decode_job(net::encode_job(job));
    EXPECT_EQ(back.want_trace, job.want_trace);
    EXPECT_EQ(back.task.rank, job.task.rank);
    EXPECT_EQ(back.task.num_chunks, job.task.num_chunks);
    EXPECT_EQ(back.task.chunk_begin, job.task.chunk_begin);
    EXPECT_EQ(back.task.chunk_end, job.task.chunk_end);
    EXPECT_EQ(back.task.threads, job.task.threads);
    EXPECT_EQ(back.task.degree_stats, job.task.degree_stats);
    EXPECT_EQ(back.task.rank_path, "") << "the worker picks its own rank path";
    EXPECT_EQ(back.want_file, job.want_file);
    EXPECT_EQ(back.send_file, job.send_file);
    EXPECT_EQ(back.cfg.n, job.cfg.n);
    EXPECT_EQ(back.cfg.seed, job.cfg.seed);

    dist::RankReport report;
    report.rank        = 2;
    report.ok          = false;
    report.error       = "injected";
    report.chunk_begin = 8;
    report.chunk_end   = 12;
    const dist::RankReport rback =
        net::decode_report(net::encode_report(report));
    EXPECT_EQ(rback.rank, report.rank);
    EXPECT_EQ(rback.ok, report.ok);
    EXPECT_EQ(rback.error, report.error);

    net::JobSpec bad   = job;
    bad.task.chunk_end = 99; // past num_chunks
    EXPECT_THROW(net::decode_job(net::encode_job(bad)), std::runtime_error);

    // A job frame must never decode as a report and vice versa.
    EXPECT_THROW(net::decode_report(net::encode_job(job)), std::runtime_error);
    EXPECT_THROW(net::decode_job(net::encode_report(report)),
                 std::runtime_error);
}

TEST(NetCodec, FileAndVerdictRoundTripAndRejectCorruption) {
    const net::FileInfo info =
        net::decode_file(net::encode_file({"/scratch/r3.bin", 42}));
    EXPECT_EQ(info.path, "/scratch/r3.bin");
    EXPECT_EQ(info.edges, 42u);
    EXPECT_TRUE(net::decode_verdict(net::encode_verdict(true)));
    EXPECT_FALSE(net::decode_verdict(net::encode_verdict(false)));

    std::vector<u8> bad_verdict = net::encode_verdict(true);
    bad_verdict[8]              = 2; // neither keep nor discard
    EXPECT_THROW(net::decode_verdict(bad_verdict), std::runtime_error);
    EXPECT_THROW(net::decode_verdict(net::encode_file(info)), std::runtime_error);
    std::vector<u8> trailing = net::encode_verdict(false);
    trailing.push_back(0);
    EXPECT_THROW(net::decode_verdict(trailing), std::runtime_error);
}

TEST(NetCodec, HelloRejectsOtherProtocolVersions) {
    EXPECT_NO_THROW(net::decode_hello(net::encode_hello()));
    for (const u64 version : {net::kProtocolVersion - 1, net::kProtocolVersion + 1}) {
        std::vector<u8> hello;
        bytes::put_u64(hello, 1); // Msg::hello
        bytes::put_u64(hello, version);
        EXPECT_THROW(net::decode_hello(hello), std::runtime_error) << version;
    }
}

TEST(NetCodec, TelemetryMessageRoundTripsAndRejectsCorruption) {
    obs::RankTelemetry t;
    t.rank          = 1;
    t.clock_base_ns = 123456;
    obs::TraceEvent ev;
    ev.begin_ns = 10;
    ev.dur_ns   = 5;
    ev.phase    = obs::Phase::generate;
    t.events.push_back(ev);
    t.metrics.counters["pe.chunks"] = {4, obs::MergeKind::sum};

    const std::vector<u8> wire    = net::encode_telemetry(t);
    const obs::RankTelemetry back = net::decode_telemetry(wire);
    EXPECT_EQ(back.rank, 1u);
    EXPECT_EQ(back.clock_base_ns, 123456u);
    ASSERT_EQ(back.events.size(), 1u);
    EXPECT_EQ(back.events[0].phase, obs::Phase::generate);
    EXPECT_EQ(back.metrics.counter_or("pe.chunks"), 4u);

    // Wrong message type behind the tag.
    dist::RankReport report;
    report.rank = 1;
    EXPECT_THROW(net::decode_telemetry(net::encode_report(report)),
                 std::runtime_error);
    EXPECT_THROW(net::decode_report(net::encode_telemetry(t)),
                 std::runtime_error);

    // Torn frame: every proper prefix must be rejected, not mis-decoded.
    for (const std::size_t cut :
         {wire.size() - 1, wire.size() / 2, std::size_t{12}}) {
        const std::vector<u8> torn(wire.begin(),
                                   wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(net::decode_telemetry(torn), std::runtime_error)
            << "cut at " << cut;
    }
    // Trailing garbage after a well-formed telemetry body.
    std::vector<u8> oversized = wire;
    oversized.insert(oversized.end(), 64, u8{0});
    EXPECT_THROW(net::decode_telemetry(oversized), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Failure containment: fail fast, name the rank, leave no partial files
// ---------------------------------------------------------------------------

TEST(NetFailure, WorkerNeverConnectsWithinDeadline) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener           = &listener;
    opts.expect_workers     = 1;
    opts.connect_timeout_ms = 200;
    const auto start = std::chrono::steady_clock::now();
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "no worker ever connected; the coordinator must not hang";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("never connected"), std::string::npos) << msg;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              10000);
}

TEST(NetFailure, TornReportErrorsFastNamingTheRank) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 1;
    opts.output_path    = tmp_path("torn.bin");
    std::thread saboteur(testing::sabotaged_worker, listener.port(),
                         Sabotage::torn_report);
    const auto start = std::chrono::steady_clock::now();
    try {
        net::run_net_coordinator(cfg, opts);
        ADD_FAILURE() << "a torn report must fail the run";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    }
    saboteur.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              10000)
        << "a torn frame must surface at once, not as a hang";
    EXPECT_FALSE(file_exists(opts.output_path));
}

TEST(NetFailure, SilentWorkerHitsTheJobDeadline) {
    Config cfg = model_config(Model::GnmUndirected);
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener        = &listener;
    opts.expect_workers  = 1;
    opts.job_deadline_ms = 300;
    // Alive-but-silent worker: handshakes, takes the job, then stalls past
    // the deadline without closing the socket.
    std::thread stalled([port = listener.port()] {
        net::Socket sock = net::connect_to(
            net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
        sock.send_frame(net::encode_hello());
        std::vector<u8> payload;
        ASSERT_TRUE(sock.recv_frame(payload, 2000));
        ASSERT_TRUE(sock.recv_frame(payload, 2000)); // the job
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    });
    try {
        net::run_net_coordinator(cfg, opts);
        FAIL() << "a stalled worker must hit the job deadline";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    }
    stalled.join();
}

TEST(NetCoordinator, RejectsContradictoryOptions) {
    const Config cfg = model_config(Model::GnmUndirected);
    {
        net::NetOptions opts; // neither listen nor connect
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.listen = ":0"; // listen without expect_workers
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.connect        = {"127.0.0.1:1", "127.0.0.1:2"};
        opts.expect_workers = 3; // contradicts connect.size()
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
    {
        net::NetOptions opts;
        opts.listen         = ":0";
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("x.bin");
        opts.manifest_path  = tmp_path("x.manifest"); // both output modes
        EXPECT_THROW(net::run_net_coordinator(cfg, opts), std::invalid_argument);
    }
}

} // namespace
} // namespace kagen
