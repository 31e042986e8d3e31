// TCP workers: the transport matrix (tests/transport_matrix.hpp) over
// loopback worker threads, plus what only TCP has — endpoint parsing, the
// frame layer, the multi-socket poll and message codecs (over socketpairs,
// no ports needed), a worker that never connects, a torn report frame, a
// live worker that stalls past the lease deadline, lease tables that differ
// from the leases granted, and placed lease data that does not fill its
// slots exactly — all erroring fast and naming the rank.
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
// Message codecs (the truncation/bit-flip sweeps of the config, job and
// report codecs live in test_config_codec.cpp)
// ---------------------------------------------------------------------------

TEST(NetCodec, JobAndReportRoundTrip) {
    net::JobSpec job;
    job.graph             = model_config(Model::GnmUndirected);
    job.task.rank         = 2;
    job.task.num_chunks   = 16;
    job.task.first        = {8, 12, 700, 3000};
    job.task.threads      = 3;
    job.task.degree_stats = true;
    job.task.form_runs    = true;
    job.task.rank_path    = "/never/crosses/the/wire";
    job.want_file         = true;
    job.send_file         = false;
    job.want_trace        = true;
    const net::JobSpec back = net::decode_job(net::encode_job(job));
    EXPECT_EQ(back.want_trace, job.want_trace);
    EXPECT_EQ(back.task.rank, job.task.rank);
    EXPECT_EQ(back.task.num_chunks, job.task.num_chunks);
    EXPECT_EQ(back.task.first, job.task.first);
    EXPECT_EQ(back.task.threads, job.task.threads);
    EXPECT_EQ(back.task.degree_stats, job.task.degree_stats);
    EXPECT_EQ(back.task.form_runs, job.task.form_runs);
    EXPECT_EQ(back.task.rank_path, "") << "the worker picks its own rank path";
    EXPECT_EQ(back.want_file, job.want_file);
    EXPECT_EQ(back.send_file, job.send_file);
    EXPECT_EQ(back.place, job.place);
    EXPECT_FALSE(back.task.placed.active()) << "the worker sets up its own placement";
    EXPECT_EQ(back.graph.n, job.graph.n);
    EXPECT_EQ(back.graph.seed, job.graph.seed);

    dist::RankReport report;
    report.rank   = 2;
    report.ok     = false;
    report.error  = "injected";
    report.leases = {{8, 12, 5}}; // a failure report carries no table
    const dist::RankReport rback =
        net::decode_report(net::encode_report(report));
    EXPECT_EQ(rback.rank, report.rank);
    EXPECT_EQ(rback.ok, report.ok);
    EXPECT_EQ(rback.error, report.error);
    EXPECT_TRUE(rback.leases.empty());

    net::JobSpec bad   = job;
    bad.task.first.chunk_end = 99; // past num_chunks
    EXPECT_THROW(net::decode_job(net::encode_job(bad)), std::runtime_error);
    net::JobSpec fileless = job;
    fileless.want_file    = false; // runs of a rank file never written
    EXPECT_THROW(net::decode_job(net::encode_job(fileless)), std::runtime_error);

    dist::RankReport ok;
    ok.rank       = 1;
    ok.file_edges = 10;
    ok.runs       = {6, 3};
    ok.leases     = {{0, 3, 4}, {9, 10, 6}};
    const dist::RankReport okback = net::decode_report(net::encode_report(ok));
    EXPECT_EQ(okback.runs, ok.runs);
    EXPECT_EQ(okback.leases, ok.leases);

    // A job frame must never decode as a report and vice versa.
    EXPECT_THROW(net::decode_report(net::encode_job(job)), std::runtime_error);
    EXPECT_THROW(net::decode_job(net::encode_report(report)),
                 std::runtime_error);
}

TEST(NetCodec, LeaseMessagesRoundTripAndRejectBadRanges) {
    const dist::Lease grant{3, 9, 41, 120};
    EXPECT_EQ(net::decode_lease(net::encode_lease(grant), 16), grant)
        << "a grant carries its range, first slot and edge count";
    const dist::Lease done = net::decode_lease(net::encode_lease({5, 5, 0}), 16);
    EXPECT_EQ(done.chunk_begin, done.chunk_end) << "done decodes as an empty range";
    EXPECT_EQ(net::decode_lease_done(net::encode_lease_done(77)), 77u);
    EXPECT_EQ(net::peek_type(net::encode_lease_done(1)), net::Msg::lease_done);
    EXPECT_EQ(net::peek_type({}), net::Msg{0});
    // Past C, or reversed: a malformed range never reaches run_chunked.
    EXPECT_THROW(net::decode_lease(net::encode_lease({3, 17, 0}), 16), std::runtime_error);
    std::vector<u8> reversed = net::encode_lease({3, 9, 0});
    reversed[16] = 10; // chunk_begin 10 > chunk_end 9
    EXPECT_THROW(net::decode_lease(reversed, 16), std::runtime_error);
    EXPECT_THROW(net::decode_lease_done(net::encode_lease({3, 9, 0})), std::runtime_error);
    EXPECT_THROW(net::decode_lease(net::encode_lease_done(3), 16), std::runtime_error);
}

// lease_data leaves straight from the caller's edges, split into frames the
// coordinator's 1 MiB receive buffer holds; the frames concatenate to them.
TEST(NetCodec, LeaseDataSplitsIntoFramesOfAtMostOneMiB) {
    SocketPair pair;
    const std::size_t count = net::kLeaseDataEdges + 5;
    EdgeList edges(count);
    for (std::size_t i = 0; i < count; ++i) edges[i] = {i, 3 * i + 1};
    std::thread sender([&] { net::send_lease_data(pair.a, edges.data(), count); });
    EdgeList got;
    std::vector<u8> payload;
    std::vector<u64> frames;
    while (got.size() < count) {
        ASSERT_TRUE(pair.b.recv_frame(payload, 2000, net::kLeaseFrameBytes));
        const net::LeaseData data = net::decode_lease_data(payload);
        frames.push_back(data.edges);
        const std::size_t at = got.size();
        got.resize(at + data.edges);
        std::memcpy(got.data() + at, data.bytes, 16 * data.edges);
    }
    sender.join();
    EXPECT_EQ(frames, (std::vector<u64>{net::kLeaseDataEdges, 5}));
    EXPECT_EQ(got, edges);
    EXPECT_LE(payload.capacity(), net::kLeaseFrameBytes);
}

TEST(NetFrame, PollReadableReportsOnlyReadySockets) {
    SocketPair quiet, busy, closed;
    busy.a.send_frame({1, 2, 3});
    closed.a.close(); // EOF counts as readable: the receive reports it
    const std::vector<const net::Socket*> socks = {&quiet.b, &busy.b, &closed.b};
    EXPECT_EQ(net::poll_readable(socks, 2000), (std::vector<std::size_t>{1, 2}));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(net::poll_readable({&quiet.b}, 100).empty()) << "timeout: none ready";
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              90);
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
        EXPECT_NE(msg.find("chunks [0, 1)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    }
    stalled.join();
}

// A real worker that stalls in the middle of its lease loop: the deadline
// bounds each lease, so the run fails naming the rank and the lease it held
// (C = 8 over two workers: rank 1's first lease is [2, 4)), with no output.
TEST(NetFailure, WorkerStalledMidLeaseHitsTheLeaseDeadline) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.total_chunks = 8;
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener        = &listener;
    opts.expect_workers  = 2;
    opts.job_deadline_ms = 300;
    opts.output_path     = tmp_path("stalled_lease.bin");
    net::NetWorkerOptions wopts;
    wopts.lease_hook = [](u64 rank, const dist::Lease&) {
        if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    };
    std::string message;
    {
        testing::WorkerFleet fleet(listener.port(), 2, wopts);
        try {
            net::run_net_coordinator(cfg, opts);
            ADD_FAILURE() << "a stalled lease must fail the run";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
    }
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("chunks [2, 4)"), std::string::npos) << message;
    EXPECT_NE(message.find("timed out"), std::string::npos) << message;
    EXPECT_FALSE(file_exists(opts.output_path));
}

/// A fake TCP worker that runs its leases honestly, `per_lease` edges each,
/// then sends a report whose lease table `doctor` edits, and waits for the
/// coordinator to hang up.
void fake_lease_worker(std::uint16_t port, u64 per_lease,
                       const std::function<void(dist::RankReport&)>& doctor) {
    net::Socket sock = net::connect_to(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
    sock.send_frame(net::encode_hello());
    std::vector<u8> payload;
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    const net::JobSpec job = net::decode_job(sock.recv_message(2000, "job"));
    dist::RankReport report;
    report.rank = job.task.rank;
    dist::Lease lease{job.task.first.chunk_begin, job.task.first.chunk_end, per_lease};
    while (lease.chunk_begin < lease.chunk_end) {
        report.leases.push_back(lease);
        report.count.num_edges += per_lease;
        sock.send_frame(net::encode_lease_done(per_lease));
        lease       = net::decode_lease(sock.recv_message(2000, "lease"), job.task.num_chunks);
        lease.edges = per_lease;
    }
    report.count.semantics = job.graph.edge_semantics;
    report.file_edges      = job.want_file ? report.count.num_edges : 0;
    doctor(report);
    try {
        sock.send_frame(net::encode_report(report));
        (void)sock.recv_frame(payload, 2000); // until the coordinator hangs up
    } catch (const std::exception&) {
    }
}

// The coordinator places every rank-file segment by the edge counts of the
// lease_done messages, so a report whose lease table differs from the
// leases it granted — a gap, an overlap, a lease left out or never granted,
// a wrong edge count, or edges that do not sum to the rank file's — fails
// the run naming the rank and the chunk range, with no output left.
// One worker, C = 4: the leases are [0, 2), [2, 3) and [3, 4), 5 edges each.
// An unsized model, so the job gathers a rank file (a placed job's grants
// carry the counts instead: PlacedLeaseDataMustFillExactlyItsSlots).
TEST(NetFailure, LeaseTablesThatDifferFromTheGrantAreRejected) {
    Config cfg       = model_config(Model::Rgg2D);
    cfg.total_chunks = 4;
    struct Case {
        const char* what;
        std::function<void(dist::RankReport&)> doctor;
        const char* expect;
    };
    const std::vector<Case> cases = {
        {"gap", [](dist::RankReport& r) { r.leases.erase(r.leases.begin() + 1); },
         "lists chunks [3, 4) where it was leased chunks [2, 3)"},
        {"overlap", [](dist::RankReport& r) { r.leases[1].chunk_begin = 1; },
         "lists chunks [1, 3) where it was leased chunks [2, 3)"},
        {"left out", [](dist::RankReport& r) { r.leases.pop_back(); },
         "omits its lease of chunks [3, 4)"},
        {"never granted", [](dist::RankReport& r) { r.leases.push_back({4, 5, 0}); },
         "chunks [4, 5), which were never leased"},
        {"edge count", [](dist::RankReport& r) { r.leases[2].edges = 6; },
         "gives chunks [3, 4) 6 edges, its lease_done said 5"},
        {"sum",
         [](dist::RankReport& r) {
             r.count.num_edges = 16;
             r.file_edges      = 16;
         },
         "sum to 15, but its rank file has 16"},
    };
    for (const Case& c : cases) {
        net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
        net::NetOptions opts;
        opts.listener       = &listener;
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("badleases.bin");
        std::thread worker(fake_lease_worker, listener.port(), 5, c.doctor);
        std::string message;
        try {
            net::run_net_coordinator(cfg, opts);
            ADD_FAILURE() << c.what << ": the coordinator accepted the lease table";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        worker.join();
        EXPECT_NE(message.find("rank 0"), std::string::npos) << c.what << ": " << message;
        EXPECT_NE(message.find(c.expect), std::string::npos) << c.what << ": " << message;
        EXPECT_FALSE(file_exists(opts.output_path)) << c.what << ": partial output";
    }
}

/// The first byte of `bytes` outside [begin, end) that is not 0, or npos.
std::size_t stray_byte(const std::string& bytes, std::size_t begin, std::size_t end) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if ((i < begin || i >= end) && bytes[i] != 0) return i;
    }
    return std::string::npos;
}

/// What a fake placed worker does wrong on its second lease.
enum class DataFault { more, fewer, torn };

/// A fake TCP worker on a placed job: streams its first lease honestly
/// (every byte 0xab), then on its second sends one edge more or fewer than
/// the grant, or dies in the middle of a lease_data frame.
void fake_placed_worker(std::uint16_t port, DataFault fault) {
    net::Socket sock = net::connect_to(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
    sock.send_frame(net::encode_hello());
    std::vector<u8> payload;
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    const net::JobSpec job = net::decode_job(sock.recv_message(2000, "job"));
    ASSERT_TRUE(job.place && job.send_file);
    try {
        dist::Lease lease = job.task.first;
        const EdgeList pattern(lease.edges + 1, Edge{0xababababababababULL, 0xababababababababULL});
        net::send_lease_data(sock, pattern.data(), lease.edges);
        sock.send_frame(net::encode_lease_done(lease.edges));
        lease = net::decode_lease(sock.recv_message(2000, "lease"), job.task.num_chunks);
        if (fault == DataFault::torn) {
            std::vector<u8> partial;
            bytes::put_u64(partial, net::kFrameMagic);
            bytes::put_u64(partial, 8 + 16 * lease.edges);
            bytes::put_u64(partial, static_cast<u64>(net::Msg::lease_data));
            partial.resize(partial.size() + 40, u8{0xab});
            ASSERT_EQ(::send(sock.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
                      static_cast<ssize_t>(partial.size()));
            sock.close();
            return;
        }
        const EdgeList more(lease.edges + 1, pattern.front());
        net::send_lease_data(sock, more.data(),
                             fault == DataFault::more ? lease.edges + 1 : lease.edges - 1);
        sock.send_frame(net::encode_lease_done(lease.edges));
        (void)sock.recv_frame(payload, 2000); // until the coordinator hangs up
    } catch (const std::exception&) {
    }
}

// The coordinator writes a placed lease's data only into that lease's slots:
// a rank that sends more edges than its grant, fewer, or a torn frame fails
// the run naming the rank and the lease, nothing lands outside the slots of
// the leases it was granted (a link to -o keeps what was written), and no
// -o is left. One worker, C = 4: its leases are [0, 2), [2, 3) and [3, 4).
TEST(NetFailure, PlacedLeaseDataMustFillExactlyItsSlots) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.total_chunks = 4;
    const std::vector<u64> counts = chunk_edge_counts(cfg, 4);
    const std::size_t lease0_begin = 8;
    const std::size_t lease1_begin = 8 + 16 * (counts[0] + counts[1]);
    const std::size_t lease1_end   = lease1_begin + 16 * counts[2];
    struct Case {
        DataFault fault;
        const char* expect;
        std::size_t written_end; ///< nothing at or past this offset
    };
    for (const Case& c : {Case{DataFault::more, "past the", lease1_begin},
                          Case{DataFault::fewer, "finished after sending", lease1_end},
                          Case{DataFault::torn, "torn", lease1_begin}}) {
        net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
        net::NetOptions opts;
        opts.listener       = &listener;
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("badplaced.bin");
        const std::string witness = testing::link_witness(opts.output_path);
        std::thread worker(fake_placed_worker, listener.port(), c.fault);
        std::string message;
        try {
            net::run_net_coordinator(cfg, opts);
            ADD_FAILURE() << c.expect << ": the coordinator accepted the lease data";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        worker.join();
        EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
        EXPECT_NE(message.find("chunks [2, 3)"), std::string::npos) << message;
        EXPECT_NE(message.find(c.expect), std::string::npos) << message;
        EXPECT_FALSE(file_exists(opts.output_path)) << c.expect << ": output left";
        const std::string written = testing::read_bytes(witness);
        EXPECT_EQ(stray_byte(written, lease0_begin, c.written_end), std::string::npos)
            << c.expect << ": a byte outside the granted slots was written";
        EXPECT_EQ(written.substr(lease0_begin, 16 * (counts[0] + counts[1])),
                  std::string(16 * (counts[0] + counts[1]), '\xab'))
            << c.expect << ": the honest first lease is placed";
        std::remove(witness.c_str());
    }
}

/// A fake TCP worker on a dedup job: answers with a report of `edges`
/// file edges and the run table `runs`, then streams `edges` rank-file
/// edges and `run_edges` as its runs. Once the coordinator has rejected
/// the run, the socket may be gone; the worker just stops.
void fake_dedup_worker(std::uint16_t port, u64 edges, std::vector<u64> runs,
                       EdgeList run_edges) {
    net::Socket sock = net::connect_to(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
    sock.send_frame(net::encode_hello());
    std::vector<u8> payload;
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    const net::JobSpec job = net::decode_job(payload);
    ASSERT_TRUE(job.task.form_runs);
    // One rank: the job's first lease, then the rest; all edges in the first.
    dist::RankReport report;
    dist::Lease lease{job.task.first.chunk_begin, job.task.first.chunk_end, edges};
    while (lease.chunk_begin < lease.chunk_end) {
        report.leases.push_back(lease);
        sock.send_frame(net::encode_lease_done(lease.edges));
        lease = net::decode_lease(sock.recv_message(2000, "lease"), job.task.num_chunks);
    }
    report.rank            = job.task.rank;
    report.file_edges      = edges;
    report.count.semantics = job.graph.edge_semantics;
    report.count.num_edges = edges;
    report.runs            = std::move(runs);
    try {
        sock.send_frame(net::encode_report(report));
        sock.send_frame(net::encode_file({"/fake/rank.bin", edges}));
        const EdgeList file(edges, Edge{0, 1});
        for (const EdgeList* part : {&file, static_cast<const EdgeList*>(&run_edges)}) {
            const auto* p    = reinterpret_cast<const char*>(part->data());
            std::size_t left = part->size() * sizeof(Edge);
            while (left > 0) {
                const ssize_t n = ::send(sock.fd(), p, left, MSG_NOSIGNAL);
                if (n <= 0) return;
                p += n;
                left -= static_cast<std::size_t>(n);
            }
        }
        (void)sock.recv_frame(payload, 2000); // until the coordinator hangs up
    } catch (const std::exception&) {
    }
}

// The coordinator trusts no run table: one holding more edges than the rank
// file, or a run that does not strictly increase, fails the run naming the
// rank, and leaves neither output nor dedup file behind.
TEST(NetFailure, BadRunTablesAndRunsAreRejectedNamingTheRank) {
    const Config cfg = model_config(Model::GnmUndirected);
    struct Case {
        const char* what;
        std::vector<u64> runs;
        EdgeList run_edges;
        const char* expect;
    };
    const std::vector<Case> cases = {
        {"lengths past file_edges", {3, 3}, {}, "more edges than the rank file"},
        {"empty run", {2, 0}, {}, "run 1 is empty"},
        {"repeated edge", {3}, {{0, 1}, {0, 2}, {0, 2}}, "does not strictly increase"},
        {"descending run", {2, 2}, {{0, 1}, {0, 2}, {1, 1}, {0, 3}},
         "does not strictly increase"},
    };
    for (const Case& c : cases) {
        net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
        net::NetOptions opts;
        opts.listener       = &listener;
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("badruns.bin");
        opts.dedup_path     = tmp_path("badruns.dd");
        std::thread worker(fake_dedup_worker, listener.port(), 4, c.runs, c.run_edges);
        std::string message;
        try {
            net::run_net_coordinator(cfg, opts);
            ADD_FAILURE() << c.what << ": the coordinator accepted the runs";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        worker.join();
        EXPECT_NE(message.find("rank 0"), std::string::npos) << c.what << ": " << message;
        EXPECT_NE(message.find(c.expect), std::string::npos) << c.what << ": " << message;
        EXPECT_FALSE(file_exists(opts.dedup_path)) << c.what << ": partial dedup file";
        std::remove(opts.output_path.c_str());
    }
}

// The coordinator answers every hello before its count pass (O(C²) for
// undirected G(n,m): tens of ms here on four cores), so a worker whose
// handshake deadline is far shorter than that pass still gets its job,
// whose receive has no deadline.
TEST(NetCoordinator, CountPassRunsAfterTheHandshake) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.n            = 20000;
    cfg.m            = 100000;
    cfg.total_chunks = 1024;
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = 1;
    opts.output_path    = tmp_path("count_after_hello.bin");
    net::NetWorkerOptions wopts;
    wopts.connect_timeout_ms = 10;
    testing::WorkerFleet fleet(listener.port(), 1, wopts);
    try {
        const net::RunResult res = net::run_net_coordinator(cfg, opts);
        EXPECT_EQ(res.placed_bytes, 16 * res.count.num_edges);
        EXPECT_EQ(testing::read_bytes(opts.output_path).size(), 8 + res.placed_bytes);
    } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
    }
    fleet.join();
    EXPECT_EQ(fleet.errors()[0], "");
    std::remove(opts.output_path.c_str());
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
