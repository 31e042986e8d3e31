#include "sink/sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/fileio.hpp"
#include "obs/trace.hpp"

namespace kagen {

// ---------------------------------------------------------------------------
// Mergeable summaries
// ---------------------------------------------------------------------------

namespace {

EdgeSemantics semantics_from_wire(u64 value) {
    switch (value) {
        case 0: return EdgeSemantics::as_generated;
        case 1: return EdgeSemantics::exact_once;
    }
    throw std::runtime_error("summary: unknown edge semantics tag " +
                             std::to_string(value));
}

u64 semantics_to_wire(EdgeSemantics semantics) {
    return semantics == EdgeSemantics::exact_once ? 1 : 0;
}

} // namespace

void CountingSummary::merge(const CountingSummary& other) {
    if (semantics != other.semantics) {
        throw std::invalid_argument(
            "CountingSummary::merge: semantics mismatch (" +
            std::string(semantics_name(semantics)) + " vs " +
            semantics_name(other.semantics) + ")");
    }
    num_edges += other.num_edges;
    num_self_loops += other.num_self_loops;
}

std::string CountingSummary::str() const {
    return "edges[" + std::string(semantics_name(semantics)) +
           "]=" + std::to_string(num_edges) +
           " self_loops=" + std::to_string(num_self_loops);
}

void CountingSummary::serialize(std::vector<u8>& out) const {
    bytes::put_u64(out, semantics_to_wire(semantics));
    bytes::put_u64(out, num_edges);
    bytes::put_u64(out, num_self_loops);
}

CountingSummary CountingSummary::deserialize(const u8*& p, const u8* end) {
    CountingSummary s;
    s.semantics      = semantics_from_wire(bytes::get_u64(p, end));
    s.num_edges      = bytes::get_u64(p, end);
    s.num_self_loops = bytes::get_u64(p, end);
    return s;
}

void DegreeStatsSummary::merge(const DegreeStatsSummary& other) {
    if (semantics != other.semantics) {
        throw std::invalid_argument(
            "DegreeStatsSummary::merge: semantics mismatch (" +
            std::string(semantics_name(semantics)) + " vs " +
            semantics_name(other.semantics) + ")");
    }
    if (degrees.size() != other.degrees.size()) {
        throw std::invalid_argument(
            "DegreeStatsSummary::merge: vertex count mismatch (" +
            std::to_string(degrees.size()) + " vs " +
            std::to_string(other.degrees.size()) + ")");
    }
    num_edges += other.num_edges;
    for (std::size_t v = 0; v < degrees.size(); ++v) degrees[v] += other.degrees[v];
}

double DegreeStatsSummary::average_degree() const {
    if (degrees.empty()) return 0.0;
    u128 sum = 0;
    for (const u64 d : degrees) sum += d;
    return static_cast<double>(sum) / static_cast<double>(degrees.size());
}

u64 DegreeStatsSummary::max_degree() const {
    return degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
}

std::string DegreeStatsSummary::str() const {
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.4f", average_degree());
    return "edges[" + std::string(semantics_name(semantics)) +
           "]=" + std::to_string(num_edges) + " avg_deg=" + avg +
           " max_deg=" + std::to_string(max_degree());
}

void DegreeStatsSummary::serialize(std::vector<u8>& out) const {
    bytes::put_u64(out, semantics_to_wire(semantics));
    bytes::put_u64(out, num_edges);
    bytes::put_u64_vector(out, degrees);
}

DegreeStatsSummary DegreeStatsSummary::deserialize(const u8*& p, const u8* end) {
    DegreeStatsSummary s;
    s.semantics = semantics_from_wire(bytes::get_u64(p, end));
    s.num_edges = bytes::get_u64(p, end);
    s.degrees   = bytes::get_u64_vector(p, end);
    return s;
}

std::string CountingSink::summary() const {
    return summarize().str();
}

CountingSummary CountingSink::summarize() const {
    CountingSummary s;
    s.semantics      = semantics_;
    s.num_edges      = num_edges_;
    s.num_self_loops = num_self_loops_;
    return s;
}

void CountingSink::consume(const Edge* edges, std::size_t count) {
    u64 loops = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (edges[i].first == edges[i].second) ++loops;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    num_edges_ += count;
    num_self_loops_ += loops;
}

std::string DegreeStatsSink::summary() const {
    return summarize().str();
}

DegreeStatsSummary DegreeStatsSink::summarize() const {
    DegreeStatsSummary s;
    s.semantics = semantics_;
    s.num_edges = num_edges_;
    s.degrees   = degrees_;
    return s;
}

void DegreeStatsSink::consume(const Edge* edges, std::size_t count) {
    // Validate the whole batch before touching any counter: an endpoint
    // >= n (corrupt input file, miscounted n) must throw, not scribble past
    // the end of degrees_ — and must leave the histogram unchanged.
    const u64 n = degrees_.size();
    for (std::size_t i = 0; i < count; ++i) {
        if (edges[i].first >= n || edges[i].second >= n) {
            const VertexId bad =
                edges[i].first >= n ? edges[i].first : edges[i].second;
            throw std::out_of_range(
                "DegreeStatsSink: edge endpoint " + std::to_string(bad) +
                " out of range for n=" + std::to_string(n));
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    num_edges_ += count;
    for (std::size_t i = 0; i < count; ++i) {
        ++degrees_[edges[i].first];
        ++degrees_[edges[i].second];
    }
}

double DegreeStatsSink::average_degree() const {
    if (degrees_.empty()) return 0.0;
    u128 sum = 0;
    for (const u64 d : degrees_) sum += d;
    return static_cast<double>(sum) / static_cast<double>(degrees_.size());
}

u64 DegreeStatsSink::max_degree() const {
    return degrees_.empty() ? 0 : *std::max_element(degrees_.begin(), degrees_.end());
}

std::vector<u64> DegreeStatsSink::degree_histogram() const {
    std::vector<u64> hist(max_degree() + 1, 0);
    for (const u64 d : degrees_) ++hist[d];
    return hist;
}

// The bulk-write fast path hands Edge arrays to fwrite as raw bytes, so the
// in-memory layout must equal the file format (u64 u, u64 v, no padding).
// (Standard-layout members sit in declaration order — first, then second —
// so the array's object representation is exactly the u64 pair stream the
// format specifies; reading an object's bytes for fwrite needs no
// trivially-copyable guarantee. The spill layer has written Edge arrays as
// raw bytes since PR 3 under the same reasoning, and
// tests/test_bulk_io.cpp pins bulk output == the reference writer's.)
static_assert(sizeof(Edge) == 2 * sizeof(u64),
              "Edge must be two packed u64 for the bulk file-sink write");
static_assert(std::is_standard_layout_v<Edge>,
              "Edge layout must be declaration-ordered for the bulk write");

BinaryFileSink::BinaryFileSink(const std::string& path, std::size_t buffer_edges)
    : EdgeSink(buffer_edges), path_(path) {
    // open(2) + fdopen instead of fopen: the descriptor must carry
    // O_CLOEXEC so a subprocess spawned by any thread of this process (the
    // distributed runner's workers in particular) can never inherit a
    // writable handle onto this output file.
    // No O_TRUNC: an existing file is overwritten in place and cut to its
    // final size by finish(), which costs no writeback at close.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    struct stat st{};
    regular_ = fd >= 0 && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    file_    = fd >= 0 ? ::fdopen(fd, "wb") : nullptr;
    if (file_ == nullptr) {
        fileio::close_or_warn(fd, "output file (fdopen failed)");
        throw std::runtime_error("cannot open '" + path + "'");
    }
    // Large explicit stream buffer: emit batches (tens of KiB) coalesce
    // into ~1 MiB write(2) calls instead of BUFSIZ-sized ones. Must be
    // installed before the first write and outlive fclose (member).
    stream_buffer_ = std::unique_ptr<char[]>(new char[kStreamBufferBytes]);
    std::setvbuf(file_, stream_buffer_.get(), _IOFBF, kStreamBufferBytes);
    const u64 placeholder = 0; // patched by finish()
    if (std::fwrite(&placeholder, sizeof(placeholder), 1, file_) != 1) {
        // Error unwind: the file holds nothing durable yet, so a close
        // failure on top of the write failure adds no information.
        (void)std::fclose(file_);
        file_ = nullptr;
        throw std::runtime_error("cannot write header of '" + path + "'");
    }
    bytes_written_ += sizeof(placeholder);
}

int BinaryFileSink::fd() const {
    return file_ != nullptr ? ::fileno(file_) : -1;
}

BinaryFileSink::~BinaryFileSink() {
    // Reached with file_ != nullptr only when finish() was never called —
    // an abort/exception path where the output is already invalid (header
    // still holds the placeholder count). finish() is where a close error
    // must be (and is) surfaced; here a warning is all a destructor can do.
    // The file goes too: a 0-edge header reads as a valid empty graph. A
    // path that is not a regular file (/dev/null, a FIFO) is never removed.
    if (file_ == nullptr) return;
    if (std::fclose(file_) != 0) {
        std::fprintf(stderr,
                     "kagen: warning: close of abandoned output '%s' failed\n",
                     path_.c_str());
    }
    if (regular_) fileio::unlink_or_warn(path_.c_str(), "abandoned output");
}

void BinaryFileSink::consume(const Edge* edges, std::size_t count) {
    static obs::Counter& edges_ctr =
        obs::Registry::global().counter("sink.edges_written");
    static obs::Counter& bytes_ctr =
        obs::Registry::global().counter("sink.bytes_written");
    const obs::Span span(obs::Phase::sink_write, count * sizeof(Edge));
    // One bulk fwrite per batch: the Edge array *is* the file byte layout
    // (static_assert above), so the whole batch is a single memcpy into the
    // stream buffer — no per-edge call, no staging copy.
    if (std::fwrite(edges, sizeof(Edge), count, file_) != count) {
        // Fail loudly now: finish() would otherwise back-patch a header
        // claiming edges that never reached the disk (e.g. ENOSPC).
        throw std::runtime_error("short write to '" + path_ + "'");
    }
    num_edges_ += count;
    bytes_written_ += count * sizeof(Edge);
    edges_ctr.add(count);
    bytes_ctr.add(count * sizeof(Edge));
}

u64 BinaryFileSink::reserve_slots(u64 count) {
    flush();
    const u64 first = num_edges_;
    // What stdio holds lands before the slots; the stream resumes after
    // them, and write_at fills them with pwrite in between.
    const off_t resume =
        static_cast<off_t>(sizeof(u64) + (first + count) * sizeof(Edge));
    if (std::fflush(file_) != 0 || ::fseeko(file_, resume, SEEK_SET) != 0) {
        throw std::runtime_error("cannot reserve " + std::to_string(count) +
                                 " edges in '" + path_ + "'");
    }
    num_edges_ += count;
    bytes_written_ += count * sizeof(Edge);
    return first;
}

void BinaryFileSink::write_at(u64 index, const Edge* edges, std::size_t count) {
    static obs::Counter& edges_ctr =
        obs::Registry::global().counter("sink.edges_written");
    static obs::Counter& bytes_ctr =
        obs::Registry::global().counter("sink.bytes_written");
    const obs::Span span(obs::Phase::sink_write, count * sizeof(Edge));
    try {
        fileio::pwrite_all(::fileno(file_), edges, count * sizeof(Edge),
                           sizeof(u64) + index * sizeof(Edge));
    } catch (const std::runtime_error& e) {
        throw std::runtime_error("short write to '" + path_ + "': " + e.what());
    }
    edges_ctr.add(count);
    bytes_ctr.add(count * sizeof(Edge));
}

void BinaryFileSink::finish() {
    if (finished_) return;
    flush();
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(&num_edges_, sizeof(num_edges_), 1, file_) != 1) {
        throw std::runtime_error("cannot patch edge count in '" + path_ + "'");
    }
    bytes_written_ += sizeof(num_edges_);
    // Cut what an older, larger file left past the last edge.
    const auto size = static_cast<off_t>(sizeof(u64) + num_edges_ * sizeof(Edge));
    if (regular_ && (std::fflush(file_) != 0 || ::ftruncate(::fileno(file_), size) != 0)) {
        throw std::runtime_error("cannot truncate '" + path_ + "'");
    }
    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        throw std::runtime_error("cannot close '" + path_ + "'");
    }
    file_     = nullptr;
    finished_ = true;
}

} // namespace kagen
