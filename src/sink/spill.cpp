#include "sink/spill.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "obs/metrics.hpp"

namespace kagen::spill {
namespace {

// Segments are written as raw Edge memory: same process writes and reads,
// so layout only has to be self-consistent. (std::pair is not *trivially*
// copyable — its assignment operators are user-provided — but it is
// standard-layout, and its representation here is exactly two VertexIds,
// which is all positioned I/O of whole Edge arrays relies on.)
static_assert(std::is_standard_layout_v<Edge> &&
                  sizeof(Edge) == 2 * sizeof(VertexId),
              "Edge must be raw-copyable as two vertex ids");

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("spill: " + what + ": " + std::strerror(errno));
}

void write_all(int fd, const void* data, std::size_t bytes, u64 offset) {
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write failed"); // e.g. ENOSPC — never silent
        }
        p += n;
        offset += static_cast<u64>(n);
        bytes -= static_cast<std::size_t>(n);
    }
}

void read_all(int fd, void* data, std::size_t bytes, u64 offset) {
    char* p = static_cast<char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::pread(fd, p, bytes, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("read failed");
        }
        if (n == 0) throw std::runtime_error("spill: segment truncated");
        p += n;
        offset += static_cast<u64>(n);
        bytes -= static_cast<std::size_t>(n);
    }
}

} // namespace

SpillFile::SpillFile(const std::string& path) {
    if (path.empty()) {
        // Anonymous scratch file: create under $TMPDIR and unlink at once,
        // so the blocks are reclaimed even if the process dies mid-run.
        const char* tmpdir = std::getenv("TMPDIR");
        std::string tmpl   = std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
                           "/kagen_spill_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        // O_CLOEXEC (see fd() in the header): scratch fds must never leak
        // into subprocesses spawned by this process.
        fd_ = ::mkostemp(buf.data(), O_CLOEXEC);
        if (fd_ < 0) throw_errno("cannot create temp file in '" + tmpl + "'");
        fileio::unlink_or_warn(buf.data(), "anonymous spill scratch");
    } else {
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
        if (fd_ < 0) throw_errno("cannot open '" + path + "'");
        path_ = path;
    }
}

SpillFile::~SpillFile() {
    // Scratch data only: everything in the file has already been read back
    // (or the run is aborting), so a failed close/unlink cannot lose user
    // data — warn-and-continue is the strongest response available here.
    fileio::close_or_warn(fd_, "spill file");
    if (!path_.empty()) fileio::unlink_or_warn(path_.c_str(), "spill file");
}

SpillFile::Segment SpillFile::append(const Edge* edges, std::size_t count) {
    const u64 bytes = static_cast<u64>(count) * sizeof(Edge);
    Segment seg;
    seg.count = count;
    {
        // Only the offset reservation is serialized; the write itself runs
        // concurrently with other producers' writes (disjoint ranges).
        std::lock_guard<std::mutex> lock(mutex_);
        seg.offset = end_;
        end_ += bytes;
    }
    if (count > 0) write_all(fd_, edges, bytes, seg.offset);
    static obs::Counter& bytes_ctr =
        obs::Registry::global().counter("spill.bytes_written");
    static obs::Counter& seg_ctr =
        obs::Registry::global().counter("spill.segments");
    bytes_ctr.add(bytes);
    seg_ctr.add(1);
    return seg;
}

std::size_t SpillFile::read(const Segment& seg, u64 first, Edge* out,
                            std::size_t max_count) const {
    if (first >= seg.count) return 0;
    const std::size_t take =
        static_cast<std::size_t>(std::min<u64>(seg.count - first, max_count));
    read_all(fd_, out, take * sizeof(Edge), seg.offset + first * sizeof(Edge));
    return take;
}

void SpillFile::replay(const Segment& seg, EdgeSink& sink) const {
    std::vector<Edge> buf(std::min<u64>(std::max<u64>(seg.count, 1), kReplayBatchEdges));
    replay(seg, sink, buf.data(), buf.size());
}

void SpillFile::replay(const Segment& seg, EdgeSink& sink, Edge* scratch,
                       std::size_t scratch_cap) const {
    assert(scratch != nullptr && scratch_cap > 0);
    u64 pos = 0;
    while (pos < seg.count) {
        const std::size_t got = read(seg, pos, scratch, scratch_cap);
        sink.deliver(scratch, got);
        pos += got;
    }
    static obs::Counter& replay_ctr =
        obs::Registry::global().counter("spill.bytes_replayed");
    replay_ctr.add(seg.count * sizeof(Edge));
}

u64 SpillFile::bytes_spilled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return end_;
}

} // namespace kagen::spill
