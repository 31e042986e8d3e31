#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fileio.hpp"

namespace kagen::io {
namespace {

struct File {
    explicit File(const std::string& path, const char* mode)
        : handle(std::fopen(path.c_str(), mode)) {
        if (handle == nullptr) {
            throw std::runtime_error("cannot open '" + path + "'");
        }
    }
    ~File() { std::fclose(handle); }
    File(const File&)            = delete;
    File& operator=(const File&) = delete;

    FILE* handle;
};

constexpr std::size_t kBlockEdges = 4096; ///< 64 KiB of edges per I/O call

} // namespace

void write_edge_list_binary(const std::string& path, const EdgeList& edges) {
    File f(path, "wb");
    const u64 count = edges.size();
    // Fail loudly on any short write (e.g. ENOSPC): the header claims all
    // `count` edges, so a silently truncated file would read back as valid.
    if (std::fwrite(&count, sizeof(count), 1, f.handle) != 1) {
        throw std::runtime_error("cannot write header of '" + path + "'");
    }
    const auto block = std::make_unique<u64[]>(2 * kBlockEdges);
    for (std::size_t first = 0; first < edges.size(); first += kBlockEdges) {
        const std::size_t n = std::min(kBlockEdges, edges.size() - first);
        for (std::size_t i = 0; i < n; ++i) {
            block[2 * i]     = edges[first + i].first;
            block[2 * i + 1] = edges[first + i].second;
        }
        if (std::fwrite(block.get(), 2 * sizeof(u64), n, f.handle) != n) {
            throw std::runtime_error("short write to '" + path + "'");
        }
    }
    // fwrite only queues into the stdio buffer; ENOSPC commonly surfaces at
    // flush time, which the File destructor's fclose would swallow.
    if (std::fflush(f.handle) != 0) {
        throw std::runtime_error("cannot flush '" + path + "'");
    }
}

EdgeFileReader::EdgeFileReader(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) throw std::runtime_error("cannot open '" + path + "'");
    try {
        if (::pread(fd_, &count_, sizeof(count_), 0) !=
            static_cast<ssize_t>(sizeof(count_))) {
            throw std::runtime_error("truncated binary edge list: " + path);
        }
        struct stat st{};
        if (::fstat(fd_, &st) != 0) {
            throw std::runtime_error("cannot stat '" + path + "': " +
                                     std::strerror(errno));
        }
        // 8-byte header + 16 bytes per edge must fit in the file: a corrupt
        // or truncated header (e.g. 0xFFFF...) must fail cleanly here, not
        // drive a multi-exabyte `reserve` or a billion-iteration read loop.
        const u64 payload = static_cast<u64>(st.st_size) - sizeof(count_);
        if (count_ > payload / (2 * sizeof(u64))) {
            throw std::runtime_error(
                "corrupt binary edge list header: '" + path + "' claims " +
                std::to_string(count_) + " edges but holds only " +
                std::to_string(payload) + " payload bytes");
        }
    } catch (...) {
        fileio::close_or_warn(fd_, "edge list");
        throw;
    }
}

EdgeFileReader::~EdgeFileReader() { fileio::close_or_warn(fd_, "edge list"); }

std::size_t EdgeFileReader::read(void* out, std::size_t max) {
    const std::size_t n = static_cast<std::size_t>(std::min<u64>(max, remaining()));
    char* p          = static_cast<char*>(out);
    std::size_t left = n * 2 * sizeof(u64);
    u64 offset       = sizeof(u64) + pos_ * 2 * sizeof(u64);
    while (left > 0) {
        const ssize_t got = ::pread(fd_, p, left, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) throw std::runtime_error("truncated binary edge list: " + path_);
        p += got;
        offset += static_cast<u64>(got);
        left -= static_cast<std::size_t>(got);
    }
    pos_ += n;
    return n;
}

void EdgeFileReader::unread(u64 count) { pos_ -= std::min(count, pos_); }

EdgeList read_edge_list_binary(const std::string& path) {
    EdgeFileReader in(path);
    EdgeList edges;
    edges.reserve(in.edges());
    const auto block = std::make_unique<Edge[]>(kBlockEdges);
    while (const std::size_t n = in.read(block.get(), kBlockEdges)) {
        edges.insert(edges.end(), block.get(), block.get() + n);
    }
    return edges;
}

u64 stream_edge_list_binary(const std::string& path, EdgeSink& sink) {
    EdgeFileReader in(path);
    const auto block = std::make_unique<Edge[]>(kBlockEdges);
    sink.flush(); // blocks bypass the emit buffer; keep the order
    while (const std::size_t n = in.read(block.get(), kBlockEdges)) {
        sink.deliver(block.get(), n);
    }
    return in.edges();
}

} // namespace kagen::io
