// The benchmark's yardstick: a fixed amount of edge-like work that never
// changes with the library, so its speed is the machine's speed at the
// moment it runs.
//
// usage: perf_yardstick    (run in a writable directory; it leaves no file)
//
// Four threads fill a fresh anonymous mapping with kRecords 16-byte
// records, each a splitmix64 hash of its index, so every page is first
// touched here, as the arena's slabs are. Then the buffer goes to
// ./perf_yardstick.bin in 1 MiB writes, and the file is closed and
// unlinked. That is the generators' resource mix: one hash per edge, fresh
// memory on every thread, and one file through the page cache. run.py
// starts it through perf_spawn before every timed rep and divides the rep's
// rate by the yardstick's, so a slowdown of a shared machine shows in both
// and cancels.
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kThreads    = 4;                     // run.py THREADS
constexpr std::size_t kRecords    = std::size_t{1} << 22;  // run.py YARDSTICK_RECORDS
constexpr std::size_t kWriteBytes = std::size_t{1} << 20;
constexpr const char* kPath = "perf_yardstick.bin";

std::uint64_t splitmix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int fail(const char* what) {
    std::fprintf(stderr, "perf_yardstick: %s: %s\n", what, std::strerror(errno));
    unlink(kPath);
    return 1;
}

} // namespace

int main() {
    const std::size_t bytes = kRecords * 2 * sizeof(std::uint64_t);
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) return fail("mmap");
    auto* words = static_cast<std::uint64_t*>(map);

    std::vector<std::thread> threads;
    const std::size_t per_thread = kRecords / kThreads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([=] {
            for (std::size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
                const std::uint64_t h = splitmix64(i);
                words[2 * i]     = h >> 32;
                words[2 * i + 1] = h & 0xffffffffULL;
            }
        });
    }
    for (auto& t : threads) t.join();

    const int fd = open(kPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return fail("open");
    const char* p = static_cast<const char*>(map);
    for (std::size_t off = 0; off < bytes;) {
        const std::size_t n = bytes - off < kWriteBytes ? bytes - off : kWriteBytes;
        const ssize_t w = write(fd, p + off, n);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) {
            close(fd);
            return fail("write");
        }
        off += static_cast<std::size_t>(w);
    }
    if (close(fd) != 0) return fail("close");
    if (unlink(kPath) != 0) return fail("unlink");
    munmap(map, bytes);
    return 0;
}
