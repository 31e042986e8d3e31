// Starts the processes of one benchmark invocation and measures them.
//
// usage: perf_spawn TIMEOUT_MS DIR -- ARGV... [-- ARGV...]
//
// Forks and execs every ARGV (no shell) with DIR as working directory and
// DIR/proc<i>.out and DIR/proc<i>.err as its stdout and stderr, waits for
// all of them, and prints
//   <launch_ns> <end_ns> <stop>
//   <exit code> <user+sys microseconds> <ru_maxrss KiB>   (one line each)
// where launch_ns and end_ns are CLOCK_MONOTONIC before the first fork and
// after the last process exited, and the exit code of a process killed by a
// signal is 128 + the signal. wait4's usage of a process includes the
// children it reaped (the ranks of kagen_tool -ranks). <stop> is "none",
// "timeout" when processes were still running after TIMEOUT_MS, or "stray"
// when a process they started outlived them.
//
// Every ARGV runs as the leader of its own process group, which the ranks it
// forks join. On the timeout, on SIGTERM and after the last exit, each group
// gets SIGKILL, so no rank outlives the invocation. After SIGTERM it reaps
// the processes and exits 143 without printing a result.
//
// run.py starts tool processes through this program instead of forking them
// itself because Linux charges a child's ru_maxrss with the memory its
// parent had mapped when it forked: a Python interpreter's footprint would
// hide the tool's own peak.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr int kMaxProcesses = 64;

pid_t g_pids[kMaxProcesses]; // each is also its process group's id
volatile sig_atomic_t g_started = 0;
volatile sig_atomic_t g_stop    = 0; // the first of SIGALRM / SIGTERM received

void kill_groups() {
    for (int i = 0; i < g_started; ++i) kill(-g_pids[i], SIGKILL);
}

void on_stop_signal(int sig) {
    if (g_stop == 0) g_stop = sig;
    kill_groups();
}

unsigned long long now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<unsigned long long>(ts.tv_sec) * 1000000000ULL +
           static_cast<unsigned long long>(ts.tv_nsec);
}

/// Child side of one fork: redirect, then exec; never returns.
[[noreturn]] void exec_child(const char* dir, int index, std::vector<char*>& argv,
                             const sigset_t& parent_mask) {
    setpgid(0, 0);
    sigprocmask(SIG_SETMASK, &parent_mask, nullptr);
    const std::string out = "proc" + std::to_string(index) + ".out";
    const std::string err = "proc" + std::to_string(index) + ".err";
    if (chdir(dir) != 0) _exit(126);
    const int fo = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int fe = open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fo < 0 || fe < 0 || dup2(fo, STDOUT_FILENO) < 0 || dup2(fe, STDERR_FILENO) < 0) {
        _exit(126);
    }
    close(fo);
    close(fe);
    execvp(argv[0], argv.data());
    std::fprintf(stderr, "perf_spawn: cannot exec %s: %s\n", argv[0], std::strerror(errno));
    _exit(127);
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 5 || std::strcmp(argv[3], "--") != 0) {
        std::fprintf(stderr, "usage: perf_spawn TIMEOUT_MS DIR -- ARGV... [-- ARGV...]\n");
        return 2;
    }
    char* end = nullptr;
    const long timeout_ms = std::strtol(argv[1], &end, 10);
    if (*end != '\0' || timeout_ms <= 0) {
        std::fprintf(stderr, "perf_spawn: bad timeout '%s'\n", argv[1]);
        return 2;
    }
    const char* dir = argv[2];
    std::vector<std::vector<char*>> commands(1);
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--") == 0) {
            commands.emplace_back();
        } else {
            commands.back().push_back(argv[i]);
        }
    }
    if (commands.size() > kMaxProcesses) {
        std::fprintf(stderr, "perf_spawn: at most %d processes\n", kMaxProcesses);
        return 2;
    }
    for (auto& cmd : commands) {
        if (cmd.empty()) {
            std::fprintf(stderr, "perf_spawn: empty command\n");
            return 2;
        }
        cmd.push_back(nullptr);
    }

    struct sigaction sa{};
    sa.sa_handler = on_stop_signal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, nullptr);
    // The caller stopping us must not leave the tool processes running.
    sigaction(SIGTERM, &sa, nullptr);

    // SIGTERM waits until every started process is recorded in g_pids.
    sigset_t term, parent_mask;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    sigprocmask(SIG_BLOCK, &term, &parent_mask);
    const unsigned long long launch = now_ns();
    bool fork_failed = false;
    for (std::size_t i = 0; i < commands.size(); ++i) {
        const pid_t pid = fork();
        if (pid == 0) exec_child(dir, static_cast<int>(i), commands[i], parent_mask);
        if (pid < 0) {
            std::fprintf(stderr, "perf_spawn: fork: %s\n", std::strerror(errno));
            fork_failed = true;
            break;
        }
        // Also here, so the group exists before anyone signals it; one of
        // the two calls fails harmlessly.
        setpgid(pid, pid);
        g_pids[g_started] = pid;
        g_started         = g_started + 1;
    }
    itimerval timer{};
    timer.it_value.tv_sec  = timeout_ms / 1000;
    timer.it_value.tv_usec = (timeout_ms % 1000) * 1000;
    setitimer(ITIMER_REAL, &timer, nullptr);
    sigprocmask(SIG_SETMASK, &parent_mask, nullptr);
    if (fork_failed) kill_groups();

    std::vector<int> codes;
    std::vector<rusage> usages;
    for (int i = 0; i < g_started; ++i) {
        int status = 0;
        rusage ru{};
        while (wait4(g_pids[i], &status, 0, &ru) < 0) {
            if (errno != EINTR) {
                std::fprintf(stderr, "perf_spawn: wait4: %s\n", std::strerror(errno));
                kill_groups();
                return 2;
            }
        }
        codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status));
        usages.push_back(ru);
    }
    const unsigned long long finish = now_ns();
    // A group with a member left is a process that outlived its leader.
    bool stray = false;
    for (int i = 0; i < g_started; ++i) stray |= kill(-g_pids[i], SIGKILL) == 0;
    if (g_stop == SIGTERM) return 143;
    if (fork_failed) return 2;

    const char* stop = g_stop == SIGALRM ? "timeout" : stray ? "stray" : "none";
    std::printf("%llu %llu %s\n", launch, finish, stop);
    for (std::size_t i = 0; i < codes.size(); ++i) {
        const rusage& ru = usages[i];
        const long long cpu_us =
            (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000LL +
            ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
        std::printf("%d %lld %ld\n", codes[i], cpu_us, ru.ru_maxrss);
    }
    return 0;
}
