#include "stack_sampler.hh"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 128;

// backtrace() called from the handler lists the handler itself and
// the signal trampoline before the interrupted frame.
constexpr int kHandlerFrames = 2;

// Records of [depth, pc_0 .. pc_{depth-1}], innermost frame first.
// Sized before the timer starts and never resized while it runs.
std::vector<std::uintptr_t> buffer;
std::atomic<std::size_t> cursor{0};
std::atomic<std::size_t> recorded{0};
std::atomic<std::size_t> dropped{0};
std::atomic<int> inflight{0};
std::atomic<bool> active{false};
struct sigaction previousAction;

void
onProf(int)
{
    int savedErrno = errno;
    inflight.fetch_add(1, std::memory_order_acquire);
    if (active.load(std::memory_order_acquire)) {
        void *frames[kMaxDepth];
        int n = backtrace(frames, kMaxDepth);
        std::size_t depth =
            n > kHandlerFrames ? static_cast<std::size_t>(n - kHandlerFrames)
                               : 0;
        std::size_t at = depth == 0
            ? buffer.size()
            : cursor.fetch_add(depth + 1, std::memory_order_relaxed);
        if (at + depth + 1 > buffer.size()) {
            dropped.fetch_add(1, std::memory_order_relaxed);
        } else {
            buffer[at] = depth;
            for (std::size_t i = 0; i < depth; ++i) {
                buffer[at + 1 + i] = reinterpret_cast<std::uintptr_t>(
                    frames[static_cast<std::size_t>(kHandlerFrames) + i]);
            }
            recorded.fetch_add(1, std::memory_order_relaxed);
        }
    }
    inflight.fetch_sub(1, std::memory_order_release);
    errno = savedErrno;
}

/** Load bias and executable segments of the main program. */
struct ExecutableMap
{
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;
};

int
collectMainProgram(struct dl_phdr_info *info, std::size_t, void *data)
{
    // The first object reported is the main program.
    auto *map = static_cast<ExecutableMap *>(data);
    map->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X)) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            map->text.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    return 1;
}

} // namespace

void
startSampling(int hz, std::size_t maxWords)
{
    buffer.assign(maxWords, 0);
    cursor = 0;
    recorded = 0;
    dropped = 0;

    // The first backtrace() loads the unwinder (and may allocate);
    // do that here, not inside the signal handler.
    void *warm[4];
    (void)backtrace(warm, 4);

    struct sigaction action = {};
    action.sa_handler = onProf;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, &previousAction);
    active.store(true, std::memory_order_release);

    struct itimerval timer = {};
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

void
stopSampling()
{
    struct itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    active.store(false, std::memory_order_release);
    while (inflight.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    sigaction(SIGPROF, &previousAction, nullptr);
}

std::size_t
samplesRecorded()
{
    return recorded.load();
}

std::size_t
samplesDropped()
{
    return dropped.load();
}

void
writeSamples(std::ostream &os)
{
    ExecutableMap map;
    dl_iterate_phdr(collectMainProgram, &map);
    auto inExecutable = [&map](std::uintptr_t pc) {
        for (const auto &[lo, hi] : map.text) {
            if (pc >= lo && pc < hi)
                return true;
        }
        return false;
    };

    std::size_t limit = std::min(cursor.load(), buffer.size());
    std::size_t at = 0;
    os << std::hex;
    while (at < limit && buffer[at] != 0) {
        std::size_t depth = buffer[at];
        for (std::size_t i = 0; i < depth; ++i) {
            // Outer frames hold return addresses; step back into the
            // call instruction so the lookup lands in the caller.
            std::uintptr_t pc = buffer[at + 1 + i] - (i > 0 ? 1 : 0);
            if (i > 0)
                os << ' ';
            if (inExecutable(pc))
                os << (pc - map.bias);
            else
                os << 'x';
        }
        os << '\n';
        at += depth + 1;
    }
    os << std::dec;
}

} // namespace perfbench
