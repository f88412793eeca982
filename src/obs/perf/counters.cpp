#include "obs/perf/counters.hpp"

#include <cerrno>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

#include "util/annotations.hpp"

namespace mcb::obs::perf {

const char* counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kCycles: return "cycles";
    case Counter::kInstructions: return "instructions";
    case Counter::kLlcLoads: return "llc_loads";
    case Counter::kLlcMisses: return "llc_misses";
    case Counter::kBranchMisses: return "branch_misses";
  }
  return "unknown";
}

std::uint64_t scale_for_multiplexing(std::uint64_t raw, std::uint64_t time_enabled,
                                     std::uint64_t time_running) noexcept {
  if (time_running >= time_enabled) return raw;  // never multiplexed out
  if (time_running == 0) return 0;  // never scheduled: nothing to extrapolate
  const double scale =
      static_cast<double>(time_enabled) / static_cast<double>(time_running);
  return static_cast<std::uint64_t>(static_cast<double>(raw) * scale);
}

#if defined(__linux__)

namespace {

// Availability is a process property: the perf syscall either works for
// this process (paranoid level, seccomp, PMU presence) or it does not.
// 0 = not yet probed, 1 = available, -1 = hard failure.
std::atomic<int> g_state{0};
std::atomic<int> g_errno{0};
// True once a thread group mapped with cap_user_rdpmc on every event —
// the userspace fast path the span hot path requires.
std::atomic<bool> g_rdpmc{false};

constexpr std::uint64_t kEventConfig[kCounterCount] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

/// Grouped read(2) layout for PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED |
/// TOTAL_TIME_RUNNING.
struct GroupReadBuffer {
  std::uint64_t nr = 0;
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
  std::uint64_t value[kCounterCount] = {};
};

/// One perf event group owned by one thread (pid=0, cpu=-1: this thread
/// wherever it runs, userspace only). Opened lazily on the thread's
/// first read; torn down when the thread exits.
struct ThreadGroup {
  int fd[kCounterCount] = {-1, -1, -1, -1, -1};
  void* page[kCounterCount] = {nullptr, nullptr, nullptr, nullptr, nullptr};
  bool tried = false;
  bool ok = false;
  bool rdpmc_ok = false;

  ~ThreadGroup() {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (page[i] != nullptr) ::munmap(page[i], static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
      if (fd[i] >= 0) ::close(fd[i]);
    }
  }
};

thread_local ThreadGroup t_group;

long perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                     unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

// Cold once-per-thread setup reached from the Span hot path on a
// thread's first counted span; everything after it is the fast read.
MCB_HOT_PATH_BOUNDARY bool open_thread_group(ThreadGroup& group) {
  group.tried = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kEventConfig[i];
    attr.disabled = i == 0 ? 1 : 0;  // the whole group starts with the leader
    attr.exclude_kernel = 1;         // paranoid<=2 permits user-only self-profiling
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const int group_fd = i == 0 ? -1 : group.fd[0];
    const long fd = perf_event_open(&attr, 0, -1, group_fd, 0);
    if (fd < 0) {
      // ENOSYS (seccomp), EACCES/EPERM (perf_event_paranoid), ENOENT
      // (no PMU in this VM): all mean "no counters for this process".
      g_errno.store(errno, std::memory_order_relaxed);  // relaxed: diagnostic only
      g_state.store(-1, std::memory_order_release);
      return false;
    }
    group.fd[i] = static_cast<int>(fd);
  }
  const long page_size = ::sysconf(_SC_PAGESIZE);
  bool rdpmc_ok = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    void* page = ::mmap(nullptr, static_cast<std::size_t>(page_size), PROT_READ,
                        MAP_SHARED, group.fd[i], 0);
    if (page == MAP_FAILED) {
      rdpmc_ok = false;
      break;
    }
    group.page[i] = page;
    const auto* pc = static_cast<const perf_event_mmap_page*>(page);
    if (pc->cap_user_rdpmc == 0) rdpmc_ok = false;
  }
  if (::ioctl(group.fd[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    g_errno.store(errno, std::memory_order_relaxed);  // relaxed: diagnostic only
    g_state.store(-1, std::memory_order_release);
    return false;
  }
  group.ok = true;
  group.rdpmc_ok = rdpmc_ok;
  int expected = 0;
  // The first thread to finish the probe publishes availability; the
  // rdpmc capability is process-wide (same PMU, same sysctl).
  // relaxed: failure order only — a losing CAS acts on nothing it read.
  if (g_state.compare_exchange_strong(expected, 1, std::memory_order_release,
                                      std::memory_order_relaxed)) {
    g_rdpmc.store(rdpmc_ok, std::memory_order_release);
  }
  return true;
}

#if defined(__x86_64__)
inline std::uint64_t rdpmc(std::uint32_t counter) noexcept {
  std::uint32_t lo = 0, hi = 0;
  asm volatile("rdpmc" : "=a"(lo), "=d"(hi) : "c"(counter));  // NOLINT(hicpp-no-assembler)
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#endif

/// Userspace read of one mmap'd event via the seqlock protocol from
/// perf_event_open(2): snapshot lock, read index/offset/times, rdpmc,
/// retry if the kernel moved the event underneath us.
inline bool read_event_fast(const volatile perf_event_mmap_page* pc,
                            std::uint64_t& out) noexcept {
#if defined(__x86_64__)
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint32_t seq = pc->lock;
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint32_t index = pc->index;
    std::uint64_t count = pc->offset;
    const std::uint64_t enabled = pc->time_enabled;
    const std::uint64_t running = pc->time_running;
    const std::uint16_t width = pc->pmc_width;
    if (index != 0) {
      std::uint64_t pmc = rdpmc(index - 1);
      if (width < 64) {
        // Sign-extend the raw PMC value into the 64-bit count space.
        pmc <<= 64 - width;
        pmc = static_cast<std::uint64_t>(static_cast<std::int64_t>(pmc) >>
                                         (64 - width));
      }
      count += pmc;
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (pc->lock == seq) {
      out = scale_for_multiplexing(count, enabled, running);
      return true;
    }
  }
#else
  (void)pc;
  (void)out;
#endif
  return false;
}

bool read_group_syscall(ThreadGroup& group, CounterSample& out) noexcept {
  GroupReadBuffer buffer;
  const ssize_t n = ::read(group.fd[0], &buffer, sizeof(buffer));
  if (n < static_cast<ssize_t>(sizeof(std::uint64_t) * 3) ||
      buffer.nr != kCounterCount) {
    return false;
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.value[i] = scale_for_multiplexing(buffer.value[i], buffer.time_enabled,
                                          buffer.time_running);
  }
  return true;
}

}  // namespace

PerfCounterSource::PerfCounterSource() {
  // Probe on the constructing thread so availability and the rdpmc
  // capability are known before the tracer decides to attach counters.
  CounterSample sample;
  (void)read_counters(sample);
}

PerfCounterSource::~PerfCounterSource() = default;

bool PerfCounterSource::read_counters(CounterSample& out) noexcept {
  if (g_state.load(std::memory_order_acquire) < 0) return false;
  ThreadGroup& group = t_group;
  if (!group.ok) {
    if (group.tried) return false;  // this thread's open already failed
    if (!open_thread_group(group)) return false;
  }
  if (group.rdpmc_ok) {
    CounterSample sample;
    bool fast = true;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto* pc =
          static_cast<const volatile perf_event_mmap_page*>(group.page[i]);
      if (!read_event_fast(pc, sample.value[i])) {
        fast = false;
        break;
      }
    }
    if (fast) {
      out = sample;
      return true;
    }
  }
  return read_group_syscall(group, out);
}

bool PerfCounterSource::available() const noexcept {
  return g_state.load(std::memory_order_acquire) > 0;
}

int PerfCounterSource::error() const noexcept {
  return g_errno.load(std::memory_order_relaxed);  // relaxed: diagnostic only
}

bool PerfCounterSource::hot_path_capable() const noexcept {
  return available() && g_rdpmc.load(std::memory_order_acquire);
}

#else  // !__linux__

PerfCounterSource::PerfCounterSource() = default;
PerfCounterSource::~PerfCounterSource() = default;

bool PerfCounterSource::read_counters(CounterSample&) noexcept { return false; }
bool PerfCounterSource::available() const noexcept { return false; }
int PerfCounterSource::error() const noexcept { return ENOSYS; }
bool PerfCounterSource::hot_path_capable() const noexcept { return false; }

#endif

}  // namespace mcb::obs::perf
