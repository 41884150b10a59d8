#include "common/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>

#include "common/sync.h"

namespace lotusx::prof {

namespace {

/// Sample ring dimensions: 4096 stacks of 48 frames bounds the ring at
/// ~1.6 MiB and caps a 10 s @ 99 Hz profile with 4x headroom over the
/// expected ~1000 samples per busy thread.
constexpr uint32_t kMaxSamples = 4096;
constexpr int kMaxDepth = 48;

struct RawSample {
  int32_t depth = 0;
  int32_t tid = 0;
  void* pcs[kMaxDepth];
};

/// The ring is allocated on first Collect() (never in signal context)
/// and leaked: a handler racing process shutdown must never observe a
/// freed ring.
RawSample* g_ring = nullptr;

std::atomic<bool> g_armed{false};
/// Handlers between their g_armed check and the end of their ring
/// write. Collect() disarms, then waits for this to reach zero before it
/// reads the ring: a handler that saw g_armed set may still be writing.
std::atomic<uint32_t> g_in_flight{0};
std::atomic<uint32_t> g_sample_count{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint64_t> g_signals{0};
/// Single-flight latch for Collect(); atomic (not a Mutex) so the
/// "busy" answer never blocks.
std::atomic<bool> g_collecting{false};

/// Registered threads for wall-mode delivery and stack naming.
struct RegisteredThread {
  pthread_t handle;
  int32_t tid;
  std::string name;
};

struct ThreadRegistry {
  Mutex mu;
  std::vector<RegisteredThread> threads LOTUSX_GUARDED_BY(mu);
};

ThreadRegistry& Registry() {
  static ThreadRegistry* registry = new ThreadRegistry();  // leaked, like
  return *registry;  // the ring: late unregister must never see a corpse
}

int32_t CurrentTid() {
  return static_cast<int32_t>(::syscall(SYS_gettid));
}

/// SIGPROF handler: one fetch_add to claim a slot, one backtrace() into
/// it. No locks, no allocation, no library calls beyond backtrace.
// SAFETY: backtrace(3) is not on the POSIX async-signal-safe list, but
// its glibc implementation only walks frame tables once libgcc's
// unwinder is resident — Collect() primes it with a throwaway call
// before installing this handler, so the dlopen/malloc path cannot run
// in signal context. This is the standard technique of in-process
// samplers (gperftools, absl symbolizer).
void ProfileSignalHandler(int /*signum*/) {
  g_signals.fetch_add(1, std::memory_order_relaxed);
  // Announce before checking g_armed (both sequentially consistent):
  // either this handler sees the disarm and writes nothing, or Collect()
  // sees it in flight and waits for the release below.
  g_in_flight.fetch_add(1, std::memory_order_seq_cst);
  if (g_armed.load(std::memory_order_seq_cst)) {
    const uint32_t index =
        g_sample_count.fetch_add(1, std::memory_order_relaxed);
    if (index < kMaxSamples) {
      RawSample& sample = g_ring[index];
      sample.tid = CurrentTid();
      sample.depth = ::backtrace(sample.pcs, kMaxDepth);
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  g_in_flight.fetch_sub(1, std::memory_order_release);
}

/// Best-effort frame name: dynamic symbol + demangle, else the raw
/// address. Executables that want readable engine frames link with
/// ENABLE_EXPORTS (-rdynamic) so dladdr can see their static symbols.
std::string SymbolizeFrame(void* pc) {
  Dl_info info;
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      std::string name(demangled);
      std::free(demangled);
      return name;
    }
    if (demangled != nullptr) std::free(demangled);
    return info.dli_sname;
  }
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<uintptr_t>(pc)));
  return buffer;
}

std::string FormatFixed(double value, int digits = 3) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

void SleepUntil(std::chrono::steady_clock::time_point deadline) {
  // Chunked so an interrupted nanosleep (SIGPROF lands on this thread
  // too under CPU mode) re-checks the clock instead of trusting the
  // remaining-time result.
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    const auto remaining = deadline - now;
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(5)));
  }
}

}  // namespace

void RegisterCurrentThread(std::string_view name) {
  ThreadRegistry& registry = Registry();
  MutexLock lock(registry.mu);
  const int32_t tid = CurrentTid();
  for (RegisteredThread& thread : registry.threads) {
    if (thread.tid == tid) {
      thread.name = std::string(name);
      return;
    }
  }
  registry.threads.push_back(
      RegisteredThread{::pthread_self(), tid, std::string(name)});
}

void UnregisterCurrentThread() {
  ThreadRegistry& registry = Registry();
  MutexLock lock(registry.mu);
  const int32_t tid = CurrentTid();
  registry.threads.erase(
      std::remove_if(registry.threads.begin(), registry.threads.end(),
                     [tid](const RegisteredThread& thread) {
                       return thread.tid == tid;
                     }),
      registry.threads.end());
}

std::string_view ModeName(Mode mode) {
  switch (mode) {
    case Mode::kCpu:
      return "cpu";
    case Mode::kWall:
      return "wall";
  }
  return "?";
}

uint64_t SignalsDelivered() {
  return g_signals.load(std::memory_order_relaxed);
}

bool Busy() { return g_collecting.load(std::memory_order_relaxed); }

StatusOr<ProfileResult> Collect(Mode mode, double duration_ms, int hz) {
  // std::clamp passes NaN through; a non-finite duration takes the floor.
  duration_ms = std::isfinite(duration_ms)
                    ? std::clamp(duration_ms, 10.0, 10'000.0)
                    : 10.0;
  hz = std::clamp(hz, 1, 1000);

  if (g_collecting.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        "a profile is already being collected");
  }

  if (g_ring == nullptr) {
    g_ring = new RawSample[kMaxSamples];  // leaked by design, see decl
  }
  // Prime the unwinder outside signal context (loads libgcc once).
  void* prime[2];
  ::backtrace(prime, 2);

  // Names snapshot BEFORE arming: reading the registry during
  // collection would lock against threads being sampled.
  std::unordered_map<int32_t, std::string> names;
  std::vector<RegisteredThread> wall_targets;
  {
    ThreadRegistry& registry = Registry();
    MutexLock lock(registry.mu);
    for (const RegisteredThread& thread : registry.threads) {
      names[thread.tid] = thread.name;
      wall_targets.push_back(thread);
    }
  }
  if (mode == Mode::kWall && wall_targets.empty()) {
    g_collecting.store(false, std::memory_order_release);
    return Status::FailedPrecondition(
        "wall profile requires registered threads "
        "(prof::RegisterCurrentThread)");
  }

  g_sample_count.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &ProfileSignalHandler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  struct sigaction previous;
  ::sigaction(SIGPROF, &action, &previous);
  g_armed.store(true, std::memory_order_release);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(duration_ms * 1000.0));
  const int64_t period_us = std::max<int64_t>(1'000'000 / hz, 100);

  std::thread ticker;
  if (mode == Mode::kCpu) {
    // Process CPU-time timer: SIGPROF lands on whichever thread is on
    // a core when the tick fires — proportional attribution for free.
    struct itimerval timer;
    timer.it_interval.tv_sec = static_cast<time_t>(period_us / 1'000'000);
    timer.it_interval.tv_usec =
        static_cast<suseconds_t>(period_us % 1'000'000);
    timer.it_value = timer.it_interval;
    ::setitimer(ITIMER_PROF, &timer, nullptr);
    SleepUntil(deadline);
    struct itimerval off;
    std::memset(&off, 0, sizeof(off));
    ::setitimer(ITIMER_PROF, &off, nullptr);
  } else {
    // Wall mode: tick every registered thread whether running or
    // blocked. Targets must outlive the window (workers register via
    // RAII and outlive any in-flight profile by construction).
    ticker = std::thread([&wall_targets, deadline, period_us] {
      while (std::chrono::steady_clock::now() < deadline) {
        for (const RegisteredThread& thread : wall_targets) {
          ::pthread_kill(thread.handle, SIGPROF);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(period_us));
      }
    });
    SleepUntil(deadline);
    ticker.join();
  }

  g_armed.store(false, std::memory_order_seq_cst);
  // A handler that passed its g_armed check may still be writing its
  // slot; the acquire pairs with its release and publishes the write.
  while (g_in_flight.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  // Discard any still-pending tick, then detach the handler. SIG_IGN
  // (not SIG_DFL: default SIGPROF action kills the process) makes the
  // disarmed profiler truly quiescent — zero handler invocations until
  // the next Collect().
  struct sigaction ignore;
  std::memset(&ignore, 0, sizeof(ignore));
  ignore.sa_handler = SIG_IGN;
  ::sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPROF, &ignore, nullptr);

  ProfileResult result;
  result.mode = mode;
  result.duration_ms = duration_ms;
  result.frequency_hz = hz;
  const uint32_t raw_count =
      std::min(g_sample_count.load(std::memory_order_relaxed), kMaxSamples);
  result.dropped = g_dropped.load(std::memory_order_relaxed);

  // Fold: symbolize each distinct pc once, then collapse identical
  // stacks. backtrace() reports innermost-first; collapsed format wants
  // root-first with the leaf last.
  std::unordered_map<void*, std::string> symbols;
  auto frame_name = [&symbols](void* pc) -> const std::string& {
    auto it = symbols.find(pc);
    if (it == symbols.end()) {
      it = symbols.emplace(pc, SymbolizeFrame(pc)).first;
    }
    return it->second;
  };
  std::map<std::string, uint64_t> folded;
  for (uint32_t i = 0; i < raw_count; ++i) {
    const RawSample& sample = g_ring[i];
    if (sample.depth <= 0) {
      ++result.dropped;
      continue;
    }
    // Skip the profiler's own frames: the handler and the kernel's
    // signal trampoline sit innermost on every stack.
    int first = 0;
    for (int f = 0; f < sample.depth; ++f) {
      const std::string& name = frame_name(sample.pcs[f]);
      if (name.find("ProfileSignalHandler") != std::string::npos ||
          name.find("__restore_rt") != std::string::npos) {
        first = f + 1;
      }
    }
    std::string stack;
    auto name_it = names.find(sample.tid);
    stack = name_it != names.end()
                ? name_it->second
                : "thread-" + std::to_string(sample.tid);
    for (int f = sample.depth - 1; f >= first; --f) {
      stack += ';';
      stack += frame_name(sample.pcs[f]);
    }
    ++result.samples;
    ++folded[stack];
  }
  result.collapsed.assign(folded.begin(), folded.end());
  std::sort(result.collapsed.begin(), result.collapsed.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  g_collecting.store(false, std::memory_order_release);
  return result;
}

std::string RenderCollapsed(const ProfileResult& result) {
  std::string out;
  for (const auto& [stack, count] : result.collapsed) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string RenderProfileJson(const ProfileResult& result) {
  std::string out = "{\"mode\":\"";
  out += ModeName(result.mode);
  out += "\",\"duration_ms\":" + FormatFixed(result.duration_ms, 1);
  out += ",\"frequency_hz\":" + std::to_string(result.frequency_hz);
  out += ",\"samples\":" + std::to_string(result.samples);
  out += ",\"dropped\":" + std::to_string(result.dropped);
  out += ",\"stacks\":[";
  bool first = true;
  for (const auto& [stack, count] : result.collapsed) {
    if (!first) out += ',';
    first = false;
    out += "{\"stack\":\"";
    AppendJsonEscaped(&out, stack);
    out += "\",\"count\":" + std::to_string(count) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace lotusx::prof
