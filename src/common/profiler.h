#ifndef LOTUSX_COMMON_PROFILER_H_
#define LOTUSX_COMMON_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status_or.h"

namespace lotusx::prof {

/// On-demand sampling profiler for the serving process, surfaced by the
/// PROFILE protocol verb and /profilez. Two modes share one sample ring
/// and one render path:
///
///   * CPU  — setitimer(ITIMER_PROF): the kernel delivers SIGPROF to
///     whichever thread is burning CPU when the process's CPU clock
///     ticks, so busy threads are sampled in proportion to their use
///     and an idle process yields (correctly) nothing.
///   * Wall — a ticker thread pthread_kill()s every *registered* thread
///     each period, so blocked threads (lock waits, epoll_wait) are
///     sampled too.
///
/// The signal handler appends a raw stack to a pre-sized ring with one
/// atomic fetch_add — no locks, no allocation (backtrace() is primed
/// before arming so libgcc's unwinder loads outside signal context).
/// Symbolization (dladdr + demangle) and folding happen after disarm.
///
/// Exactly one profile runs at a time; a second request fails with
/// FailedPrecondition instead of queueing (a profiler that backs up
/// behind itself is worse than one that says "busy"). When no profile
/// is armed the profiler is quiescent: handler uninstalled, timer
/// zeroed, zero signals delivered — pinned by ProfilerTest.

/// Registers the calling thread for wall-mode sampling and names it in
/// collapsed stacks ("worker-3;Engine::Search;..."). CPU mode samples
/// unregistered threads too (the kernel picks the target); they render
/// under "thread-<tid>". Unregister before thread exit.
void RegisterCurrentThread(std::string_view name);
void UnregisterCurrentThread();

/// RAII registration for pool workers.
class ScopedThreadRegistration {
 public:
  explicit ScopedThreadRegistration(std::string_view name) {
    RegisterCurrentThread(name);
  }
  ~ScopedThreadRegistration() { UnregisterCurrentThread(); }
  ScopedThreadRegistration(const ScopedThreadRegistration&) = delete;
  ScopedThreadRegistration& operator=(const ScopedThreadRegistration&) =
      delete;
};

enum class Mode {
  kCpu,
  kWall,
};

std::string_view ModeName(Mode mode);

/// One folded profile: collapsed stacks and collection accounting.
struct ProfileResult {
  Mode mode = Mode::kCpu;
  double duration_ms = 0;  // requested collection window
  int frequency_hz = 0;
  uint64_t samples = 0;  // stacks captured into the ring
  uint64_t dropped = 0;  // lost to ring overflow or unwind failure
  /// flamegraph.pl-ready lines: "thread;outer;...;leaf" -> count,
  /// sorted by count descending then lexicographically.
  std::vector<std::pair<std::string, uint64_t>> collapsed;
};

/// Collects one profile, blocking the calling thread for `duration_ms`
/// (clamped to [10ms, 10s]; a non-finite duration takes the 10ms
/// floor). `hz` is the target sampling frequency (clamped to [1, 1000];
/// default 99 — prime, so it cannot alias with millisecond-periodic
/// work). Fails with FailedPrecondition when a profile is already
/// running.
StatusOr<ProfileResult> Collect(Mode mode, double duration_ms, int hz = 99);

/// Renders the classic collapsed-stack text format, one line per
/// distinct stack: `frame;frame;...;leaf count\n` — directly consumable
/// by flamegraph.pl / speedscope / inferno.
std::string RenderCollapsed(const ProfileResult& result);

/// JSON envelope with the same stacks plus collection metadata.
std::string RenderProfileJson(const ProfileResult& result);

/// Total SIGPROF deliveries observed by the handler over the process
/// lifetime. The quiescence test pins that this does not move while no
/// profile is armed.
uint64_t SignalsDelivered();

/// True while a profile is being collected (the protocol layer uses
/// this for HELP/diagnostics, not for synchronization).
bool Busy();

}  // namespace lotusx::prof

#endif  // LOTUSX_COMMON_PROFILER_H_
