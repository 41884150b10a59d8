// Pins the sampling profiler's observable contract (common/profiler.h):
// non-empty flamegraph-format stacks when the process is busy, strict
// quiescence (zero SIGPROF deliveries) when no profile is armed,
// single-flight rejection, and wall-mode coverage of registered
// threads. Deliberately NOT run under tsan in CI — signal-driven
// backtraces inside instrumented code are out of scope for the
// statement-store race suites.

#include "common/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/status_or.h"

namespace lotusx::prof {
namespace {

/// Burns CPU until `stop` is raised; the volatile sink keeps the loop
/// from being optimized into nothing.
void SpinUntil(const std::atomic<bool>& stop) {
  volatile uint64_t sink = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) sink = sink * 2862933555777941757ULL + 1;
  }
}

/// Every collapsed line is "frame;frame;...;leaf count".
void ExpectFlamegraphFormat(const std::string& collapsed) {
  ASSERT_FALSE(collapsed.empty());
  size_t start = 0;
  while (start < collapsed.size()) {
    size_t end = collapsed.find('\n', start);
    if (end == std::string::npos) end = collapsed.size();
    const std::string line = collapsed.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
    }
  }
}

TEST(ProfilerTest, CpuProfileUnderLoadYieldsStacks) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> burners;
  for (int i = 0; i < 2; ++i) burners.emplace_back([&stop] { SpinUntil(stop); });

  StatusOr<ProfileResult> profile = Collect(Mode::kCpu, /*duration_ms=*/400);
  stop.store(true);
  for (std::thread& thread : burners) thread.join();

  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->mode, Mode::kCpu);
  EXPECT_GT(profile->samples, 0u)
      << "two spinning threads over 400ms at 99Hz must be sampled";
  EXPECT_FALSE(profile->collapsed.empty());

  const std::string collapsed = RenderCollapsed(*profile);
  ExpectFlamegraphFormat(collapsed);

  const std::string json = RenderProfileJson(*profile);
  EXPECT_NE(json.find("\"mode\":\"cpu\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stacks\":"), std::string::npos) << json;
}

TEST(ProfilerTest, WallProfileSamplesRegisteredThreads) {
  // A registered thread blocked in sleep is invisible to CPU mode but
  // is exactly what wall mode exists to show.
  std::atomic<bool> stop{false};
  std::atomic<bool> registered{false};
  std::thread sleeper([&stop, &registered] {
    ScopedThreadRegistration registration("sleeper");
    registered.store(true);
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Profile only once the sleeper's registration exists.
  while (!registered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  StatusOr<ProfileResult> profile = Collect(Mode::kWall, /*duration_ms=*/200);
  stop.store(true);
  sleeper.join();

  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const std::string collapsed = RenderCollapsed(*profile);
  SCOPED_TRACE("samples=" + std::to_string(profile->samples) +
               ", collapsed stacks:\n" + collapsed);
  EXPECT_GT(profile->samples, 0u);
  ExpectFlamegraphFormat(collapsed);
  EXPECT_NE(collapsed.find("sleeper"), std::string::npos)
      << "registered thread name must prefix its stacks";
}

TEST(ProfilerTest, WallModeWithoutRegisteredThreadsFailsCleanly) {
  StatusOr<ProfileResult> profile = Collect(Mode::kWall, /*duration_ms=*/20);
  EXPECT_FALSE(profile.ok());
}

TEST(ProfilerTest, QuiescentWhenNotArmed) {
  // Prime: one short profile proves the machinery works, then the
  // counter must FREEZE while no profile is armed — even under load.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] { SpinUntil(stop); });
  ASSERT_TRUE(Collect(Mode::kCpu, /*duration_ms=*/50).ok());

  const uint64_t signals_after_disarm = SignalsDelivered();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  burner.join();
  EXPECT_EQ(SignalsDelivered(), signals_after_disarm)
      << "SIGPROF delivered while no profile was armed";
}

TEST(ProfilerTest, SecondCollectorIsRejectedNotQueued) {
  std::atomic<bool> stop{false};
  std::thread burner([&stop] { SpinUntil(stop); });

  std::thread collector([] {
    StatusOr<ProfileResult> profile = Collect(Mode::kCpu, /*duration_ms=*/400);
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  });
  // Wait for the first collection to arm.
  while (!Busy()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  StatusOr<ProfileResult> second = Collect(Mode::kCpu, /*duration_ms=*/50);
  EXPECT_FALSE(second.ok()) << "concurrent profiles must not queue";

  collector.join();
  stop.store(true);
  burner.join();
  EXPECT_FALSE(Busy());
}

TEST(ProfilerTest, DurationAndFrequencyAreClamped) {
  std::atomic<bool> stop{false};
  std::thread burner([&stop] { SpinUntil(stop); });
  // 0ms clamps to the 10ms floor; 0Hz clamps to 1Hz: both must collect
  // (possibly zero samples at 1Hz-for-10ms, but never fail or hang).
  StatusOr<ProfileResult> profile = Collect(Mode::kCpu, /*duration_ms=*/0,
                                            /*hz=*/0);
  stop.store(true);
  burner.join();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GE(profile->duration_ms, 10.0);
  EXPECT_GE(profile->frequency_hz, 1);
}

}  // namespace
}  // namespace lotusx::prof
