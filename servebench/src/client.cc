#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <vector>

#include "net/wire.h"
#include "stream.h"

namespace servebench {
namespace {

// A silent server for this long is a hung run, not a slow one.
constexpr int kStallTimeoutMs = 60000;

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void Send(int fd, const std::string& line) {
  const std::string message = line + "\n";
  size_t offset = 0;
  while (offset < message.size()) {
    ssize_t n = ::send(fd, message.data() + offset, message.size() - offset,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail(std::string("send: ") + std::strerror(errno));
    offset += static_cast<size_t>(n);
  }
}

// Reads until one whole response frame has arrived.
lotusx::net::Frame Receive(int fd, lotusx::net::FrameParser& parser) {
  std::vector<lotusx::net::Frame> frames;
  char buffer[1 << 16];
  while (frames.empty()) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kStallTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) Fail("server stalled");
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("server closed the connection");
    if (!parser.Feed(std::string_view(buffer, static_cast<size_t>(n)), &frames).ok()) {
      Fail("malformed response frame");
    }
  }
  if (frames.size() > 1) Fail("more responses than commands");
  return std::move(frames.front());
}

// Server CPU time (user + system, all threads) from its process CPU-time
// clock, to the nanosecond (/proc/<pid>/stat counts 10 ms ticks).
double ProcessCpuSeconds(int pid) {
  clockid_t clock;
  timespec ts;
  if (::clock_getcpuclockid(pid, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    Fail("cannot read server CPU time");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long PeakRssKb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  Fail("cannot read server VmHWM");
}

}  // namespace

void RunClient(const ClientOptions& options) {
  Stream stream = ReadStream(StreamPath(options.dir));
  if (options.corrupt_command >= 0) {
    std::string& payload =
        stream.commands.at(static_cast<size_t>(options.corrupt_command)).payload;
    payload = payload.empty() ? "x" : "~" + payload.substr(1);
  }
  const int fd = Connect(options.port);
  lotusx::net::FrameParser parser;
  std::ofstream latency_out;
  if (!options.latency_out.empty()) latency_out.open(options.latency_out);

  // Closed loop: each command is sent once the previous response arrived.
  // The warm-up prefix is not measured; the measured phase starts when its
  // last response is in.
  std::vector<double> ms[3];  // latency per VerbClass
  size_t attempted = 0, failed = 0, errors = 0, mismatches = 0;
  double cpu_start = ProcessCpuSeconds(options.server_pid);
  int64_t wall_start = NowNanos();
  for (size_t i = 0; i < stream.commands.size(); ++i) {
    if (i == stream.warmup) {
      cpu_start = ProcessCpuSeconds(options.server_pid);
      wall_start = NowNanos();
    }
    const Command& expected = stream.commands[i];
    const int64_t sent_at = NowNanos();
    Send(fd, expected.line);
    const lotusx::net::Frame frame = Receive(fd, parser);
    const double rtt_ms = static_cast<double>(NowNanos() - sent_at) / 1e6;
    ++attempted;
    const bool error = !frame.ok;
    const bool mismatch = frame.ok != expected.ok || frame.payload != expected.payload;
    errors += error;
    mismatches += mismatch;
    failed += error || mismatch;
    if (mismatch && mismatches <= 3) {
      std::fprintf(stderr, "servebench: payload mismatch on command %zu '%s'\n", i,
                   expected.line.c_str());
    }
    if (i >= stream.warmup) {
      ms[static_cast<int>(ClassOf(expected.line))].push_back(rtt_ms);
      if (latency_out) latency_out << i << " " << rtt_ms * 1e3 << "\n";
    }
  }
  const double wall_s = static_cast<double>(NowNanos() - wall_start) / 1e9;
  const double server_cpu_s = ProcessCpuSeconds(options.server_pid) - cpu_start;
  const long hwm_kb = PeakRssKb(options.server_pid);
  ::close(fd);

  std::printf("{\"attempted\": %zu, \"failed\": %zu, \"errors\": %zu, "
              "\"mismatches\": %zu, \"vmhwm_kb\": %ld, \"commands\": %zu, "
              "\"wall_s\": %.6f, \"server_cpu_s\": %.4f",
              attempted, failed, errors, mismatches, hwm_kb,
              stream.commands.size() - stream.warmup, wall_s, server_cpu_s);
  for (VerbClass verb_class : {VerbClass::kSuggest, VerbClass::kRun, VerbClass::kEdit}) {
    std::vector<double>& samples = ms[static_cast<int>(verb_class)];
    const size_t n = samples.size();
    const double p50 = Percentile(samples, 0.5);
    const double p90 = Percentile(samples, 0.9);
    std::printf(", \"%s\": {\"n\": %zu, \"p50_ms\": %.6f, \"p90_ms\": %.6f}",
                ClassName(verb_class), n, p50, p90);
  }
  std::printf("}\n");
}

double CalibrationSeconds() {
  const int64_t start = NowNanos();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 200000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(NowNanos() - start) / 1e9;
}

}  // namespace servebench
