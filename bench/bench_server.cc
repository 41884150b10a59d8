// Serving-layer benchmark: drives the epoll TCP server (net/server.h)
// with many concurrent pipelined connections from a single-threaded
// epoll client in the same process, and reports per-command round-trip
// latency (p50/p95/p99) plus aggregate command throughput.
//
// The command mix is deliberately cheap (ADD/EDGE/QUERY/SHOW/TYPE):
// the subject under test is the serving layer — framing, scheduling,
// backpressure, fan-out to the worker pool — not the query engine,
// which has its own benches.
//
// Runs three ways against fresh servers: the default observability
// stack (metrics, per-command traces, slow-query detection, statement
// aggregation), with metrics::SetEnabled(false), and with only the
// statement store disabled (stmt::SetEnabled(false)), so the JSON
// carries twin series — "server_pipeline",
// "server_pipeline_trace_off", and "server_pipeline_statements_off" —
// whose throughput deltas isolate the end-to-end cost of observability
// as a whole and of statement aggregation alone (budget: <2% each).
//
//   bench_server [--json out.json]
//   LOTUSX_BENCH_SMOKE=1 bench_server     # tiny run for CI

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/statement_store.h"
#include "common/timer.h"
#include "net/server.h"
#include "net/wire.h"

namespace lotusx::bench {
namespace {

/// One pipelined client connection driven by the bench's epoll loop.
struct ClientConn {
  int fd = -1;
  bool connected = false;
  bool failed = false;
  net::FrameParser parser;
  std::string outbox;
  size_t outbox_offset = 0;
  size_t next_command = 0;  // next script index to enqueue
  size_t frames_received = 0;
  /// One stopwatch per in-flight command, started when the command is
  /// queued for sending; responses arrive in request order, so the
  /// front stopwatch always matches the next frame.
  std::deque<Timer> inflight;
};

/// Raises RLIMIT_NOFILE enough for client + server ends of every
/// connection (best effort; prints a warning when the hard limit wins).
void RaiseFdLimit(size_t connections) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  rlim_t want = static_cast<rlim_t>(4 * connections + 64);
  if (limit.rlim_cur >= want) return;
  rlimit raised = limit;
  raised.rlim_cur = std::min(want, limit.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &raised);
  if (raised.rlim_cur < want) {
    std::printf("warning: RLIMIT_NOFILE %llu < wanted %llu; "
                "reduce connection count if connects fail\n",
                static_cast<unsigned long long>(raised.rlim_cur),
                static_cast<unsigned long long>(want));
  }
}

std::vector<std::string> BuildScript(size_t commands) {
  std::vector<std::string> script = {
      "ADD 50 0 article",
      "ADD 10 130 author",
      "EDGE 1 2 /",
      "OUTPUT 2",
  };
  const std::vector<std::string> mix = {
      "QUERY", "TYPE 1 / a", "SHOW", "VALUE 2 ~ lu", "QUERY", "TYPEVAL 2 l",
  };
  while (script.size() < commands) {
    script.push_back(mix[script.size() % mix.size()]);
  }
  script.resize(commands);
  return script;
}

int ConnectNonBlocking(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Queues up to `window` commands, writes what the socket accepts, and
/// returns the epoll events this connection still needs.
uint32_t PumpConn(ClientConn& conn, const std::vector<std::string>& script,
                  size_t window, std::vector<double>* samples) {
  while (conn.next_command < script.size() &&
         conn.inflight.size() < window) {
    conn.outbox += script[conn.next_command];
    conn.outbox += '\n';
    ++conn.next_command;
    conn.inflight.emplace_back();
  }
  while (conn.outbox_offset < conn.outbox.size()) {
    ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_offset,
                       conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_offset += static_cast<size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      conn.failed = true;
      return 0;
    }
  }
  if (conn.outbox_offset == conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_offset = 0;
  }
  (void)samples;
  uint32_t events = EPOLLIN;
  if (!conn.outbox.empty()) events |= EPOLLOUT;
  return events;
}

/// One full serving run against a fresh server: connect, pipeline the
/// script over every connection, collect per-command latencies into
/// `*samples` (cleared first), and return the wall-clock seconds.
double RunOnce(const index::IndexedDocument& indexed, size_t connections,
               size_t commands_per_conn, size_t window,
               std::vector<double>* samples) {
  const size_t connect_batch = 256;
  samples->clear();
  samples->reserve(connections * commands_per_conn);

  net::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.backlog = 1024;
  options.max_connections = connections + 8;
  options.idle_timeout_ms = 0;  // the bench controls connection lifetime
  auto server = net::Server::Start(indexed, options);
  CHECK(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();

  const std::vector<std::string> script = BuildScript(commands_per_conn);
  std::vector<ClientConn> conns(connections);

  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  CHECK(epoll_fd >= 0) << "epoll_create1 failed";

  Timer wall;
  size_t started = 0;
  size_t finished = 0;
  size_t failed = 0;
  size_t connecting = 0;
  std::array<epoll_event, 256> events;

  auto finish_conn = [&](size_t index) {
    ClientConn& conn = conns[index];
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    if (conn.failed) {
      ++failed;
    }
    ++finished;
  };

  while (finished < connections) {
    // Keep a bounded batch of connects in flight so 1k+ connections do
    // not slam the backlog all at once.
    while (started < connections && connecting < connect_batch) {
      ClientConn& conn = conns[started];
      conn.fd = ConnectNonBlocking(port);
      CHECK(conn.fd >= 0) << "connect failed: " << std::strerror(errno);
      epoll_event ev{};
      ev.events = EPOLLOUT;  // connect completion
      ev.data.u64 = started;
      CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev) == 0)
          << "epoll_ctl failed";
      ++started;
      ++connecting;
    }

    int n = ::epoll_wait(epoll_fd, events.data(),
                         static_cast<int>(events.size()), 1000);
    if (n < 0) {
      if (errno == EINTR) continue;
      CHECK(false) << "epoll_wait failed: " << std::strerror(errno);
    }
    for (int i = 0; i < n; ++i) {
      size_t index = static_cast<size_t>(events[i].data.u64);
      ClientConn& conn = conns[index];
      if (conn.fd < 0) continue;
      uint32_t ev = events[i].events;

      if (!conn.connected) {
        int error = 0;
        socklen_t len = sizeof(error);
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &error, &len);
        CHECK(error == 0) << "connect failed: " << std::strerror(error);
        conn.connected = true;
        --connecting;
      }
      if (ev & (EPOLLERR | EPOLLHUP)) {
        conn.failed = true;
        finish_conn(index);
        continue;
      }
      if (ev & EPOLLIN) {
        char buf[65536];
        for (;;) {
          ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (r > 0) {
            std::vector<net::Frame> frames;
            Status parsed = conn.parser.Feed(
                std::string_view(buf, static_cast<size_t>(r)), &frames);
            if (!parsed.ok()) {
              conn.failed = true;
              break;
            }
            for (net::Frame& frame : frames) {
              CHECK(!conn.inflight.empty()) << "frame without a request";
              samples->push_back(conn.inflight.front().ElapsedMillis());
              conn.inflight.pop_front();
              ++conn.frames_received;
              if (!frame.ok && frame.payload.find("limit") !=
                                   std::string::npos) {
                conn.failed = true;
              }
            }
          } else if (r == 0) {
            conn.failed = conn.frames_received < script.size();
            break;
          } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          } else if (errno != EINTR) {
            conn.failed = true;
            break;
          }
        }
      }
      if (conn.failed || conn.frames_received == script.size()) {
        finish_conn(index);
        continue;
      }
      uint32_t want = PumpConn(conn, script, window, samples);
      if (conn.failed) {
        finish_conn(index);
        continue;
      }
      epoll_event ev_mod{};
      ev_mod.events = want;
      ev_mod.data.u64 = index;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev_mod);
    }
  }
  double wall_s = wall.ElapsedSeconds();
  ::close(epoll_fd);

  (*server)->Stop();
  CHECK(failed == 0) << failed << " connections failed";
  return wall_s;
}

}  // namespace

int Run(int argc, char** argv) {
  const size_t connections = SmokeMode() ? 32 : 1024;
  const size_t commands_per_conn = SmokeMode() ? 12 : 120;
  const size_t window = 8;  // commands in flight per connection

  RaiseFdLimit(connections);

  std::printf("indexing corpus...\n");
  index::IndexedDocument indexed = MakeDblp(/*seed=*/42,
                                            /*approx_nodes=*/50'000);

  const std::string base_params =
      "connections=" + std::to_string(connections) +
      " commands_per_conn=" + std::to_string(commands_per_conn) +
      " window=" + std::to_string(window) +
      " workers=" + std::to_string(ThreadPool::DefaultThreadCount());

  Table table({"variant", "commands", "p50 ms", "p95 ms", "p99 ms",
               "mean ms", "cmd/s"});
  std::vector<double> samples;
  double qps_on = 0;
  double qps_off = 0;
  double qps_stmt_off = 0;

  struct Variant {
    const char* label;
    const char* series;
    bool metrics_enabled;
    bool statements_enabled;
    double* qps_out;
  };
  const Variant variants[] = {
      {"observability on", "server_pipeline", true, true, &qps_on},
      {"trace off", "server_pipeline_trace_off", false, false, &qps_off},
      {"statements off", "server_pipeline_statements_off", true, false,
       &qps_stmt_off},
  };
  // Best-of-N with interleaved trials: one trial's throughput swings
  // ±10% from scheduler and page-cache interference at 1024
  // connections, which would drown the <2% budget entirely.
  // Interleaving (on, off, on, off, ...) cancels slow machine drift
  // that running all of one twin first would fold into the comparison;
  // the fastest trial of each twin is the closest observable to the
  // machine's actual capacity for that variant. One discarded warm-up
  // run comes first, and each trial starts the rotation one variant
  // later, so no variant is always the one that runs on a cold process
  // (first connections, first allocations, cold caches).
  std::printf("warm-up: %zu connections x %zu pipelined commands "
              "(discarded)...\n",
              connections, commands_per_conn);
  {
    std::vector<double> warmup_samples;
    RunOnce(indexed, connections, commands_per_conn, window,
            &warmup_samples);
  }
  const int trials = SmokeMode() ? 1 : 3;
  const size_t num_variants = sizeof(variants) / sizeof(variants[0]);
  std::vector<double> best_wall(num_variants, 0);
  std::vector<std::vector<double>> best_samples(num_variants);
  for (int trial = 0; trial < trials; ++trial) {
    for (size_t i = 0; i < num_variants; ++i) {
      const size_t v = (i + static_cast<size_t>(trial)) % num_variants;
      const Variant& variant = variants[v];
      std::printf("driving %zu connections x %zu pipelined commands "
                  "(window %zu, trial %d/%d, %s)...\n",
                  connections, commands_per_conn, window, trial + 1, trials,
                  variant.label);
      std::vector<double> trial_samples;
      metrics::SetEnabled(variant.metrics_enabled);
      stmt::SetEnabled(variant.statements_enabled);
      double trial_wall = RunOnce(indexed, connections, commands_per_conn,
                                  window, &trial_samples);
      metrics::SetEnabled(true);
      stmt::SetEnabled(true);
      std::printf("  wall time %.2fs, %.0f commands/s\n", trial_wall,
                  static_cast<double>(trial_samples.size()) / trial_wall);
      if (best_wall[v] == 0 || trial_wall < best_wall[v]) {
        best_wall[v] = trial_wall;
        best_samples[v] = std::move(trial_samples);
      }
    }
  }
  for (size_t v = 0; v < num_variants; ++v) {
    const Variant& variant = variants[v];
    const double wall_s = best_wall[v];
    samples = std::move(best_samples[v]);

    std::sort(samples.begin(), samples.end());
    auto pct = [&](double q) {
      size_t index = static_cast<size_t>(
          q * static_cast<double>(samples.size() - 1) + 0.5);
      return samples[index];
    };
    double qps = static_cast<double>(samples.size()) / wall_s;
    *variant.qps_out = qps;
    double mean = 0;
    for (double s : samples) mean += s;
    mean /= static_cast<double>(samples.size());

    BenchJson::Instance().Record(
        variant.series,
        base_params + " metrics=" + (variant.metrics_enabled ? "on" : "off") +
            " statements=" + (variant.statements_enabled ? "on" : "off"),
        samples);
    table.AddRow({variant.label, std::to_string(samples.size()),
                  Fmt(pct(0.50)), Fmt(pct(0.95)), Fmt(pct(0.99)), Fmt(mean),
                  Fmt(qps, 0)});
  }
  table.Print();

  // Throughput cost of the default observability stack (budget <2%).
  // Reported, not CHECKed: single-run noise on shared CI machines
  // exceeds the budget, so enforcement stays with humans reading the
  // trend, and the twin series in --json make that trivial.
  const double overhead_pct = (qps_off - qps_on) / qps_off * 100.0;
  std::printf("observability overhead: %.2f%% cmd/s "
              "(on %.0f vs off %.0f; budget <2%%)\n",
              overhead_pct, qps_on, qps_off);
  const double stmt_overhead_pct =
      (qps_stmt_off - qps_on) / qps_stmt_off * 100.0;
  std::printf("statement-store overhead: %.2f%% cmd/s "
              "(on %.0f vs statements-off %.0f; budget <2%%)\n",
              stmt_overhead_pct, qps_on, qps_stmt_off);

  return WriteJsonIfRequested(argc, argv);
}

}  // namespace lotusx::bench

int main(int argc, char** argv) { return lotusx::bench::Run(argc, argv); }
