// End-to-end coverage of the TCP serving layer (net/): the line framer
// and frame codec in isolation, then real client sockets against a live
// epoll server — pipelining, error frames, backpressure limits,
// connection caps, idle timeouts, and graceful drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/statement_store.h"
#include "common/trace.h"
#include "common/trace_store.h"
#include "twig/fingerprint.h"
#include "net/http_admin.h"
#include "net/line_framer.h"
#include "net/server.h"
#include "net/wire.h"
#include "tests/test_util.h"

namespace lotusx::net {
namespace {

using lotusx::testing::MustIndex;

// ------------------------------------------------------------ LineFramer

TEST(LineFramerTest, ReassemblesPartialReads) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  ASSERT_TRUE(framer.Feed("ADD 1", &lines).ok());
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(framer.buffered(), 5u);
  ASSERT_TRUE(framer.Feed("0 20 article\nQUE", &lines).ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ADD 10 20 article");
  ASSERT_TRUE(framer.Feed("RY\n", &lines).ok());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "QUERY");
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramerTest, SplitsMultipleCommandsInOneRead) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  ASSERT_TRUE(framer.Feed("HELP\nSHOW\nQUERY\n", &lines).ok());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "HELP");
  EXPECT_EQ(lines[1], "SHOW");
  EXPECT_EQ(lines[2], "QUERY");
}

TEST(LineFramerTest, StripsCarriageReturnAndKeepsEmptyLines) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  ASSERT_TRUE(framer.Feed("HELP\r\n\r\nSHOW\n", &lines).ok());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "HELP");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "SHOW");
}

TEST(LineFramerTest, OversizedLinePoisonsTheStream) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  // Completed lines before the overflow are still delivered.
  Status status = framer.Feed("SHOW\n0123456789ABCDEF", &lines);
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "SHOW");
  EXPECT_TRUE(framer.poisoned());
  // Once poisoned, the framer stays failed: resynchronization within the
  // byte stream is impossible.
  EXPECT_FALSE(framer.Feed("HELP\n", &lines).ok());
  EXPECT_EQ(lines.size(), 1u);
}

TEST(LineFramerTest, OversizedDetectionSpansFeeds) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  ASSERT_TRUE(framer.Feed("01234", &lines).ok());
  EXPECT_FALSE(framer.Feed("56789", &lines).ok());
  EXPECT_TRUE(framer.poisoned());
}

// ----------------------------------------------------------- FrameParser

TEST(FrameParserTest, RoundTripsByteByByte) {
  std::string stream = EncodeFrame(true, "node 1") +
                       EncodeFrame(false, "no such box") +
                       EncodeFrame(true, "") +
                       EncodeFrame(true, "line one\nline two");
  FrameParser parser;
  std::vector<Frame> frames;
  for (char c : stream) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1), &frames).ok());
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_TRUE(frames[0].ok);
  EXPECT_EQ(frames[0].payload, "node 1");
  EXPECT_FALSE(frames[1].ok);
  EXPECT_EQ(frames[1].payload, "no such box");
  EXPECT_TRUE(frames[2].ok);
  EXPECT_EQ(frames[2].payload, "");
  EXPECT_EQ(frames[3].payload, "line one\nline two");
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParserTest, RejectsMalformedHeaders) {
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed("WAT 5\nhello\n", &frames).ok());
  EXPECT_TRUE(frames.empty());
  // Stays failed.
  EXPECT_FALSE(parser.Feed(EncodeFrame(true, "x"), &frames).ok());
}

// ------------------------------------------------------------ TCP server

constexpr std::string_view kXml = R"(<dblp>
  <article>
    <author>jiaheng lu</author>
    <title>twig joins</title>
    <year>2005</year>
  </article>
  <article>
    <author>chunbin lin</author>
    <title>lotusx search</title>
    <year>2012</year>
  </article>
</dblp>)";

/// Blocking client socket with a receive timeout, speaking the wire
/// protocol through FrameParser.
class TestClient {
 public:
  /// `rcvbuf_bytes` clamps SO_RCVBUF before connecting (0 = default):
  /// a tiny receive window keeps the server from flushing more than a
  /// few KB into the kernel, which lets tests hold responses unread.
  explicit TestClient(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
    }
  }
  ~TestClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  bool Send(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until `count` frames arrived (or error/EOF/timeout).
  std::vector<Frame> ReadFrames(size_t count) {
    std::vector<Frame> frames;
    char buf[4096];
    while (frames.size() < count) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      if (!parser_
               .Feed(std::string_view(buf, static_cast<size_t>(n)), &frames)
               .ok()) {
        break;
      }
    }
    return frames;
  }

  /// True when the server closed the connection (EOF within the receive
  /// timeout).
  bool ReadEof() {
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameParser parser_;
};

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() : indexed_(MustIndex(kXml)) {}

  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    auto server = Server::Start(indexed_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(*server) : nullptr;
  }

  index::IndexedDocument indexed_;
};

TEST_F(NetServerTest, ExecutesCommandsInOrder) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("ADD 50 0 article\n"));
  std::vector<Frame> frames = client.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].ok);
  EXPECT_EQ(frames[0].payload, "node 1");

  ASSERT_TRUE(client.Send("ADD 10 100 author\nEDGE 1 2 /\nQUERY\n"));
  frames = client.ReadFrames(3);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frames[0].ok);
  EXPECT_EQ(frames[0].payload, "node 2");
  EXPECT_TRUE(frames[1].ok);
  EXPECT_TRUE(frames[2].ok);
  EXPECT_NE(frames[2].payload.find("article"), std::string::npos);
  EXPECT_NE(frames[2].payload.find("author"), std::string::npos);
}

TEST_F(NetServerTest, PipelinedBatchKeepsOrder) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  constexpr int kCommands = 80;
  std::string batch;
  for (int i = 0; i < kCommands; ++i) {
    batch += "ADD " + std::to_string(i * 10) + " 0 article\n";
  }
  batch += "SHOW\n";
  ASSERT_TRUE(client.Send(batch));

  std::vector<Frame> frames = client.ReadFrames(kCommands + 1);
  ASSERT_EQ(frames.size(), static_cast<size_t>(kCommands) + 1);
  for (int i = 0; i < kCommands; ++i) {
    EXPECT_TRUE(frames[i].ok) << frames[i].payload;
    EXPECT_EQ(frames[i].payload, "node " + std::to_string(i + 1));
  }
  EXPECT_TRUE(frames[kCommands].ok);
}

TEST_F(NetServerTest, ReportsErrorsAsErrFrames) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("BOGUS\nADD nan 0\nHELP\n"));
  std::vector<Frame> frames = client.ReadFrames(3);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_FALSE(frames[0].ok);
  EXPECT_FALSE(frames[1].ok);
  EXPECT_NE(frames[1].payload.find("number"), std::string::npos)
      << frames[1].payload;
  // The connection survives command errors.
  EXPECT_TRUE(frames[2].ok);
}

TEST_F(NetServerTest, RejectsOverConnectionLimit) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TestClient first(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send("HELP\n"));
  ASSERT_EQ(first.ReadFrames(1).size(), 1u);  // registered for sure

  TestClient second(server->port());
  ASSERT_TRUE(second.connected());
  std::vector<Frame> frames = second.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(frames[0].ok);
  EXPECT_NE(frames[0].payload.find("connection limit"), std::string::npos);
  EXPECT_TRUE(second.ReadEof());
  EXPECT_EQ(server->active_connections(), 1);
}

TEST_F(NetServerTest, ClosesIdleConnections) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("HELP\n"));
  ASSERT_EQ(client.ReadFrames(1).size(), 1u);
  // Stay silent; the reaper closes us well within the receive timeout.
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(NetServerTest, OversizedLineAnswersThenCloses) {
  ServerOptions options;
  options.max_line_bytes = 64;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string huge(256, 'x');
  ASSERT_TRUE(client.Send("HELP\n" + huge + "\n"));
  std::vector<Frame> frames = client.ReadFrames(2);
  ASSERT_EQ(frames.size(), 2u);
  // The command that preceded the overlong line still answers, in order.
  EXPECT_TRUE(frames[0].ok);
  EXPECT_FALSE(frames[1].ok);
  EXPECT_NE(frames[1].payload.find("line exceeds"), std::string::npos)
      << frames[1].payload;
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(NetServerTest, GracefulDrainFlushesAndStops) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("ADD 0 0 article\nSHOW\n"));
  ASSERT_EQ(client.ReadFrames(2).size(), 2u);

  server->RequestDrain();
  // Drain closes our (now idle) connection...
  EXPECT_TRUE(client.ReadEof());
  // ...and the loop exits on its own.
  server->AwaitTermination();
  EXPECT_EQ(server->active_connections(), 0);

  // New connections are refused once the listener is gone.
  TestClient late(server->port());
  if (late.connected()) {
    EXPECT_TRUE(late.ReadEof());
  }
}

TEST_F(NetServerTest, StatsVerbExposesNetMetrics) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("HELP\nSTATS\n"));
  std::vector<Frame> frames = client.ReadFrames(2);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_TRUE(frames[1].ok);
  const std::string& stats = frames[1].payload;
  EXPECT_NE(stats.find("lotusx_net_commands_total"), std::string::npos);
  EXPECT_NE(stats.find("lotusx_net_connections_active"), std::string::npos);
  EXPECT_NE(stats.find("lotusx_net_accepted_total"), std::string::npos);
  EXPECT_NE(stats.find("lotusx_net_command_latency_usec"),
            std::string::npos);
}

TEST_F(NetServerTest, ConcurrentClientsGetIsolatedSessions) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  uint16_t port = server->port();

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  // Not vector<bool>: adjacent packed bits written from different threads
  // would themselves be a data race.
  std::array<std::atomic<bool>, kClients> passed = {};
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([port, i, &passed] {
      TestClient client(port);
      if (!client.connected()) return;
      if (!client.Send("ADD 0 0 article\nADD 0 100 title\nEDGE 1 2 /\n"
                       "RUN\n")) {
        return;
      }
      std::vector<Frame> frames = client.ReadFrames(4);
      if (frames.size() != 4) return;
      // Sessions are per-connection: every client's first box is node 1.
      passed[i] = frames[0].ok && frames[0].payload == "node 1" &&
                  frames[1].ok && frames[1].payload == "node 2" &&
                  frames[2].ok && frames[3].ok;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(passed[i]) << "client " << i;
  }
}

// ------------------------------------------------------------ HTTP admin

/// Collects handler calls and returns a canned response per path.
/// Records "path?query" when the request carried a query string so the
/// tests can assert the split.
HttpHandler EchoHandler(std::vector<std::string>* paths) {
  return [paths](std::string_view path, std::string_view query) {
    std::string recorded(path);
    if (!query.empty()) {
      recorded += '?';
      recorded += query;
    }
    paths->push_back(std::move(recorded));
    HttpResponse response;
    if (path == "/missing") {
      response.status = 404;
      response.body = "not found\n";
    } else {
      response.body = "hello " + std::string(path) + "\n";
    }
    return response;
  };
}

TEST(HttpParserTest, DispatchesASimpleGet) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                         EchoHandler(&paths), &out));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], "/healthz");
  EXPECT_NE(out.find("HTTP/1.1 200 OK\r\n"), std::string::npos) << out;
  EXPECT_NE(out.find("hello /healthz\n"), std::string::npos) << out;
  EXPECT_NE(out.find("Content-Length: "), std::string::npos) << out;
}

TEST(HttpParserTest, ReassemblesARequestSplitAcrossFeeds) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /met", EchoHandler(&paths), &out));
  EXPECT_TRUE(paths.empty());
  EXPECT_TRUE(state.Feed("rics HTTP/1.1\r\n\r\n", EchoHandler(&paths), &out));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], "/metrics");
}

TEST(HttpParserTest, AnswersPipelinedGetsInOrder) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
                         EchoHandler(&paths), &out));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "/a");
  EXPECT_EQ(paths[1], "/b");
  size_t first = out.find("hello /a\n");
  size_t second = out.find("hello /b\n");
  ASSERT_NE(first, std::string::npos) << out;
  ASSERT_NE(second, std::string::npos) << out;
  EXPECT_LT(first, second);
}

TEST(HttpParserTest, SplitsTheQueryStringFromThePath) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /slowlog.json?n=5 HTTP/1.1\r\n\r\n",
                         EchoHandler(&paths), &out));
  ASSERT_EQ(paths.size(), 1u);
  // The handler sees the bare path plus the raw query string; the
  // canned response keys off the path alone.
  EXPECT_EQ(paths[0], "/slowlog.json?n=5");
  EXPECT_NE(out.find("hello /slowlog.json\n"), std::string::npos) << out;
}

TEST(HttpParserTest, HeadOmitsTheBody) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("HEAD /healthz HTTP/1.1\r\n\r\n",
                         EchoHandler(&paths), &out));
  EXPECT_NE(out.find("HTTP/1.1 200 OK\r\n"), std::string::npos) << out;
  EXPECT_NE(out.find("Content-Length: "), std::string::npos) << out;
  EXPECT_EQ(out.find("hello"), std::string::npos) << out;
}

TEST(HttpParserTest, BadMethodGets405AndCloses) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_FALSE(state.Feed("POST /metrics HTTP/1.1\r\n\r\n",
                          EchoHandler(&paths), &out));
  EXPECT_TRUE(paths.empty());
  EXPECT_NE(out.find("405"), std::string::npos) << out;
  // The parser latches failed: later bytes are ignored.
  EXPECT_FALSE(state.Feed("GET /a HTTP/1.1\r\n\r\n", EchoHandler(&paths),
                          &out));
  EXPECT_TRUE(paths.empty());
}

TEST(HttpParserTest, MalformedRequestLineGets400) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_FALSE(state.Feed("definitely not http\r\n\r\n", EchoHandler(&paths),
                          &out));
  EXPECT_TRUE(paths.empty());
  EXPECT_NE(out.find("400"), std::string::npos) << out;
}

TEST(HttpParserTest, OversizedRequestGets431) {
  HttpConnectionState state(/*max_request_bytes=*/64);
  std::vector<std::string> paths;
  std::string out;
  std::string huge = "GET /" + std::string(128, 'x');
  EXPECT_FALSE(state.Feed(huge, EchoHandler(&paths), &out));
  EXPECT_TRUE(paths.empty());
  EXPECT_NE(out.find("431"), std::string::npos) << out;
}

TEST(HttpParserTest, Http10AndConnectionCloseEndTheConnection) {
  {
    HttpConnectionState state;
    std::vector<std::string> paths;
    std::string out;
    EXPECT_FALSE(state.Feed("GET /healthz HTTP/1.0\r\n\r\n",
                            EchoHandler(&paths), &out));
    ASSERT_EQ(paths.size(), 1u);  // still answered
    EXPECT_NE(out.find("200"), std::string::npos) << out;
  }
  {
    HttpConnectionState state;
    std::vector<std::string> paths;
    std::string out;
    EXPECT_FALSE(state.Feed(
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        EchoHandler(&paths), &out));
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_NE(out.find("200"), std::string::npos) << out;
  }
}

TEST(HttpParserTest, AcceptsBareLfFraming) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /healthz HTTP/1.1\n\n", EchoHandler(&paths),
                         &out));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], "/healthz");
}

TEST(HttpParserTest, HandlerStatusAndContentTypePassThrough) {
  HttpConnectionState state;
  std::vector<std::string> paths;
  std::string out;
  EXPECT_TRUE(state.Feed("GET /missing HTTP/1.1\r\n\r\n",
                         EchoHandler(&paths), &out));
  EXPECT_NE(out.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("not found\n"), std::string::npos) << out;
}

/// Blocking HTTP/1.1 client for the live admin plane: one request per
/// connection (Connection: close), returns the raw response.
std::string AdminGet(uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[8192];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class AdminPlaneTest : public NetServerTest {
 protected:
  std::unique_ptr<Server> StartWithAdmin(ServerOptions options = {}) {
    options.admin_port = 0;  // ephemeral
    return StartServer(options);
  }
};

TEST_F(AdminPlaneTest, MetricsEndpointRendersPrometheusText) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->admin_port(), 0);

  // Drive some traffic first so counters are non-zero.
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("HELP\nSHOW\n"));
  ASSERT_EQ(client.ReadFrames(2).size(), 2u);

  std::string response = AdminGet(server->admin_port(), "/metrics");
  EXPECT_NE(response.find(" 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("lotusx_net_commands_total"), std::string::npos);
  EXPECT_NE(response.find("lotusx_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(response.find("lotusx_build_info{"), std::string::npos);
}

TEST_F(AdminPlaneTest, HealthzFlipsTo503DuringDrain) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);

  EXPECT_NE(AdminGet(server->admin_port(), "/healthz").find(" 200 OK"),
            std::string::npos);

  // Hold the drain open deterministically: a clamped receive window
  // keeps the kernel from absorbing the responses, the batch stays
  // under the pipeline cap so one read queues all of it, and waiting
  // for the first frame proves the server took the batch before the
  // drain stops it from reading.
  TestClient client(server->port(), /*rcvbuf_bytes=*/8192);
  ASSERT_TRUE(client.connected());
  std::string batch;
  for (int i = 0; i < 200; ++i) batch += "STATS\n";
  ASSERT_TRUE(client.Send(batch));
  ASSERT_EQ(client.ReadFrames(1).size(), 1u);
  server->RequestDrain();

  // Poll: the drain begins on the loop thread, so an immediate GET can
  // still see the pre-drain state.
  std::string draining;
  for (int i = 0; i < 200; ++i) {
    draining = AdminGet(server->admin_port(), "/healthz");
    if (draining.find(" 503 ") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(draining.find(" 503 Service Unavailable"), std::string::npos)
      << draining;
  EXPECT_NE(draining.find("draining"), std::string::npos) << draining;

  // Unblock the drain by consuming everything, then the loop exits.
  EXPECT_TRUE(client.ReadEof());
  server->AwaitTermination();
  EXPECT_EQ(server->active_connections(), 0);
}

TEST_F(AdminPlaneTest, SlowlogAndTracezServeJson) {
  double previous_threshold = trace::SetSlowQueryThresholdMillis(0);
  double previous_rate = trace::SetTraceSampleRate(1.0);
  trace::SlowLog::Default().Reset();
  trace::TraceStore::Default().Reset();
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(
      "ADD 0 0 article\nADD 0 100 author\nEDGE 1 2 /\nRUN\n"));
  ASSERT_EQ(client.ReadFrames(4).size(), 4u);

  std::string slowlog = AdminGet(server->admin_port(), "/slowlog.json");
  EXPECT_NE(slowlog.find("application/json"), std::string::npos);
  EXPECT_NE(slowlog.find("\"trace_id\""), std::string::npos) << slowlog;
  EXPECT_NE(slowlog.find("\"stages\""), std::string::npos) << slowlog;

  std::string tracez = AdminGet(server->admin_port(), "/tracez");
  EXPECT_NE(tracez.find("\"traceEvents\""), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"ph\":\"X\""), std::string::npos) << tracez;

  trace::SetSlowQueryThresholdMillis(previous_threshold);
  trace::SetTraceSampleRate(previous_rate);
  trace::SlowLog::Default().Reset();
  trace::TraceStore::Default().Reset();
}

TEST_F(AdminPlaneTest, UnknownPathGets404) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  std::string response = AdminGet(server->admin_port(), "/nope");
  EXPECT_NE(response.find(" 404 Not Found"), std::string::npos) << response;
}

TEST_F(AdminPlaneTest, ClientsVerbSeesTheConnection) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("HELP\nCLIENTS\n"));
  std::vector<Frame> frames = client.ReadFrames(2);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_TRUE(frames[1].ok) << frames[1].payload;
  EXPECT_NE(frames[1].payload.find("peer=127.0.0.1:"), std::string::npos)
      << frames[1].payload;
  EXPECT_NE(frames[1].payload.find("last_verb=CLIENTS"), std::string::npos)
      << frames[1].payload;
  // Cumulative command count: HELP plus the CLIENTS rendering itself.
  EXPECT_NE(frames[1].payload.find("commands=2"), std::string::npos)
      << frames[1].payload;
}

TEST_F(AdminPlaneTest, ClientsVerbJoinsSearchesToTheirFingerprint) {
  stmt::StatementStore::Default().Reset();
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // Before any search runs, no fingerprint is shown.
  ASSERT_TRUE(client.Send("CLIENTS\n"));
  std::vector<Frame> frames = client.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.find("fingerprint="), std::string::npos)
      << frames[0].payload;

  ASSERT_TRUE(client.Send(
      "ADD 0 0 article\nADD 0 100 author\nEDGE 1 2 /\nRUN\nCLIENTS\n"));
  frames = client.ReadFrames(5);
  ASSERT_EQ(frames.size(), 5u);
  ASSERT_TRUE(frames[4].ok) << frames[4].payload;
  const std::string& clients = frames[4].payload;
  const size_t at = clients.find("fingerprint=0x");
  ASSERT_NE(at, std::string::npos)
      << "RUN must stamp its statement fingerprint: " << clients;
  // A non-search command afterwards must NOT erase it (CLIENTS itself
  // already ran after RUN in this batch), and the fingerprint joins the
  // statement store's row for the same shape.
  const std::string fingerprint = clients.substr(at + 12, 18);
  EXPECT_TRUE(stmt::StatementStore::Default()
                  .Find(twig::ParseFingerprint(fingerprint))
                  .has_value())
      << fingerprint << " not tracked by the statement store";
}

TEST_F(AdminPlaneTest, HealthzServesJsonIdentity) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  const std::string response = AdminGet(server->admin_port(), "/healthz");
  EXPECT_NE(response.find(" 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"uptime_sec\":"), std::string::npos) << response;
  EXPECT_NE(response.find("\"version\":\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"git_sha\":\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"draining\":false"), std::string::npos)
      << response;
}

TEST_F(AdminPlaneTest, StatementsJsonServesWorkloadAggregates) {
  stmt::StatementStore::Default().Reset();
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(
      "ADD 0 0 article\nADD 0 100 author\nEDGE 1 2 /\nRUN\nRUN\n"));
  ASSERT_EQ(client.ReadFrames(5).size(), 5u);

  const std::string response =
      AdminGet(server->admin_port(), "/statements.json");
  EXPECT_NE(response.find("application/json"), std::string::npos) << response;
  EXPECT_NE(response.find("\"statements\":["), std::string::npos) << response;
  EXPECT_NE(response.find("\"fingerprint\":\"0x"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"calls\":2"), std::string::npos)
      << "two RUNs of one shape must aggregate: " << response;
}

TEST_F(AdminPlaneTest, IndexzRendersIndexAccounting) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  const std::string response = AdminGet(server->admin_port(), "/indexz");
  EXPECT_NE(response.find(" 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"document\":{\"nodes\":"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"tag_streams\":"), std::string::npos) << response;
  EXPECT_NE(response.find("\"posting_blocks\":{"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"total_bytes\":"), std::string::npos) << response;
  // Only stores the serving path reads are built and reported.
  EXPECT_EQ(response.find("\"containment\":"), std::string::npos) << response;
  EXPECT_EQ(response.find("\"dewey\":"), std::string::npos) << response;

  // total_bytes is exactly the document's bytes plus every rendered
  // component's: a component missing from the JSON or from the total
  // breaks the sum. Each "bytes" key is the document's or a component's
  // ("memory_bytes" and "total_bytes" carry another prefix).
  const auto number_after = [&](size_t key_end) {
    return std::strtoull(response.c_str() + key_end, nullptr, 10);
  };
  const std::string bytes_key = "\"bytes\":";
  uint64_t rendered_sum = 0;
  for (size_t at = response.find(bytes_key); at != std::string::npos;
       at = response.find(bytes_key, at + 1)) {
    rendered_sum += number_after(at + bytes_key.size());
  }
  const std::string total_key = "\"total_bytes\":";
  const size_t total_at = response.find(total_key);
  ASSERT_NE(total_at, std::string::npos) << response;
  EXPECT_EQ(number_after(total_at + total_key.size()), rendered_sum)
      << response;
}

TEST_F(AdminPlaneTest, ProfilezCollectsOverTheQueryString) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  // Wall mode: the loop thread (blocked inside Collect) and the pool
  // workers are registered, so samples are guaranteed even when idle.
  const std::string response = AdminGet(
      server->admin_port(), "/profilez?seconds=0.05&mode=wall");
  EXPECT_NE(response.find(" 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("event-loop;"), std::string::npos)
      << "the loop thread's own stack must appear: " << response;

  for (const char* seconds : {"bogus", "nan", "inf", "-inf"}) {
    const std::string bad = AdminGet(
        server->admin_port(), std::string("/profilez?seconds=") + seconds);
    EXPECT_NE(bad.find(" 400 Bad Request"), std::string::npos)
        << seconds << ": " << bad;
  }
}

TEST_F(AdminPlaneTest, SlowlogVerbRoundTripsOverTheWire) {
  double previous_threshold = trace::SetSlowQueryThresholdMillis(0);
  trace::SlowLog::Default().Reset();
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("SHOW\nSLOWLOG GET\nSLOWLOG LEN\nSLOWLOG RESET\n"));
  std::vector<Frame> frames = client.ReadFrames(4);
  ASSERT_EQ(frames.size(), 4u);
  ASSERT_TRUE(frames[1].ok) << frames[1].payload;
  // The SHOW command preceding it is in the log with a trace id.
  EXPECT_NE(frames[1].payload.find("0x"), std::string::npos)
      << frames[1].payload;
  EXPECT_NE(frames[1].payload.find("SHOW"), std::string::npos)
      << frames[1].payload;
  ASSERT_TRUE(frames[2].ok);
  EXPECT_NE(frames[2].payload, "0");  // LEN counted the SHOW at least
  ASSERT_TRUE(frames[3].ok);
  EXPECT_EQ(frames[3].payload, "ok");
  trace::SetSlowQueryThresholdMillis(previous_threshold);
  trace::SlowLog::Default().Reset();
}

// Scrapes /metrics and STATS concurrently with live traffic: the whole
// introspection surface under ThreadSanitizer.
TEST_F(AdminPlaneTest, ConcurrentScrapesAndTrafficStayCoherent) {
  auto server = StartWithAdmin();
  ASSERT_NE(server, nullptr);
  const uint16_t port = server->port();
  const uint16_t admin_port = server->admin_port();

  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([port, &ok] {
      TestClient client(port);
      if (!client.connected()) {
        ok = false;
        return;
      }
      for (int i = 0; i < 20; ++i) {
        if (!client.Send("ADD 0 0 article\nSHOW\nSTATS\nRESET\n") ||
            client.ReadFrames(4).size() != 4) {
          ok = false;
          return;
        }
      }
    });
  }
  threads.emplace_back([admin_port, &ok] {
    for (int i = 0; i < 20; ++i) {
      std::string response = AdminGet(admin_port, "/metrics");
      if (response.find("200 OK") == std::string::npos) {
        ok = false;
        return;
      }
    }
  });
  threads.emplace_back([admin_port] {
    for (int i = 0; i < 20; ++i) {
      AdminGet(admin_port, "/tracez");
      AdminGet(admin_port, "/slowlog.json");
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace lotusx::net
