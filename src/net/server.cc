#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/process_metrics.h"
#include "common/profiler.h"
#include "common/statement_store.h"
#include "common/trace_store.h"
#include "net/wire.h"

namespace lotusx::net {

StatusOr<std::unique_ptr<Server>> Server::Start(
    const index::IndexedDocument& indexed, ServerOptions options) {
  LOTUSX_ASSIGN_OR_RETURN(
      Listener listener,
      Listener::Bind(options.host, options.port, options.backlog));
  std::optional<Listener> admin_listener;
  if (options.admin_port >= 0) {
    LOTUSX_ASSIGN_OR_RETURN(
        Listener bound,
        Listener::Bind(options.host,
                       static_cast<uint16_t>(options.admin_port),
                       options.backlog));
    admin_listener.emplace(std::move(bound));
  }

  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Status::IOError("epoll_create1 failed");
  int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(epoll_fd);
    return Status::IOError("eventfd failed");
  }

  int listener_fd = listener.fd();
  int admin_fd = admin_listener.has_value() ? admin_listener->fd() : -1;
  auto server = std::make_unique<Server>(indexed, std::move(options),
                                         std::move(listener),
                                         std::move(admin_listener), epoll_fd,
                                         wake_fd);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listener_fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(listener) failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(eventfd) failed");
  }
  if (admin_fd >= 0) {
    ev.events = EPOLLIN;
    ev.data.fd = admin_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, admin_fd, &ev) != 0) {
      return Status::IOError("epoll_ctl(admin listener) failed");
    }
  }

  server->loop_thread_ = std::thread([s = server.get()] { s->EventLoop(); });
  return server;
}

Server::Server(const index::IndexedDocument& indexed, ServerOptions options,
               Listener listener, std::optional<Listener> admin_listener,
               int epoll_fd, int wake_fd)
    : indexed_(indexed),
      options_(std::move(options)),
      port_(listener.port()),
      listener_(std::move(listener)),
      admin_listener_(std::move(admin_listener)),
      admin_port_(admin_listener_.has_value() ? admin_listener_->port() : 0),
      epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      pool_(options_.num_workers > 0 ? options_.num_workers
                                     : ThreadPool::DefaultThreadCount()) {
  metrics::Registry& registry = metrics::Registry::Default();
  connections_gauge_ = registry.GetGauge("lotusx_net_connections_active");
  accepted_total_ = registry.GetCounter("lotusx_net_accepted_total");
  rejected_total_ = registry.GetCounter("lotusx_net_rejected_total");
  idle_timeouts_total_ =
      registry.GetCounter("lotusx_net_idle_timeouts_total");
}

Server::~Server() {
  Stop();
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::AwaitTermination() {
  {
    MutexLock lock(join_mu_);
    if (!joined_) {
      // Start() may have failed before the loop thread existed.
      if (loop_thread_.joinable()) loop_thread_.join();
      joined_ = true;
    }
  }
  pool_.Shutdown();
}

void Server::Stop() {
  RequestDrain();
  AwaitTermination();
}

void Server::SubmitExecution(std::shared_ptr<Connection> conn) {
  std::shared_ptr<Connection> keep = conn;
  if (!pool_.Submit([conn = std::move(conn)] { conn->ExecuteBatch(); })) {
    // Pool already shut down (we are past AwaitTermination); nobody will
    // read these responses, so just release the in-flight claim.
    keep->MarkClosed();
    NotifyDirty(std::move(keep));
  }
}

void Server::NotifyDirty(std::shared_ptr<Connection> conn) {
  {
    MutexLock lock(mu_);
    dirty_.push_back(std::move(conn));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::EventLoop() {
  // Wall-mode profiles want the loop thread too: time blocked in
  // epoll_wait is exactly what distinguishes an idle server from one
  // stuck flushing a slow client.
  prof::ScopedThreadRegistration profiler_registration("event-loop");
  std::array<epoll_event, 64> events;
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), WaitTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed: tear everything down below
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t value;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &value, sizeof(value));
        continue;  // the work itself arrives via dirty_
      }
      if (fd == listener_.fd()) {
        AcceptPending();
        continue;
      }
      if (admin_listener_.has_value() && fd == admin_listener_->fd()) {
        AcceptAdminPending();
        continue;
      }
      if (admin_connections_.count(fd) != 0) {
        HandleAdminEvent(fd, ev);
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this round
      std::shared_ptr<Connection> conn = it->second;
      if (ev & EPOLLIN) conn->OnReadable();
      if (ev & EPOLLOUT) conn->FlushWrites();
      if ((ev & (EPOLLERR | EPOLLHUP)) && !conn->ReadyToClose() &&
          !(ev & EPOLLIN)) {
        // Peer reset while we were not even reading (backpressure or
        // drain): no bytes will tell us, so close on the epoll signal.
        CloseConnection(conn);
        continue;
      }
      ProcessConnection(conn);
    }
    ProcessDirty();
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDraining();
    }
    if (options_.idle_timeout_ms > 0) CloseIdleConnections();
    if (draining_) {
      if (connections_.empty()) break;
      if (drain_clock_.ElapsedMillis() >=
          static_cast<double>(options_.drain_timeout_ms)) {
        break;  // stragglers are force-closed below
      }
    }
  }
  // Force-close whatever is left (drain timeout or epoll failure).
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (auto& conn : remaining) CloseConnection(conn);
  listener_.Close();
  // The admin plane outlives the drain (so /healthz can answer 503 the
  // whole time) and only comes down with the loop itself.
  std::vector<int> admin_fds;
  admin_fds.reserve(admin_connections_.size());
  for (auto& [fd, state] : admin_connections_) admin_fds.push_back(fd);
  for (int fd : admin_fds) CloseAdminConnection(fd);
  if (admin_listener_.has_value()) admin_listener_->Close();
}

void Server::BeginDraining() {
  draining_ = true;
  drain_clock_.Restart();
  listener_.Close();  // closing the fd deregisters it from epoll
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) conns.push_back(conn);
  for (auto& conn : conns) {
    conn->BeginDrain();
    ProcessConnection(conn);  // idle connections close right here
  }
}

void Server::AcceptPending() {
  for (;;) {
    StatusOr<int> accepted = listener_.Accept();
    if (!accepted.ok()) break;  // EMFILE etc.: retry on the next event
    int fd = *accepted;
    if (fd < 0) break;  // would-block: queue drained
    if (connections_.size() >= options_.max_connections) {
      std::string frame = EncodeFrame(false, "server at connection limit");
      [[maybe_unused]] ssize_t n =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      rejected_total_->Increment();
      continue;
    }
    ConnectionLimits limits;
    limits.max_line_bytes = options_.max_line_bytes;
    limits.max_pipelined_commands = options_.max_pipelined_commands;
    limits.max_output_bytes = options_.max_output_bytes;
    auto conn = std::make_shared<Connection>(fd, this, indexed_,
                                             options_.session, limits);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    registered_events_[fd] = EPOLLIN;
    connections_[fd] = std::move(conn);
    accepted_total_->Increment();
    connections_gauge_->Add(1);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ProcessDirty() {
  std::vector<std::shared_ptr<Connection>> dirty;
  {
    MutexLock lock(mu_);
    dirty.swap(dirty_);
  }
  for (auto& conn : dirty) ProcessConnection(conn);
}

void Server::ProcessConnection(const std::shared_ptr<Connection>& conn) {
  auto it = connections_.find(conn->fd());
  // A closed fd number may already belong to a newer connection; only
  // act when this exact connection is still registered.
  if (it == connections_.end() || it->second != conn) return;
  conn->MaybeEmitFramingError();
  conn->FlushWrites();
  if (conn->has_fatal_error() || conn->ReadyToClose()) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  uint32_t want = conn->DesiredEvents();
  uint32_t& registered = registered_events_[conn->fd()];
  if (want == registered) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
    registered = want;
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  auto it = connections_.find(conn->fd());
  if (it == connections_.end() || it->second != conn) return;
  conn->MarkClosed();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
  ::close(conn->fd());
  registered_events_.erase(conn->fd());
  connections_.erase(it);
  connections_gauge_->Add(-1);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::CloseIdleConnections() {
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : connections_) {
    if (conn->IdleCandidate() &&
        conn->IdleMillis() >= static_cast<double>(options_.idle_timeout_ms)) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : idle) {
    idle_timeouts_total_->Increment();
    CloseConnection(conn);
  }
}

void Server::AcceptAdminPending() {
  for (;;) {
    StatusOr<int> accepted = admin_listener_->Accept();
    if (!accepted.ok()) break;
    int fd = *accepted;
    if (fd < 0) break;  // would-block: queue drained
    if (admin_connections_.size() >= options_.max_admin_connections) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    registered_events_[fd] = EPOLLIN;
    admin_connections_[fd];  // default-construct the connection state
  }
}

void Server::HandleAdminEvent(int fd, uint32_t events) {
  auto it = admin_connections_.find(fd);
  if (it == admin_connections_.end()) return;
  AdminConnection& conn = it->second;

  if (events & EPOLLIN) {
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const bool keep = conn.state.Feed(
            std::string_view(buf, static_cast<size_t>(n)),
            [this](std::string_view path, std::string_view query) {
              return HandleAdminRequest(path, query);
            },
            &conn.outbox);
        if (!keep) conn.close_after_flush = true;
        continue;
      }
      if (n == 0) {  // peer closed; flush what we owe, then close
        conn.close_after_flush = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseAdminConnection(fd);
      return;
    }
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseAdminConnection(fd);
    return;
  }

  // Flush the outbox opportunistically (also covers EPOLLOUT wakeups).
  while (conn.outbox_offset < conn.outbox.size()) {
    ssize_t n = ::send(fd, conn.outbox.data() + conn.outbox_offset,
                       conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseAdminConnection(fd);
    return;
  }
  if (conn.outbox_offset >= conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_offset = 0;
    if (conn.close_after_flush) {
      CloseAdminConnection(fd);
      return;
    }
  }
  UpdateAdminInterest(fd);
}

void Server::UpdateAdminInterest(int fd) {
  auto it = admin_connections_.find(fd);
  if (it == admin_connections_.end()) return;
  uint32_t want = EPOLLIN;
  if (it->second.outbox_offset < it->second.outbox.size()) want |= EPOLLOUT;
  uint32_t& registered = registered_events_[fd];
  if (want == registered) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) {
    registered = want;
  }
}

void Server::CloseAdminConnection(int fd) {
  auto it = admin_connections_.find(fd);
  if (it == admin_connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  registered_events_.erase(fd);
  admin_connections_.erase(it);
}

namespace {

/// Value of `key` in an undecoded query string ("a=1&b=2"), or "".
std::string_view QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

/// JSON body for /indexz: build-time and memory accounting per index
/// component plus the posting-block shape of the tag streams.
std::string RenderIndexJson(const index::IndexedDocument& indexed) {
  const index::IndexBuildStats& stats = indexed.build_stats();
  const index::TagStreams& streams = indexed.tag_streams();

  uint64_t posting_blocks = 0;
  uint64_t posting_entries = 0;
  for (int32_t tag = 0; tag < streams.num_tags(); ++tag) {
    posting_blocks += streams.blocks(tag).num_blocks();
    posting_entries += streams.blocks(tag).size();
  }

  char buffer[64];
  std::string out = "{";
  out += "\"document\":{\"nodes\":" +
         std::to_string(indexed.document().num_nodes());
  out += ",\"tags\":" + std::to_string(indexed.document().num_tags());
  out += ",\"bytes\":" + std::to_string(stats.document_bytes) + "}";

  const auto component = [&](std::string_view name, double build_ms,
                             size_t bytes) {
    out += ",\"";
    out += name;
    std::snprintf(buffer, sizeof(buffer),
                  "\":{\"build_ms\":%.3f,\"bytes\":%zu}", build_ms, bytes);
    out += buffer;
  };
  component("extended_dewey", stats.extended_dewey_ms,
            stats.extended_dewey_bytes);
  component("transducer", stats.transducer_ms, stats.transducer_bytes);
  component("dataguide", stats.dataguide_ms, stats.dataguide_bytes);
  component("tag_streams", stats.tag_streams_ms, stats.tag_streams_bytes);
  component("term_index", stats.term_index_ms, stats.term_index_bytes);
  component("tag_trie", stats.tag_trie_ms, stats.tag_trie_bytes);

  out += ",\"posting_blocks\":{\"blocks\":" + std::to_string(posting_blocks);
  out += ",\"entries\":" + std::to_string(posting_entries);
  out += ",\"block_entries\":" +
         std::to_string(index::PostingBlocks::kBlockEntries);
  out += ",\"memory_bytes\":" + std::to_string(streams.MemoryUsage()) + "}";

  std::snprintf(buffer, sizeof(buffer), ",\"total_build_ms\":%.3f",
                stats.total_ms);
  out += buffer;
  out += ",\"total_bytes\":" + std::to_string(stats.total_bytes());
  out += "}";
  return out;
}

}  // namespace

HttpResponse Server::HandleAdminRequest(std::string_view path,
                                        std::string_view query) {
  HttpResponse response;
  if (path == "/metrics") {
    metrics::UpdateProcessMetrics();
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = metrics::Registry::Default().RenderText();
    return response;
  }
  if (path == "/healthz") {
    // Runs on the loop thread, so reading draining_ is race-free.
    response.content_type = "application/json";
    if (draining_) response.status = 503;
    char buffer[64];
    std::string body = "{\"status\":\"";
    body += draining_ ? "draining" : "ok";
    std::snprintf(buffer, sizeof(buffer), "\",\"uptime_sec\":%.1f",
                  metrics::ProcessUptimeSeconds());
    body += buffer;
    body += ",\"version\":\"";
    body += metrics::BuildVersion();
    body += "\",\"git_sha\":\"";
    body += metrics::BuildGitSha();
    body += "\",\"draining\":";
    body += draining_ ? "true" : "false";
    body += "}\n";
    response.body = std::move(body);
    return response;
  }
  if (path == "/slowlog.json") {
    trace::SlowLog& ring = trace::SlowLog::Default();
    response.content_type = "application/json";
    response.body = trace::RenderSlowLogJson(ring.Last(ring.Len()));
    return response;
  }
  if (path == "/tracez") {
    trace::TraceStore& store = trace::TraceStore::Default();
    response.content_type = "application/json";
    response.body = trace::ChromeTraceJson(store.Last(store.Len()));
    return response;
  }
  if (path == "/statements.json") {
    stmt::StatementStore& store = stmt::StatementStore::Default();
    response.content_type = "application/json";
    response.body = stmt::RenderStatementsJson(store.Top(store.size()));
    return response;
  }
  if (path == "/profilez") {
    // Blocks the event loop for the whole window — admin requests are
    // handled inline — so serving stalls while the profile runs. That
    // is acceptable for a debug endpoint (and Collect clamps to 10s);
    // prefer the PROFILE verb, which runs on a worker thread.
    double seconds = 1.0;
    const std::string_view param = QueryParam(query, "seconds");
    if (!param.empty()) {
      seconds = std::atof(std::string(param).c_str());
      if (!std::isfinite(seconds) || seconds <= 0) {
        response.status = 400;
        response.body = "seconds must be a positive number\n";
        return response;
      }
    }
    const prof::Mode mode =
        QueryParam(query, "mode") == "wall" ? prof::Mode::kWall
                                            : prof::Mode::kCpu;
    StatusOr<prof::ProfileResult> profile =
        prof::Collect(mode, seconds * 1000.0);
    if (!profile.ok()) {
      response.status = 503;
      response.body = std::string(profile.status().message()) + "\n";
      return response;
    }
    if (QueryParam(query, "format") == "json") {
      response.content_type = "application/json";
      response.body = prof::RenderProfileJson(*profile);
    } else {
      response.body = prof::RenderCollapsed(*profile);
    }
    return response;
  }
  if (path == "/indexz") {
    response.content_type = "application/json";
    response.body = RenderIndexJson(indexed_);
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

int Server::WaitTimeoutMs() const {
  int timeout = -1;
  if (options_.idle_timeout_ms > 0 && !connections_.empty()) {
    // Coarse tick: idle closes land within ~a quarter period of the
    // deadline, which is plenty for a keep-alive reaper.
    timeout = std::clamp(options_.idle_timeout_ms / 4, 10, 1000);
  }
  if (draining_) {
    timeout = timeout < 0 ? 50 : std::min(timeout, 50);
  }
  return timeout;
}

}  // namespace lotusx::net
