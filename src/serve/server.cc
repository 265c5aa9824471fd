#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/build_info.h"
#include "serve/session.h"
#include "util/strings.h"

namespace grepair {
namespace serve {
namespace {

// Longest request line a connection may send. A client that streams more
// bytes than this without a newline is answered `err bad_request` and
// disconnected, so one connection's buffer never grows past it.
constexpr size_t kMaxLineBytes = 1 << 20;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(RepairService* service)
    : service_(service),
      admission_options_{service->options().max_connections,
                         service->options().max_requests_per_sec},
      admission_(admission_options_) {
  obs::MetricsRegistry* reg = service_->mutable_metrics_registry();
  m_active_ = reg->GetGauge("grepair_server_connections_active",
                            "Admitted client connections currently open.");
  m_conn_accepted_ =
      reg->GetCounter("grepair_server_connections_accepted_total",
                      "Client connections admitted.");
  m_conn_rejected_ = reg->GetCounter(
      "grepair_server_connections_rejected_total",
      "Client connections shed at the max_connections cap (err busy).");
  m_requests_ = reg->GetCounter("grepair_server_requests_total",
                                "Protocol requests admitted.");
  m_req_rejected_ = reg->GetCounter(
      "grepair_server_requests_rejected_total",
      "Protocol requests shed by the rate limiter (err busy).");
  m_request_ms_ = reg->GetHistogram(
      "grepair_server_request_ms",
      "Per-request latency as the client observes it (queueing included).",
      obs::DefaultLatencyBucketsMs());
}

Server::~Server() { Stop(); }

Status Server::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port =
      htons(static_cast<uint16_t>(service_->options().listen_port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::InvalidArgument(
        StrFormat("cannot bind port %d: %s", service_->options().listen_port,
                  std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  acceptor_ = std::thread(&Server::AcceptLoop, this);
  return Status::Ok();
}

void Server::RequestStop() {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    stop_requested_ = true;
  }
  state_cv_.notify_all();
}

void Server::Stop() {
  RequestStop();
  Wait();
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lk(state_mu_);
    state_cv_.wait(lk, [&] { return stop_requested_; });
    if (stopped_) return;
    if (teardown_started_) {  // another caller is already draining
      state_cv_.wait(lk, [&] { return stopped_; });
      return;
    }
    teardown_started_ = true;
  }
  // Unblock accept() so the acceptor thread exits, then unblock every
  // connection's recv() and wait for the handlers to drain.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::unique_lock<std::mutex> lk(state_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    state_cv_.wait(lk, [&] { return live_connections_ == 0; });
    stopped_ = true;
    // Notify under the lock: a concurrent Wait() caller may destroy the
    // server the moment it sees stopped_, so the notify must complete
    // before it can re-acquire the mutex and return.
    state_cv_.notify_all();
  }
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (stop_requested_) {
        if (fd >= 0) ::close(fd);
        return;
      }
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      RequestStop();  // listener is gone; a silent exit would hang Wait()
      return;
    }
    if (!admission_.TryAdmitConnection()) {
      m_conn_rejected_->Add();
      WriteLine(fd, ErrResponse("busy", "max connections"));
      ::close(fd);
      continue;
    }
    m_conn_accepted_->Add();
    m_active_->Set(static_cast<int64_t>(admission_.active_connections()));
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++live_connections_;
      conn_fds_.push_back(fd);
    }
    // Detached: lifetime is tracked by live_connections_, which Wait()
    // drains after unblocking the socket — the thread cannot outlive the
    // server.
    std::thread(&Server::HandleConnection, this, fd).detach();
  }
}

bool Server::WriteLine(int fd, const std::string& line) {
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Server::ProcessLine(int fd, Session* session, const std::string& line) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return true;
  // Admission front-runs the service: a shed request costs one bucket
  // probe and one write, never the service mutex.
  if (!admission_.TryAdmitRequest(NowSec())) {
    m_req_rejected_->Add();
    return WriteLine(fd, ErrResponse("busy", "rate limit exceeded"));
  }
  m_requests_->Add();
  auto start = std::chrono::steady_clock::now();
  std::string resp = session->HandleLine(line);
  m_request_ms_->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (session->quit_requested()) {
    std::string bye;
    {
      std::lock_guard<std::mutex> lock(service_mu_);
      const ServiceStats& s = service_->stats();
      bye = StrFormat("bye batches=%zu fixes=%zu", s.batches,
                      s.violations_repaired);
    }
    WriteLine(fd, bye);
    if (session->shutdown_requested()) RequestStop();
    return false;
  }
  if (resp.empty()) return true;
  return WriteLine(fd, resp);
}

void Server::HandleConnection(int fd) {
  Session session(service_, SessionMode::kStaged, &service_mu_);
  std::string greeting;
  {
    std::lock_guard<std::mutex> lock(service_mu_);
    greeting = obs::BuildInfoLine() + "\n" +
               StrFormat("serving %zu nodes %zu edges %zu rules threads=%zu "
                         "shards=%zu",
                         service_->graph().NumNodes(),
                         service_->graph().NumEdges(),
                         service_->rules().size(),
                         service_->options().num_threads,
                         service_->num_shards());
  }
  bool open = WriteLine(fd, greeting);

  std::string buf;
  size_t scanned = 0;  // buf[0, scanned) holds no newline
  char chunk[4096];
  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (open && (pos = buf.find('\n', scanned)) != std::string::npos) {
      std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      scanned = 0;
      open = ProcessLine(fd, &session, line);
    }
    scanned = buf.size();
    if (open && buf.size() > kMaxLineBytes) {
      WriteLine(fd, ErrResponse("bad_request", "line too long"));
      break;
    }
  }
  ::close(fd);
  admission_.ReleaseConnection();
  m_active_->Set(static_cast<int64_t>(admission_.active_connections()));
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    --live_connections_;
    // Notify under the lock: this is a detached thread, and the draining
    // Wait() may destroy the server (and this condition variable) the
    // moment it sees the count hit zero — an unlocked notify could still
    // be touching the cv then.
    state_cv_.notify_all();
  }
}

}  // namespace serve
}  // namespace grepair
