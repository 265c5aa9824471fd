// The TCP serving front-end: a thread-per-connection listener multiplexing
// many concurrent client Sessions onto one RepairService (DESIGN.md
// "Network serving").
//
// Each admitted connection gets a kStaged Session: edit verbs buffer inside
// the session and apply as one atomic block at `commit` under the shared
// service mutex, so clients interleave at commit granularity and the final
// state is bit-identical to replaying the same per-client op blocks through
// a single stdio session in commit order (tests/test_server.cc pins this).
// Published read verbs (`detect` / `violations`) are routed around that
// mutex inside the Session: they pin the last epoch-published snapshot
// generation and run lock-free against its frozen store, so read throughput
// scales with connection threads instead of serializing behind commits
// (DESIGN.md "Read path / epoch publication").
//
// Admission control front-runs the service: connections beyond
// ServeOptions::max_connections are answered `err busy max connections` and
// closed; requests beyond the ServeOptions::max_requests_per_sec token
// bucket are shed with `err busy rate limit exceeded` without touching the
// service. A connection that sends more than 1 MiB without a newline is
// answered `err bad_request line too long` and closed, so per-connection
// buffering stays bounded. Connection/admission instruments live in the
// service's metrics registry, so the `metrics` verb exports them alongside
// the serving counters.
#ifndef GREPAIR_SERVE_SERVER_H_
#define GREPAIR_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/repair_service.h"
#include "util/status.h"

namespace grepair {
namespace serve {

class Session;

/// A line-protocol TCP listener over one RepairService. Lifecycle:
/// Start() binds and spawns the acceptor; Wait() blocks until a client's
/// `shutdown` verb (or RequestStop()) and then drains; the destructor
/// stops too, so a scoped Server never leaks threads. The service must
/// outlive the server and must not be touched by other writers while the
/// server runs (the server owns the serialization mutex).
class Server {
 public:
  /// Serves `service` per `service->options()`: listen_port (0 = pick an
  /// ephemeral port, published via port()), max_connections,
  /// max_requests_per_sec.
  explicit Server(RepairService* service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor thread.
  Status Start();

  /// The bound port (valid after a successful Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Asks the server to stop accepting and unblocks Wait(). Safe from any
  /// thread, including a connection handler (the `shutdown` verb).
  void RequestStop();

  /// Blocks until a stop is requested, then tears down: closes the
  /// listener, shuts down live connections, and joins every thread.
  void Wait();

  /// RequestStop() + Wait().
  void Stop();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Runs one protocol line through admission + the session; returns false
  /// when the connection should close (quit/shutdown, write failure).
  bool ProcessLine(int fd, Session* session, const std::string& line);
  /// Appends '\n' and writes the whole response to the socket.
  static bool WriteLine(int fd, const std::string& line);

  RepairService* service_;
  AdmissionOptions admission_options_;
  AdmissionController admission_;
  /// Serializes sessions' service access — edits, commits, file verbs.
  /// Published read verbs never take it (Session routes them to the
  /// publisher's pinned generation before locking).
  std::mutex service_mu_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;

  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool stop_requested_ = false;
  bool teardown_started_ = false;
  bool stopped_ = false;
  size_t live_connections_ = 0;
  std::vector<int> conn_fds_;  ///< open sockets, for shutdown-time unblock

  // Admission/connection instruments (service registry, so `metrics`
  // exports them): gauge of live connections, accepted/rejected ledgers,
  // and the per-request latency histogram (admitted requests; lock wait
  // included — it is the client-observed service time).
  obs::Gauge* m_active_;
  obs::Counter* m_conn_accepted_;
  obs::Counter* m_conn_rejected_;
  obs::Counter* m_requests_;
  obs::Counter* m_req_rejected_;
  obs::Histogram* m_request_ms_;
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_SERVER_H_
