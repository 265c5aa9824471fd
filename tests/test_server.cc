// TCP serving front-end tests (src/serve/server.h). The acceptance
// criterion of the network layer: N concurrent clients staging interleaved
// edits over real sockets leave the service in a state bit-identical to
// replaying the same per-client op blocks through a single immediate-mode
// session in commit order — plus admission control (connection cap, request
// rate limit) answering `err busy` and counting every shed in metrics.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "serve/repair_service.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/strings.h"

namespace grepair {
namespace serve {
namespace {

// A deterministic kg-domain bundle: constructing it twice (server side,
// replay side) yields identical graphs, rules and violation backlogs.
DatasetBundle MakeBundle() {
  KgOptions gopt;
  gopt.num_persons = 120;
  gopt.num_cities = 20;
  gopt.num_countries = 6;
  gopt.num_orgs = 10;
  gopt.seed = 11;
  InjectOptions iopt;
  iopt.rate = 0.05;
  iopt.seed = 17;
  auto b = MakeKgBundle(gopt, iopt);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  return std::move(b).value();
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

void SendStr(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

// Blocking buffered line reads — keeps each client in protocol lockstep.
struct LineReader {
  int fd;
  std::string buf;
  // Returns the next line, or "" on EOF (protocol lines are never empty).
  std::string ReadLine() {
    size_t pos;
    while ((pos = buf.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buf.substr(0, pos);
    buf.erase(0, pos + 1);
    return line;
  }
  std::string ReadToEof() {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
      buf.append(chunk, static_cast<size_t>(n));
    return buf;
  }
};

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ------------------------------------------------- multi-client identity

TEST(ServerTest, ConcurrentStagedClientsMatchSequentialReplay) {
  DatasetBundle bundle = MakeBundle();
  ServeOptions sopt;
  sopt.listen_port = 0;  // ephemeral
  RepairService service(std::move(bundle.graph), std::move(bundle.rules),
                        sopt);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  // Four clients, each staging a disjoint block of edits and committing
  // whenever their turn at the mutex comes — the interleaving is real and
  // unconstrained; only commit order (read back from the batch number) is
  // used to sequence the replay.
  constexpr int kClients = 4;
  auto ops_for = [](int c) {
    std::vector<std::string> ops = {
        "add_node Org",
        StrFormat("add_edge %d %d knows", 10 + c, 20 + c),
        StrFormat("remove_node %d", 30 + c),
        StrFormat("set_node_label %d Org", 40 + c),
    };
    return ops;
  };
  std::vector<size_t> batch_of(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = Connect(server.port());
      LineReader r{fd, {}};
      r.ReadLine();  // build info
      EXPECT_EQ(r.ReadLine().rfind("serving ", 0), 0u);
      size_t k = 0;
      for (const std::string& op : ops_for(c)) {
        SendStr(fd, op + "\n");
        EXPECT_EQ(r.ReadLine(), StrFormat("staged %zu", ++k));
      }
      SendStr(fd, "commit\n");
      std::string batch = r.ReadLine();
      EXPECT_EQ(batch.rfind("batch ", 0), 0u) << batch;
      EXPECT_EQ(batch.find("op_errors"), std::string::npos) << batch;
      sscanf(batch.c_str(), "batch %zu", &batch_of[c]);
      SendStr(fd, "quit\n");
      EXPECT_EQ(r.ReadLine().rfind("bye ", 0), 0u);
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();

  // Every client committed exactly one batch, numbered 1..kClients.
  std::vector<int> order(kClients);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_GE(batch_of[c], 1u);
    ASSERT_LE(batch_of[c], static_cast<size_t>(kClients));
    order[batch_of[c] - 1] = c;
  }

  // Snapshot the served state through the protocol, then stop.
  std::string served = ::testing::TempDir() + "/grepair_srv_tcp.snap";
  {
    int fd = Connect(server.port());
    LineReader r{fd, {}};
    r.ReadLine();
    r.ReadLine();
    SendStr(fd, "snapshot " + served + "\nquit\n");
    EXPECT_EQ(r.ReadLine(), "snapshot " + served);
    ::close(fd);
  }
  server.Stop();

  // Replay the same per-client blocks through one immediate session, in
  // commit order, on an identically-constructed service.
  DatasetBundle replay_bundle = MakeBundle();
  RepairService replay(std::move(replay_bundle.graph),
                       std::move(replay_bundle.rules), ServeOptions());
  Session session(&replay, SessionMode::kImmediate);
  for (int c : order) {
    for (const std::string& op : ops_for(c)) session.HandleLine(op);
    session.HandleLine("commit");
  }
  std::string replayed = ::testing::TempDir() + "/grepair_srv_replay.snap";
  ASSERT_TRUE(replay.SaveState(replayed).ok());

  // Final graph + violation backlog, bit for bit.
  std::string a = Slurp(served), b = Slurp(replayed);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(served.c_str());
  std::remove(replayed.c_str());
}

// ------------------------------------------------------------- admission

TEST(ServerTest, OverCapConnectionsAreShedWithBusy) {
  DatasetBundle bundle = MakeBundle();
  ServeOptions sopt;
  sopt.listen_port = 0;
  sopt.max_connections = 1;
  RepairService service(std::move(bundle.graph), std::move(bundle.rules),
                        sopt);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  int first = Connect(server.port());
  LineReader r1{first, {}};
  r1.ReadLine();
  EXPECT_EQ(r1.ReadLine().rfind("serving ", 0), 0u);

  // The slot is taken: the second connection is answered and closed.
  int second = Connect(server.port());
  LineReader r2{second, {}};
  EXPECT_EQ(r2.ReadLine(), "err busy max connections");
  EXPECT_EQ(r2.ReadLine(), "");  // EOF
  ::close(second);
  ::close(first);

  // The freed slot readmits — poll, since the handler releases it a beat
  // after the socket closes — and the rejection is on the metrics ledger.
  // Each shed poll attempt increments the counter too, so assert >= 1
  // rather than an exact count.
  std::string text;
  for (int attempt = 0; attempt < 200 && text.empty(); ++attempt) {
    int fd = Connect(server.port());
    LineReader r{fd, {}};
    std::string first_line = r.ReadLine();
    if (first_line.rfind("err busy", 0) == 0) {
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    r.ReadLine();  // serving line
    SendStr(fd, "metrics\nquit\n");
    text = r.ReadToEof();
    ::close(fd);
  }
  // \n-anchored so the # HELP line naming the metric cannot match first.
  size_t pos = text.find("\ngrepair_server_connections_rejected_total ");
  ASSERT_NE(pos, std::string::npos) << text;
  uint64_t rejected = std::strtoull(
      text.c_str() + pos +
          std::strlen("\ngrepair_server_connections_rejected_total "),
      nullptr, 10);
  EXPECT_GE(rejected, 1u) << text;
  server.Stop();
}

TEST(ServerTest, OverRateRequestsAreShedWithBusy) {
  DatasetBundle bundle = MakeBundle();
  ServeOptions sopt;
  sopt.listen_port = 0;
  sopt.max_requests_per_sec = 5.0;
  RepairService service(std::move(bundle.graph), std::move(bundle.rules),
                        sopt);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  int fd = Connect(server.port());
  LineReader r{fd, {}};
  r.ReadLine();
  r.ReadLine();
  // A burst far beyond the bucket: at 5 req/s with burst 5, most of these
  // 40 must shed no matter how slowly the test machine drains them.
  std::string burst;
  for (int i = 0; i < 40; ++i) burst += "add_node Org\n";
  SendStr(fd, burst);
  // Let the bucket refill so metrics/quit are admitted deterministically.
  std::this_thread::sleep_for(std::chrono::milliseconds(1600));
  SendStr(fd, "metrics\nquit\n");
  std::string text = r.ReadToEof();
  ::close(fd);
  server.Stop();

  EXPECT_NE(text.find("err busy rate limit exceeded"), std::string::npos);
  // The ledger counted the sheds (exact count depends on drain speed).
  // Anchor to a line start: the family's # HELP line holds the name too.
  size_t pos = text.find("\ngrepair_server_requests_rejected_total ");
  ASSERT_NE(pos, std::string::npos) << text;
  size_t rejected = 0;
  sscanf(text.c_str() + pos, "\ngrepair_server_requests_rejected_total %zu",
         &rejected);
  EXPECT_GE(rejected, 1u);
  EXPECT_NE(text.find("bye "), std::string::npos);
}

// A client that streams past the 1 MiB line cap without a newline is
// answered `err bad_request line too long` and disconnected; the server
// keeps serving everyone else.
TEST(ServerTest, OverlongLineIsRejectedAndClosed) {
  DatasetBundle bundle = MakeBundle();
  ServeOptions sopt;
  sopt.listen_port = 0;
  RepairService service(std::move(bundle.graph), std::move(bundle.rules),
                        sopt);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  int fd = Connect(server.port());
  LineReader r{fd, {}};
  r.ReadLine();
  r.ReadLine();
  // Exactly one byte past the cap: the server has read every byte by the
  // time it answers, so its close carries no unread data (which would
  // reset the connection before the error line arrives).
  SendStr(fd, std::string((size_t{1} << 20) + 1, 'x'));
  EXPECT_EQ(r.ReadLine(), "err bad_request line too long");
  EXPECT_EQ(r.ReadLine(), "");  // EOF
  ::close(fd);

  int fresh = Connect(server.port());
  LineReader r2{fresh, {}};
  r2.ReadLine();
  EXPECT_EQ(r2.ReadLine().rfind("serving ", 0), 0u);
  SendStr(fresh, "add_node Org\ncommit\nquit\n");
  EXPECT_EQ(r2.ReadLine(), "staged 1");
  EXPECT_EQ(r2.ReadLine().rfind("batch 1 ", 0), 0u);
  EXPECT_EQ(r2.ReadLine().rfind("bye ", 0), 0u);
  ::close(fresh);
  server.Stop();
}

// -------------------------------------------------------------- lifecycle

TEST(ServerTest, ShutdownVerbStopsTheListener) {
  DatasetBundle bundle = MakeBundle();
  ServeOptions sopt;
  sopt.listen_port = 0;
  RepairService service(std::move(bundle.graph), std::move(bundle.rules),
                        sopt);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());

  int fd = Connect(server.port());
  LineReader r{fd, {}};
  r.ReadLine();
  r.ReadLine();
  SendStr(fd, "add_node Org\nshutdown\n");
  EXPECT_EQ(r.ReadLine(), "staged 1");
  EXPECT_EQ(r.ReadLine().rfind("bye ", 0), 0u);
  ::close(fd);

  server.Wait();  // returns because the verb requested the stop
  server.Stop();  // idempotent after Wait
  // Staged-but-uncommitted edits died with the session.
  EXPECT_EQ(service.PendingEdits(), 0u);
  EXPECT_EQ(service.stats().batches, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace grepair
