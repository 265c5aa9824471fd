#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace perfbench {
namespace {

std::string_view FirstToken(std::string_view s) {
  const size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  s.remove_prefix(b);
  return s.substr(0, s.find_first_of(" \t"));
}

std::string_view LastToken(std::string_view s) {
  const size_t e = s.find_last_not_of(" \t");
  if (e == std::string_view::npos) return {};
  s = s.substr(0, e + 1);
  const size_t b = s.find_last_of(" \t");
  return b == std::string_view::npos ? s : s.substr(b + 1);
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool U64Field(std::string_view line, std::string_view key, uint64_t* out) {
  const std::string needle = " " + std::string(key) + "=";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  std::string_view v = line.substr(at + needle.size());
  return ParseU64(v.substr(0, v.find(' ')), out);
}

}  // namespace

ReplyShape ShapeOf(std::string_view request) {
  const std::string_view verb = FirstToken(request);
  if (verb == "detect") return ReplyShape::kDetect;
  if (verb == "violations") return ReplyShape::kViolations;
  return ReplyShape::kOneLine;
}

bool ParseViolationsHeader(std::string_view line, ViolationsHeader* out) {
  if (FirstToken(line) != "violations") return false;
  return U64Field(line, "total", &out->total) &&
         U64Field(line, "generation", &out->generation) &&
         U64Field(line, "batch", &out->batch) &&
         U64Field(line, "offset", &out->offset) &&
         U64Field(line, "returned", &out->returned);
}

bool ReplyField(std::string_view line, std::string_view key, double* out) {
  const std::string needle = " " + std::string(key) + "=";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  std::string_view v = line.substr(at + needle.size());
  v = v.substr(0, v.find(' '));
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return !v.empty() && ec == std::errc() && p == v.data() + v.size();
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
  pos_ = 0;
}

std::string Client::Connect(uint16_t port, int recv_timeout_ms) {
  Close();
  greeting_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return std::string("socket: ") + std::strerror(errno);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = recv_timeout_ms / 1000;
  tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::string err = std::string("connect: ") + std::strerror(errno);
    Close();
    return err;
  }
  std::string line;
  while (greeting_.size() < 2) {
    if (!ReadLine(&line)) return "greeting cut off";
    if (line.rfind("err ", 0) == 0) return "refused: " + line;
    greeting_.push_back(line);
  }
  if (greeting_[1].rfind("serving ", 0) != 0)
    return "unexpected greeting: " + greeting_[1];
  return "";
}

bool Client::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool Client::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (fd_ < 0) return false;
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    // Acknowledge at once instead of after the delayed-ACK timer: the server
    // writes each reply line with its own send() and leaves Nagle's
    // algorithm on, so a pipelined batch's replies would otherwise stall
    // ~40 ms per batch waiting for this side's ACK. Linux clears the flag
    // after use, so it is re-armed before every read.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

Reply Client::Read(ReplyShape shape) {
  Reply r;
  std::string line;
  if (!ReadLine(&line)) {
    r.error = "missing reply";
    return r;
  }
  r.lines.push_back(line);
  if (line.rfind("err ", 0) == 0) {
    r.error = line;
    return r;
  }
  switch (shape) {
    case ReplyShape::kOneLine:
      if (line.find(" op_errors=") != std::string::npos) r.error = line;
      break;
    case ReplyShape::kDetect: {
      uint64_t want = 0;
      if (LastToken(line) != "violations" ||
          !ParseU64(FirstToken(line), &want)) {
        r.error = "unparseable detect reply: " + line;
        break;
      }
      uint64_t seen = 0;
      while (seen < want) {
        uint64_t count = 0;
        if (!ReadLine(&line)) {
          r.error = "detect reply cut off";
          break;
        }
        r.lines.push_back(line);
        // A listed rule always has violations; a zero (or a sum past the
        // total) means the reply is not framed the way we read it.
        if (!ParseU64(LastToken(line), &count) || count == 0 ||
            seen + count > want) {
          r.error = "unparseable detect row: " + line;
          break;
        }
        seen += count;
      }
      break;
    }
    case ReplyShape::kViolations: {
      ViolationsHeader h;
      if (!ParseViolationsHeader(line, &h)) {
        r.error = "unparseable violations reply: " + line;
        break;
      }
      for (uint64_t i = 0; i < h.returned; ++i) {
        if (!ReadLine(&line)) {
          r.error = "violations reply cut off";
          break;
        }
        r.lines.push_back(line);
      }
      break;
    }
  }
  return r;
}

Reply Client::Call(const std::string& request) {
  if (!Send(request + "\n")) {
    Reply r;
    r.error = "send failed";
    return r;
  }
  return Read(ShapeOf(request));
}

}  // namespace perfbench
