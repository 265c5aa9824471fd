// A blocking line-protocol client for `grepair serve --listen`, framing each
// reply by its verb's shape rather than by timeouts:
//
//   - the greeting is two lines, the second starting with "serving ";
//   - edit verbs, `commit` and errors answer one line;
//   - `detect` answers "<N> violations" followed by one "<rule> <count>"
//     line per rule WITH violations (no line count is sent), so the reply
//     ends once the listed counts sum to N;
//   - `violations` answers a header carrying "returned=K", then K rows.
//
// A reply fails when it is an `err` line, carries an "op_errors=" suffix,
// is cut off (connection closed or the receive timeout, a safety net for a
// wedged server, expired) or does not parse.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// How a reply to a request is framed.
enum class ReplyShape { kOneLine, kDetect, kViolations };

/// The shape of the reply to `request` (its first token decides).
ReplyShape ShapeOf(std::string_view request);

struct Reply {
  std::vector<std::string> lines;
  /// Empty when the reply framed and reports success; otherwise why not.
  std::string error;
  bool ok() const { return error.empty(); }
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to 127.0.0.1:`port` and reads the two-line greeting. Returns
  /// "" on success, else the failure.
  std::string Connect(uint16_t port, int recv_timeout_ms = 20000);

  const std::vector<std::string>& greeting() const { return greeting_; }

  /// Writes all of `bytes` (one or more newline-terminated requests).
  bool Send(std::string_view bytes);

  /// Reads and frames the next reply.
  Reply Read(ReplyShape shape);

  /// Send(`request` + "\n"), then Read(ShapeOf(request)).
  Reply Call(const std::string& request);

  void Close();

 private:
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;  ///< start of the unread part of buf_
  std::vector<std::string> greeting_;
};

/// Fields parsed from a `violations` reply header; false when it is not one.
struct ViolationsHeader {
  uint64_t total = 0, generation = 0, batch = 0, offset = 0, returned = 0;
};
bool ParseViolationsHeader(std::string_view line, ViolationsHeader* out);

/// The value of `key=` in a space-separated reply line (e.g. "ms" in a
/// batch line); false when absent or not a number.
bool ReplyField(std::string_view line, std::string_view key, double* out);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
