// Command streams shared by the servebench tools.
//
// A stream is what the client connection sends, in order, together with
// the response the in-process replay produced for each command (the
// served run must reproduce those payloads byte for byte). File format,
// one record per command:
//
//   <ok 0|1> <payload bytes>\t<command line>\n<payload>\n
//
// preceded by one header line "servebench-stream 1 warmup=<commands>".
#ifndef SERVEBENCH_STREAM_H_
#define SERVEBENCH_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

struct Command {
  std::string line;
  bool ok = true;
  std::string payload;
};

struct Stream {
  /// Leading commands that only warm the server up; never measured.
  size_t warmup = 0;
  std::vector<Command> commands;
};

/// The stream file inside `dir`.
std::string StreamPath(const std::string& dir);

void WriteStream(const std::string& path, const Stream& stream);
/// Exits the process with a message on a missing or malformed file.
Stream ReadStream(const std::string& path);

/// The verb classes the end-to-end metrics are reported by.
enum class VerbClass { kSuggest, kRun, kEdit };
VerbClass ClassOf(std::string_view line);
const char* ClassName(VerbClass verb_class);

/// Nearest-rank percentile (q in [0,1]) of `values`, which it sorts.
double Percentile(std::vector<double>& values, double q);

/// Monotonic clock in nanoseconds.
int64_t NowNanos();

/// Prints `message` to stderr and exits with status 2.
[[noreturn]] void Fail(const std::string& message);

}  // namespace servebench

#endif  // SERVEBENCH_STREAM_H_
