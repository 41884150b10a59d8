// The served run: one client thread replays the prepared stream over one
// closed-loop TCP connection (it waits for each response before sending
// the next command) and checks every response payload against the
// in-process replay.
#ifndef SERVEBENCH_CLIENT_H_
#define SERVEBENCH_CLIENT_H_

#include <string>

namespace servebench {

struct ClientOptions {
  int port = 0;
  /// Directory holding the stream file (StreamPath).
  std::string dir;
  /// The server process, for its CPU time and peak RSS.
  int server_pid = 0;
  /// When set, writes "index rtt_us" per measured command.
  std::string latency_out;
  /// Self-test hook: corrupts the expected payload of this command,
  /// which the payload check must then report.
  long corrupt_command = -1;
};

/// Prints one JSON object with the run's counts, the measured phase's
/// latencies per verb class, wall time and server CPU, and the server's
/// peak RSS. Exits with a
/// message if the server misbehaves at the transport level (closes,
/// stalls, sends malformed frames).
void RunClient(const ClientOptions& options);

/// Times a fixed single-thread integer loop: a host-speed diagnostic.
double CalibrationSeconds();

}  // namespace servebench

#endif  // SERVEBENCH_CLIENT_H_
