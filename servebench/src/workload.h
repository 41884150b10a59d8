// Workload generation: the corpus and the seeded command stream of the
// client connection, produced by replaying every generated command
// in-process through session::ProtocolInterpreter (the interpreter the
// server runs per connection), so the expected response of each command
// is known before the served run starts.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace servebench {

struct PrepareOptions {
  std::string workload;  // canvas_typing | twig_rank | relax_rewrite
  uint64_t seed = 1;
  /// Approximate corpus size in document nodes.
  int64_t nodes = 200000;
  /// Scripts (one canvas, or one analyst query) in the stream.
  size_t scripts = 100;
  /// Leading scripts that only warm the server up.
  size_t warmup_scripts = 10;
  /// Output directory: corpus.xml and the stream file.
  std::string dir;
};

bool IsWorkload(const std::string& name);

/// Writes <dir>/corpus.xml and the stream file (StreamPath); prints a one-line
/// JSON summary to stdout. Exits with a message on failure.
void Prepare(const PrepareOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
