// servebench: the untraced tools behind servebench/run.py.
//
//   servebench prepare --workload W --seed N --scripts N --warmup-scripts N
//                      --nodes N --dir D
//   servebench client --port P --dir D --server-pid PID
//                     [--latency-out FILE] [--corrupt-command I]
//   servebench calibrate
//
// Each prints one JSON object on stdout.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "client.h"
#include "stream.h"
#include "workload.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      servebench::Fail("bad argument '" + name + "'");
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const char* fallback = nullptr) {
  auto it = flags.find(name);
  if (it != flags.end()) return it->second;
  if (fallback == nullptr) servebench::Fail("missing --" + name);
  return fallback;
}

long long IntFlag(const std::map<std::string, std::string>& flags,
                  const std::string& name, const char* fallback = nullptr) {
  const std::string text = Flag(flags, name, fallback);
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    servebench::Fail("--" + name + " needs an integer");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const auto flags = ParseFlags(argc, argv);
  if (command == "prepare") {
    servebench::PrepareOptions options;
    options.workload = Flag(flags, "workload");
    if (!servebench::IsWorkload(options.workload)) {
      servebench::Fail("unknown workload '" + options.workload + "'");
    }
    options.seed = static_cast<uint64_t>(IntFlag(flags, "seed"));
    options.scripts = static_cast<size_t>(IntFlag(flags, "scripts"));
    options.warmup_scripts = static_cast<size_t>(IntFlag(flags, "warmup-scripts"));
    options.nodes = IntFlag(flags, "nodes", "200000");
    options.dir = Flag(flags, "dir");
    if (options.scripts < 1 || options.nodes < 1000) {
      servebench::Fail("prepare needs scripts >= 1, nodes >= 1000");
    }
    servebench::Prepare(options);
  } else if (command == "client") {
    servebench::ClientOptions options;
    options.port = static_cast<int>(IntFlag(flags, "port"));
    options.dir = Flag(flags, "dir");
    options.server_pid = static_cast<int>(IntFlag(flags, "server-pid"));
    options.latency_out = Flag(flags, "latency-out", "");
    options.corrupt_command = static_cast<long>(IntFlag(flags, "corrupt-command", "-1"));
    servebench::RunClient(options);
  } else if (command == "calibrate") {
    std::printf("{\"calibration_s\": %.6f}\n", servebench::CalibrationSeconds());
  } else {
    servebench::Fail("usage: servebench prepare|client|calibrate [--flag value]...");
  }
  return 0;
}
