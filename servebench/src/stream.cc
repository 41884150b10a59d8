#include "stream.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

namespace servebench {

std::string StreamPath(const std::string& dir) { return dir + "/commands.stream"; }

void WriteStream(const std::string& path, const Stream& stream) {
  std::ofstream out(path, std::ios::binary);
  out << "servebench-stream 1 warmup=" << stream.warmup << "\n";
  for (const Command& command : stream.commands) {
    out << (command.ok ? 1 : 0) << " " << command.payload.size() << "\t"
        << command.line << "\n"
        << command.payload << "\n";
  }
  if (!out) Fail("cannot write " + path);
}

Stream ReadStream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Stream stream;
  size_t pos = data.find('\n');
  const std::string kHeader = "servebench-stream 1 warmup=";
  if (pos == std::string::npos || data.compare(0, kHeader.size(), kHeader)) {
    Fail(path + ": not a servebench stream");
  }
  stream.warmup = std::strtoull(data.c_str() + kHeader.size(), nullptr, 10);
  ++pos;
  while (pos < data.size()) {
    size_t tab = data.find('\t', pos);
    size_t eol = tab == std::string::npos ? tab : data.find('\n', tab);
    if (eol == std::string::npos) Fail(path + ": truncated record");
    Command command;
    char* end = nullptr;
    command.ok = data[pos] == '1';
    size_t length = std::strtoull(data.c_str() + pos + 2, &end, 10);
    if (end != data.c_str() + tab || eol + 1 + length + 1 > data.size()) {
      Fail(path + ": malformed record");
    }
    command.line = data.substr(tab + 1, eol - tab - 1);
    command.payload = data.substr(eol + 1, length);
    pos = eol + 1 + length + 1;
    stream.commands.push_back(std::move(command));
  }
  if (stream.warmup > stream.commands.size()) Fail(path + ": bad warmup");
  return stream;
}

namespace {

// Lower-cased first token of a command line.
std::string VerbOf(std::string_view line) {
  size_t begin = line.find_first_not_of(' ');
  if (begin == std::string_view::npos) return "";
  size_t end = line.find(' ', begin);
  std::string verb(line.substr(begin, end == std::string_view::npos
                                          ? std::string_view::npos
                                          : end - begin));
  for (char& c : verb) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return verb;
}

}  // namespace

VerbClass ClassOf(std::string_view line) {
  const std::string verb = VerbOf(line);
  if (verb == "type" || verb == "typeval") return VerbClass::kSuggest;
  if (verb == "run") return VerbClass::kRun;
  return VerbClass::kEdit;
}

const char* ClassName(VerbClass verb_class) {
  switch (verb_class) {
    case VerbClass::kSuggest:
      return "suggest";
    case VerbClass::kRun:
      return "run";
    case VerbClass::kEdit:
      return "edit";
  }
  return "?";
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace servebench
