#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "obs/timing.h"
#include "util/error.h"
#include "util/json.h"

namespace hsconas::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_mutex;  // guards stderr AND the sink: records never interleave
std::ofstream g_sink;
const std::uint64_t g_start_ns = obs::monotonic_ns();

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    default: return "off";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

LogLevel parse_log_level(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off") return LogLevel::kOff;
  throw Error("parse_log_level: unknown level '" + name +
              "' (want debug|info|warn|error|off)");
}

void log_message(LogLevel level, const std::string& msg,
                 const LogFields& fields) {
  if (level < g_level.load()) return;
  const double elapsed =
      static_cast<double>(obs::monotonic_ns() - g_start_ns) / 1e9;

  std::string text = msg;
  for (const auto& [key, value] : fields) {
    text += ' ';
    text += key;
    text += '=';
    text += value;
  }

  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%s %8.2fs] %s\n", level_name(level), elapsed,
               text.c_str());
  if (g_sink.is_open()) {
    Json record = Json::object();
    record["ts_s"] = elapsed;
    record["level"] = level_tag(level);
    record["msg"] = msg;
    if (!fields.empty()) {
      Json obj = Json::object();
      for (const auto& [key, value] : fields) obj[key] = value;
      record["fields"] = std::move(obj);
    }
    g_sink << record.dump(/*indent=*/0) << '\n';
    g_sink.flush();
  }
}

void set_log_sink(const std::string& path) {
  std::ofstream sink(path, std::ios::app);
  if (!sink) throw Error("set_log_sink: cannot open " + path);
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void clear_log_sink() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink.is_open()) g_sink.close();
}

}  // namespace hsconas::util
