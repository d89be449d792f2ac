// Minimal leveled logger. Quiet by default so benchmarks and tests are not
// swamped; scenario examples raise the level to narrate what the node does.
//
// Two sinks: human text (default) and structured JSON lines for machine
// consumption. Both the threshold and the format can be set without
// recompiling via environment variables read at startup:
//   BSNET_LOG_LEVEL  = trace|debug|info|warn|error|off  (or 0-5)
//   BSNET_LOG_FORMAT = text|json
#pragma once

#include <sstream>
#include <string>

namespace bsutil {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

enum class LogFormat { kText = 0, kJson = 1 };

/// Set/get the global threshold; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Set/get the line format: kText ("[WARN] cat: msg") or kJson
/// ({"level":"WARN","category":"cat","msg":"msg"}).
void SetLogFormat(LogFormat format);
LogFormat GetLogFormat();

/// Apply BSNET_LOG_LEVEL / BSNET_LOG_FORMAT from the environment. Runs
/// automatically before main() (static initializer in log.cpp); safe to call
/// again after a manual override. Unknown values keep the current setting.
void InitLogFromEnv();

/// Emit one log line (category and message) if `level` passes the threshold.
void LogLine(LogLevel level, const std::string& category, const std::string& msg);

namespace detail {
template <typename... Args>
std::string Concat(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}
}  // namespace detail

template <typename... Args>
void Log(LogLevel level, const std::string& category, Args&&... args) {
  if (level < GetLogLevel()) return;
  LogLine(level, category, detail::Concat(std::forward<Args>(args)...));
}

}  // namespace bsutil
