#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/json.hpp"

namespace bsutil {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<LogFormat> g_format{LogFormat::kText};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::string Lowered(const char* s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

// Environment settings apply to every binary (benches, examples, tools)
// without recompiling: force InitLogFromEnv before main().
[[maybe_unused]] const bool g_env_applied = []() {
  InitLogFromEnv();
  return true;
}();

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void SetLogFormat(LogFormat format) {
  g_format.store(format, std::memory_order_relaxed);
}

LogFormat GetLogFormat() { return g_format.load(std::memory_order_relaxed); }

void InitLogFromEnv() {
  if (const char* level = std::getenv("BSNET_LOG_LEVEL")) {
    const std::string v = Lowered(level);
    if (v == "trace" || v == "0") SetLogLevel(LogLevel::kTrace);
    else if (v == "debug" || v == "1") SetLogLevel(LogLevel::kDebug);
    else if (v == "info" || v == "2") SetLogLevel(LogLevel::kInfo);
    else if (v == "warn" || v == "3") SetLogLevel(LogLevel::kWarn);
    else if (v == "error" || v == "4") SetLogLevel(LogLevel::kError);
    else if (v == "off" || v == "5") SetLogLevel(LogLevel::kOff);
  }
  if (const char* format = std::getenv("BSNET_LOG_FORMAT")) {
    const std::string v = Lowered(format);
    if (v == "json") SetLogFormat(LogFormat::kJson);
    else if (v == "text") SetLogFormat(LogFormat::kText);
  }
}

void LogLine(LogLevel level, const std::string& category, const std::string& msg) {
  if (level < GetLogLevel()) return;
  if (GetLogFormat() == LogFormat::kJson) {
    std::fprintf(stderr, "{\"level\":\"%s\",\"category\":\"%s\",\"msg\":\"%s\"}\n",
                 LevelName(level), JsonEscape(category).c_str(),
                 JsonEscape(msg).c_str());
  } else {
    std::fprintf(stderr, "[%s] %s: %s\n", LevelName(level), category.c_str(),
                 msg.c_str());
  }
}

}  // namespace bsutil
