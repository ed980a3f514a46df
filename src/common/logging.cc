#include "common/logging.h"

#include <cstdlib>
#include <cstring>

namespace gisql {

Logger& Logger::Instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() : level_(LogLevelFromEnv(kDefaultLevel)) {}

LogLevel ParseLogLevel(const char* text, LogLevel fallback) {
  if (text == nullptr) return fallback;
  std::string upper;
  for (const char* p = text; *p; ++p) {
    upper.push_back(*p >= 'a' && *p <= 'z'
                        ? static_cast<char>(*p - 'a' + 'A')
                        : *p);
  }
  if (upper == "TRACE") return LogLevel::kTrace;
  if (upper == "DEBUG") return LogLevel::kDebug;
  if (upper == "INFO") return LogLevel::kInfo;
  if (upper == "WARN" || upper == "WARNING") return LogLevel::kWarn;
  if (upper == "ERROR") return LogLevel::kError;
  if (upper == "OFF" || upper == "NONE") return LogLevel::kOff;
  return fallback;
}

LogLevel LogLevelFromEnv(LogLevel fallback) {
  return ParseLogLevel(std::getenv("GISQL_LOG_LEVEL"), fallback);
}

const char* LogLevelName(LogLevel level) {
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

void Logger::Log(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::cerr << LogLevelName(level) << " " << msg << "\n";
}

}  // namespace gisql
