/// \file logging.h
/// \brief Minimal leveled logger with a process-global threshold.

#pragma once

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace gisql {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// \brief Process-global logging configuration.
///
/// The threshold defaults to kWarn and can be set programmatically or —
/// at first use — via the GISQL_LOG_LEVEL environment variable
/// (TRACE/DEBUG/INFO/WARN/ERROR/OFF, case-insensitive; unrecognized
/// values keep the default). Every emitted line is tagged with its
/// level name.
class Logger {
 public:
  /// Threshold when GISQL_LOG_LEVEL is unset or unrecognized.
  static constexpr LogLevel kDefaultLevel = LogLevel::kWarn;

  static Logger& Instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// \brief Emits one formatted line to stderr if `level` is enabled.
  void Log(LogLevel level, const std::string& msg);

 private:
  Logger();
  LogLevel level_;
  std::mutex mu_;
};

const char* LogLevelName(LogLevel level);

/// \brief Parses a level name (case-insensitive: "trace", "DEBUG",
/// "Info", "warn", "error", "off"); `fallback` when `text` is null or
/// unrecognized.
LogLevel ParseLogLevel(const char* text, LogLevel fallback);

/// \brief The level named by GISQL_LOG_LEVEL, or `fallback` when the
/// variable is unset or unrecognized.
LogLevel LogLevelFromEnv(LogLevel fallback);

namespace internal {

/// \brief Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    oss_ << "[" << base << ":" << line << "] ";
  }
  ~LogMessage() { Logger::Instance().Log(level_, oss_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    oss_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream oss_;
};

}  // namespace internal
}  // namespace gisql

#define GISQL_LOG(lvl)                                              \
  if (static_cast<int>(::gisql::LogLevel::lvl) >=                   \
      static_cast<int>(::gisql::Logger::Instance().level()))        \
  ::gisql::internal::LogMessage(::gisql::LogLevel::lvl, __FILE__, __LINE__)

#define GISQL_DCHECK(cond)                                                   \
  do {                                                                       \
    if (!(cond)) {                                                           \
      GISQL_LOG(kError) << "DCHECK failed: " #cond;                          \
      std::abort();                                                          \
    }                                                                        \
  } while (false)
