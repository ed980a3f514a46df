#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace gisql {

namespace {

/// The variable's text, or null when it is unset or empty.
const char* EnvText(const char* name) {
  const char* text = std::getenv(name);
  return text != nullptr && *text != '\0' ? text : nullptr;
}

/// Runs a strto* parser over the variable; keeps the value only when
/// the whole text parsed and did not overflow.
template <typename T, typename Parser>
std::optional<T> ParseEnv(const char* name, Parser parse) {
  const char* text = EnvText(name);
  if (text == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const T v = parse(text, &end);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace

std::optional<bool> EnvBool(const char* name) {
  const char* text = EnvText(name);
  if (text == nullptr) return std::nullopt;
  const std::string v(text);
  if (v == "1" || v == "true" || v == "TRUE" || v == "on" || v == "ON" ||
      v == "yes" || v == "YES") {
    return true;
  }
  if (v == "0" || v == "false" || v == "FALSE" || v == "off" || v == "OFF" ||
      v == "no" || v == "NO") {
    return false;
  }
  return std::nullopt;
}

std::optional<int64_t> EnvInt64(const char* name) {
  return ParseEnv<int64_t>(name, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

std::optional<uint64_t> EnvUint64(const char* name) {
  // strtoull silently negates a leading '-'; an unsigned knob refuses it.
  const char* text = EnvText(name);
  if (text != nullptr && std::strchr(text, '-') != nullptr) {
    return std::nullopt;
  }
  return ParseEnv<uint64_t>(name, [](const char* s, char** end) {
    return std::strtoull(s, end, 10);
  });
}

std::optional<double> EnvDouble(const char* name) {
  return ParseEnv<double>(
      name, [](const char* s, char** end) { return std::strtod(s, end); });
}

}  // namespace gisql
