/// \file json.h
/// \brief Minimal deterministic JSON emission helpers for incident
/// snapshots. Doubles print with %.17g (round-trippable and
/// platform-stable for IEEE754), so the same simulated state always
/// serializes to the same bytes — the property the serial-vs-pooled
/// incident identity test depends on.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace gisql {

/// \brief Escapes a string for inclusion inside JSON double quotes.
inline std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// \brief Deterministic numeric formatting (shared with Prometheus
/// export, which uses the same %.17g contract).
inline std::string JsonNum(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

inline std::string JsonNum(int64_t value) {
  return std::to_string(value);
}

/// \brief Quoted, escaped JSON string literal.
inline std::string JsonStr(const std::string& raw) {
  // Built by appending: GCC 12 misreports `"\"" + temporary` as an
  // overlapping copy (-Wrestrict) once inlined.
  std::string out = "\"";
  out += JsonEscape(raw);
  return out += '"';
}

}  // namespace gisql
