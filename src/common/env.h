/// \file env.h
/// \brief The one parser behind every GISQL_* environment knob.
///
/// EnvValue<T>(name) yields a value only on a full, clean parse that
/// fits T. Unset or empty variables, trailing junk, values past T's
/// range (including strtol's ERANGE saturation), and negative values
/// for unsigned knobs all yield nullopt, so a typo'd or overflowing
/// variable leaves the compiled-in default intact: the environment
/// never *breaks* a run, it only tunes it. Booleans accept
/// 1/true/on/yes and 0/false/off/no, lower or upper case.

#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

namespace gisql {

/// \brief The parse primitives EnvValue dispatches to.
std::optional<bool> EnvBool(const char* name);
std::optional<int64_t> EnvInt64(const char* name);
std::optional<uint64_t> EnvUint64(const char* name);
std::optional<double> EnvDouble(const char* name);

/// \brief `name` parsed as T (bool, floating point, or an integer type
/// whose range the value must fit), or nullopt.
template <typename T>
std::optional<T> EnvValue(const char* name) {
  if constexpr (std::is_same_v<T, bool>) {
    return EnvBool(name);
  } else if constexpr (std::is_floating_point_v<T>) {
    return EnvDouble(name);
  } else if constexpr (std::is_signed_v<T>) {
    const std::optional<int64_t> v = EnvInt64(name);
    if (!v || !std::in_range<T>(*v)) return std::nullopt;
    return static_cast<T>(*v);
  } else {
    const std::optional<uint64_t> v = EnvUint64(name);
    if (!v || !std::in_range<T>(*v)) return std::nullopt;
    return static_cast<T>(*v);
  }
}

/// \brief Overwrites `*out` only when `name` parses cleanly as T.
template <typename T>
void EnvOverride(const char* name, T* out) {
  if (const std::optional<T> v = EnvValue<T>(name)) *out = *v;
}

/// \brief EnvOverride for a size or a count: a value below 1 is a
/// typo, not a tuning, and keeps `*out` too.
template <typename T>
void EnvOverridePositive(const char* name, T* out) {
  if (const std::optional<T> v = EnvValue<T>(name); v && *v > 0) *out = *v;
}

/// \brief EnvOverride for a duration or a latency: a negative value
/// keeps `*out` too (0 is a real setting).
template <typename T>
void EnvOverrideNonNegative(const char* name, T* out) {
  if (const std::optional<T> v = EnvValue<T>(name); v && *v >= 0) *out = *v;
}

}  // namespace gisql
