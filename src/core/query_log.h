/// \file query_log.h
/// \brief Bounded ring buffer of recently executed queries, backing the
/// `gis.queries` system table.
///
/// GlobalSystem::RecordQueryOutcome appends one QueryLogEntry
/// (obs/query_context.h) per recorded statement: SELECT and EXPLAIN
/// ANALYZE including cache hits, sheds, and each cursor at the end of
/// its life (plain EXPLAIN never executes and is not logged). The
/// buffer keeps the most recent `capacity` entries; ids are
/// monotonically increasing across the system's lifetime, so
/// `SELECT MAX(id) FROM gis.queries` counts total recorded statements
/// even after eviction.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_context.h"

namespace gisql {

/// \brief Thread-safe fixed-capacity ring of QueryLogEntry.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  static constexpr size_t kMaxCapacity = 1u << 20;

  explicit QueryLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// \brief Ring capacity from GISQL_QUERY_LOG_CAPACITY (clamped to
  /// [1, kMaxCapacity]; unset or unparsable falls back to the
  /// default). Long scenario runs need a window wider than 256 to
  /// retain a full SLO slow window of queries.
  static size_t CapacityFromEnv();

  /// \brief Appends one entry, assigning and returning its id; evicts
  /// the oldest entry once the ring is full.
  int64_t Append(QueryLogEntry entry);

  /// \brief Retained entries, oldest first.
  std::vector<QueryLogEntry> Snapshot() const;

  size_t capacity() const { return capacity_; }

  /// \brief Entries ever appended (ids run 1..total_appended()).
  int64_t total_appended() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<QueryLogEntry> ring_;  ///< grows to capacity_, then wraps
  size_t head_ = 0;                  ///< index of the oldest entry
};

}  // namespace gisql
