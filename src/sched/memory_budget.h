/// \file memory_budget.h
/// \brief Per-query and global memory accounting for the mediator.
///
/// The executor charges an estimate of every batch it materializes —
/// fragment results, join hash tables and outputs, aggregate and sort
/// buffers — against two caps: the query's own budget and the
/// mediator-wide budget shared by all in-flight queries. Charges are
/// *cumulative for the lifetime of the query* and released in one
/// piece when the query finishes: releasing per-operator would make
/// the cap-crossing moment depend on operator completion order, which
/// the worker pool is free to permute, whereas a commutative running
/// sum crosses (or doesn't cross) its cap identically under any
/// schedule. A query over budget fails with Status::Overloaded; the
/// mediator itself never allocates past its global cap.
///
/// Bytes are estimated from row count and schema width
/// (EstimateBatchBytes), not by walking cell payloads — O(1) per batch
/// on the hot path, and fully deterministic.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace gisql {

/// \brief Estimated resident bytes of `rows` materialized rows of
/// `width` columns (Row vector + Value cells; strings estimated flat).
inline int64_t EstimateRowBytes(int64_t rows, int64_t width) {
  return rows * (32 + 24 * width);
}

class MemoryBudget;

/// \brief Memory budget knobs (PlannerOptions::memory).
struct MemoryConfig {
  /// Per-query materialization budget (GISQL_QUERY_MEM_BYTES).
  int64_t query_bytes = 256LL << 20;
  /// Mediator-wide budget across in-flight queries
  /// (GISQL_MEDIATOR_MEM_BYTES).
  int64_t mediator_bytes = 1LL << 30;

  bool operator==(const MemoryConfig&) const = default;
};

/// \brief One query's budget handle: charges accumulate here and
/// against the owning MemoryBudget, and everything is released when
/// the grant is destroyed. Thread-safe (pooled operators charge
/// concurrently). Movable, not copyable.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  MemoryGrant(MemoryBudget* budget, int64_t query_cap);
  MemoryGrant(MemoryGrant&& other) noexcept;
  MemoryGrant& operator=(MemoryGrant&& other) noexcept;
  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;
  ~MemoryGrant();

  /// \brief Adds `bytes` to the query's running total and the global
  /// total; Overloaded when either cap is crossed. `what` names the
  /// charging operator for the error message.
  Status Charge(int64_t bytes, const char* what);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t query_cap() const { return query_cap_; }
  bool active() const { return budget_ != nullptr; }

 private:
  void ReleaseAll();

  MemoryBudget* budget_ = nullptr;
  int64_t query_cap_ = 0;
  std::atomic<int64_t> used_{0};
};

/// \brief The mediator-wide budget: global cap, in-use and peak
/// accounting, and the factory for per-query grants.
class MemoryBudget {
 public:
  MemoryBudget() = default;

  void Configure(int64_t query_cap_bytes, int64_t global_cap_bytes);

  /// \brief A grant charging against this budget under the configured
  /// per-query cap.
  MemoryGrant NewGrant();

  int64_t query_cap() const {
    return query_cap_.load(std::memory_order_relaxed);
  }
  int64_t global_cap() const {
    return global_cap_.load(std::memory_order_relaxed);
  }
  int64_t in_use() const { return in_use_.load(std::memory_order_relaxed); }
  /// Highest global in-use watermark ever observed. With one query in
  /// flight this is the largest per-query total, a deterministic value.
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  friend class MemoryGrant;

  /// Adds to the global total, updating the peak; Overloaded past cap.
  Status ChargeGlobal(int64_t bytes);
  void Release(int64_t bytes);

  std::atomic<int64_t> query_cap_{MemoryConfig{}.query_bytes};
  std::atomic<int64_t> global_cap_{MemoryConfig{}.mediator_bytes};
  std::atomic<int64_t> in_use_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace gisql
