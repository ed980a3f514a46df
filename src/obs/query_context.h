/// \file query_context.h
/// \brief Workload attribution context: who submitted a query, at what
/// priority, and when — threaded from Query()/Submit()/OpenCursor()
/// through admission and execution into the query log and the
/// per-tenant accountant — plus the Usage record of what it consumed.
///
/// The mediator serves a federation it does not own, and must stay
/// answerable for *who* is consuming it. Every statement therefore
/// carries a QueryContext; callers that do not name a tenant are
/// attributed to kDefaultTenant so per-tenant sums always cover the
/// whole workload (sum over gis.tenants == the global counters, with
/// no unattributed remainder).

#pragma once

#include <cstdint>
#include <string>

namespace gisql {

/// \brief Tenant charged when the caller names none.
inline constexpr const char* kDefaultTenant = "default";

/// \brief Attribution context of one statement on the simulated clock.
struct QueryContext {
  /// Accountable principal ("" is normalized to kDefaultTenant).
  std::string tenant = kDefaultTenant;
  /// Admission priority class: 0 background, 1 normal, 2 interactive.
  int priority = 1;
  /// Simulated arrival time (the admission request's arrival).
  double arrival_ms = 0.0;
  /// Simulated time the query actually started executing (arrival +
  /// queue wait); completion is start_ms + elapsed.
  double start_ms = 0.0;
  /// Simulated time spent queued for an admission slot (0 when a slot
  /// was free, when admission control is off, or for a shed query).
  double admission_wait_ms = 0.0;

  /// \brief Normalizes an externally supplied tenant name.
  static std::string NormalizeTenant(const std::string& tenant) {
    return tenant.empty() ? kDefaultTenant : tenant;
  }
};

/// \brief What one statement — or one cursor operation — consumed,
/// all on the simulation and fully deterministic. Every GlobalSystem
/// entry point meters one, and the query log, the tenant ledger, and
/// QueryMetrics are all rendered from it.
struct Usage {
  double elapsed_ms = 0.0;     ///< simulated time
  int64_t bytes_sent = 0;      ///< mediator → sources
  int64_t bytes_received = 0;  ///< sources → mediator
  int64_t messages = 0;        ///< RPCs issued
  int64_t retries = 0;         ///< backoff retries
  int64_t page_hits = 0;       ///< source buffer-pool work on its behalf
  int64_t page_misses = 0;
  double disk_ms = 0.0;        ///< simulated disk time at the sources
  /// Booked memory-grant bytes; accumulates as a peak, not a sum
  /// (a cursor re-grants per chunk).
  int64_t mem_bytes = 0;
};

}  // namespace gisql
