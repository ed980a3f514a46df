/// \file query_context.h
/// \brief The one per-statement record: who submitted a statement, at
/// what priority and when (QueryContext), what it consumed (Usage), and
/// how it ended (QueryLogEntry, which is both).
///
/// The mediator serves a federation it does not own, and must stay
/// answerable for *who* is consuming it. Every statement therefore
/// carries a QueryContext; callers that do not name a tenant are
/// attributed to kDefaultTenant so per-tenant sums always cover the
/// whole workload (sum over gis.tenants == the global counters, with
/// no unattributed remainder). GlobalSystem::RecordQueryOutcome builds
/// one QueryLogEntry per statement, and every observer reads that
/// entry: the query log (gis.queries), the tenant ledger (gis.tenants),
/// the SLO engine, and the flight recorder's frames. A fact added to
/// the entry is therefore one field, visible to all four.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

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
/// entry point meters one into its QueryLogEntry, and QueryMetrics
/// hands the same fields to the caller.
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

  /// \brief Adds a later operation of the same statement (a cursor
  /// fetch or close); memory keeps the peak.
  Usage& operator+=(const Usage& op) {
    elapsed_ms += op.elapsed_ms;
    bytes_sent += op.bytes_sent;
    bytes_received += op.bytes_received;
    messages += op.messages;
    retries += op.retries;
    page_hits += op.page_hits;
    page_misses += op.page_misses;
    disk_ms += op.disk_ms;
    mem_bytes = std::max(mem_bytes, op.mem_bytes);
    return *this;
  }
};

/// \brief One statement's record: its attribution, its usage, and how
/// it ended. A statement refused before it ran carries zero usage; a
/// cursor shed mid-fetch carries what it consumed until then.
struct QueryLogEntry : QueryContext, Usage {
  QueryLogEntry() = default;
  QueryLogEntry(const QueryContext& qctx, const Usage& usage, std::string sql)
      : QueryContext(qctx), Usage(usage), sql(std::move(sql)) {}

  int64_t id = 0;  ///< 1-based, assigned by QueryLog::Append
  std::string sql;  ///< statement text as submitted
  /// Literal-stripped template hash (sql/fingerprint.h), stamped once
  /// at the RecordQueryOutcome funnel. Two entries share a fingerprint
  /// iff they are the same statement template with different literals
  /// — the key for hot-template detection in the advisor and in user
  /// queries over gis.queries.
  std::string fingerprint;
  int64_t rows = 0;  ///< result rows returned
  /// Simulated completion instant (start + elapsed). Shed entries
  /// finish at their refusal time.
  double finish_ms = 0.0;
  /// Why the governor refused this statement ("" = it ran).
  std::string shed_reason;
  bool cache_hit = false;
  uint64_t trace_root = 0;  ///< root span id (0 when tracing is off)

  bool shed() const { return !shed_reason.empty(); }
  /// \brief Admission wait plus execution: what the SLO judges.
  double sojourn_ms() const { return admission_wait_ms + elapsed_ms; }
};

}  // namespace gisql
