/// \file tenant_accountant.h
/// \brief Per-tenant resource attribution for the mediator.
///
/// Every executed or shed statement is charged to exactly one tenant
/// (QueryContext::tenant), and the accountant maintains — in the same
/// mutex hold — a grand-total row aggregating every charge it ever
/// accepted. This makes the central attribution invariant *checkable*
/// rather than aspirational:
///
///     sum over SnapshotTenants() of any column == Totals() column
///
/// holds exactly (no sampling, no rounding: the totals are built from
/// the identical deltas). Because all charges come from per-query
/// counter deltas on the simulated clock, the totals also equal the
/// global registry deltas over the same traffic, which is what
/// bench_e20_slo asserts end to end.
///
/// The tenant map is bounded: once `max_tracked` distinct tenants have
/// been seen, later tenants fold into the kOverflowTenant bucket, so a
/// planetary-scale tenant population cannot grow mediator memory
/// without bound — and the sum invariant still holds, because overflow
/// charges land in a row like any other. Tracking is first-seen-wins,
/// a pure function of the workload order, so replays agree.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_context.h"

namespace gisql {

/// \brief Bucket absorbing tenants past the tracking bound.
inline constexpr const char* kOverflowTenant = "~other";

/// \brief One tenant's cumulative consumption (a gis.tenants row): the
/// sum of its QueryLogEntry records.
/// All values are simulation-derived and deterministic.
struct TenantUsage {
  std::string tenant;
  int64_t queries = 0;      ///< executed statements (incl. cache hits)
  int64_t sheds = 0;        ///< refused by the governor (zero traffic)
  int64_t cache_hits = 0;
  int64_t rows = 0;         ///< result rows returned
  double elapsed_ms = 0.0;  ///< simulated execution time
  double admission_wait_ms = 0.0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages = 0;
  int64_t retries = 0;
  /// Largest single-query booked memory footprint (grant total).
  int64_t mem_peak_bytes = 0;
  /// Buffer-pool activity at the sources on this tenant's behalf.
  int64_t page_hits = 0;
  int64_t page_misses = 0;
  double disk_ms = 0.0;
};

/// \brief Tenant-accounting knobs (PlannerOptions::tenants).
struct TenantConfig {
  /// Distinct tenants tracked individually before folding into the
  /// "~other" bucket (GISQL_TENANT_MAX_TRACKED); values below 1 act
  /// as 1.
  int max_tracked = 4096;

  bool operator==(const TenantConfig&) const = default;
};

/// \brief Thread-safe per-tenant aggregation with a checkable total.
class TenantAccountant {
 public:
  explicit TenantAccountant(TenantConfig config = TenantConfig()) {
    Configure(config);
  }

  /// \brief Re-bounds the tenant map (existing rows are kept even when
  /// the bound shrinks; the bound gates *new* tenants only).
  void Configure(const TenantConfig& config) {
    std::lock_guard<std::mutex> lock(mu_);
    max_tracked_ = std::max(config.max_tracked, 1);
  }

  /// \brief Charges one statement to its tenant and to the grand total
  /// under a single lock hold, so the two can never diverge.
  void Record(const QueryLogEntry& entry);

  /// \brief All tracked tenants, sorted by name (deterministic).
  std::vector<TenantUsage> SnapshotTenants() const;

  /// \brief The grand-total row (tenant name "*").
  TenantUsage Totals() const;

  /// \brief Distinct tenants tracked (excluding the overflow bucket).
  size_t tracked_count() const;

  void Reset();

 private:
  static void Apply(TenantUsage* usage, const QueryLogEntry& entry);

  mutable std::mutex mu_;
  int max_tracked_;
  std::map<std::string, TenantUsage> tenants_;
  TenantUsage totals_;
};

}  // namespace gisql
