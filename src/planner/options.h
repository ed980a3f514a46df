/// \file options.h
/// \brief Every mediator setting in one value: the planner/optimizer
/// switches (the benches use these to realize the paper's baselines —
/// ship-everything vs. pushdown vs. full), the executor, cursor and
/// transaction settings GlobalSystem reads itself, and one config
/// struct per subsystem, each declared (with its defaults) by the
/// subsystem that reads it.

#pragma once

#include <cstdint>

#include "advisor/advisor.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/tenant_accountant.h"
#include "sched/admission.h"
#include "sched/circuit_breaker.h"
#include "sched/memory_budget.h"

namespace gisql {

/// \brief Join enumeration algorithms (experiment E5).
enum class JoinOrdering : uint8_t {
  kAsWritten,  ///< keep the FROM-clause order (left-deep)
  kGreedy,     ///< smallest-intermediate-first heuristic
  kDp,         ///< dynamic programming over connected subsets (≤ 10 rels)
  kWorst,      ///< adversarial: largest-intermediate-first (baseline)
};

/// \brief All planner knobs with production defaults.
struct PlannerOptions {
  bool enable_filter_pushdown = true;      ///< push filters into fragments
  bool enable_projection_pushdown = true;  ///< prune columns at sources
  bool enable_aggregate_pushdown = true;   ///< partial aggregation at sources
  bool enable_limit_pushdown = true;
  bool enable_semijoin = true;             ///< semijoin-reduced joins
  /// Skip the cost-based choice and semijoin-reduce every eligible join
  /// (used by the ablation benches to measure both sides of the
  /// crossover).
  bool force_semijoin = false;
  bool enable_constant_folding = true;
  JoinOrdering join_ordering = JoinOrdering::kDp;

  /// Convert sargable range predicates on an ordered-indexed column
  /// into index range scans at capable sources
  /// (GISQL_INDEX_RANGE_SCAN).
  bool enable_index_range_scan = true;
  /// Collapse a co-located equi-join into a source-side index-nested-
  /// loop join when the inner side is indexed on the join key
  /// (GISQL_INDEX_JOIN).
  bool enable_index_join = true;

  /// Semijoin reduction ships at most this many distinct keys.
  int64_t semijoin_max_keys = 100000;

  /// Mediator CPU cost per row for local operators (simulated µs).
  double mediator_cpu_us_per_row = 0.05;

  /// Dispatch independent remote fetches on worker threads (wall-clock
  /// only; simulated time and results are identical either way).
  bool parallel_execution = true;

  /// Size of the bounded executor worker pool; 0 picks
  /// hardware_concurrency (minimum 2). The pool is created once per
  /// GlobalSystem and shared by every query.
  int worker_threads = 0;

  /// \name Resource governance (src/sched/, DESIGN.md "Resource
  /// governance")
  /// @{
  AdmissionConfig admission;
  MemoryConfig memory;
  BreakerConfig breaker;
  /// Demote suspect sources behind their healthy replicas when
  /// ordering failover candidates (GISQL_HEALTH_ROUTING). Ordering is
  /// unchanged while every candidate is healthy.
  bool health_aware_routing = true;
  /// @}

  /// \name Cursor-based streaming (wire/cursor.h, core/cursor_manager.h)
  /// @{

  /// Rows per fetched chunk — the unit the per-query memory footprint
  /// shrinks to under streaming (GISQL_CURSOR_CHUNK_ROWS).
  int64_t cursor_chunk_rows = 1024;
  /// Idle lease on the simulated clock: a cursor not fetched within
  /// this window expires on the next cursor call, releasing its memory
  /// grant and source-side staging (GISQL_CURSOR_LEASE_MS).
  double cursor_lease_ms = 30000.0;
  /// Concurrently open mediator cursors; opens past it are shed with
  /// Overloaded (GISQL_CURSOR_MAX_OPEN).
  int cursor_max_open = 64;
  /// @}

  /// \name Global transactions (txn/transaction_manager.h)
  /// @{

  /// Concurrently active global transactions; Begins past it are shed
  /// with Overloaded (GISQL_TXN_MAX_ACTIVE).
  int txn_max_active = 256;
  /// Prepare attempts per TxnWrite statement when deadlock resolution
  /// aborts another victim and retries (GISQL_TXN_MAX_RETRIES).
  int txn_max_prepare_retries = 8;
  /// Piggyback the MVCC GC watermark on 2PC commits so sources reclaim
  /// row versions no snapshot can reach (GISQL_TXN_GC).
  bool txn_gc = true;
  /// @}

  /// \name Workload intelligence (src/obs/, DESIGN.md "Workload
  /// intelligence") and the self-driving advisor (src/advisor/,
  /// DESIGN.md "Self-driving mediator")
  /// @{
  SloConfig slo;
  FlightConfig flight;
  TenantConfig tenants;
  AdvisorConfig advisor;
  /// @}

  bool operator==(const PlannerOptions&) const = default;

  /// \brief Overrides settings from GISQL_* environment variables
  /// (unset or unparsable values keep the field). Mirrors the
  /// GISQL_LOG_LEVEL convention: the env never *breaks* a run, it only
  /// tunes it.
  void ApplyEnv();

  /// \brief Defaults with ApplyEnv() applied.
  static PlannerOptions FromEnv();

  /// \brief The pre-mediator baseline: fetch whole tables, do all work
  /// centrally.
  static PlannerOptions ShipEverything() {
    PlannerOptions o;
    o.enable_filter_pushdown = false;
    o.enable_projection_pushdown = false;
    o.enable_aggregate_pushdown = false;
    o.enable_limit_pushdown = false;
    o.enable_semijoin = false;
    o.enable_index_range_scan = false;
    o.enable_index_join = false;
    o.join_ordering = JoinOrdering::kAsWritten;
    return o;
  }

  /// \brief Filter pushdown only (the minimal mediator).
  static PlannerOptions FilterPushdownOnly() {
    PlannerOptions o = ShipEverything();
    o.enable_filter_pushdown = true;
    return o;
  }

  /// \brief Everything on (the paper's full proposal).
  static PlannerOptions Full() { return PlannerOptions{}; }
};

}  // namespace gisql
