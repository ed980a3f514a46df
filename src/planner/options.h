/// \file options.h
/// \brief Planner/optimizer switches. The benches use these to realize
/// the paper's baselines (ship-everything vs. pushdown vs. full).

#pragma once

#include <cstdint>

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
  /// governance"). Environment overrides: see ApplyEnv().
  /// @{

  /// Gate queries through the admission controller. Closed-loop
  /// clients (each query submitted after the previous finishes) never
  /// queue, so the default is free for them; open-loop load sees
  /// bounded queueing and shedding.
  bool admission_control = true;
  /// Concurrency slots (GISQL_MAX_CONCURRENT).
  int max_concurrent_queries = 8;
  /// Bounded wait queue across priority classes (GISQL_ADMISSION_QUEUE).
  int admission_queue_limit = 32;
  /// Default queue-wait deadline; arrivals whose computed wait exceeds
  /// it are shed up front (GISQL_ADMISSION_WAIT_MS).
  double admission_max_wait_ms = 1000.0;
  /// Per-query materialization budget (GISQL_QUERY_MEM_BYTES).
  int64_t query_mem_bytes = 256LL << 20;
  /// Mediator-wide budget across in-flight queries
  /// (GISQL_MEDIATOR_MEM_BYTES).
  int64_t mediator_mem_bytes = 1LL << 30;
  /// Per-source circuit breakers (GISQL_CIRCUIT_BREAKER). Off by
  /// default: skipping a source changes which attempts reach the
  /// network, so it is an explicit operational choice, not a silent
  /// one.
  bool circuit_breaker = false;
  /// Consecutive failures that open a breaker (GISQL_BREAKER_FAILURES).
  int breaker_open_failures = 5;
  /// Skipped requests while open before half-open probing resumes
  /// (GISQL_BREAKER_COOLDOWN).
  int breaker_cooldown_skips = 3;
  /// Fraction of half-open requests admitted as probes
  /// (GISQL_BREAKER_PROBE_RATIO).
  double breaker_probe_ratio = 0.5;
  /// Seed for the half-open probe draws (GISQL_BREAKER_SEED).
  uint64_t breaker_seed = 17;
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
  /// intelligence")
  /// @{

  /// Evaluate SLO objectives on every statement (GISQL_SLO_ENABLED).
  /// Not free: each record scans both whole windows, so its cost grows
  /// with the arrival rate (about 23 µs per statement at 300 arrivals/s
  /// over the default 60 s slow window). On by default all the same.
  bool slo_enabled = true;
  /// Fast error-budget window, simulated ms (GISQL_SLO_FAST_WINDOW_MS).
  double slo_fast_window_ms = 5000.0;
  /// Slow error-budget window, simulated ms (GISQL_SLO_SLOW_WINDOW_MS).
  double slo_slow_window_ms = 60000.0;
  /// Burn-rate threshold: an alert latches when BOTH windows burn at
  /// or above it (GISQL_SLO_BURN_ALERT).
  double slo_burn_alert = 2.0;
  /// Capture incident snapshots on deterministic triggers
  /// (GISQL_FLIGHT_RECORDER).
  bool flight_recorder = true;
  /// Recent-query frames retained in the recorder ring
  /// (GISQL_FLIGHT_RING).
  int flight_ring = 64;
  /// Incidents retained; older ones age out (GISQL_FLIGHT_MAX_INCIDENTS).
  int flight_max_incidents = 16;
  /// Minimum simulated ms between captures of the same trigger kind
  /// (GISQL_FLIGHT_COOLDOWN_MS).
  double flight_cooldown_ms = 10000.0;
  /// Sheds within the spike window that trigger a capture
  /// (GISQL_FLIGHT_SHED_SPIKE).
  int flight_shed_spike = 10;
  /// The shed-spike rolling window, simulated ms
  /// (GISQL_FLIGHT_SHED_WINDOW_MS).
  double flight_shed_window_ms = 1000.0;
  /// Distinct tenants tracked individually before folding into the
  /// "~other" bucket (GISQL_TENANT_MAX_TRACKED).
  int tenant_max_tracked = 4096;
  /// @}

  /// \name Self-driving advisor (src/advisor/, DESIGN.md "Self-driving
  /// mediator")
  /// @{

  /// Run the background advisor (GISQL_ADVISOR). Off by default:
  /// the advisor *acts* — it creates replicas, retargets routing, and
  /// retunes admission — so closing the loop is an explicit choice,
  /// the same stance as circuit_breaker. GISQL_ADVISOR_KILL=1 is the
  /// operational kill switch: it forces the advisor off even when this
  /// flag was enabled programmatically.
  bool advisor_enabled = false;
  /// Simulated ms between advisor ticks (GISQL_ADVISOR_INTERVAL_MS).
  double advisor_interval_ms = 500.0;
  /// Observation window the policies read, simulated ms
  /// (GISQL_ADVISOR_WINDOW_MS).
  double advisor_window_ms = 2000.0;
  /// Executions of one fingerprint within the window that make the
  /// template "hot" (GISQL_ADVISOR_HOT_THRESHOLD).
  int advisor_hot_threshold = 8;
  /// Materialized-view budget: replicated views the advisor may own at
  /// once (GISQL_ADVISOR_MAX_VIEWS).
  int advisor_max_views = 2;
  /// Minimum modeled per-query gain before a materialization or
  /// placement action is worth its copy cost, simulated ms
  /// (GISQL_ADVISOR_MIN_GAIN_MS).
  double advisor_min_gain_ms = 1.0;
  /// Consecutive ticks a materialized view may go unused before the
  /// advisor evicts it (GISQL_ADVISOR_COLD_TICKS).
  int advisor_cold_ticks = 8;
  /// Bounded decision log capacity, entries (GISQL_ADVISOR_LOG).
  int advisor_log_capacity = 256;
  /// Sub-policy switches (GISQL_ADVISOR_MATERIALIZE / _PLACEMENT /
  /// _TUNE): auto-materialization of hot templates, replica placement
  /// toward cheap healthy sites, and admission/memory auto-tuning.
  bool advisor_materialize = true;
  bool advisor_placement = true;
  bool advisor_tune = true;
  /// @}

  /// \brief Overrides governance knobs from GISQL_* environment
  /// variables (unset or unparsable values keep the field). Mirrors
  /// the GISQL_LOG_LEVEL convention: the env never *breaks* a run, it
  /// only tunes it.
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
