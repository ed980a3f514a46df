/// \file advisor.h
/// \brief The self-driving mediator: a deterministic background advisor
/// that closes the observe→act loop.
///
/// Every prior layer of gisql *observes* — health EWMAs, breaker state,
/// SLO burn rates, per-tenant charges, the query log — but acting on
/// those signals was left to the operator. The advisor is the missing
/// half: it runs on the simulated clock (ticked from the query path, no
/// background thread), reads only simulation-deterministic signals, and
/// enacts three guard-railed policies:
///
///  * **auto-materialization** — fingerprint the recent query log,
///    detect hot statement templates, and replicate their base table
///    onto a cheap healthy source, promoting the global name to a
///    replicated view (bounded by a view budget; cold views are
///    evicted and the base table restored);
///  * **replica placement** — steer replicated-view routing toward the
///    cheapest *healthy* sites by maintaining catalog latency hints
///    from observed per-source EWMAs, deprioritizing breaker-open or
///    unhealthy sources (the advisor never places work onto a source
///    whose breaker is open);
///  * **auto-tuning** — tighten admission queue watermarks while an
///    interactive SLO is burning its error budget, relax them back
///    once it recovers, and grow the per-query memory cap after
///    memory-budget sheds — always through the governor's bounded
///    setters, which own the guard rails.
///
/// Every enacted action (and every failed attempt) is one
/// AdvisorDecision in a bounded log: the trigger evidence, the action,
/// and the outcome. The log renders canonically via LogText() and is
/// queryable as `gis.advisor`; because every input is deterministic on
/// the simulated clock, the same seed replays a byte-identical decision
/// log, serial or pooled.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/query_log.h"
#include "core/source_health.h"
#include "obs/slo.h"
#include "sched/governor.h"

namespace gisql {

/// \brief Advisor knobs (PlannerOptions::advisor).
struct AdvisorConfig {
  /// Run the background advisor (GISQL_ADVISOR). Off by default: the
  /// advisor *acts* — it creates replicas, retargets routing, and
  /// retunes admission — so closing the loop is an explicit choice, the
  /// same stance as BreakerConfig::enabled. GISQL_ADVISOR_KILL=1 is the
  /// operational kill switch: GlobalSystem forces the advisor off even
  /// when this flag was enabled programmatically.
  bool enabled = false;
  /// Simulated ms between advisor ticks (GISQL_ADVISOR_INTERVAL_MS).
  double interval_ms = 500.0;
  /// Observation window over gis.queries the policies read, simulated
  /// ms (GISQL_ADVISOR_WINDOW_MS).
  double window_ms = 2000.0;
  /// Executions of one fingerprint within the window that make the
  /// template "hot" (GISQL_ADVISOR_HOT_THRESHOLD).
  int hot_threshold = 8;
  /// Materialized-view budget: replicated views the advisor may own at
  /// once (GISQL_ADVISOR_MAX_VIEWS).
  int max_views = 2;
  /// Minimum modeled per-query gain before a materialization or
  /// placement action is worth its copy cost, simulated ms
  /// (GISQL_ADVISOR_MIN_GAIN_MS).
  double min_gain_ms = 1.0;
  /// Consecutive ticks a materialized view may go unused before the
  /// advisor evicts it (GISQL_ADVISOR_COLD_TICKS).
  int cold_ticks = 8;
  /// Bounded decision log capacity, entries (GISQL_ADVISOR_LOG).
  int log_capacity = 256;
  /// Sub-policy switches (GISQL_ADVISOR_MATERIALIZE / _PLACEMENT /
  /// _TUNE): auto-materialization of hot templates, replica placement
  /// toward cheap healthy sites, and admission/memory auto-tuning.
  bool materialize = true;
  bool placement = true;
  bool tune = true;

  bool operator==(const AdvisorConfig&) const = default;
};

/// \brief One advisor decision: trigger evidence → action → outcome.
/// Rows of `gis.advisor`.
struct AdvisorDecision {
  int64_t id = 0;        ///< 1-based, monotone across the advisor's life
  double at_ms = 0.0;    ///< simulated tick time the decision fired
  std::string kind;      ///< materialize|evict|placement|tune-admission|tune-memory
  std::string target;    ///< table/source/subsystem acted on
  std::string evidence;  ///< the observed trigger, canonically rendered
  std::string action;    ///< what was done
  std::string outcome;   ///< "ok" or "error: <status>"
};

/// \brief Cumulative advisor counters (gisql_advisor_* Prometheus
/// series).
struct AdvisorCounters {
  int64_t ticks = 0;             ///< ticks that actually ran policies
  int64_t decisions = 0;         ///< decisions logged (failures included)
  int64_t materializations = 0;
  int64_t evictions = 0;
  int64_t placements = 0;
  int64_t tunings = 0;
  int64_t failures = 0;          ///< decisions whose action errored
};

/// \brief The mutation surface the advisor acts through, implemented by
/// GlobalSystem. Keeping actions behind this interface means the
/// advisor itself never touches the network or the planner — it only
/// decides.
class AdvisorHost {
 public:
  virtual ~AdvisorHost() = default;

  /// \brief Copies `global_table` onto `target_source` (one bulk
  /// transfer on the simulated WAN) and promotes the global name to a
  /// replicated view over {base, replica}. Returns the replica's
  /// global name.
  virtual Result<std::string> MaterializeReplica(
      const std::string& global_table, const std::string& target_source) = 0;

  /// \brief Reverses MaterializeReplica: drops the view, the replica
  /// table (catalog + best-effort source-side DROP TABLE), and restores
  /// the base table under its original global name.
  virtual Status DemoteReplicatedView(const std::string& view_name) = 0;
};

/// \brief Deterministic policy engine on the simulated clock.
///
/// Thread-safe, but decisions depend only on the tick-time sequence:
/// GlobalSystem ticks it at the end of each submitted statement, whose
/// simulated completion times replay exactly.
class Advisor {
 public:
  Advisor(const AdvisorConfig& config, AdvisorHost* host,
          const QueryLog* query_log, const SourceHealthTracker* health,
          const SloEngine* slo, ResourceGovernor* governor, Catalog* catalog)
      : config_(config),
        host_(host),
        query_log_(query_log),
        health_(health),
        slo_(slo),
        governor_(governor),
        catalog_(catalog) {}

  /// \brief Runs the policies once `interval_ms` has elapsed since the
  /// last tick (cheap no-op otherwise, and always a no-op when
  /// disabled).
  void Tick(double now_ms);

  /// \brief Swaps the config in place; decision log, owned views, and
  /// counters are kept (the system catalog holds a pointer to this
  /// object, so reconfiguration must not re-create it).
  void Configure(const AdvisorConfig& config);

  bool enabled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return config_.enabled;
  }
  AdvisorConfig config() const {
    std::lock_guard<std::mutex> lock(mu_);
    return config_;
  }

  /// \brief Retained decisions, oldest first (ids ascend).
  std::vector<AdvisorDecision> Decisions() const;

  /// \brief Canonical one-line-per-decision rendering; byte-identical
  /// across serial/pooled/replayed runs of the same seed.
  std::string LogText() const;

  AdvisorCounters counters() const;

 private:
  struct OwnedView {
    int cold = 0;  ///< consecutive ticks without a window hit
  };

  void RunMaterialize(double now_ms,
                      const std::vector<QueryLogEntry>& window);
  void RunPlacement(double now_ms);
  void RunTune(double now_ms);
  void Record(double now_ms, const std::string& kind,
              const std::string& target, const std::string& evidence,
              const std::string& action, const Status& outcome);

  /// \brief Resolves a fingerprint to the single named FROM table of a
  /// representative statement ("" when the shape is not a plain
  /// single-table SELECT). Memoized — fingerprints are stable.
  const std::string& TableForFingerprint(const std::string& fingerprint,
                                         const std::string& sql);

  AdvisorConfig config_;
  AdvisorHost* host_;
  const QueryLog* query_log_;
  const SourceHealthTracker* health_;
  const SloEngine* slo_;
  ResourceGovernor* governor_;
  Catalog* catalog_;

  mutable std::mutex mu_;
  double last_tick_ms_ = 0.0;
  bool ticked_once_ = false;
  int64_t next_decision_id_ = 1;
  std::deque<AdvisorDecision> log_;
  AdvisorCounters counters_;
  std::map<std::string, OwnedView> owned_;       ///< view name → state
  std::map<std::string, std::string> fp_table_;  ///< fingerprint → table
  std::set<std::string> failed_tables_;          ///< do-not-retry set
  int healthy_ticks_ = 0;
  int64_t seen_memory_sheds_ = 0;
};

}  // namespace gisql
