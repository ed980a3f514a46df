/// \file slo.h
/// \brief Declarative service-level objectives with multi-window
/// error-budget burn rates, evaluated on the simulated clock.
///
/// An objective names a priority class and promises that a fraction
/// `goal` of its events be *good* — not shed, and with a sojourn time
/// (queue wait + execution) at or below `target_ms` — measured over a
/// rolling window. The engine keeps two windows per objective, a fast
/// one (default 5 s) and a slow one (default 60 s), and converts each
/// window's attainment into a burn rate:
///
///     burn = (1 - attainment) / (1 - goal)
///
/// burn == 1 means the error budget is being consumed exactly at the
/// sustainable rate; burn == 10 means the whole budget would be gone
/// in a tenth of the period. An alert fires on the rising edge of
/// (fast_burn >= threshold AND slow_burn >= threshold): the slow
/// window keeps one queueing blip from paging, the fast window ends
/// the alert promptly once the breach clears. Because every event is
/// timestamped by the deterministic simulation, alert times are exact
/// simulated instants — the same seed yields the same alert log,
/// serial or pooled, which bench_e20_slo asserts byte-for-byte.

#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace gisql {

/// \brief One declarative objective over a priority class.
struct SloObjective {
  std::string name;       ///< e.g. "interactive"
  int priority = 1;       ///< priority class the objective governs
  double target_ms = 200.0;  ///< good events finish within this sojourn
  double goal = 0.95;     ///< required fraction of good events
};

/// \brief Point-in-time evaluation of one objective (a gis.slo row).
struct SloStatus {
  std::string name;
  int priority = 1;
  double target_ms = 0.0;
  double goal = 0.0;
  int64_t fast_total = 0;
  int64_t fast_good = 0;
  int64_t slow_total = 0;
  int64_t slow_good = 0;
  double fast_attainment = 1.0;  ///< 1.0 when the window is empty
  double slow_attainment = 1.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  /// Currently in breach: both burns at or above the alert threshold.
  bool alerting = false;
  int64_t alerts = 0;      ///< rising edges seen so far
  double last_alert_ms = -1.0;  ///< simulated time of latest rising edge
};

/// \brief A rising-edge alert event at an exact simulated instant.
struct SloAlert {
  std::string objective;
  double at_ms = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

/// \brief SLO evaluation knobs (PlannerOptions::slo).
struct SloConfig {
  /// Evaluate SLO objectives on every statement (GISQL_SLO_ENABLED).
  /// Not free: each record scans both whole windows, so its cost grows
  /// with the arrival rate (about 23 µs per statement at 300 arrivals/s
  /// over the default 60 s slow window). On by default all the same.
  bool enabled = true;
  /// Fast error-budget window, simulated ms (GISQL_SLO_FAST_WINDOW_MS).
  double fast_window_ms = 5000.0;
  /// Slow error-budget window, simulated ms (GISQL_SLO_SLOW_WINDOW_MS).
  double slow_window_ms = 60000.0;
  /// Burn-rate threshold: an alert latches when BOTH windows burn at
  /// or above it (GISQL_SLO_BURN_ALERT).
  double burn_alert = 2.0;

  bool operator==(const SloConfig&) const = default;
};

/// \brief Rolling-window SLO evaluator; thread-safe, deterministic.
class SloEngine {
 public:
  SloEngine() { UseDefaultObjectives(); }

  /// \brief Replaces the objective set (drops accumulated events).
  void SetObjectives(std::vector<SloObjective> objectives);

  /// \brief Installs the stock per-priority-class ladder: interactive
  /// (2) p<=50ms @ 99%, normal (1) p<=200ms @ 95%, background (0)
  /// p<=1000ms @ 90%.
  void UseDefaultObjectives();

  /// \brief Applies the switch, windows and threshold; a non-positive
  /// window or threshold keeps the current one, and the slow window
  /// never ends up shorter than the fast one.
  void Configure(const SloConfig& config);

  /// \brief Feeds one completed-or-shed statement (a no-op while
  /// disabled). `finish_ms` is the simulated completion instant;
  /// `sojourn_ms` is wait + execution; shed events are never good.
  /// Re-evaluates burn rates and latches rising-edge alerts at exactly
  /// `finish_ms`; the alerts this event raised are returned so the
  /// caller can trigger incident capture.
  std::vector<SloAlert> Record(int priority, double finish_ms,
                               double sojourn_ms, bool shed);

  /// \brief Current evaluation of every objective, in declaration
  /// order (deterministic).
  std::vector<SloStatus> Snapshot() const;

  /// \brief Every rising-edge alert so far, in simulated-time order.
  std::vector<SloAlert> Alerts() const;


 private:
  struct Event {
    double at_ms;
    bool good;
  };
  struct Tracked {
    SloObjective objective;
    std::deque<Event> events;  ///< within the slow window
    /// Rising-edge latch: the breach state at this objective's latest
    /// own event (Snapshot reports the current state instead).
    bool alerting = false;
    int64_t alerts = 0;
    double last_alert_ms = -1.0;
  };

  static void CountWindow(const std::deque<Event>& events, double now_ms,
                          double window_ms, int64_t* total, int64_t* good);
  SloStatus Evaluate(const Tracked& tracked, double now_ms) const;

  mutable std::mutex mu_;
  SloConfig config_;
  std::vector<Tracked> tracked_;
  std::vector<SloAlert> alert_log_;
  double last_event_ms_ = 0.0;
};

}  // namespace gisql
