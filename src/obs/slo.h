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
///
/// Evaluation runs on every statement and costs amortized O(1) per
/// Record, whatever the arrival rate or window length: each event is
/// counted once on arrival and uncounted once when it leaves a window.
struct SloConfig {
  /// Fast error-budget window, simulated ms (GISQL_SLO_FAST_WINDOW_MS).
  double fast_window_ms = 5000.0;
  /// Slow error-budget window, simulated ms (GISQL_SLO_SLOW_WINDOW_MS).
  double slow_window_ms = 60000.0;
  /// Burn-rate threshold: an alert latches when BOTH windows burn at
  /// or above it (GISQL_SLO_BURN_ALERT).
  double burn_alert = 2.0;

  bool operator==(const SloConfig&) const = default;
};

/// \brief Rolling-window SLO evaluator; thread-safe, deterministic,
/// amortized O(1) per Record (running window counts, no scans).
class SloEngine {
 public:
  SloEngine() { UseDefaultObjectives(); }

  /// \brief Replaces the objective set (drops accumulated events).
  void SetObjectives(std::vector<SloObjective> objectives);

  /// \brief Installs the stock per-priority-class ladder: interactive
  /// (2) p<=50ms @ 99%, normal (1) p<=200ms @ 95%, background (0)
  /// p<=1000ms @ 90%.
  void UseDefaultObjectives();

  /// \brief Applies the windows and threshold; a non-positive window
  /// or threshold keeps the current one, and the slow window never
  /// ends up shorter than the fast one. Recounts both windows once
  /// (O(events held)), since a changed window moves their starts.
  void Configure(const SloConfig& config);

  /// \brief Feeds one completed-or-shed statement in amortized O(1).
  /// `finish_ms` is the simulated completion instant;
  /// `sojourn_ms` is wait + execution; shed events are never good.
  /// Re-evaluates burn rates and latches rising-edge alerts at exactly
  /// `finish_ms`; the alerts this event raised are returned so the
  /// caller can trigger incident capture.
  std::vector<SloAlert> Record(int priority, double finish_ms,
                               double sojourn_ms, bool shed);

  /// \brief Current evaluation of every objective, in declaration
  /// order (deterministic), at the latest event's instant. Moves each
  /// window's start forward to that instant, which later reads (never
  /// earlier) would do anyway; the events themselves are not touched.
  std::vector<SloStatus> Snapshot() const;

  /// \brief Every rising-edge alert so far, in simulated-time order.
  std::vector<SloAlert> Alerts() const;


 private:
  struct Event {
    double at_ms;
    bool good;
  };
  /// Recorded event times never decrease (Record clamps them), so each
  /// window is a suffix of `events` — the events at or after
  /// `now - window` — and moving `now` forward only moves its start
  /// forward. The running counts therefore stay exact.
  struct Tracked {
    SloObjective objective;
    /// Oldest first; trimmed to the slow window at this objective's
    /// own events.
    std::deque<Event> events;
    /// events[slow_start..] is the slow window, events[fast_start..]
    /// the fast one (slow_start <= fast_start), with their good counts.
    mutable size_t slow_start = 0;
    mutable size_t fast_start = 0;
    mutable int64_t slow_good = 0;
    mutable int64_t fast_good = 0;
    /// Rising-edge latch: the breach state at this objective's latest
    /// own event (Snapshot reports the current state instead).
    bool alerting = false;
    int64_t alerts = 0;
    double last_alert_ms = -1.0;
  };

  /// Moves both window starts past the events older than their window
  /// at `now_ms`, uncounting them. Forward only: `now_ms` never falls.
  void Advance(const Tracked& tracked, double now_ms) const;
  SloStatus Evaluate(const Tracked& tracked) const;

  mutable std::mutex mu_;
  SloConfig config_;
  std::vector<Tracked> tracked_;
  std::vector<SloAlert> alert_log_;
  double last_event_ms_ = 0.0;
};

}  // namespace gisql
