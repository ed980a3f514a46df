/// \file flight_recorder.h
/// \brief Always-on incident capture: a bounded ring of recent query
/// records (QueryLogEntry frames) plus a snapshotter that, on
/// deterministic triggers, freezes "what the world looked like" into
/// one JSON incident.
///
/// Postmortems of a federation failure usually start after the
/// evidence is gone — the queue has drained, the breaker has closed,
/// the interesting queries have aged out of dashboards. The flight
/// recorder keeps a small ring of per-query frames at all times and,
/// when a trigger fires, serializes the ring together with a
/// system-state snapshot (sources, admission, buffer pools, active
/// transactions, SLO state — supplied by a callback so this layer
/// stays free of core dependencies) into an IncidentRecord served by
/// the `gis.incidents` virtual table.
///
/// Triggers are pure functions of simulated time and deterministic
/// counters, so the same seed produces the same incidents with the
/// same JSON bytes, serial or pooled:
///   - `slo_burn`     — rising edge of a multi-window burn-rate alert
///   - `breaker_open` — a source circuit breaker tripping open
///   - `shed_spike`   — >= `shed_spike` sheds within `shed_window_ms`
/// A per-trigger-kind cooldown keeps a sustained breach from flooding
/// the incident list; the list itself is bounded (oldest dropped).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_context.h"

namespace gisql {

/// \brief One captured incident (a gis.incidents row).
struct IncidentRecord {
  int64_t id = 0;
  double at_ms = 0.0;
  std::string trigger;  ///< slo_burn | breaker_open | shed_spike
  std::string detail;   ///< objective / source / shed count
  std::string json;     ///< full serialized snapshot
};

/// \brief Flight-recorder knobs (PlannerOptions::flight).
struct FlightConfig {
  /// Capture incident snapshots on deterministic triggers
  /// (GISQL_FLIGHT_RECORDER).
  bool enabled = true;
  /// Recent-query frames retained in the recorder ring
  /// (GISQL_FLIGHT_RING).
  int ring = 64;
  /// Incidents retained; older ones age out (GISQL_FLIGHT_MAX_INCIDENTS).
  int max_incidents = 16;
  /// Minimum simulated ms between captures of the same trigger kind
  /// (GISQL_FLIGHT_COOLDOWN_MS).
  double cooldown_ms = 10000.0;
  /// Sheds within the spike window that trigger a capture
  /// (GISQL_FLIGHT_SHED_SPIKE).
  int shed_spike = 10;
  /// The shed-spike rolling window, simulated ms
  /// (GISQL_FLIGHT_SHED_WINDOW_MS).
  double shed_window_ms = 1000.0;

  bool operator==(const FlightConfig&) const = default;
};

/// \brief Deterministic incident snapshotter.
class FlightRecorder {
 public:
  static constexpr size_t kMaxFrameSql = 80;

  /// Produces the `"system"` JSON object for an incident at `now_ms`.
  /// Invoked with the recorder lock held: it must not call back into
  /// this recorder (everything else — catalog, governor, SLO engine —
  /// is fair game, they carry their own locks).
  using SystemSnapshotFn = std::function<std::string(double now_ms)>;

  /// \brief Applies the switch and bounds; an out-of-range bound (a
  /// non-positive size, spike or window, a negative cooldown) keeps the
  /// current one.
  void Configure(const FlightConfig& config);
  bool enabled() const;
  void SetSystemSnapshotFn(SystemSnapshotFn fn);

  /// \brief Appends one finished/shed statement's record to the frame
  /// ring, its SQL truncated to kMaxFrameSql, and runs the shed-spike
  /// trigger when it is a shed.
  void RecordFrame(QueryLogEntry frame);

  /// \brief Trigger hooks (no-ops while disabled or cooling down).
  void OnSloAlert(const std::string& objective, double now_ms,
                  double fast_burn, double slow_burn);
  void OnBreakerOpen(const std::string& source, double now_ms);

  std::vector<QueryLogEntry> Frames() const;
  std::vector<IncidentRecord> Incidents() const;
  int64_t incidents_captured() const;  ///< including any that aged out

  void Reset();

 private:
  void MaybeCapture(const std::string& trigger, const std::string& detail,
                    double now_ms);  // caller holds mu_
  std::string BuildJson(const std::string& trigger, const std::string& detail,
                        double now_ms, int64_t id) const;  // caller holds mu_

  mutable std::mutex mu_;
  FlightConfig config_;
  SystemSnapshotFn system_fn_;
  std::deque<QueryLogEntry> frames_;
  std::deque<double> shed_times_;
  std::vector<IncidentRecord> incidents_;
  int64_t next_incident_id_ = 1;
  // Last capture time per trigger kind, for the cooldown.
  double last_slo_ms_ = -1.0e18;
  double last_breaker_ms_ = -1.0e18;
  double last_shed_ms_ = -1.0e18;
};

}  // namespace gisql
