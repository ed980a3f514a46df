/// \file circuit_breaker.h
/// \brief Per-source circuit breakers driven by the health tracker's
/// attempt stream.
///
/// Classic three-state machine per component source:
///
///   closed ──(open_after consecutive failures)──▶ open
///   open ──(cooldown_skips requests skipped)──▶ half-open
///   half-open ──(probe succeeds)──▶ closed
///   half-open ──(probe fails)──▶ open
///
/// While *open*, the executor skips the source before spending any
/// network on it — no message, no detection-timeout burn; the skip
/// itself counts down the cooldown, so recovery needs no wall clock
/// (the simulation has none to spare). While *half-open*, a seeded
/// per-source draw admits a fraction of requests as probes; the rest
/// keep skipping. The draw sequence is keyed on (seed, source name,
/// per-source draw counter), so a given seed walks an identical
/// open/half-open/closed sequence every run.
///
/// Outcomes arrive via SourceOutcomeListener from the
/// SourceHealthTracker — the breaker never watches the network
/// directly, it consumes the same observation pipeline gis.sources
/// renders. Every transition is logged, counted, and queryable
/// (gis.sources breaker columns, gisql_source_breaker_* Prometheus
/// series, TransitionLog() for tests).

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/source_health.h"

namespace gisql {

enum class BreakerState : uint8_t {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2,
};

const char* BreakerStateName(BreakerState state);

/// \brief Breaker policy knobs (PlannerOptions::breaker).
struct BreakerConfig {
  /// Per-source circuit breakers (GISQL_CIRCUIT_BREAKER). Off by
  /// default: skipping a source changes which attempts reach the
  /// network, so it is an explicit operational choice, not a silent one.
  bool enabled = false;
  /// Consecutive failures that open a breaker (GISQL_BREAKER_FAILURES).
  int open_after = 5;
  /// Skipped requests while open before half-open probing resumes
  /// (GISQL_BREAKER_COOLDOWN).
  int cooldown_skips = 3;
  /// Fraction of half-open requests admitted as probes
  /// (GISQL_BREAKER_PROBE_RATIO).
  double probe_ratio = 0.5;
  /// Seed for the half-open probe draws (GISQL_BREAKER_SEED).
  uint64_t seed = 17;

  bool operator==(const BreakerConfig&) const = default;
};

/// \brief One source's breaker view (gis.sources columns).
struct BreakerSnapshot {
  std::string source;
  BreakerState state = BreakerState::kClosed;
  int64_t skips = 0;        ///< requests answered without touching the wire
  int64_t probes = 0;       ///< half-open requests let through
  int64_t transitions = 0;  ///< state changes since construction
};

/// \brief All per-source breakers. Thread-safe; state depends only on
/// the per-source outcome/skip sequences.
class CircuitBreakerRegistry : public SourceOutcomeListener {
 public:
  explicit CircuitBreakerRegistry(BreakerConfig config = BreakerConfig());

  /// \brief Reconfigures the policy; per-source state is kept (a
  /// disabled registry stops skipping but remembers its machines).
  void Configure(const BreakerConfig& config);

  bool enabled() const;

  /// \brief Consulted by the executor before spending network on
  /// `source`. True ⇒ skip this candidate at zero network cost. The
  /// call advances the open-state cooldown and the half-open probe
  /// draw, so it must be made exactly once per candidate considered.
  bool ShouldSkip(const std::string& source);

  /// \brief SourceOutcomeListener: one attempt outcome from the health
  /// tracker.
  void OnSourceOutcome(const std::string& source, bool ok) override;

  BreakerState StateOf(const std::string& source) const;
  BreakerSnapshot SnapshotOf(const std::string& source) const;
  std::vector<BreakerSnapshot> Snapshot() const;

  /// \brief Sum of state changes across all sources.
  int64_t TotalTransitions() const;
  /// \brief Sum of skipped requests across all sources.
  int64_t TotalSkips() const;
  /// \brief Sum of admitted probes across all sources.
  int64_t TotalProbes() const;
  /// \brief Sources currently open or half-open.
  int OpenCount() const;

  /// \brief Chronological "source: from->open ..." transition lines —
  /// the determinism witness the chaos tests compare across reruns.
  std::vector<std::string> TransitionLog() const;

  void Reset();

 private:
  struct PerSource {
    BreakerState state = BreakerState::kClosed;
    int64_t streak = 0;       ///< consecutive failures observed
    int64_t open_skips = 0;   ///< skips in the current open episode
    int64_t skips = 0;
    int64_t probes = 0;
    int64_t transitions = 0;
    uint64_t draws = 0;       ///< half-open probe draw counter
  };

  void Transition(const std::string& source, PerSource& s,
                  BreakerState next);

  mutable std::mutex mu_;
  BreakerConfig config_;
  std::map<std::string, PerSource> sources_;
  std::vector<std::string> transition_log_;
};

}  // namespace gisql
