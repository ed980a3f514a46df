/// \file governor.h
/// \brief The resource governor: one object bundling admission
/// control, memory budgets, and per-source circuit breakers, plus the
/// mediator's virtual arrival clock.
///
/// GlobalSystem owns exactly one governor and consults it on every
/// submitted query: AdmissionController decides run/queue/shed,
/// MemoryBudget hands the executor a per-query grant, and the
/// CircuitBreakerRegistry (fed by the health tracker) lets replica
/// routing skip sources that are known down. Everything runs on the
/// simulated clock and the configured seed, so load-management
/// decisions replay exactly.
///
/// The virtual clock: callers that don't give explicit arrival times
/// (plain Query()) arrive "when the previous query finished" —
/// closed-loop traffic that by construction never queues, keeping the
/// governor invisible to existing single-client tests. Open-loop
/// experiments pass explicit arrivals via SubmitOptions and see real
/// queueing and shedding.

#pragma once

#include <algorithm>
#include <cstdint>

#include "sched/admission.h"
#include "sched/circuit_breaker.h"
#include "sched/memory_budget.h"

namespace gisql {

/// \brief gis.admission is a rendering of this struct.
struct GovernorSnapshot {
  AdmissionConfig admission_config;
  AdmissionStats admission;
  int64_t shed_memory_budget = 0;
  int64_t mem_query_cap = 0;
  int64_t mem_global_cap = 0;
  int64_t mem_peak_bytes = 0;
  bool breaker_enabled = false;
  int breakers_open = 0;
  int64_t breaker_transitions = 0;
  int64_t breaker_skips = 0;
  int64_t breaker_probes = 0;
};

class ResourceGovernor {
 public:
  /// \brief (Re)applies the governor's three configs. Live occupancy,
  /// counters, and breaker state are kept; the queue watermarks return
  /// to their defaults.
  void Configure(const AdmissionConfig& admission, const MemoryConfig& memory,
                 const BreakerConfig& breaker) {
    admission_.Configure(admission);
    memory_.Configure(memory.query_bytes, memory.mediator_bytes);
    breakers_.Configure(breaker);
    base_query_mem_bytes_ = memory.query_bytes;
  }

  /// \name Guard-railed advisor knobs
  ///
  /// The advisor's auto-tuning policy adjusts admission watermarks and
  /// the per-query memory cap through these setters. The governor owns
  /// the guard rails — clamping lives here, not in the policy — so a
  /// runaway advisor can tighten or relax but never wedge the system.
  /// Both setters return the values actually applied after clamping.
  /// @{

  /// Watermark floor: even a maximally aggressive advisor leaves some
  /// queue room for background traffic (starvation-freedom).
  static constexpr double kMinWatermark = 0.1;

  /// \brief Sets the background/normal queue watermarks, clamped to
  /// [kMinWatermark, default] per class with background ≤ normal.
  /// Interactive traffic always keeps the full queue (1.0).
  QueueWatermarks SetAdmissionWatermarks(double background, double normal) {
    const QueueWatermarks defaults;
    QueueWatermarks w;
    w.normal = std::clamp(normal, kMinWatermark, defaults.normal);
    w.background = std::clamp(background, kMinWatermark,
                              std::min(w.normal, defaults.background));
    admission_.SetWatermarks(w);
    return w;
  }

  /// \brief Sets the per-query memory cap, clamped to [base/2, 4*base]
  /// and never above the global cap (base = the configured
  /// memory.query_bytes). Applies to grants taken after this call.
  int64_t SetQueryMemCap(int64_t bytes) {
    const int64_t base = base_query_mem_bytes_;
    const int64_t lo = std::max<int64_t>(1, base / 2);
    const int64_t hi = std::min(4 * base, memory_.global_cap());
    bytes = std::clamp(bytes, lo, std::max(lo, hi));
    memory_.Configure(bytes, memory_.global_cap());
    return bytes;
  }
  /// @}

  AdmissionController& admission() { return admission_; }
  MemoryBudget& memory() { return memory_; }
  CircuitBreakerRegistry& breakers() { return breakers_; }
  const CircuitBreakerRegistry& breakers() const { return breakers_; }

  /// \brief Virtual arrival clock (simulated ms): the completion time
  /// of the latest query, i.e. when a closed-loop client would submit
  /// its next one.
  double now_ms() const { return now_ms_; }
  void AdvanceTo(double t_ms) { now_ms_ = std::max(now_ms_, t_ms); }

  /// \brief Records one query aborted by a memory budget (counted
  /// per query, not per denied charge — charge-denial multiplicity is
  /// schedule-dependent, the query outcome is not).
  void RecordMemoryShed() { ++shed_memory_budget_; }

  GovernorSnapshot Snapshot() const {
    GovernorSnapshot snap;
    snap.admission_config = admission_.config();
    snap.admission = admission_.Stats();
    snap.shed_memory_budget = shed_memory_budget_;
    snap.mem_query_cap = memory_.query_cap();
    snap.mem_global_cap = memory_.global_cap();
    snap.mem_peak_bytes = memory_.peak();
    snap.breaker_enabled = breakers_.enabled();
    snap.breakers_open = breakers_.OpenCount();
    snap.breaker_transitions = breakers_.TotalTransitions();
    snap.breaker_skips = breakers_.TotalSkips();
    snap.breaker_probes = breakers_.TotalProbes();
    return snap;
  }

  /// \brief Drops admission occupancy, memory watermarks, breaker
  /// state, and the virtual clock.
  void Reset() {
    admission_.Reset();
    memory_.Reset();
    breakers_.Reset();
    shed_memory_budget_ = 0;
    now_ms_ = 0.0;
  }

 private:
  AdmissionController admission_;
  MemoryBudget memory_;
  CircuitBreakerRegistry breakers_;
  int64_t base_query_mem_bytes_ = MemoryConfig{}.query_bytes;
  int64_t shed_memory_budget_ = 0;
  double now_ms_ = 0.0;
};

}  // namespace gisql
