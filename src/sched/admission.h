/// \file admission.h
/// \brief Admission control for the mediator: fixed concurrency slots
/// plus a bounded priority wait queue with per-query deadlines.
///
/// The controller runs on the *simulated* clock. Because mediator
/// execution is synchronous, every previously admitted query's slot
/// occupancy interval [start_ms, release_ms] is fully known by the time
/// the next request arrives, which makes admission a pure function of
/// the arrival schedule: with capacity `c` and `n` unfinished earlier
/// queries, a new arrival starts at its arrival time when a slot is
/// free, otherwise at the (n - c + 1)-th smallest release time among
/// the occupants. A request is *shed* — never executed, zero simulated
/// cost — when the wait queue is full for its priority class or when
/// the computed queue wait would exceed its deadline (the classic
/// "balk at the door" policy: deterministic, and strictly better than
/// timing out after half the work is done). Same seed + same arrival
/// schedule ⇒ identical admit/shed decisions, bit for bit.
///
/// Priority classes share one queue through *watermarks*: class p may
/// only enter while queue occupancy is below its fraction of the queue
/// bound, so background traffic stops queueing before interactive
/// traffic does — a bounded, starvation-free approximation of a strict
/// priority queue that keeps decisions independent of retroactive
/// reordering (impossible in a synchronous executor anyway).

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace gisql {

/// \brief Why a request was shed (kNone ⇒ admitted).
enum class ShedReason : uint8_t {
  kNone = 0,
  kQueueFull = 1,     ///< wait queue at its bound for this priority
  kDeadline = 2,      ///< computed queue wait exceeds the deadline
  kMemoryBudget = 3,  ///< execution aborted by a memory budget
};

const char* ShedReasonName(ShedReason reason);

/// \brief Admission policy knobs (PlannerOptions::admission).
struct AdmissionConfig {
  /// Gate queries through the controller (GISQL_ADMISSION_CONTROL).
  /// Closed-loop clients (each query submitted after the previous
  /// finishes) never queue, so the default is free for them; open-loop
  /// load sees bounded queueing and shedding.
  bool enabled = true;
  /// Concurrency slots (GISQL_MAX_CONCURRENT); values below 1 act as 1.
  int max_concurrent = 8;
  /// Bounded wait queue across priority classes (GISQL_ADMISSION_QUEUE).
  int queue_limit = 32;
  /// Default queue-wait deadline; arrivals whose computed wait exceeds
  /// it are shed up front (GISQL_ADMISSION_WAIT_MS).
  double max_wait_ms = 1000.0;

  bool operator==(const AdmissionConfig&) const = default;
};

/// \brief Per-class queue watermarks (fraction of queue_limit).
///
/// Class p may only enter while queue occupancy is below its
/// watermark; interactive (class 2) is always 1.0. These are controller
/// state, not settings: every (re)configuration starts from the
/// defaults below, the advisor's tuning policy lowers them under
/// interactive SLO burn so background/normal traffic backs off first,
/// and relaxes them back toward the defaults once the burn clears.
struct QueueWatermarks {
  double background = 0.5;
  double normal = 0.8;
};

/// \brief One admission request on the simulated clock.
struct AdmissionRequest {
  double arrival_ms = 0.0;
  /// 0 = background, 1 = normal, 2 = interactive. Higher classes may
  /// fill more of the wait queue (50% / 80% / 100% watermarks).
  int priority = 1;
  /// Deadline override; < 0 uses AdmissionConfig::max_wait_ms.
  double max_wait_ms = -1.0;
};

/// \brief The controller's verdict for one request.
struct AdmissionDecision {
  bool admitted = false;
  ShedReason reason = ShedReason::kNone;
  double wait_ms = 0.0;   ///< queue wait (0 when a slot was free)
  double start_ms = 0.0;  ///< simulated time the slot is taken
  uint64_t ticket = 0;    ///< release handle (0 when shed)
  int queued_ahead = 0;   ///< queue occupancy observed at arrival
};

/// \brief Aggregate controller state for `gis.admission`.
struct AdmissionStats {
  int64_t admitted = 0;
  int64_t queued = 0;  ///< admitted with a nonzero queue wait
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  double total_wait_ms = 0.0;
  int in_flight = 0;  ///< slots taken and not yet released
};

/// \brief Deterministic slot-and-queue admission on the simulated
/// clock. Thread-safe; decisions depend only on the request sequence.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = AdmissionConfig());

  /// \brief Reconfigures limits and restores the default watermarks.
  /// Occupancy and counters are kept; the new limits apply from the
  /// next Admit on.
  void Configure(const AdmissionConfig& config);

  /// \brief Replaces the per-class queue watermarks (the governor
  /// clamps them first).
  void SetWatermarks(const QueueWatermarks& watermarks);

  /// \brief Decides one request. Admitted requests take a slot from
  /// `start_ms` until the matching Release.
  AdmissionDecision Admit(const AdmissionRequest& request);

  /// \brief Frees the slot of an admitted request at `release_ms`
  /// (start_ms + the query's simulated elapsed time).
  void Release(uint64_t ticket, double release_ms);

  AdmissionStats Stats() const;
  AdmissionConfig config() const;
  QueueWatermarks watermarks() const;

  /// \brief Drops occupancy and counters (bench rungs reset between
  /// ladders the way they reset metrics registries).
  void Reset();

 private:
  struct Slot {
    uint64_t ticket = 0;
    double start_ms = 0.0;
    /// Release time; infinity until Release() is called (a query in
    /// flight right now, or an abandoned ticket).
    double release_ms = 0.0;
    bool released = false;
  };

  mutable std::mutex mu_;
  AdmissionConfig config_;
  QueueWatermarks watermarks_;
  AdmissionStats stats_;
  uint64_t next_ticket_ = 1;
  std::vector<Slot> slots_;  ///< occupants not yet pruned
};

}  // namespace gisql
