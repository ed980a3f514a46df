#include "sched/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gisql {

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "";
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kDeadline: return "deadline";
    case ShedReason::kMemoryBudget: return "memory_budget";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config) {
  Configure(config);
}

void AdmissionController::Configure(const AdmissionConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  // With no slot at all, a full house would index the release times at
  // a negative rank; one slot is the smallest controller that can run.
  config_.max_concurrent = std::max(config_.max_concurrent, 1);
  watermarks_ = QueueWatermarks{};
}

void AdmissionController::SetWatermarks(const QueueWatermarks& watermarks) {
  std::lock_guard<std::mutex> lock(mu_);
  watermarks_ = watermarks;
}

AdmissionDecision AdmissionController::Admit(const AdmissionRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  const double arrival = request.arrival_ms;
  const double deadline =
      request.max_wait_ms >= 0 ? request.max_wait_ms : config_.max_wait_ms;
  const int priority =
      std::clamp(request.priority, 0, 2);

  // Prune occupants whose slot was free by this arrival. What remains
  // are the queries still holding (or queued for) a slot at `arrival`.
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [&](const Slot& s) {
                                return s.released && s.release_ms <= arrival;
                              }),
               slots_.end());

  AdmissionDecision d;
  d.start_ms = arrival;

  const int active = static_cast<int>(slots_.size());
  if (active >= config_.max_concurrent) {
    // Queue occupancy: occupants that have not started yet either.
    int queued = 0;
    for (const Slot& s : slots_) {
      if (s.start_ms > arrival) ++queued;
    }
    d.queued_ahead = queued;
    const double watermark = priority == 0   ? watermarks_.background
                             : priority == 1 ? watermarks_.normal
                                             : 1.0;
    const int allowed =
        static_cast<int>(std::floor(config_.queue_limit * watermark));
    if (queued >= allowed) {
      d.reason = ShedReason::kQueueFull;
      ++stats_.shed_queue_full;
      return d;
    }
    // The slot frees when the (active - c + 1)-th occupant releases.
    // An unreleased occupant (a query in flight on the wall clock, not
    // the simulated one) pins its release at infinity, which makes the
    // wait unbounded and the deadline rule conservative.
    std::vector<double> releases;
    releases.reserve(slots_.size());
    for (const Slot& s : slots_) {
      releases.push_back(s.released ? s.release_ms
                                    : std::numeric_limits<double>::infinity());
    }
    std::sort(releases.begin(), releases.end());
    const double free_at = releases[static_cast<size_t>(
        active - config_.max_concurrent)];
    d.start_ms = std::max(arrival, free_at);
    d.wait_ms = d.start_ms - arrival;
    if (d.wait_ms > deadline) {
      // Balk at admission: the deadline is already unmeetable, so shed
      // now instead of burning queue time and timing out later.
      d.reason = ShedReason::kDeadline;
      d.start_ms = arrival;
      ++stats_.shed_deadline;
      return d;
    }
  }

  Slot slot;
  slot.ticket = next_ticket_++;
  slot.start_ms = d.start_ms;
  slots_.push_back(slot);

  d.admitted = true;
  d.ticket = slot.ticket;
  ++stats_.admitted;
  if (d.wait_ms > 0) ++stats_.queued;
  stats_.total_wait_ms += d.wait_ms;
  return d;
}

void AdmissionController::Release(uint64_t ticket, double release_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.ticket == ticket && !s.released) {
      s.released = true;
      s.release_ms = std::max(release_ms, s.start_ms);
      return;
    }
  }
}

AdmissionStats AdmissionController::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionStats out = stats_;
  int in_flight = 0;
  for (const Slot& s : slots_) {
    if (!s.released) ++in_flight;
  }
  out.in_flight = in_flight;
  return out;
}

AdmissionConfig AdmissionController::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

QueueWatermarks AdmissionController::watermarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermarks_;
}

void AdmissionController::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  stats_ = AdmissionStats{};
}

}  // namespace gisql
