#include "obs/slo.h"

#include <algorithm>
#include <cstddef>

namespace gisql {

void SloEngine::SetObjectives(std::vector<SloObjective> objectives) {
  std::lock_guard<std::mutex> lock(mu_);
  tracked_.clear();
  tracked_.reserve(objectives.size());
  for (auto& objective : objectives) {
    Tracked tracked;
    tracked.objective = std::move(objective);
    tracked_.push_back(std::move(tracked));
  }
  alert_log_.clear();
  last_event_ms_ = 0.0;
}

void SloEngine::UseDefaultObjectives() {
  SetObjectives({
      {"interactive", /*priority=*/2, /*target_ms=*/50.0, /*goal=*/0.99},
      {"normal", /*priority=*/1, /*target_ms=*/200.0, /*goal=*/0.95},
      {"background", /*priority=*/0, /*target_ms=*/1000.0, /*goal=*/0.90},
  });
}

void SloEngine::Configure(const SloConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config.fast_window_ms > 0) config_.fast_window_ms = config.fast_window_ms;
  if (config.slow_window_ms > 0) config_.slow_window_ms = config.slow_window_ms;
  config_.slow_window_ms =
      std::max(config_.slow_window_ms, config_.fast_window_ms);
  if (config.burn_alert > 0) config_.burn_alert = config.burn_alert;
  // Both windows restart at the oldest held event and the next Advance
  // trims them to the new lengths.
  for (auto& tracked : tracked_) {
    tracked.slow_start = 0;
    tracked.fast_start = 0;
    tracked.slow_good = std::count_if(tracked.events.begin(),
                                      tracked.events.end(),
                                      [](const Event& e) { return e.good; });
    tracked.fast_good = tracked.slow_good;
  }
}

std::vector<SloAlert> SloEngine::Record(int priority, double finish_ms,
                                        double sojourn_ms, bool shed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloAlert> raised;
  // The mediator's simulated clock is monotone per statement stream,
  // but pooled cursor interleavings can finalize slightly out of
  // order; clamping keeps window eviction monotone and deterministic.
  double now = std::max(finish_ms, last_event_ms_);
  last_event_ms_ = now;
  for (auto& tracked : tracked_) {
    if (tracked.objective.priority != priority) continue;
    Advance(tracked, now);
    // Events leave the deque only here, at the objective's own events
    // (Snapshot just moves the starts), so a window grown by Configure
    // counts exactly the events it would have counted before.
    tracked.events.erase(tracked.events.begin(),
                         tracked.events.begin() +
                             static_cast<std::ptrdiff_t>(tracked.slow_start));
    tracked.fast_start -= tracked.slow_start;
    tracked.slow_start = 0;
    // A breach that aged out since this objective's last event (say,
    // under other priorities' traffic) releases the latch before the
    // new event counts, so a fresh breach is a new rising edge.
    if (tracked.alerting) tracked.alerting = Evaluate(tracked).alerting;
    bool good = !shed && sojourn_ms <= tracked.objective.target_ms;
    tracked.events.push_back({now, good});
    tracked.slow_good += good;
    tracked.fast_good += good;
    SloStatus status = Evaluate(tracked);
    const bool breach = status.alerting;
    if (breach && !tracked.alerting) {
      tracked.alerts += 1;
      tracked.last_alert_ms = now;
      SloAlert alert{tracked.objective.name, now, status.fast_burn,
                     status.slow_burn};
      alert_log_.push_back(alert);
      raised.push_back(alert);
    }
    tracked.alerting = breach;
  }
  return raised;
}

void SloEngine::Advance(const Tracked& tracked, double now_ms) const {
  const auto& events = tracked.events;
  const double fast_from = now_ms - config_.fast_window_ms;
  while (tracked.fast_start < events.size() &&
         events[tracked.fast_start].at_ms < fast_from) {
    tracked.fast_good -= events[tracked.fast_start].good;
    tracked.fast_start += 1;
  }
  // The slow window is at least as long, so its start never passes the
  // fast one's.
  const double slow_from = now_ms - config_.slow_window_ms;
  while (tracked.slow_start < tracked.fast_start &&
         events[tracked.slow_start].at_ms < slow_from) {
    tracked.slow_good -= events[tracked.slow_start].good;
    tracked.slow_start += 1;
  }
}

SloStatus SloEngine::Evaluate(const Tracked& tracked) const {
  SloStatus status;
  status.name = tracked.objective.name;
  status.priority = tracked.objective.priority;
  status.target_ms = tracked.objective.target_ms;
  status.goal = tracked.objective.goal;
  const auto held = static_cast<int64_t>(tracked.events.size());
  status.fast_total = held - static_cast<int64_t>(tracked.fast_start);
  status.fast_good = tracked.fast_good;
  status.slow_total = held - static_cast<int64_t>(tracked.slow_start);
  status.slow_good = tracked.slow_good;
  status.fast_attainment =
      status.fast_total == 0
          ? 1.0
          : static_cast<double>(status.fast_good) / status.fast_total;
  status.slow_attainment =
      status.slow_total == 0
          ? 1.0
          : static_cast<double>(status.slow_good) / status.slow_total;
  double budget = 1.0 - tracked.objective.goal;
  if (budget <= 0.0) budget = 1e-9;  // a 100% goal burns instantly
  status.fast_burn = (1.0 - status.fast_attainment) / budget;
  status.slow_burn = (1.0 - status.slow_attainment) / budget;
  // Breach is a property of the current windows, not of the latch:
  // once an objective's bad events age out it stops alerting even if
  // only other priorities' traffic arrived since.
  status.alerting = status.fast_burn >= config_.burn_alert &&
                    status.slow_burn >= config_.burn_alert;
  status.alerts = tracked.alerts;
  status.last_alert_ms = tracked.last_alert_ms;
  return status;
}

std::vector<SloStatus> SloEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> statuses;
  statuses.reserve(tracked_.size());
  for (const auto& tracked : tracked_) {
    Advance(tracked, last_event_ms_);
    statuses.push_back(Evaluate(tracked));
  }
  return statuses;
}

std::vector<SloAlert> SloEngine::Alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alert_log_;
}

}  // namespace gisql
