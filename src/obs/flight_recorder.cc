#include "obs/flight_recorder.h"

#include <utility>

#include "obs/catalogue.h"
#include "obs/json.h"

namespace gisql {

namespace {

/// The fields of each frame in an incident snapshot.
const Columns<QueryLogEntry>& FrameColumns() {
  using F = QueryLogEntry;
  static const auto* columns = new Columns<F>{
      Col("id", &F::id).Json(), Col("tenant", &F::tenant).Json(),
      Col("priority", &F::priority).Json(),
      Col("finish_ms", &F::finish_ms).Json(),
      Column<F>("sojourn_ms", TypeId::kDouble,
                [](const F& f) { return Value::Double(f.sojourn_ms()); })
          .Json(),
      Col("rows", &F::rows).Json(),
      Column<F>("bytes", TypeId::kInt64,
                [](const F& f) {
                  return Value::Int(f.bytes_sent + f.bytes_received);
                })
          .Json(),
      Col("cache_hit", &F::cache_hit).Json(),
      Col("shed", &F::shed_reason).Json(), Col("sql", &F::sql).Json()};
  return *columns;
}

}  // namespace

void FlightRecorder::Configure(const FlightConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_.enabled = config.enabled;
  if (config.ring > 0) config_.ring = config.ring;
  if (config.max_incidents > 0) config_.max_incidents = config.max_incidents;
  if (config.cooldown_ms >= 0) config_.cooldown_ms = config.cooldown_ms;
  if (config.shed_spike > 0) config_.shed_spike = config.shed_spike;
  if (config.shed_window_ms > 0) config_.shed_window_ms = config.shed_window_ms;
  while (frames_.size() > static_cast<size_t>(config_.ring)) {
    frames_.pop_front();
  }
}

bool FlightRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_.enabled;
}

void FlightRecorder::SetSystemSnapshotFn(SystemSnapshotFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  system_fn_ = std::move(fn);
}

void FlightRecorder::RecordFrame(QueryLogEntry frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.enabled) return;
  if (frame.sql.size() > kMaxFrameSql) {
    frame.sql.resize(kMaxFrameSql);
    frame.sql += "...";
  }
  const bool shed = frame.shed();
  const double now = frame.finish_ms;
  frames_.push_back(std::move(frame));
  while (frames_.size() > static_cast<size_t>(config_.ring)) {
    frames_.pop_front();
  }

  if (shed) {
    shed_times_.push_back(now);
    while (!shed_times_.empty() &&
           shed_times_.front() < now - config_.shed_window_ms) {
      shed_times_.pop_front();
    }
    if (static_cast<int>(shed_times_.size()) >= config_.shed_spike &&
        now - last_shed_ms_ >= config_.cooldown_ms) {
      last_shed_ms_ = now;
      MaybeCapture("shed_spike",
                   std::to_string(shed_times_.size()) + " sheds in " +
                       JsonNum(config_.shed_window_ms) + "ms",
                   now);
    }
  }
}

void FlightRecorder::OnSloAlert(const std::string& objective, double now_ms,
                                double fast_burn, double slow_burn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.enabled) return;
  if (now_ms - last_slo_ms_ < config_.cooldown_ms) return;
  last_slo_ms_ = now_ms;
  MaybeCapture("slo_burn",
               objective + " fast_burn=" + JsonNum(fast_burn) +
                   " slow_burn=" + JsonNum(slow_burn),
               now_ms);
}

void FlightRecorder::OnBreakerOpen(const std::string& source, double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.enabled) return;
  if (now_ms - last_breaker_ms_ < config_.cooldown_ms) return;
  last_breaker_ms_ = now_ms;
  MaybeCapture("breaker_open", source, now_ms);
}

void FlightRecorder::MaybeCapture(const std::string& trigger,
                                  const std::string& detail, double now_ms) {
  IncidentRecord incident;
  incident.id = next_incident_id_++;
  incident.at_ms = now_ms;
  incident.trigger = trigger;
  incident.detail = detail;
  incident.json = BuildJson(trigger, detail, now_ms, incident.id);
  incidents_.push_back(std::move(incident));
  while (incidents_.size() > static_cast<size_t>(config_.max_incidents)) {
    incidents_.erase(incidents_.begin());
  }
}

std::string FlightRecorder::BuildJson(const std::string& trigger,
                                      const std::string& detail,
                                      double now_ms, int64_t id) const {
  std::string out;
  out.reserve(4096);
  out += "{\"incident\":" + JsonNum(id);
  out += ",\"at_ms\":" + JsonNum(now_ms);
  out += ",\"trigger\":" + JsonStr(trigger);
  out += ",\"detail\":" + JsonStr(detail);
  out += ",\"frames\":";
  AppendJsonArray(&out, FrameColumns(), frames_);
  if (system_fn_) {
    out += ",\"system\":" + system_fn_(now_ms);
  }
  out += "}";
  return out;
}

std::vector<QueryLogEntry> FlightRecorder::Frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {frames_.begin(), frames_.end()};
}

std::vector<IncidentRecord> FlightRecorder::Incidents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incidents_;
}

int64_t FlightRecorder::incidents_captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_incident_id_ - 1;
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  shed_times_.clear();
  incidents_.clear();
  next_incident_id_ = 1;
  last_slo_ms_ = last_breaker_ms_ = last_shed_ms_ = -1.0e18;
}

}  // namespace gisql
