#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sql/parser.h"

namespace gisql {

namespace {

/// Fixed-precision rendering so evidence/action strings are
/// byte-identical across runs (std::to_string(double) is locale-stable
/// but drags six digits of noise; decisions read better with three).
std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Latency hint assigned to breaker-open or unhealthy sources: large
/// enough that replica ranking (latency_hint * 1e9 + row_count) always
/// prefers any healthy member, finite so the source stays routable as
/// a last resort.
constexpr double kDeprioritizedHintMs = 1e6;

}  // namespace

void Advisor::Configure(const AdvisorConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
}

void Advisor::Tick(double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.enabled) return;
  if (ticked_once_ && now_ms - last_tick_ms_ < config_.interval_ms) return;
  ticked_once_ = true;
  last_tick_ms_ = now_ms;
  ++counters_.ticks;

  if (config_.materialize) {
    const double cutoff = now_ms - config_.window_ms;
    std::vector<QueryLogEntry> window;
    for (auto& e : query_log_->Snapshot()) {
      if (e.finish_ms >= cutoff && e.shed_reason.empty() &&
          !e.fingerprint.empty()) {
        window.push_back(std::move(e));
      }
    }
    RunMaterialize(now_ms, window);
  }
  if (config_.placement) RunPlacement(now_ms);
  if (config_.tune) RunTune(now_ms);
}

void Advisor::RunMaterialize(double now_ms,
                             const std::vector<QueryLogEntry>& window) {
  // Count executions per fingerprint; keep the earliest statement text
  // as the representative for table resolution (earliest-by-id makes
  // the choice replay-stable).
  struct FpStats {
    int64_t count = 0;
    int64_t first_id = 0;
    std::string sql;
  };
  std::map<std::string, FpStats> by_fp;
  for (const auto& e : window) {
    FpStats& s = by_fp[e.fingerprint];
    ++s.count;
    if (s.first_id == 0 || e.id < s.first_id) {
      s.first_id = e.id;
      s.sql = e.sql;
    }
  }

  // Views that saw traffic this window stay warm.
  std::set<std::string> used_views;
  for (auto& [fp, s] : by_fp) {
    const std::string& table = TableForFingerprint(fp, s.sql);
    if (!table.empty() && owned_.count(table)) used_views.insert(table);
  }

  // Hot templates, hottest first (count desc, fingerprint asc).
  std::vector<std::pair<std::string, const FpStats*>> hot;
  for (const auto& [fp, s] : by_fp) {
    if (s.count >= config_.hot_threshold) hot.emplace_back(fp, &s);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.second->count != b.second->count) {
      return a.second->count > b.second->count;
    }
    return a.first < b.first;
  });

  for (const auto& [fp, stats] : hot) {
    if (static_cast<int>(owned_.size()) >= config_.max_views) break;
    const std::string& table = TableForFingerprint(fp, stats->sql);
    if (table.empty()) continue;
    if (owned_.count(table)) continue;           // already ours
    if (failed_tables_.count(table)) continue;   // gave up on it
    if (catalog_->HasView(table)) continue;      // someone else's view
    if (!catalog_->HasTable(table)) continue;
    if (catalog_->TableInAnyView(table)) continue;  // promote would dangle

    auto mapping = catalog_->GetTable(table);
    if (!mapping.ok()) continue;
    const std::string owner = (*mapping)->source_name;
    const SourceHealthSnapshot owner_h = health_->SnapshotOf(owner);

    // Cheapest healthy target, never one with an open breaker. Sorted
    // source names + strict < keep ties deterministic.
    std::string target;
    double target_cost = 0.0;
    for (const auto& name : catalog_->SourceNames()) {
      if (name == owner) continue;
      if (governor_->breakers().StateOf(name) == BreakerState::kOpen) continue;
      if (health_->StateOf(name) != SourceHealthState::kHealthy) continue;
      const double cost = health_->SnapshotOf(name).ewma_ms;
      if (target.empty() || cost < target_cost) {
        target = name;
        target_cost = cost;
      }
    }
    if (target.empty()) continue;

    const double gain = owner_h.ewma_ms - target_cost;
    if (gain < config_.min_gain_ms) continue;

    const std::string evidence =
        "fingerprint=" + fp + " count=" + std::to_string(stats->count) +
        " window_ms=" + Fmt(config_.window_ms) + " owner=" + owner +
        " owner_ewma_ms=" + Fmt(owner_h.ewma_ms) + " target=" + target +
        " target_ewma_ms=" + Fmt(target_cost);
    Result<std::string> replica = host_->MaterializeReplica(table, target);
    if (replica.ok()) {
      owned_.emplace(table, OwnedView{});
      ++counters_.materializations;
      Record(now_ms, "materialize", table, evidence,
             "replicate " + table + " -> " + target + " as " + *replica +
                 "; promote " + table + " to replicated view",
             Status::OK());
    } else {
      failed_tables_.insert(table);
      Record(now_ms, "materialize", table, evidence,
             "replicate " + table + " -> " + target, replica.status());
    }
  }

  // Cold-view eviction: a view with no window traffic for cold_ticks
  // consecutive ticks goes back to a plain table.
  for (auto it = owned_.begin(); it != owned_.end();) {
    if (used_views.count(it->first)) {
      it->second.cold = 0;
      ++it;
      continue;
    }
    if (++it->second.cold < config_.cold_ticks) {
      ++it;
      continue;
    }
    const std::string view = it->first;
    const std::string evidence =
        "cold_ticks=" + std::to_string(it->second.cold) +
        " window_ms=" + Fmt(config_.window_ms);
    const Status st = host_->DemoteReplicatedView(view);
    if (st.ok()) ++counters_.evictions;
    Record(now_ms, "evict", view, evidence,
           "drop replicated view " + view + "; restore base table", st);
    it = owned_.erase(it);
  }
}

void Advisor::RunPlacement(double now_ms) {
  // Maintain catalog latency hints from observed health so replicated
  // views (the advisor's own and pre-existing ones) route to the
  // cheapest healthy replica; breaker-open and unhealthy sources sink
  // to the bottom of the ranking. Hints only retarget replica choice —
  // partitioned views still read every member.
  for (const auto& name : catalog_->SourceNames()) {
    const SourceHealthSnapshot h = health_->SnapshotOf(name);
    if (h.requests == 0) continue;  // never observed: no evidence
    const BreakerState breaker = governor_->breakers().StateOf(name);
    const bool eligible = breaker != BreakerState::kOpen &&
                          h.state == SourceHealthState::kHealthy;
    const double desired = eligible ? h.ewma_ms : kDeprioritizedHintMs;
    auto info = catalog_->GetSource(name);
    if (!info.ok()) continue;
    const double current = (*info)->latency_hint_ms;
    // Hysteresis: act only on a >25% (or >0.05 ms absolute) move, so a
    // converged EWMA stops generating decisions.
    if (std::abs(desired - current) <=
        std::max(0.25 * std::abs(current), 0.05)) {
      continue;
    }
    const std::string evidence =
        "state=" + std::string(SourceHealthStateName(h.state)) +
        " breaker=" + BreakerStateName(breaker) +
        " ewma_ms=" + Fmt(h.ewma_ms) + " p95_ms=" + Fmt(h.p95_ms);
    const Status st = catalog_->SetLatencyHint(name, desired);
    if (st.ok()) ++counters_.placements;
    Record(now_ms, "placement", name, evidence,
           "latency hint " + Fmt(current) + " -> " + Fmt(desired), st);
  }
}

void Advisor::RunTune(double now_ms) {
  // Admission watermarks: tighten while an interactive objective burns
  // its error budget (background/normal queueing backs off first),
  // relax back toward the defaults after a sustained healthy streak.
  SloStatus burning;
  bool is_burning = false;
  for (const auto& s : slo_->Snapshot()) {
    if (s.priority == 2 && s.alerting) {
      burning = s;  // copied: the snapshot dies with this loop
      is_burning = true;
      break;  // Snapshot order is deterministic; first suffices
    }
  }
  const QueueWatermarks w = governor_->admission().watermarks();
  const QueueWatermarks defaults;
  if (is_burning) {
    healthy_ticks_ = 0;
    const auto [bg, norm] = governor_->SetAdmissionWatermarks(
        w.background * 0.5, w.normal * 0.75);
    if (bg != w.background || norm != w.normal) {
      ++counters_.tunings;
      Record(now_ms, "tune-admission", "admission",
             "slo=" + burning.name + " fast_burn=" + Fmt(burning.fast_burn) +
                 " slow_burn=" + Fmt(burning.slow_burn) + " alerting=1",
             "watermarks " + Fmt(w.background) + "/" + Fmt(w.normal) +
                 " -> " + Fmt(bg) + "/" + Fmt(norm),
             Status::OK());
    }
  } else if (w.background < defaults.background ||
             w.normal < defaults.normal) {
    if (++healthy_ticks_ >= config_.cold_ticks) {
      healthy_ticks_ = 0;
      // The governor caps the relaxed values at the defaults.
      const auto [bg, norm] = governor_->SetAdmissionWatermarks(
          w.background * 1.5, w.normal * 1.5);
      if (bg != w.background || norm != w.normal) {
        ++counters_.tunings;
        Record(now_ms, "tune-admission", "admission",
               "healthy_ticks=" + std::to_string(config_.cold_ticks),
               "watermarks " + Fmt(w.background) + "/" + Fmt(w.normal) +
                   " -> " + Fmt(bg) + "/" + Fmt(norm),
               Status::OK());
      }
    }
  } else {
    healthy_ticks_ = 0;
  }

  // Memory: queries aborted by the per-query budget since the last
  // tick argue the cap is too tight; double it (the governor clamps to
  // its guard rails, so this converges).
  const GovernorSnapshot g = governor_->Snapshot();
  const int64_t sheds = g.shed_memory_budget - seen_memory_sheds_;
  if (sheds > 0) {
    seen_memory_sheds_ = g.shed_memory_budget;
    const int64_t applied = governor_->SetQueryMemCap(g.mem_query_cap * 2);
    if (applied != g.mem_query_cap) {
      ++counters_.tunings;
      Record(now_ms, "tune-memory", "memory",
             "shed_memory_budget_delta=" + std::to_string(sheds),
             "query_mem_cap " + std::to_string(g.mem_query_cap) + " -> " +
                 std::to_string(applied),
             Status::OK());
    }
  }
}

void Advisor::Record(double now_ms, const std::string& kind,
                     const std::string& target, const std::string& evidence,
                     const std::string& action, const Status& outcome) {
  AdvisorDecision d;
  d.id = next_decision_id_++;
  d.at_ms = now_ms;
  d.kind = kind;
  d.target = target;
  d.evidence = evidence;
  d.action = action;
  d.outcome = outcome.ok() ? "ok" : "error: " + outcome.message();
  ++counters_.decisions;
  if (!outcome.ok()) ++counters_.failures;
  log_.push_back(std::move(d));
  const size_t cap =
      config_.log_capacity > 0 ? static_cast<size_t>(config_.log_capacity) : 1;
  while (log_.size() > cap) log_.pop_front();
}

const std::string& Advisor::TableForFingerprint(const std::string& fingerprint,
                                                const std::string& sql) {
  auto it = fp_table_.find(fingerprint);
  if (it != fp_table_.end()) return it->second;
  std::string table;
  auto parsed = sql::ParseStatement(sql);
  if (parsed.ok() && parsed->kind == sql::Statement::Kind::kSelect &&
      parsed->select != nullptr && parsed->select->from != nullptr &&
      parsed->select->from->kind == sql::TableRef::Kind::kNamed &&
      parsed->select->union_all_terms.empty()) {
    table = parsed->select->from->table_name;
    // gis.* virtual tables are not materializable.
    if (table.size() >= 4 && table.compare(0, 4, "gis.") == 0) table.clear();
  }
  return fp_table_.emplace(fingerprint, std::move(table)).first->second;
}

std::vector<AdvisorDecision> Advisor::Decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AdvisorDecision>(log_.begin(), log_.end());
}

std::string Advisor::LogText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& d : log_) {
    out += "#" + std::to_string(d.id) + " t=" + Fmt(d.at_ms) + " " + d.kind +
           " target=" + d.target + " evidence={" + d.evidence + "} action={" +
           d.action + "} outcome={" + d.outcome + "}\n";
  }
  return out;
}

AdvisorCounters Advisor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace gisql
