/// Tests of the workload-intelligence layer: per-tenant attribution
/// (the sum-equals-totals invariant, the bounded tenant map), the
/// multi-window SLO burn-rate engine, the incident flight recorder,
/// and their gis.* / Prometheus surfaces on a live GlobalSystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/global_system.h"
#include "core/query_log.h"
#include "obs/flight_recorder.h"
#include "obs/query_context.h"
#include "obs/slo.h"
#include "obs/tenant_accountant.h"

namespace gisql {
namespace {

// ---------------------------------------------------------------------------
// Tenant accountant
// ---------------------------------------------------------------------------

QueryLogEntry MakeCharge(const std::string& tenant, int64_t rows,
                         double elapsed_ms, int64_t bytes) {
  QueryLogEntry c;
  c.tenant = tenant;
  c.rows = rows;
  c.elapsed_ms = elapsed_ms;
  c.bytes_sent = bytes;
  c.bytes_received = 2 * bytes;
  c.messages = 2;
  c.mem_bytes = 1000 + rows;
  c.page_hits = rows;
  c.page_misses = rows / 2;
  c.disk_ms = elapsed_ms / 4;
  return c;
}

/// The invariant the accountant exists to make checkable: summing any
/// column over SnapshotTenants() reproduces Totals() exactly.
void ExpectSumsEqualTotals(const TenantAccountant& acct) {
  TenantUsage sum;
  for (const auto& t : acct.SnapshotTenants()) {
    sum.queries += t.queries;
    sum.sheds += t.sheds;
    sum.cache_hits += t.cache_hits;
    sum.rows += t.rows;
    sum.elapsed_ms += t.elapsed_ms;
    sum.admission_wait_ms += t.admission_wait_ms;
    sum.bytes_sent += t.bytes_sent;
    sum.bytes_received += t.bytes_received;
    sum.messages += t.messages;
    sum.retries += t.retries;
    sum.page_hits += t.page_hits;
    sum.page_misses += t.page_misses;
    sum.disk_ms += t.disk_ms;
  }
  const TenantUsage totals = acct.Totals();
  EXPECT_EQ(sum.queries, totals.queries);
  EXPECT_EQ(sum.sheds, totals.sheds);
  EXPECT_EQ(sum.cache_hits, totals.cache_hits);
  EXPECT_EQ(sum.rows, totals.rows);
  EXPECT_DOUBLE_EQ(sum.elapsed_ms, totals.elapsed_ms);
  EXPECT_DOUBLE_EQ(sum.admission_wait_ms, totals.admission_wait_ms);
  EXPECT_EQ(sum.bytes_sent, totals.bytes_sent);
  EXPECT_EQ(sum.bytes_received, totals.bytes_received);
  EXPECT_EQ(sum.messages, totals.messages);
  EXPECT_EQ(sum.retries, totals.retries);
  EXPECT_EQ(sum.page_hits, totals.page_hits);
  EXPECT_EQ(sum.page_misses, totals.page_misses);
  EXPECT_DOUBLE_EQ(sum.disk_ms, totals.disk_ms);
}

TEST(TenantAccountantTest, SumOfTenantsEqualsTotals) {
  TenantAccountant acct;
  acct.Record(MakeCharge("alpha", 10, 5.0, 100));
  acct.Record(MakeCharge("beta", 20, 2.5, 50));
  acct.Record(MakeCharge("alpha", 1, 0.5, 10));
  QueryLogEntry shed;
  shed.tenant = "gamma";
  shed.shed_reason = "queue_full";
  acct.Record(shed);
  QueryLogEntry hit;
  hit.tenant = "beta";
  hit.cache_hit = true;
  hit.rows = 3;
  acct.Record(hit);

  EXPECT_EQ(acct.tracked_count(), 3u);
  const auto rows = acct.SnapshotTenants();
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by name, each row carrying its own charges only.
  EXPECT_EQ(rows[0].tenant, "alpha");
  EXPECT_EQ(rows[0].queries, 2);
  EXPECT_EQ(rows[0].rows, 11);
  EXPECT_EQ(rows[1].tenant, "beta");
  EXPECT_EQ(rows[1].queries, 2);
  EXPECT_EQ(rows[1].cache_hits, 1);
  EXPECT_EQ(rows[2].tenant, "gamma");
  EXPECT_EQ(rows[2].sheds, 1);
  EXPECT_EQ(rows[2].queries, 0);
  ExpectSumsEqualTotals(acct);
}

TEST(TenantAccountantTest, MemPeakIsMaxNotSum) {
  TenantAccountant acct;
  QueryLogEntry big;
  big.tenant = "a";
  big.mem_bytes = 5000;
  QueryLogEntry small = big;
  small.mem_bytes = 100;
  acct.Record(big);
  acct.Record(small);
  EXPECT_EQ(acct.SnapshotTenants()[0].mem_peak_bytes, 5000);
  EXPECT_EQ(acct.Totals().mem_peak_bytes, 5000);
}

TEST(TenantAccountantTest, OverflowFoldsIntoBucketAndInvariantHolds) {
  TenantAccountant acct(TenantConfig{.max_tracked = 2});
  acct.Record(MakeCharge("a", 1, 1.0, 10));
  acct.Record(MakeCharge("b", 2, 1.0, 10));
  // Map is full: c and d land in the overflow bucket; a and b keep
  // accumulating under their own names (first-seen-wins).
  acct.Record(MakeCharge("c", 4, 1.0, 10));
  acct.Record(MakeCharge("d", 8, 1.0, 10));
  acct.Record(MakeCharge("a", 16, 1.0, 10));

  EXPECT_EQ(acct.tracked_count(), 2u);
  const auto rows = acct.SnapshotTenants();
  ASSERT_EQ(rows.size(), 3u);  // a, b, and the overflow bucket
  std::map<std::string, int64_t> by_name;
  for (const auto& r : rows) by_name[r.tenant] = r.rows;
  EXPECT_EQ(by_name["a"], 17);
  EXPECT_EQ(by_name["b"], 2);
  EXPECT_EQ(by_name[kOverflowTenant], 12);
  ExpectSumsEqualTotals(acct);
}

TEST(TenantAccountantTest, EmptyTenantNormalizesToDefault) {
  TenantAccountant acct;
  acct.Record(MakeCharge("", 1, 1.0, 1));
  const auto rows = acct.SnapshotTenants();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tenant, kDefaultTenant);
  EXPECT_EQ(QueryContext::NormalizeTenant(""), kDefaultTenant);
  EXPECT_EQ(QueryContext::NormalizeTenant("t9"), "t9");
}

// ---------------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------------

TEST(SloEngineTest, EmptyWindowsReportFullAttainmentAndZeroBurn) {
  SloEngine slo;
  const auto snap = slo.Snapshot();
  ASSERT_EQ(snap.size(), 3u);  // the stock ladder
  for (const auto& s : snap) {
    EXPECT_EQ(s.slow_total, 0);
    EXPECT_DOUBLE_EQ(s.fast_attainment, 1.0);
    EXPECT_DOUBLE_EQ(s.slow_attainment, 1.0);
    EXPECT_DOUBLE_EQ(s.fast_burn, 0.0);
    EXPECT_FALSE(s.alerting);
  }
}

TEST(SloEngineTest, GoodEventsNeverAlert) {
  SloEngine slo;
  for (int i = 0; i < 100; ++i) {
    // Interactive events well under the 50 ms target.
    EXPECT_TRUE(slo.Record(2, 100.0 * i, 10.0, false).empty());
  }
  const auto snap = slo.Snapshot();
  // Declaration order: interactive, normal, background.
  EXPECT_EQ(snap[0].name, "interactive");
  EXPECT_DOUBLE_EQ(snap[0].slow_attainment, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].slow_burn, 0.0);
  EXPECT_EQ(slo.Alerts().size(), 0u);
}

TEST(SloEngineTest, BreachRaisesOneRisingEdgeAtExactInstant) {
  SloEngine slo;
  // First bad interactive event: both windows hold only bad events, so
  // burn = 1/0.01 = 100 >= 2 in both — the rising edge fires at
  // exactly this event's finish instant.
  auto raised = slo.Record(2, 123.5, 400.0, false);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].objective, "interactive");
  EXPECT_DOUBLE_EQ(raised[0].at_ms, 123.5);
  // Still in breach: no second rising edge.
  EXPECT_TRUE(slo.Record(2, 200.0, 400.0, false).empty());
  const auto snap = slo.Snapshot();
  EXPECT_TRUE(snap[0].alerting);
  EXPECT_EQ(snap[0].alerts, 1);
  EXPECT_DOUBLE_EQ(snap[0].last_alert_ms, 123.5);
}

TEST(SloEngineTest, ShedsAreNeverGood) {
  SloEngine slo;
  // A shed with zero sojourn still burns budget.
  auto raised = slo.Record(2, 50.0, 0.0, true);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(slo.Snapshot()[0].slow_good, 0);
}

TEST(SloEngineTest, RecoveryClearsAlertAndNewBreachRaisesAgain) {
  SloEngine slo;
  slo.Configure(
      {.fast_window_ms = 100.0, .slow_window_ms = 1000.0, .burn_alert = 2.0});
  ASSERT_EQ(slo.Record(2, 10.0, 400.0, false).size(), 1u);
  // Flood both windows with good events until attainment recovers past
  // the alert threshold (bad event ages out of the slow window too).
  for (int i = 0; i < 200; ++i) {
    slo.Record(2, 20.0 + i * 10.0, 1.0, false);
  }
  EXPECT_FALSE(slo.Snapshot()[0].alerting);
  // A fresh breach is a new rising edge.
  auto raised = slo.Record(2, 2100.0, 400.0, false);
  // One bad event among many good in the fast window may not re-breach
  // immediately; keep pushing bad events until it does.
  double t = 2110.0;
  while (raised.empty() && t < 5000.0) {
    raised = slo.Record(2, t, 400.0, false);
    t += 10.0;
  }
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(slo.Snapshot()[0].alerts, 2);
}

TEST(SloEngineTest, AlertingClearsWhenTheBreachAgesOutUnderOtherTraffic) {
  SloEngine slo;
  slo.Configure(
      {.fast_window_ms = 100.0, .slow_window_ms = 1000.0, .burn_alert = 2.0});
  // Interactive breaches once; from then on only normal traffic
  // arrives, carrying the clock past the slow window.
  ASSERT_EQ(slo.Record(2, 10.0, 400.0, false).size(), 1u);
  EXPECT_TRUE(slo.Snapshot()[0].alerting);
  for (int i = 1; i <= 30; ++i) {
    EXPECT_TRUE(slo.Record(1, 10.0 + i * 50.0, 1.0, false).empty());
  }
  const SloStatus interactive = slo.Snapshot()[0];
  EXPECT_EQ(interactive.name, "interactive");
  EXPECT_EQ(interactive.fast_total, 0);
  EXPECT_EQ(interactive.slow_total, 0);
  EXPECT_DOUBLE_EQ(interactive.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(interactive.slow_burn, 0.0);
  EXPECT_FALSE(interactive.alerting);
  // The rising edge it raised stays on record.
  EXPECT_EQ(interactive.alerts, 1);
  EXPECT_DOUBLE_EQ(interactive.last_alert_ms, 10.0);
}

TEST(SloEngineTest, BreachAfterAnAgedOutAlertRaisesAgain) {
  SloEngine slo;
  slo.Configure(
      {.fast_window_ms = 100.0, .slow_window_ms = 1000.0, .burn_alert = 2.0});
  ASSERT_EQ(slo.Record(2, 10.0, 400.0, false).size(), 1u);
  for (int i = 1; i <= 30; ++i) slo.Record(1, 10.0 + i * 50.0, 1.0, false);
  ASSERT_FALSE(slo.Snapshot()[0].alerting);
  // The first breach aged out under normal traffic, so the next bad
  // interactive event is a new rising edge.
  const auto raised = slo.Record(2, 2000.0, 400.0, false);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].objective, "interactive");
  EXPECT_DOUBLE_EQ(raised[0].at_ms, 2000.0);
  EXPECT_EQ(slo.Snapshot()[0].alerts, 2);
  EXPECT_EQ(slo.Alerts().size(), 2u);
}

TEST(SloEngineTest, PrioritiesMapToDistinctObjectives) {
  SloEngine slo;
  // Background target is 1000 ms: a 400 ms sojourn is good there but
  // bad for interactive.
  EXPECT_TRUE(slo.Record(0, 10.0, 400.0, false).empty());
  auto raised = slo.Record(2, 20.0, 400.0, false);
  ASSERT_EQ(raised.size(), 1u);
  const auto snap = slo.Snapshot();
  EXPECT_EQ(snap[2].name, "background");
  EXPECT_DOUBLE_EQ(snap[2].slow_attainment, 1.0);
  EXPECT_TRUE(snap[0].alerting);
}

// The backward-scan engine SloEngine's running counts replaced, kept
// as the property test's reference: every evaluation re-scans both
// windows from the newest event back.
class ScanSloReference {
 public:
  ScanSloReference() { UseDefaultObjectives(); }

  void SetObjectives(std::vector<SloObjective> objectives) {
    tracked_.clear();
    for (auto& objective : objectives) {
      Tracked tracked;
      tracked.objective = std::move(objective);
      tracked_.push_back(std::move(tracked));
    }
    alert_log_.clear();
    last_event_ms_ = 0.0;
  }

  void UseDefaultObjectives() {
    SetObjectives({{"interactive", 2, 50.0, 0.99},
                   {"normal", 1, 200.0, 0.95},
                   {"background", 0, 1000.0, 0.90}});
  }

  void Configure(const SloConfig& config) {
    if (config.fast_window_ms > 0) fast_window_ms_ = config.fast_window_ms;
    if (config.slow_window_ms > 0) slow_window_ms_ = config.slow_window_ms;
    slow_window_ms_ = std::max(slow_window_ms_, fast_window_ms_);
    if (config.burn_alert > 0) burn_alert_ = config.burn_alert;
  }

  std::vector<SloAlert> Record(int priority, double finish_ms,
                               double sojourn_ms, bool shed) {
    std::vector<SloAlert> raised;
    const double now = std::max(finish_ms, last_event_ms_);
    last_event_ms_ = now;
    for (auto& tracked : tracked_) {
      if (tracked.objective.priority != priority) continue;
      if (tracked.alerting) {
        tracked.alerting = Evaluate(tracked, now).alerting;
      }
      const bool good = !shed && sojourn_ms <= tracked.objective.target_ms;
      tracked.events.push_back({now, good});
      while (!tracked.events.empty() &&
             tracked.events.front().at_ms < now - slow_window_ms_) {
        tracked.events.pop_front();
      }
      const SloStatus status = Evaluate(tracked, now);
      if (status.alerting && !tracked.alerting) {
        tracked.alerts += 1;
        tracked.last_alert_ms = now;
        SloAlert alert{tracked.objective.name, now, status.fast_burn,
                       status.slow_burn};
        alert_log_.push_back(alert);
        raised.push_back(alert);
      }
      tracked.alerting = status.alerting;
    }
    return raised;
  }

  std::vector<SloStatus> Snapshot() const {
    std::vector<SloStatus> statuses;
    for (const auto& tracked : tracked_) {
      statuses.push_back(Evaluate(tracked, last_event_ms_));
    }
    return statuses;
  }

  const std::vector<SloAlert>& Alerts() const { return alert_log_; }

 private:
  struct Event {
    double at_ms;
    bool good;
  };
  struct Tracked {
    SloObjective objective;
    std::deque<Event> events;
    bool alerting = false;
    int64_t alerts = 0;
    double last_alert_ms = -1.0;
  };

  static void CountWindow(const std::deque<Event>& events, double now_ms,
                          double window_ms, int64_t* total, int64_t* good) {
    *total = 0;
    *good = 0;
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->at_ms < now_ms - window_ms) break;
      *total += 1;
      if (it->good) *good += 1;
    }
  }

  SloStatus Evaluate(const Tracked& tracked, double now_ms) const {
    SloStatus s;
    s.name = tracked.objective.name;
    s.priority = tracked.objective.priority;
    s.target_ms = tracked.objective.target_ms;
    s.goal = tracked.objective.goal;
    CountWindow(tracked.events, now_ms, fast_window_ms_, &s.fast_total,
                &s.fast_good);
    CountWindow(tracked.events, now_ms, slow_window_ms_, &s.slow_total,
                &s.slow_good);
    s.fast_attainment =
        s.fast_total == 0 ? 1.0
                          : static_cast<double>(s.fast_good) / s.fast_total;
    s.slow_attainment =
        s.slow_total == 0 ? 1.0
                          : static_cast<double>(s.slow_good) / s.slow_total;
    double budget = 1.0 - tracked.objective.goal;
    if (budget <= 0.0) budget = 1e-9;
    s.fast_burn = (1.0 - s.fast_attainment) / budget;
    s.slow_burn = (1.0 - s.slow_attainment) / budget;
    s.alerting = s.fast_burn >= burn_alert_ && s.slow_burn >= burn_alert_;
    s.alerts = tracked.alerts;
    s.last_alert_ms = tracked.last_alert_ms;
    return s;
  }

  std::vector<Tracked> tracked_;
  std::vector<SloAlert> alert_log_;
  double fast_window_ms_ = SloConfig().fast_window_ms;
  double slow_window_ms_ = SloConfig().slow_window_ms;
  double burn_alert_ = SloConfig().burn_alert;
  double last_event_ms_ = 0.0;
};

::testing::AssertionResult SameAlerts(const std::vector<SloAlert>& got,
                                      const std::vector<SloAlert>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " alerts, reference " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const SloAlert& g = got[i];
    const SloAlert& w = want[i];
    if (g.objective != w.objective || g.at_ms != w.at_ms ||
        g.fast_burn != w.fast_burn || g.slow_burn != w.slow_burn) {
      return ::testing::AssertionFailure()
             << "alert " << i << ": " << g.objective << "@" << g.at_ms
             << ", reference " << w.objective << "@" << w.at_ms;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameStatuses(const std::vector<SloStatus>& got,
                                        const std::vector<SloStatus>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " objectives, reference " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const SloStatus& g = got[i];
    const SloStatus& w = want[i];
    if (g.name != w.name || g.priority != w.priority ||
        g.target_ms != w.target_ms || g.goal != w.goal ||
        g.fast_total != w.fast_total || g.fast_good != w.fast_good ||
        g.slow_total != w.slow_total || g.slow_good != w.slow_good ||
        g.fast_attainment != w.fast_attainment ||
        g.slow_attainment != w.slow_attainment ||
        g.fast_burn != w.fast_burn || g.slow_burn != w.slow_burn ||
        g.alerting != w.alerting || g.alerts != w.alerts ||
        g.last_alert_ms != w.last_alert_ms) {
      return ::testing::AssertionFailure()
             << g.name << ": fast " << g.fast_good << "/" << g.fast_total
             << " slow " << g.slow_good << "/" << g.slow_total
             << " alerting " << g.alerting << " alerts " << g.alerts
             << "; reference " << w.name << ": fast " << w.fast_good << "/"
             << w.fast_total << " slow " << w.slow_good << "/"
             << w.slow_total << " alerting " << w.alerting << " alerts "
             << w.alerts;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SloEngineTest, RunningCountsMatchTheBackwardScan) {
  // Random streams over three priorities with sheds, late finishes
  // (clamped), snapshots, window changes both ways and objective
  // resets: the running counts must agree with a full re-scan in every
  // alert each record raises and every field of every snapshot.
  int64_t alerts = 0, late = 0, grown = 0, shrunk = 0, resets = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto chance = [&](double p) { return uniform(0.0, 1.0) < p; };
    // Even seeds put every instant and window on a 5 ms grid, so events
    // land exactly on a window's edge and ties in time are common.
    auto instant = [&](double lo, double hi) {
      const double t = uniform(lo, hi);
      return seed % 2 == 0 ? 5.0 * std::floor(t / 5.0) : t;
    };
    SloEngine engine;
    ScanSloReference reference;
    double fast = 5000.0, slow = 60000.0;
    double clock = 0.0;
    bool breaching = false;
    for (int step = 0; step < 2000; ++step) {
      const double op = uniform(0.0, 1.0);
      if (op < 0.85) {
        clock += instant(0.0, 40.0);
        if (chance(0.02)) breaching = !breaching;
        double finish = clock;
        if (chance(0.1)) {
          finish -= instant(0.0, 200.0);  // finalized out of order
          ++late;
        }
        const int priority = static_cast<int>(rng() % 3);
        const double sojourn =
            breaching ? uniform(0.0, 3000.0) : uniform(0.0, 60.0);
        const bool shed = chance(breaching ? 0.2 : 0.01);
        ASSERT_TRUE(
            SameAlerts(engine.Record(priority, finish, sojourn, shed),
                       reference.Record(priority, finish, sojourn, shed)))
            << "step " << step;
      } else if (op < 0.93) {
        clock += instant(0.0, 500.0);  // later instant, no new event
        ASSERT_TRUE(SameStatuses(engine.Snapshot(), reference.Snapshot()))
            << "step " << step;
      } else if (op < 0.99) {
        SloConfig config;
        // Non-positive values keep the current window or threshold.
        config.fast_window_ms = chance(0.1) ? 0.0 : instant(20.0, 2000.0);
        config.slow_window_ms = chance(0.1) ? -1.0 : instant(20.0, 8000.0);
        config.burn_alert = chance(0.1) ? 0.0 : uniform(0.5, 5.0);
        const double new_fast =
            config.fast_window_ms > 0 ? config.fast_window_ms : fast;
        const double new_slow = std::max(
            config.slow_window_ms > 0 ? config.slow_window_ms : slow,
            new_fast);
        grown += (new_fast > fast) + (new_slow > slow);
        shrunk += (new_fast < fast) + (new_slow < slow);
        fast = new_fast;
        slow = new_slow;
        engine.Configure(config);
        reference.Configure(config);
      } else {
        ++resets;
        if (chance(0.5)) {
          engine.UseDefaultObjectives();
          reference.UseDefaultObjectives();
        } else {
          // Random ladders, two objectives may share a priority, and a
          // 100% goal takes the zero-budget path.
          std::vector<SloObjective> objectives;
          const int n = 1 + static_cast<int>(rng() % 3);
          for (int i = 0; i < n; ++i) {
            objectives.push_back({"o" + std::to_string(i),
                                  static_cast<int>(rng() % 3),
                                  uniform(5.0, 1500.0),
                                  chance(0.1) ? 1.0 : uniform(0.5, 0.999)});
          }
          engine.SetObjectives(objectives);
          reference.SetObjectives(objectives);
        }
        clock = 0.0;
      }
      // Not after every step, so records also follow a window change
      // or a long run of records with no snapshot in between.
      if (chance(0.25)) {
        ASSERT_TRUE(SameStatuses(engine.Snapshot(), reference.Snapshot()))
            << "step " << step;
      }
    }
    ASSERT_TRUE(SameAlerts(engine.Alerts(), reference.Alerts()));
    alerts += static_cast<int64_t>(reference.Alerts().size());
  }
  // The streams really exercised what they claim to.
  EXPECT_GT(alerts, 100);
  EXPECT_GT(late, 1000);
  EXPECT_GT(grown, 100);
  EXPECT_GT(shrunk, 100);
  EXPECT_GT(resets, 50);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

QueryLogEntry MakeFrame(double finish_ms, const std::string& shed = "") {
  QueryLogEntry f;
  f.id = static_cast<int64_t>(finish_ms);
  f.tenant = "t1";
  f.finish_ms = finish_ms;
  f.elapsed_ms = 5.0;
  f.shed_reason = shed;
  f.sql = "SELECT 1";
  return f;
}

TEST(FlightRecorderTest, RingKeepsMostRecentFrames) {
  FlightRecorder rec;
  rec.Configure({.ring = 4, .max_incidents = 4, .cooldown_ms = 1000.0,
                 .shed_spike = 100, .shed_window_ms = 1000.0});
  for (int i = 1; i <= 6; ++i) rec.RecordFrame(MakeFrame(i));
  const auto frames = rec.Frames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_DOUBLE_EQ(frames.front().finish_ms, 3.0);
  EXPECT_DOUBLE_EQ(frames.back().finish_ms, 6.0);
}

TEST(FlightRecorderTest, LongSqlIsTruncatedInFrames) {
  FlightRecorder rec;
  QueryLogEntry f = MakeFrame(1.0);
  f.sql = std::string(500, 'x');
  rec.RecordFrame(f);
  const auto frames = rec.Frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].sql.size(), FlightRecorder::kMaxFrameSql + 3);
  EXPECT_EQ(frames[0].sql.substr(FlightRecorder::kMaxFrameSql), "...");
}

TEST(FlightRecorderTest, ShedSpikeTriggersOnceUnderCooldown) {
  FlightRecorder rec;
  rec.Configure({.ring = 16, .max_incidents = 8, .cooldown_ms = 10000.0,
                 .shed_spike = 3, .shed_window_ms = 100.0});
  rec.SetSystemSnapshotFn([](double) { return std::string("{\"probe\":1}"); });
  rec.RecordFrame(MakeFrame(10.0, "queue_full"));
  rec.RecordFrame(MakeFrame(20.0, "queue_full"));
  EXPECT_EQ(rec.incidents_captured(), 0);
  rec.RecordFrame(MakeFrame(30.0, "queue_full"));  // third within 100 ms
  EXPECT_EQ(rec.incidents_captured(), 1);
  // More sheds inside the cooldown add no incidents...
  rec.RecordFrame(MakeFrame(40.0, "queue_full"));
  rec.RecordFrame(MakeFrame(50.0, "queue_full"));
  EXPECT_EQ(rec.incidents_captured(), 1);
  const auto incidents = rec.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trigger, "shed_spike");
  EXPECT_DOUBLE_EQ(incidents[0].at_ms, 30.0);
  // ...and the snapshot embeds the frames and the system callback.
  EXPECT_NE(incidents[0].json.find("\"frames\""), std::string::npos);
  EXPECT_NE(incidents[0].json.find("{\"probe\":1}"), std::string::npos);
}

TEST(FlightRecorderTest, SloAndBreakerTriggersHaveIndependentCooldowns) {
  FlightRecorder rec;
  rec.Configure({.ring = 16, .max_incidents = 8, .cooldown_ms = 1000.0,
                 .shed_spike = 100, .shed_window_ms = 100.0});
  rec.OnSloAlert("interactive", 10.0, 5.0, 3.0);
  rec.OnBreakerOpen("hq", 10.0);  // different trigger kind: not blocked
  EXPECT_EQ(rec.incidents_captured(), 2);
  rec.OnSloAlert("interactive", 500.0, 5.0, 3.0);  // cooling down
  EXPECT_EQ(rec.incidents_captured(), 2);
  rec.OnSloAlert("interactive", 1500.0, 5.0, 3.0);  // cooldown passed
  EXPECT_EQ(rec.incidents_captured(), 3);
  const auto incidents = rec.Incidents();
  EXPECT_EQ(incidents[0].trigger, "slo_burn");
  // The detail names the objective and both burn rates.
  EXPECT_EQ(incidents[0].detail.rfind("interactive fast_burn=", 0), 0u);
  EXPECT_EQ(incidents[1].trigger, "breaker_open");
  EXPECT_EQ(incidents[1].detail, "hq");
}

TEST(FlightRecorderTest, DisabledRecorderCapturesNothing) {
  FlightRecorder rec;
  rec.Configure({.enabled = false, .ring = 16, .max_incidents = 8,
                 .cooldown_ms = 0.0, .shed_spike = 1,
                 .shed_window_ms = 1000.0});
  rec.RecordFrame(MakeFrame(1.0, "queue_full"));
  rec.OnSloAlert("interactive", 2.0, 5.0, 3.0);
  rec.OnBreakerOpen("hq", 3.0);
  EXPECT_EQ(rec.incidents_captured(), 0);
  EXPECT_EQ(rec.Incidents().size(), 0u);
}

TEST(FlightRecorderTest, IncidentListIsBoundedButCounterIsNot) {
  FlightRecorder rec;
  rec.Configure({.ring = 4, .max_incidents = 2, .cooldown_ms = 0.0,
                 .shed_spike = 100, .shed_window_ms = 100.0});
  for (int i = 0; i < 5; ++i) {
    rec.OnBreakerOpen("s" + std::to_string(i), i * 10.0);
  }
  EXPECT_EQ(rec.incidents_captured(), 5);
  const auto incidents = rec.Incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].detail, "s3");  // oldest dropped
  EXPECT_EQ(incidents[1].detail, "s4");
  EXPECT_EQ(incidents[1].id, 5);  // ids keep counting past eviction
}

// ---------------------------------------------------------------------------
// Query log capacity from the environment
// ---------------------------------------------------------------------------

TEST(QueryLogCapacityTest, EnvParsesClampsAndFallsBack) {
  unsetenv("GISQL_QUERY_LOG_CAPACITY");
  EXPECT_EQ(QueryLog::CapacityFromEnv(), QueryLog::kDefaultCapacity);
  setenv("GISQL_QUERY_LOG_CAPACITY", "1000", 1);
  EXPECT_EQ(QueryLog::CapacityFromEnv(), 1000u);
  setenv("GISQL_QUERY_LOG_CAPACITY", "not-a-number", 1);
  EXPECT_EQ(QueryLog::CapacityFromEnv(), QueryLog::kDefaultCapacity);
  setenv("GISQL_QUERY_LOG_CAPACITY", "0", 1);
  EXPECT_EQ(QueryLog::CapacityFromEnv(), QueryLog::kDefaultCapacity);
  setenv("GISQL_QUERY_LOG_CAPACITY", "99999999", 1);
  EXPECT_EQ(QueryLog::CapacityFromEnv(), QueryLog::kMaxCapacity);
  unsetenv("GISQL_QUERY_LOG_CAPACITY");
}

// ---------------------------------------------------------------------------
// p99.9 digests
// ---------------------------------------------------------------------------

TEST(HistogramP999Test, TailQuantileOrderingHolds) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  const HistogramSnapshot d = DigestHistogram(h);
  EXPECT_EQ(d.count, 1000);
  EXPECT_GE(d.p999, d.p99);
  EXPECT_GE(d.p99, d.p95);
  EXPECT_LE(d.p999, d.max);
  // An outlier pair only the p99.9 should resolve (2/1000 puts the
  // 0.999 rank past the low bucket while 0.99 stays inside it).
  Histogram spike;
  for (int i = 0; i < 998; ++i) spike.Observe(1.0);
  spike.Observe(10000.0);
  spike.Observe(10000.0);
  const HistogramSnapshot s = DigestHistogram(spike);
  EXPECT_LT(s.p99, 100.0);
  EXPECT_GT(s.p999, 100.0);
}

// ---------------------------------------------------------------------------
// End-to-end: attribution, gis.* surfaces, Prometheus, determinism
// ---------------------------------------------------------------------------

void Build(GlobalSystem* gis) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE orders (oid bigint, cid bigint, "
                    "total double)")
                  .ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(hq->ExecuteLocalSql(
                      "INSERT INTO orders VALUES (" + std::to_string(i) +
                      ", " + std::to_string(i % 5) + ", " +
                      std::to_string(i * 1.5) + ")")
                    .ok());
  }
  ASSERT_TRUE(gis->ImportSource("hq").ok());
}

/// The ledger row the query log implies for `entries`: every column
/// gis.tenants shows, summed (memory as the peak).
TenantUsage LedgerFromLog(const std::vector<QueryLogEntry>& entries) {
  TenantUsage u;
  for (const QueryLogEntry& e : entries) {
    (e.shed_reason.empty() ? u.queries : u.sheds) += 1;
    u.cache_hits += e.cache_hit ? 1 : 0;
    u.rows += e.rows;
    u.elapsed_ms += e.elapsed_ms;
    u.admission_wait_ms += e.admission_wait_ms;
    u.bytes_sent += e.bytes_sent;
    u.bytes_received += e.bytes_received;
    u.messages += e.messages;
    u.retries += e.retries;
    u.mem_peak_bytes = std::max(u.mem_peak_bytes, e.mem_bytes);
    u.page_hits += e.page_hits;
    u.page_misses += e.page_misses;
    u.disk_ms += e.disk_ms;
  }
  return u;
}

void ExpectSameLedger(const TenantUsage& want, const TenantUsage& got,
                      const std::string& who) {
  EXPECT_EQ(want.queries, got.queries) << who;
  EXPECT_EQ(want.sheds, got.sheds) << who;
  EXPECT_EQ(want.cache_hits, got.cache_hits) << who;
  EXPECT_EQ(want.rows, got.rows) << who;
  EXPECT_DOUBLE_EQ(want.elapsed_ms, got.elapsed_ms) << who;
  EXPECT_DOUBLE_EQ(want.admission_wait_ms, got.admission_wait_ms) << who;
  EXPECT_EQ(want.bytes_sent, got.bytes_sent) << who;
  EXPECT_EQ(want.bytes_received, got.bytes_received) << who;
  EXPECT_EQ(want.messages, got.messages) << who;
  EXPECT_EQ(want.retries, got.retries) << who;
  EXPECT_EQ(want.mem_peak_bytes, got.mem_peak_bytes) << who;
  EXPECT_EQ(want.page_hits, got.page_hits) << who;
  EXPECT_EQ(want.page_misses, got.page_misses) << who;
  EXPECT_DOUBLE_EQ(want.disk_ms, got.disk_ms) << who;
}

TEST(WorkloadIntelligenceTest, SubmitAttributesToNamedTenant) {
  // One slot and a one-deep queue: a third arrival at t=0 is shed.
  PlannerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_limit = 1;
  GlobalSystem gis(options);
  // Small pages in a two-frame pool, so scans miss and charge disk time.
  setenv("GISQL_PAGE_SIZE", "64", 1);
  setenv("GISQL_BUFFER_POOL_FRAMES", "2", 1);
  Build(&gis);
  unsetenv("GISQL_PAGE_SIZE");
  unsetenv("GISQL_BUFFER_POOL_FRAMES");
  gis.EnableResultCache();
  GlobalSystem::SubmitOptions submit;
  submit.tenant = "acme";
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", submit).ok());
  ASSERT_TRUE(gis.Query("SELECT MAX(oid) FROM orders").ok());

  // Every kind of record: a queued statement, an admission shed, a
  // cache hit, a drained cursor and an expired one.
  GlobalSystem::SubmitOptions burst;
  burst.tenant = "burst";
  burst.priority = 2;  // may use the whole queue
  burst.arrival_ms = gis.governor().now_ms();
  ASSERT_TRUE(gis.Submit("SELECT SUM(total) FROM orders", burst).ok());
  auto queued = gis.Submit("SELECT MIN(total) FROM orders", burst);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_TRUE(
      gis.Submit("SELECT AVG(total) FROM orders", burst).status().IsOverloaded());
  GlobalSystem::SubmitOptions beta;
  beta.tenant = "beta";
  ASSERT_TRUE(gis.Submit("SELECT cid FROM orders WHERE oid < 4", beta).ok());
  auto hit = gis.Submit("SELECT cid FROM orders WHERE oid < 4", beta);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->metrics.cache_hit);
  GlobalSystem::CursorOptions lapsing;
  lapsing.submit = beta;
  lapsing.chunk_rows = 8;
  lapsing.lease_ms = 0.0;
  auto expiring = gis.OpenCursor("SELECT oid FROM orders", lapsing);
  ASSERT_TRUE(expiring.ok());
  ASSERT_TRUE(gis.FetchChunk(*expiring).ok());
  GlobalSystem::CursorOptions draining;
  draining.submit = beta;
  draining.chunk_rows = 8;
  auto drained = gis.OpenCursor("SELECT oid, total FROM orders", draining);
  ASSERT_TRUE(drained.ok());
  for (bool done = false; !done;) {
    auto chunk = gis.FetchChunk(*drained);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    done = chunk->done;
  }
  ASSERT_TRUE(gis.CloseCursor(*expiring).ok());
  EXPECT_EQ(gis.cursors().Find(*drained)->state,
            CursorManager::State::kDrained);
  EXPECT_EQ(gis.cursors().Find(*expiring)->state,
            CursorManager::State::kExpired);

  const auto rows = gis.tenants().SnapshotTenants();
  std::map<std::string, TenantUsage> by_name;
  for (const auto& r : rows) by_name[r.tenant] = r;
  ASSERT_TRUE(by_name.count("acme"));
  ASSERT_TRUE(by_name.count("default"));  // the plain Query() above
  EXPECT_EQ(by_name["acme"].queries, 1);
  EXPECT_GT(by_name["acme"].bytes_received, 0);
  EXPECT_GT(by_name["acme"].messages, 0);
  EXPECT_EQ(by_name["default"].queries, 1);
  EXPECT_EQ(by_name["burst"].sheds, 1);
  EXPECT_GT(by_name["burst"].admission_wait_ms, 0.0);
  EXPECT_EQ(by_name["beta"].cache_hits, 1);
  EXPECT_EQ(by_name["beta"].queries, 4);  // two Submits, two cursors

  // The per-tenant ledger and the query log tell the same story, in
  // every column.
  const std::vector<QueryLogEntry> log = gis.query_log().Snapshot();
  ASSERT_EQ(log.size(), 9u);
  std::map<std::string, std::vector<QueryLogEntry>> log_by_tenant;
  for (const auto& e : log) log_by_tenant[e.tenant].push_back(e);
  ASSERT_EQ(log_by_tenant.size(), by_name.size());
  for (const auto& [tenant, entries] : log_by_tenant) {
    ExpectSameLedger(LedgerFromLog(entries), by_name[tenant], tenant);
  }
  ExpectSameLedger(LedgerFromLog(log), gis.tenants().Totals(), "*");
  // No column compares zero with zero.
  const TenantUsage totals = gis.tenants().Totals();
  EXPECT_GT(totals.mem_peak_bytes, 0);
  EXPECT_GT(totals.page_hits, 0);
  EXPECT_GT(totals.page_misses, 0);
  EXPECT_GT(totals.disk_ms, 0.0);

  // The flight frames are the same records: one per log row, with the
  // sojourn and byte figures the incident JSON shows.
  const std::vector<QueryLogEntry> frames = gis.flight_recorder().Frames();
  ASSERT_EQ(frames.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    const QueryLogEntry& e = log[i];
    const QueryLogEntry& f = frames[i];
    EXPECT_EQ(f.id, e.id);
    EXPECT_EQ(f.tenant, e.tenant);
    EXPECT_EQ(f.sql, e.sql);  // all shorter than the truncation bound
    EXPECT_DOUBLE_EQ(f.sojourn_ms(), e.admission_wait_ms + e.elapsed_ms);
    EXPECT_EQ(f.bytes_sent + f.bytes_received,
              e.bytes_sent + e.bytes_received);
    EXPECT_EQ(f.rows, e.rows);
    EXPECT_DOUBLE_EQ(f.finish_ms, e.finish_ms);
    EXPECT_EQ(f.cache_hit, e.cache_hit);
    EXPECT_EQ(f.shed_reason, e.shed_reason);
  }
}

TEST(WorkloadIntelligenceTest, QueryLogCarriesTenantAndFinish) {
  GlobalSystem gis;
  Build(&gis);
  GlobalSystem::SubmitOptions submit;
  submit.tenant = "acme";
  submit.priority = 2;
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", submit).ok());
  const auto entries = gis.query_log().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].tenant, "acme");
  EXPECT_EQ(entries[0].priority, 2);
  EXPECT_GT(entries[0].finish_ms, 0.0);
  EXPECT_DOUBLE_EQ(entries[0].finish_ms,
                   entries[0].admission_wait_ms + entries[0].elapsed_ms);
}

TEST(WorkloadIntelligenceTest, GisTenantsTableSumsMatchTotals) {
  GlobalSystem gis;
  Build(&gis);
  for (int i = 0; i < 3; ++i) {
    GlobalSystem::SubmitOptions submit;
    submit.tenant = "t" + std::to_string(i % 2);
    ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders WHERE oid > " +
                               std::to_string(i),
                           submit)
                    .ok());
  }
  auto result = gis.Query(
      "SELECT tenant, queries, bytes_received FROM gis.tenants "
      "ORDER BY tenant");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  int64_t queries = 0;
  int64_t bytes = 0;
  for (const auto& row : result->batch.rows()) {
    queries += row[1].AsInt();
    bytes += row[2].AsInt();
  }
  const TenantUsage totals = gis.tenants().Totals();
  EXPECT_EQ(queries + 1, totals.queries);  // +1: the gis.tenants scan ran
                                           // after its own snapshot
  EXPECT_EQ(bytes, totals.bytes_received);  // the scan itself moved none
}

TEST(WorkloadIntelligenceTest, GisSloTableReflectsDefaultLadder) {
  GlobalSystem gis;
  Build(&gis);
  ASSERT_TRUE(gis.Query("SELECT COUNT(*) FROM orders").ok());
  auto result = gis.Query(
      "SELECT objective, priority, target_ms, goal, slow_total "
      "FROM gis.slo ORDER BY priority");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 3u);
  const auto& rows = result->batch.rows();
  EXPECT_EQ(rows[0][0].AsString(), "background");
  EXPECT_EQ(rows[1][0].AsString(), "normal");
  EXPECT_EQ(rows[2][0].AsString(), "interactive");
  EXPECT_DOUBLE_EQ(rows[2][2].AsDouble(), 50.0);
  // The priming query ran at normal priority.
  EXPECT_GE(rows[1][4].AsInt(), 1);
}

TEST(WorkloadIntelligenceTest, ShedSpikeShowsUpInGisIncidents) {
  PlannerOptions options;
  options.admission.enabled = true;
  options.admission.max_concurrent = 1;
  options.admission.queue_limit = 0;  // any overlap sheds immediately
  options.flight.shed_spike = 3;
  options.flight.shed_window_ms = 10'000.0;
  GlobalSystem gis(options);
  Build(&gis);

  GlobalSystem::SubmitOptions submit;
  submit.tenant = "flood";
  submit.arrival_ms = 0.0;
  // The first query occupies the only slot for its full duration; the
  // rest arrive at t=0 behind a zero-length queue and shed.
  int sheds = 0;
  for (int i = 0; i < 6; ++i) {
    auto r = gis.Submit("SELECT COUNT(*) FROM orders WHERE oid >= " +
                            std::to_string(i),
                        submit);
    if (!r.ok()) ++sheds;
  }
  ASSERT_GE(sheds, 3);
  EXPECT_GE(gis.flight_recorder().incidents_captured(), 1);

  // The shed storm can also breach the SLO ladder, so a slo_burn
  // incident may land first — filter for the spike capture.
  auto result = gis.Query(
      "SELECT id, trigger, detail, snapshot FROM gis.incidents "
      "WHERE trigger = 'shed_spike'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->batch.num_rows(), 1u);
  const auto& row = result->batch.rows()[0];
  EXPECT_EQ(row[1].AsString(), "shed_spike");
  const std::string json = row[3].AsString();
  EXPECT_NE(json.find("\"frames\""), std::string::npos);
  EXPECT_NE(json.find("\"system\""), std::string::npos);
  EXPECT_NE(json.find("\"admission\""), std::string::npos);
  // Shed frames carry the tenant that was refused.
  EXPECT_NE(json.find("flood"), std::string::npos);
  // The sheds are charged to the tenant ledger too.
  const auto rows = gis.tenants().SnapshotTenants();
  bool found = false;
  for (const auto& t : rows) {
    if (t.tenant == "flood") {
      found = true;
      EXPECT_EQ(t.sheds, sheds);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadIntelligenceTest, PrometheusCarriesTenantAndSloSeries) {
  GlobalSystem gis;
  Build(&gis);
  GlobalSystem::SubmitOptions submit;
  submit.tenant = "acme";
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", submit).ok());
  const std::string text = gis.ExportPrometheus();
  EXPECT_NE(text.find("gisql_tenant_queries_total{tenant=\"acme\"} 1"),
            std::string::npos)
      << text.substr(0, 400);
  EXPECT_NE(text.find("gisql_slo_slow_burn{objective=\"interactive\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gisql_incidents_total counter"),
            std::string::npos);
}

TEST(EscapeLabelValueTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(WorkloadIntelligenceTest, HostileTenantNameIsEscapedInExport) {
  GlobalSystem gis;
  Build(&gis);
  GlobalSystem::SubmitOptions submit;
  submit.tenant = "evil\"tenant\\x";
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", submit).ok());
  const std::string text = gis.ExportPrometheus();
  EXPECT_NE(
      text.find("gisql_tenant_queries_total{tenant=\"evil\\\"tenant\\\\x\"}"),
      std::string::npos);
}

TEST(WorkloadIntelligenceTest, HostileSourceNameIsEscapedInExport) {
  GlobalSystem gis;
  ASSERT_TRUE(gis.CreateSource("s\"1", SourceDialect::kRelational).ok());
  const std::string text = gis.ExportPrometheus();
  EXPECT_NE(text.find("gisql_bufferpool_frames{source=\"s\\\"1\"}"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("source=\"s\"1\""), std::string::npos);
}

/// The tentpole determinism property: the whole workload-intelligence
/// surface — tenant ledger, SLO evaluation, incident JSON — must render
/// byte-identically serial vs pooled under the same seeded traffic.
TEST(WorkloadIntelligenceDeterminismTest, SerialAndPooledAreIdentical) {
  auto run = [](bool parallel) {
    PlannerOptions options;
    options.parallel_execution = parallel;
    options.admission.enabled = true;
    options.admission.max_concurrent = 1;
    options.admission.queue_limit = 0;
    options.flight.shed_spike = 2;
    auto gis = std::make_unique<GlobalSystem>(options);
    Build(gis.get());
    for (int i = 0; i < 8; ++i) {
      GlobalSystem::SubmitOptions submit;
      submit.tenant = "t" + std::to_string(i % 3);
      submit.priority = i % 3;
      submit.arrival_ms = 0.0;  // flash crowd: everyone at t=0
      (void)gis->Submit("SELECT COUNT(*) FROM orders WHERE cid = " +
                            std::to_string(i % 5),
                        submit);
    }
    std::string out;
    for (const char* q :
         {"SELECT * FROM gis.tenants ORDER BY tenant",
          "SELECT * FROM gis.slo ORDER BY objective",
          "SELECT * FROM gis.incidents ORDER BY id",
          "SELECT id, sql, tenant, priority, finish_ms, shed_reason "
          "FROM gis.queries ORDER BY id"}) {
      auto r = gis->Query(q);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) out += r->batch.ToString(1 << 20);
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace gisql
