/// Resource-governor tests: the admission controller's slot/queue/
/// deadline/shed matrix, per-query memory budgets aborting hostile
/// queries, circuit-breaker state walks, health-aware replica routing,
/// the GISQL_* env knobs, and the schedule-independence differentials
/// over admission decisions and the gis.admission rendering.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/global_system.h"
#include "sched/admission.h"
#include "sched/circuit_breaker.h"
#include "sched/memory_budget.h"

namespace gisql {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController unit matrix
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, FreeSlotAdmitsAtArrival) {
  AdmissionController ac;
  AdmissionRequest req;
  req.arrival_ms = 5.0;
  const AdmissionDecision d = ac.Admit(req);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, ShedReason::kNone);
  EXPECT_EQ(d.wait_ms, 0.0);
  EXPECT_EQ(d.start_ms, 5.0);
  EXPECT_NE(d.ticket, 0u);
  EXPECT_EQ(ac.Stats().in_flight, 1);
  ac.Release(d.ticket, 15.0);
  EXPECT_EQ(ac.Stats().in_flight, 0);
}

TEST(AdmissionControllerTest, NonPositiveSlotCountActsAsOneSlot) {
  // With no slot, a full house would read the release times at a
  // negative rank; the controller runs one slot instead.
  for (const int slots : {0, -2}) {
    AdmissionConfig cfg;
    cfg.max_concurrent = slots;
    cfg.max_wait_ms = 1e9;
    AdmissionController ac(cfg);
    EXPECT_EQ(ac.config().max_concurrent, 1) << slots;
    const AdmissionDecision a = ac.Admit(AdmissionRequest{});
    ASSERT_TRUE(a.admitted) << slots;
    EXPECT_EQ(a.wait_ms, 0.0) << slots;
    ac.Release(a.ticket, 100.0);
    const AdmissionDecision b = ac.Admit(AdmissionRequest{});
    ASSERT_TRUE(b.admitted) << slots;
    EXPECT_EQ(b.start_ms, 100.0) << slots;  // waits for the one slot
  }
}

TEST(AdmissionControllerTest, WorkedExampleTwoSlots) {
  // Capacity 2, arrivals 0/1/2/3, every query runs 100 ms: textbook
  // starts are 0, 1, 100 (first release), 101 (second release).
  AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_wait_ms = 1e9;
  AdmissionController ac(cfg);

  auto admit = [&](double arrival) {
    AdmissionRequest req;
    req.arrival_ms = arrival;
    return ac.Admit(req);
  };
  const AdmissionDecision a = admit(0.0);
  const AdmissionDecision b = admit(1.0);
  EXPECT_EQ(a.start_ms, 0.0);
  EXPECT_EQ(b.start_ms, 1.0);
  ac.Release(a.ticket, a.start_ms + 100.0);
  ac.Release(b.ticket, b.start_ms + 100.0);

  const AdmissionDecision c = admit(2.0);
  EXPECT_TRUE(c.admitted);
  EXPECT_EQ(c.start_ms, 100.0);  // takes a's slot the moment it frees
  EXPECT_EQ(c.wait_ms, 98.0);
  ac.Release(c.ticket, c.start_ms + 100.0);

  const AdmissionDecision d = admit(3.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.start_ms, 101.0);  // b's slot; c already claimed a's
  EXPECT_EQ(d.wait_ms, 98.0);

  const AdmissionStats stats = ac.Stats();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.queued, 2);
  EXPECT_EQ(stats.total_wait_ms, 196.0);
}

TEST(AdmissionControllerTest, DeadlineBalksAtAdmission) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_wait_ms = 50.0;
  AdmissionController ac(cfg);

  AdmissionRequest first;
  first.arrival_ms = 0.0;
  const AdmissionDecision a = ac.Admit(first);
  ac.Release(a.ticket, 200.0);

  // Would wait 199 ms > the 50 ms default deadline: shed, zero cost.
  AdmissionRequest late;
  late.arrival_ms = 1.0;
  const AdmissionDecision b = ac.Admit(late);
  EXPECT_FALSE(b.admitted);
  EXPECT_EQ(b.reason, ShedReason::kDeadline);
  EXPECT_EQ(b.wait_ms, 199.0);

  // A per-request override can stretch the deadline past the wait.
  AdmissionRequest patient;
  patient.arrival_ms = 1.0;
  patient.max_wait_ms = 500.0;
  const AdmissionDecision c = ac.Admit(patient);
  EXPECT_TRUE(c.admitted);
  EXPECT_EQ(c.start_ms, 200.0);

  const AdmissionStats stats = ac.Stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.admitted, 2);
}

TEST(AdmissionControllerTest, UnreleasedSlotPinsWaitAtInfinity) {
  // A slot still in flight (wall-clock concurrency) has no known
  // release: the conservative wait is infinite, so any deadline sheds.
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  AdmissionController ac(cfg);
  AdmissionRequest req;
  req.arrival_ms = 0.0;
  const AdmissionDecision a = ac.Admit(req);
  ASSERT_TRUE(a.admitted);

  AdmissionRequest next;
  next.arrival_ms = 0.0;
  const AdmissionDecision b = ac.Admit(next);
  EXPECT_FALSE(b.admitted);
  EXPECT_EQ(b.reason, ShedReason::kDeadline);
  ac.Release(a.ticket, 1.0);
}

TEST(AdmissionControllerTest, PriorityWatermarksShareOneQueue) {
  // queue_limit 4 → class thresholds: background 2, normal 3 (floor of
  // 4·0.8), interactive 4. Stack up exactly two queued queries, then
  // probe each class at the same arrival instant.
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.queue_limit = 4;
  cfg.max_wait_ms = 1e9;
  AdmissionController ac(cfg);

  AdmissionRequest req;
  req.arrival_ms = 0.0;
  const AdmissionDecision running = ac.Admit(req);
  ac.Release(running.ticket, 100.0);
  for (int i = 0; i < 2; ++i) {
    AdmissionRequest waiter;
    waiter.arrival_ms = 1.0;
    const AdmissionDecision d = ac.Admit(waiter);
    ASSERT_TRUE(d.admitted);
    ASSERT_GT(d.wait_ms, 0.0);
    ac.Release(d.ticket, d.start_ms + 100.0);
  }

  AdmissionRequest background;
  background.arrival_ms = 2.0;
  background.priority = 0;
  const AdmissionDecision bg = ac.Admit(background);
  EXPECT_FALSE(bg.admitted);
  EXPECT_EQ(bg.reason, ShedReason::kQueueFull);
  EXPECT_EQ(bg.queued_ahead, 2);

  AdmissionRequest normal;
  normal.arrival_ms = 2.0;
  normal.priority = 1;
  const AdmissionDecision nm = ac.Admit(normal);
  EXPECT_TRUE(nm.admitted);
  // Release it (an unreleased slot pins later waits at infinity, which
  // would deadline-shed the interactive probe below).
  ac.Release(nm.ticket, nm.start_ms + 100.0);

  // Three queued now: normal class is at its watermark too, but
  // interactive still enters until the queue is truly full.
  AdmissionRequest normal2;
  normal2.arrival_ms = 2.0;
  const AdmissionDecision nm2 = ac.Admit(normal2);
  EXPECT_FALSE(nm2.admitted);
  EXPECT_EQ(nm2.reason, ShedReason::kQueueFull);

  AdmissionRequest interactive;
  interactive.arrival_ms = 2.0;
  interactive.priority = 2;
  const AdmissionDecision it = ac.Admit(interactive);
  EXPECT_TRUE(it.admitted);

  const AdmissionStats stats = ac.Stats();
  EXPECT_EQ(stats.shed_queue_full, 2);
  EXPECT_EQ(stats.queued, 4);
}

TEST(AdmissionControllerTest, SameScheduleReplaysIdentically) {
  auto run = [] {
    AdmissionConfig cfg;
    cfg.max_concurrent = 2;
    cfg.queue_limit = 3;
    cfg.max_wait_ms = 40.0;
    AdmissionController ac(cfg);
    std::string out;
    for (int i = 0; i < 12; ++i) {
      AdmissionRequest req;
      req.arrival_ms = i * 7.0;
      req.priority = i % 3;
      const AdmissionDecision d = ac.Admit(req);
      out += (d.admitted ? "A" : "S") + std::to_string(d.start_ms) + "/" +
             std::to_string(d.wait_ms) + ";";
      if (d.admitted) ac.Release(d.ticket, d.start_ms + 25.0);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// MemoryBudget unit tests
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, GrantAccumulatesAndReleasesOnDestruction) {
  MemoryBudget budget;
  budget.Configure(/*query_cap_bytes=*/1000, /*global_cap_bytes=*/10000);
  {
    MemoryGrant grant = budget.NewGrant();
    EXPECT_TRUE(grant.Charge(400, "a join hash table").ok());
    EXPECT_TRUE(grant.Charge(500, "a sort buffer").ok());
    EXPECT_EQ(grant.used(), 900);
    EXPECT_EQ(budget.in_use(), 900);
    EXPECT_EQ(budget.peak(), 900);
  }
  EXPECT_EQ(budget.in_use(), 0);
  EXPECT_EQ(budget.peak(), 900);  // the watermark survives the release
}

TEST(MemoryBudgetTest, QueryCapOverloadsWithActionableMessage) {
  MemoryBudget budget;
  budget.Configure(1000, 10000);
  MemoryGrant grant = budget.NewGrant();
  EXPECT_TRUE(grant.Charge(800, "a fragment result").ok());
  const Status st = grant.Charge(300, "a join hash table");
  EXPECT_TRUE(st.IsOverloaded()) << st.ToString();
  EXPECT_NE(st.message().find("GISQL_QUERY_MEM_BYTES"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("a join hash table"), std::string::npos);
}

TEST(MemoryBudgetTest, GlobalCapSharedAcrossGrants) {
  MemoryBudget budget;
  budget.Configure(/*query_cap_bytes=*/5000, /*global_cap_bytes=*/1200);
  MemoryGrant a = budget.NewGrant();
  MemoryGrant b = budget.NewGrant();
  EXPECT_TRUE(a.Charge(700, "a fragment result").ok());
  const Status st = b.Charge(600, "an aggregate result");
  EXPECT_TRUE(st.IsOverloaded()) << st.ToString();
  EXPECT_NE(st.message().find("GISQL_MEDIATOR_MEM_BYTES"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// CircuitBreakerRegistry unit walk
// ---------------------------------------------------------------------------

BreakerConfig TightBreaker() {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.open_after = 3;
  cfg.cooldown_skips = 2;
  cfg.probe_ratio = 1.0;  // every half-open request probes
  return cfg;
}

TEST(CircuitBreakerTest, WalksClosedOpenHalfOpenClosed) {
  CircuitBreakerRegistry reg(TightBreaker());
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kClosed);
  EXPECT_FALSE(reg.ShouldSkip("s"));

  for (int i = 0; i < 3; ++i) reg.OnSourceOutcome("s", /*ok=*/false);
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kOpen);

  // Two skips serve the cooldown; both answer without the wire.
  EXPECT_TRUE(reg.ShouldSkip("s"));
  EXPECT_TRUE(reg.ShouldSkip("s"));
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kHalfOpen);

  // probe_ratio 1.0: the next request goes through as a probe...
  EXPECT_FALSE(reg.ShouldSkip("s"));
  // ...and its failure slams the breaker shut again.
  reg.OnSourceOutcome("s", false);
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kOpen);

  EXPECT_TRUE(reg.ShouldSkip("s"));
  EXPECT_TRUE(reg.ShouldSkip("s"));
  EXPECT_FALSE(reg.ShouldSkip("s"));
  reg.OnSourceOutcome("s", true);
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kClosed);

  const std::vector<std::string> expected = {
      "s: closed->open",     "s: open->half_open", "s: half_open->open",
      "s: open->half_open",  "s: half_open->closed"};
  EXPECT_EQ(reg.TransitionLog(), expected);
  const BreakerSnapshot snap = reg.SnapshotOf("s");
  EXPECT_EQ(snap.skips, 4);
  EXPECT_EQ(snap.probes, 2);
  EXPECT_EQ(snap.transitions, 5);
}

TEST(CircuitBreakerTest, DisabledRegistryNeverSkips) {
  BreakerConfig cfg = TightBreaker();
  cfg.enabled = false;
  CircuitBreakerRegistry reg(cfg);
  for (int i = 0; i < 10; ++i) reg.OnSourceOutcome("s", false);
  EXPECT_FALSE(reg.ShouldSkip("s"));
  EXPECT_EQ(reg.TotalSkips(), 0);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreakerRegistry reg(TightBreaker());
  reg.OnSourceOutcome("s", false);
  reg.OnSourceOutcome("s", false);
  reg.OnSourceOutcome("s", true);  // streak broken before open_after
  reg.OnSourceOutcome("s", false);
  reg.OnSourceOutcome("s", false);
  EXPECT_EQ(reg.StateOf("s"), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// GlobalSystem integration
// ---------------------------------------------------------------------------

/// Two-source federation; `big_rows` sizes the hq table for the memory
/// tests.
void Build(GlobalSystem* gis, int big_rows = 40) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE orders (oid bigint, cid bigint, "
                    "total double)")
                  .ok());
  for (int base = 0; base < big_rows; base += 200) {
    std::string insert = "INSERT INTO orders VALUES ";
    const int hi = std::min(base + 200, big_rows);
    for (int i = base; i < hi; ++i) {
      if (i > base) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 8) +
                ", " + std::to_string(i * 2.5) + ")";
    }
    ASSERT_TRUE(hq->ExecuteLocalSql(insert).ok());
  }
  auto branch = *gis->CreateSource("branch", SourceDialect::kDocument);
  ASSERT_TRUE(branch->ExecuteLocalSql(
                    "CREATE TABLE clients (cid bigint, name varchar)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(branch->ExecuteLocalSql(
                      "INSERT INTO clients VALUES (" + std::to_string(i) +
                      ", 'c" + std::to_string(i) + "')")
                    .ok());
  }
  ASSERT_TRUE(gis->ImportSource("hq").ok());
  ASSERT_TRUE(gis->ImportSource("branch").ok());
}

TEST(AdmissionSystemTest, ClosedLoopTrafficNeverQueuesOrSheds) {
  GlobalSystem gis;  // admission.enabled defaults on
  Build(&gis);
  for (int i = 0; i < 5; ++i) {
    auto r = gis.Query("SELECT COUNT(*) FROM orders WHERE oid > " +
                       std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->metrics.admission_wait_ms, 0.0);
  }
  auto snap = gis.Query(
      "SELECT admitted, queued, shed_queue_full, shed_deadline, "
      "shed_memory_budget, in_flight, total_wait_ms FROM gis.admission");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const auto& row = snap->batch.rows()[0];
  EXPECT_EQ(row[0].AsInt(), 6);  // five queries + this scan
  EXPECT_EQ(row[1].AsInt(), 0);
  EXPECT_EQ(row[2].AsInt(), 0);
  EXPECT_EQ(row[3].AsInt(), 0);
  EXPECT_EQ(row[4].AsInt(), 0);
  EXPECT_EQ(row[5].AsInt(), 1);  // the scan itself holds a slot
  EXPECT_EQ(row[6].AsDouble(), 0.0);
}

TEST(AdmissionSystemTest, OpenLoopBurstQueuesThenSheds) {
  PlannerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_limit = 4;   // normal-class watermark: 3
  options.admission.max_wait_ms = 1e9;
  GlobalSystem gis(options);
  Build(&gis);

  // Same instant, one slot: the first runs, the next three queue, the
  // ones after that find the queue at its class watermark.
  int admitted = 0, shed = 0;
  double max_wait = 0.0;
  for (int i = 0; i < 6; ++i) {
    GlobalSystem::SubmitOptions submit;
    submit.arrival_ms = 0.0;
    auto r = gis.Submit("SELECT COUNT(*) FROM orders WHERE oid > " +
                            std::to_string(i),
                        submit);
    if (r.ok()) {
      ++admitted;
      max_wait = std::max(max_wait, r->metrics.admission_wait_ms);
    } else {
      ASSERT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("wait queue is full"),
                std::string::npos)
          << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 2);
  EXPECT_GT(max_wait, 0.0);

  // Shed queries appear in gis.queries with their reason and no
  // traffic; executed ones carry their queue wait.
  auto log = gis.Query(
      "SELECT shed_reason, messages, admission_wait_ms FROM gis.queries "
      "ORDER BY id");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  int shed_rows = 0;
  for (const auto& row : log->batch.rows()) {
    if (row[0].AsString() == "queue_full") {
      ++shed_rows;
      EXPECT_EQ(row[1].AsInt(), 0);
    }
  }
  EXPECT_EQ(shed_rows, 2);
}

TEST(AdmissionSystemTest, DeadlineShedsWhenWaitUnmeetable) {
  PlannerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_wait_ms = 0.01;  // any queueing busts it
  GlobalSystem gis(options);
  Build(&gis);

  GlobalSystem::SubmitOptions at_zero;
  at_zero.arrival_ms = 0.0;
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", at_zero).ok());
  auto r = gis.Submit("SELECT COUNT(*) FROM clients", at_zero);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos)
      << r.status().ToString();

  // After the backlog drains (virtual clock), the same query runs.
  auto later = gis.Query("SELECT COUNT(*) FROM clients");
  EXPECT_TRUE(later.ok()) << later.status().ToString();
}

TEST(AdmissionSystemTest, NonPositiveMaxConcurrentStillRunsQueries) {
  for (const int slots : {0, -2}) {
    PlannerOptions options;
    options.admission.max_concurrent = slots;
    GlobalSystem gis(options);
    Build(&gis);
    auto r = gis.Query("SELECT COUNT(*) FROM clients");
    ASSERT_TRUE(r.ok()) << slots << ": " << r.status().ToString();
    EXPECT_EQ(r->batch.rows()[0][0].AsInt(), 8) << slots;
  }
}

TEST(AdmissionSystemTest, HostileQueryFailsOnMemoryBudget) {
  PlannerOptions options;
  options.memory.query_bytes = 100 * 1000;  // ~1250 wide rows
  GlobalSystem gis(options);
  Build(&gis, /*big_rows=*/3000);

  // Materializing 3000 rows costs ~3000·(32+24·3) bytes, over budget.
  auto r = gis.Query("SELECT oid, cid, total FROM orders");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos)
      << r.status().ToString();

  // The grant died with the query: nothing outstanding beyond the
  // sources' resident buffer-pool frames, and small queries still run.
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  auto ok = gis.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  auto snap = gis.Query(
      "SELECT shed_memory_budget, mem_peak_bytes FROM gis.admission");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->batch.rows()[0][0].AsInt(), 1);
  EXPECT_GT(snap->batch.rows()[0][1].AsInt(), 0);

  auto log = gis.Query(
      "SELECT sql FROM gis.queries WHERE shed_reason = 'memory_budget'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->batch.num_rows(), 1u);
}

TEST(AdmissionSystemTest, GovernorOffBypassesAdmissionEntirely) {
  PlannerOptions options;
  options.admission.enabled = false;
  options.admission.max_concurrent = 1;
  GlobalSystem gis(options);
  Build(&gis);
  // Every burst query runs: nothing sheds without the governor.
  for (int i = 0; i < 4; ++i) {
    GlobalSystem::SubmitOptions submit;
    submit.arrival_ms = 0.0;
    EXPECT_TRUE(gis.Submit("SELECT COUNT(*) FROM orders", submit).ok());
  }
  auto snap = gis.Query("SELECT admitted FROM gis.admission");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->batch.rows()[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Health-aware replica routing (the failover-reorder satellite)
// ---------------------------------------------------------------------------

class RoutingTest : public ::testing::Test {
 protected:
  void SetUpSystem(GlobalSystem* gis) {
    for (int i = 0; i < 2; ++i) {
      const std::string name = "replica" + std::to_string(i);
      auto src = *gis->CreateSource(name, SourceDialect::kRelational);
      ASSERT_TRUE(
          src->ExecuteLocalSql("CREATE TABLE inv (id bigint, qty bigint)")
              .ok());
      ASSERT_TRUE(src->ExecuteLocalSql(
                        "INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30)")
                      .ok());
      ASSERT_TRUE(gis->ImportTable(name, "inv", "inv_" + name).ok());
    }
    ASSERT_TRUE(
        gis->CreateReplicatedView("inventory", {"inv_replica0",
                                                "inv_replica1"})
            .ok());
    // Make replica0 the planned primary regardless of cost noise.
    ASSERT_TRUE(gis->catalog().SetLatencyHint("replica0", 1.0).ok());
    ASSERT_TRUE(gis->catalog().SetLatencyHint("replica1", 2.0).ok());
  }

  /// Downs the primary, burns one query to push its streak past the
  /// suspect threshold, then measures the *next* query.
  QueryMetrics MeasureAfterDetection(bool health_aware) {
    PlannerOptions options;
    options.health_aware_routing = health_aware;
    GlobalSystem gis(options);
    SetUpSystem(&gis);
    gis.set_retry_policy(RetryPolicy::Standard(6, /*seed=*/3));
    gis.network().SetHostDown("replica0", true);
    auto detect = gis.Query("SELECT SUM(qty) FROM inventory");
    EXPECT_TRUE(detect.ok()) << detect.status().ToString();
    EXPECT_EQ(gis.health().StateOf("replica0"),
              SourceHealthState::kSuspect);
    auto measured = gis.Query("SELECT qty FROM inventory WHERE id = 2");
    EXPECT_TRUE(measured.ok()) << measured.status().ToString();
    EXPECT_EQ(measured->batch.rows()[0][0].AsInt(), 20);
    return measured->metrics;
  }
};

TEST_F(RoutingTest, SuspectPrimaryIsTriedAfterHealthyReplica) {
  const QueryMetrics routed = MeasureAfterDetection(/*health_aware=*/true);
  const QueryMetrics blind = MeasureAfterDetection(/*health_aware=*/false);
  // Attempts against a down host send no messages either way; the
  // saving is the detection-timeout burn the reorder avoids.
  EXPECT_EQ(routed.messages, 1);
  EXPECT_EQ(blind.messages, 1);
  EXPECT_LT(routed.elapsed_ms, blind.elapsed_ms);
  EXPECT_EQ(routed.retries, 0);  // healthy replica answered first try
  EXPECT_GT(blind.retries, 0);   // full retry budget burned on primary
}

TEST_F(RoutingTest, HealthyCandidatesKeepPlanOrder) {
  GlobalSystem gis;
  SetUpSystem(&gis);
  // All healthy: routing must not disturb the cost-chosen primary.
  auto r = gis.Query("SELECT SUM(qty) FROM inventory");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.messages, 1);
  const auto s0 = gis.health().SnapshotOf("replica0");
  EXPECT_GT(s0.requests, 0);  // import traffic plus the fragment
  EXPECT_EQ(gis.health().SnapshotOf("replica1").errors, 0);
}

// ---------------------------------------------------------------------------
// Env knobs
// ---------------------------------------------------------------------------

TEST(PlannerOptionsEnvTest, FromEnvParsesCleanValuesAndKeepsDefaults) {
  setenv("GISQL_MAX_CONCURRENT", "3", 1);
  setenv("GISQL_ADMISSION_WAIT_MS", "250.5", 1);
  setenv("GISQL_CIRCUIT_BREAKER", "on", 1);
  setenv("GISQL_ADMISSION_CONTROL", "off", 1);
  setenv("GISQL_QUERY_MEM_BYTES", "12MB", 1);  // dirty: ignored
  setenv("GISQL_BREAKER_SEED", "99", 1);
  const PlannerOptions o = PlannerOptions::FromEnv();
  unsetenv("GISQL_MAX_CONCURRENT");
  unsetenv("GISQL_ADMISSION_WAIT_MS");
  unsetenv("GISQL_CIRCUIT_BREAKER");
  unsetenv("GISQL_ADMISSION_CONTROL");
  unsetenv("GISQL_QUERY_MEM_BYTES");
  unsetenv("GISQL_BREAKER_SEED");

  EXPECT_EQ(o.admission.max_concurrent, 3);
  EXPECT_EQ(o.admission.max_wait_ms, 250.5);
  EXPECT_TRUE(o.breaker.enabled);
  EXPECT_FALSE(o.admission.enabled);
  EXPECT_EQ(o.breaker.seed, 99u);
  EXPECT_EQ(o.memory.query_bytes, PlannerOptions().memory.query_bytes)
      << "a malformed value must leave the compiled-in default intact";
}

TEST(PlannerOptionsEnvTest, OutOfRangeValuesKeepDefaults) {
  // 2^32 + 3 must not narrow to 3 in an int knob, and a value past
  // int64 (strtoll's ERANGE) must not saturate into the field.
  setenv("GISQL_MAX_CONCURRENT", "4294967299", 1);
  setenv("GISQL_ADMISSION_QUEUE", "-4294967296", 1);
  setenv("GISQL_QUERY_MEM_BYTES", "99999999999999999999", 1);
  setenv("GISQL_BREAKER_SEED", "-1", 1);
  setenv("GISQL_ADMISSION_WAIT_MS", "1e999", 1);
  const PlannerOptions o = PlannerOptions::FromEnv();
  unsetenv("GISQL_MAX_CONCURRENT");
  unsetenv("GISQL_ADMISSION_QUEUE");
  unsetenv("GISQL_QUERY_MEM_BYTES");
  unsetenv("GISQL_BREAKER_SEED");
  unsetenv("GISQL_ADMISSION_WAIT_MS");

  const PlannerOptions d;
  EXPECT_EQ(o.admission.max_concurrent, d.admission.max_concurrent);
  EXPECT_EQ(o.admission.queue_limit, d.admission.queue_limit);
  EXPECT_EQ(o.memory.query_bytes, d.memory.query_bytes);
  EXPECT_EQ(o.breaker.seed, d.breaker.seed);
  EXPECT_EQ(o.admission.max_wait_ms, d.admission.max_wait_ms);
}

TEST(PlannerOptionsEnvTest, NonPositiveMaxConcurrentKeepsDefault) {
  for (const char* text : {"0", "-2"}) {
    setenv("GISQL_MAX_CONCURRENT", text, 1);
    const PlannerOptions o = PlannerOptions::FromEnv();
    unsetenv("GISQL_MAX_CONCURRENT");
    EXPECT_EQ(o.admission.max_concurrent, AdmissionConfig().max_concurrent)
        << text;
    GlobalSystem gis(o);
    Build(&gis);
    auto r = gis.Submit("SELECT COUNT(*) FROM clients", {});
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  }
}

TEST(PlannerOptionsEnvTest, NonPositiveCursorAndTxnSizesKeepDefaults) {
  const char* const kNames[] = {"GISQL_CURSOR_CHUNK_ROWS",
                                "GISQL_CURSOR_MAX_OPEN",
                                "GISQL_TXN_MAX_ACTIVE"};
  for (const char* text : {"0", "-5"}) {
    for (const char* name : kNames) setenv(name, text, 1);
    const PlannerOptions o = PlannerOptions::FromEnv();
    for (const char* name : kNames) unsetenv(name);
    const PlannerOptions d;
    EXPECT_EQ(o.cursor_chunk_rows, d.cursor_chunk_rows) << text;
    EXPECT_EQ(o.cursor_max_open, d.cursor_max_open) << text;
    EXPECT_EQ(o.txn_max_active, d.txn_max_active) << text;
    // The run still opens and drains a cursor and begins a transaction.
    GlobalSystem gis(o);
    Build(&gis);
    auto cursor = gis.OpenCursor("SELECT cid FROM clients");
    ASSERT_TRUE(cursor.ok()) << text << ": " << cursor.status().ToString();
    auto chunk = gis.FetchChunk(*cursor);
    ASSERT_TRUE(chunk.ok()) << text << ": " << chunk.status().ToString();
    EXPECT_EQ(chunk->batch.num_rows(), 8u) << text;
    auto txn = gis.BeginTransaction();
    EXPECT_TRUE(txn.ok()) << text << ": " << txn.status().ToString();
  }
}

TEST(PlannerOptionsEnvTest, NegativeCursorLeaseKeepsDefault) {
  setenv("GISQL_CURSOR_LEASE_MS", "-5", 1);
  const PlannerOptions o = PlannerOptions::FromEnv();
  setenv("GISQL_CURSOR_LEASE_MS", "0", 1);
  const PlannerOptions zero = PlannerOptions::FromEnv();
  unsetenv("GISQL_CURSOR_LEASE_MS");
  EXPECT_DOUBLE_EQ(o.cursor_lease_ms, 30000.0);
  EXPECT_DOUBLE_EQ(zero.cursor_lease_ms, 0.0);  // a zero lease is a setting
  // A negative lease used to expire every cursor before its first fetch.
  GlobalSystem gis(o);
  Build(&gis);
  auto cursor = gis.OpenCursor("SELECT cid FROM clients");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto chunk = gis.FetchChunk(*cursor);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->batch.num_rows(), 8u);
}

// ---------------------------------------------------------------------------
// Schedule independence
// ---------------------------------------------------------------------------

TEST(AdmissionDeterminismTest, SerialAndPooledDecisionsAreIdentical) {
  // Single-fragment queries cost the same simulated time under serial
  // and pooled execution, so the whole decision trace — including the
  // gis.admission and gis.queries renderings — must match byte for
  // byte across executor modes.
  auto run = [](bool parallel) {
    PlannerOptions options;
    options.parallel_execution = parallel;
    options.admission.max_concurrent = 1;
    options.admission.queue_limit = 4;
    options.admission.max_wait_ms = 60.0;
    auto gis = std::make_unique<GlobalSystem>(options);
    Build(gis.get());
    std::string out;
    for (int i = 0; i < 8; ++i) {
      GlobalSystem::SubmitOptions submit;
      submit.arrival_ms = i * 5.0;
      submit.priority = i % 3;
      auto r = gis->Submit("SELECT COUNT(*) FROM orders WHERE cid = " +
                               std::to_string(i % 4),
                           submit);
      out += r.ok() ? "admit wait=" + std::to_string(
                                          r->metrics.admission_wait_ms)
                    : "shed: " + r.status().ToString();
      out += "\n";
    }
    for (const char* q :
         {"SELECT * FROM gis.admission",
          "SELECT id, sql, messages, shed_reason, admission_wait_ms "
          "FROM gis.queries ORDER BY id"}) {
      auto r = gis->Query(q);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) out += r->batch.ToString(1 << 20);
    }
    return out;
  };
  const std::string serial = run(false);
  EXPECT_EQ(serial, run(true));
  EXPECT_NE(serial.find("shed"), std::string::npos)
      << "the schedule must actually exercise shedding:\n" << serial;
}

TEST(AdmissionDeterminismTest, PooledRunsReplayIdentically) {
  // Multi-fragment queries under the worker pool: thread timing varies
  // wall-clock-wise, but admission consumes only simulated quantities.
  auto run = [] {
    PlannerOptions options;
    options.parallel_execution = true;
    options.admission.max_concurrent = 2;
    options.admission.queue_limit = 3;
    options.admission.max_wait_ms = 120.0;
    auto gis = std::make_unique<GlobalSystem>(options);
    Build(gis.get());
    std::string out;
    for (int i = 0; i < 10; ++i) {
      GlobalSystem::SubmitOptions submit;
      submit.arrival_ms = i * 3.0;
      auto r = gis->Submit(
          "SELECT total FROM orders JOIN clients ON orders.cid = "
          "clients.cid WHERE oid < " + std::to_string(8 + i) +
          " ORDER BY oid",
          submit);
      out += r.ok() ? "admit wait=" +
                          std::to_string(r->metrics.admission_wait_ms)
                    : "shed: " + r.status().ToString();
      out += "\n";
    }
    auto snap = gis->Query("SELECT * FROM gis.admission");
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (snap.ok()) out += snap->batch.ToString(1 << 20);
    return out;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gisql
