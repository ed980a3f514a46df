/// Circuit breakers under deterministic fault schedules: the per-source
/// machine must walk closed → open → half-open and back as a targeted
/// outage comes and goes, skips must cost zero network, and a seed must
/// replay the identical transition log and gis.sources rendering.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/global_system.h"
#include "sched/circuit_breaker.h"

namespace gisql {
namespace {

/// Serial execution keeps the per-link message sequence — the fault
/// schedule's randomness domain — independent of thread scheduling.
PlannerOptions BreakerOptions() {
  PlannerOptions options;
  options.parallel_execution = false;
  options.breaker.enabled = true;
  options.breaker.open_after = 3;
  options.breaker.cooldown_skips = 2;
  options.breaker.probe_ratio = 1.0;  // every half-open request probes
  return options;
}

/// Two full replicas behind one replicated view, replica0 planned first.
void BuildReplicated(GlobalSystem* gis) {
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
  ASSERT_TRUE(gis->CreateReplicatedView(
                     "inventory", {"inv_replica0", "inv_replica1"})
                  .ok());
  ASSERT_TRUE(gis->catalog().SetLatencyHint("replica0", 1.0).ok());
  ASSERT_TRUE(gis->catalog().SetLatencyHint("replica1", 2.0).ok());
}

class BreakerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Health-aware reordering would hide the breaker behind the suspect
    // demotion; pin plan order so the breaker alone decides.
    options_ = BreakerOptions();
    options_.health_aware_routing = false;
    gis_ = std::make_unique<GlobalSystem>(options_);
    BuildReplicated(gis_.get());
  }

  QueryMetrics Probe() {
    auto r = gis_->Query("SELECT SUM(qty) FROM inventory");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_EQ(r->batch.rows()[0][0].AsInt(), 60);
    }
    return r.ok() ? r->metrics : QueryMetrics{};
  }

  BreakerState StateOfPrimary() const {
    return gis_->governor().breakers().StateOf("replica0");
  }

  PlannerOptions options_;
  std::unique_ptr<GlobalSystem> gis_;
};

TEST_F(BreakerChaosTest, OutageWalksTheMachineAndSkipsAreFree) {
  gis_->network().SetHostDown("replica0", true);

  // Single-attempt policy: each query fails replica0 once, then serves
  // from replica1 — three failures open the breaker.
  QueryMetrics during{};
  for (int i = 0; i < 3; ++i) during = Probe();
  EXPECT_EQ(StateOfPrimary(), BreakerState::kOpen);
  // The failed attempt burned the detection timeout but sent nothing.
  EXPECT_EQ(during.messages, 1);

  // While open, the skip answers before the wire: same single message,
  // and strictly less simulated time than the detecting queries.
  const QueryMetrics skip1 = Probe();
  EXPECT_EQ(skip1.messages, 1);
  EXPECT_LT(skip1.elapsed_ms, during.elapsed_ms);
  const QueryMetrics skip2 = Probe();
  EXPECT_EQ(skip2.elapsed_ms, skip1.elapsed_ms);
  // Two skips served the cooldown: probing may resume.
  EXPECT_EQ(StateOfPrimary(), BreakerState::kHalfOpen);

  // The probe goes through, finds the host still down, and re-opens.
  const QueryMetrics probe = Probe();
  EXPECT_GT(probe.elapsed_ms, skip1.elapsed_ms);
  EXPECT_EQ(StateOfPrimary(), BreakerState::kOpen);

  // Host recovers; after the cooldown the next probe closes the
  // breaker and the primary serves again.
  gis_->network().SetHostDown("replica0", false);
  Probe();
  Probe();
  EXPECT_EQ(StateOfPrimary(), BreakerState::kHalfOpen);
  Probe();
  EXPECT_EQ(StateOfPrimary(), BreakerState::kClosed);

  const std::vector<std::string> expected = {
      "replica0: closed->open",     "replica0: open->half_open",
      "replica0: half_open->open",  "replica0: open->half_open",
      "replica0: half_open->closed"};
  EXPECT_EQ(gis_->governor().breakers().TransitionLog(), expected);

  // The walk is queryable: gis.sources carries the breaker columns.
  auto rows = gis_->Query(
      "SELECT source, breaker, breaker_skips, breaker_probes, "
      "breaker_transitions FROM gis.sources ORDER BY source");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->batch.num_rows(), 2u);
  EXPECT_EQ(rows->batch.rows()[0][0].AsString(), "replica0");
  EXPECT_EQ(rows->batch.rows()[0][1].AsString(), "closed");
  EXPECT_EQ(rows->batch.rows()[0][2].AsInt(), 4);
  EXPECT_EQ(rows->batch.rows()[0][4].AsInt(), 5);
  EXPECT_EQ(rows->batch.rows()[1][1].AsString(), "closed");
  EXPECT_EQ(rows->batch.rows()[1][3].AsInt(), 0);
}

TEST_F(BreakerChaosTest, InjectedDropStreakOpensViaHealthPipeline) {
  // The breaker consumes the health tracker's attempt stream, so a
  // FaultSchedule drop streak (not just a down host) must open it too.
  gis_->set_retry_policy(RetryPolicy::Standard(4, /*seed=*/3));
  gis_->network().InstallFaults(/*seed=*/3, FaultProfile{});
  gis_->network().faults()->InjectOn("replica0", /*opcode=*/-1,
                                     FaultKind::kDrop, 4);
  Probe();  // four dropped attempts: streak past open_after
  EXPECT_EQ(StateOfPrimary(), BreakerState::kOpen);
  EXPECT_GT(gis_->governor().breakers().TotalTransitions(), 0);
}

TEST(BreakerDeterminismTest, SameSeedReplaysTransitionsAndRendering) {
  auto run = [](uint64_t seed) {
    PlannerOptions options = BreakerOptions();
    options.breaker.seed = seed;
    GlobalSystem gis(options);
    BuildReplicated(&gis);
    gis.set_retry_policy(RetryPolicy::Standard(3, seed));
    gis.network().InstallFaults(seed, FaultProfile::Chaos(0.6));
    for (int i = 0; i < 12; ++i) {
      (void)gis.Query("SELECT SUM(qty) FROM inventory");
      (void)gis.Query("SELECT qty FROM inventory WHERE id = 2");
    }
    std::string out;
    for (const auto& line : gis.governor().breakers().TransitionLog()) {
      out += line + "\n";
    }
    auto rows = gis.Query("SELECT * FROM gis.sources ORDER BY source");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) out += rows->batch.ToString(1 << 20);
    auto admission = gis.Query("SELECT * FROM gis.admission");
    EXPECT_TRUE(admission.ok()) << admission.status().ToString();
    if (admission.ok()) out += admission->batch.ToString(1 << 20);
    return out;
  };
  const std::string a = run(21);
  EXPECT_EQ(a, run(21));
  EXPECT_FALSE(a.empty());
  // A different seed is allowed to (and here does) tell another story;
  // the point is that each seed tells exactly one.
  EXPECT_NE(run(22), a);
}

}  // namespace
}  // namespace gisql
