/// Million-user scenario regressions (ctest -L scenario): the seeded
/// open-loop traffic engine must replay identically, its shed rate must
/// rise monotonically in offered load, its report must reconcile with
/// the mediator's own gis.admission accounting, and streamed delivery
/// must hold the mediator's peak footprint at or below materialized
/// delivery for the same traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/global_system.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace gisql {
namespace {

WorkloadSpec SmallFederation() {
  WorkloadSpec spec;
  spec.seed = 21;
  spec.num_sites = 2;
  spec.num_customers = 50;
  spec.num_products = 20;
  spec.orders_per_site = 200;
  return spec;
}

/// A tight governor so a small scenario actually sheds: two slots, a
/// short queue, and a deadline a few service times out.
PlannerOptions TightOptions() {
  PlannerOptions options;
  options.parallel_execution = false;
  options.admission.max_concurrent = 2;
  options.admission.queue_limit = 6;
  options.admission.max_wait_ms = 40.0;
  options.cursor_max_open = 8;
  return options;
}

ScenarioSpec SmallScenario(double qps, bool streamed) {
  const WorkloadSpec fed = SmallFederation();
  ScenarioSpec spec;
  spec.seed = 2121;
  spec.base_qps = qps;
  spec.duration_ms = 2000.0;
  spec.num_tenants = 100000;
  spec.num_customers = fed.num_customers;
  spec.num_products = fed.num_products;
  spec.diurnal_amplitude = 0.3;
  spec.diurnal_period_ms = 1000.0;
  FlashCrowd crowd;
  crowd.start_ms = 800.0;
  crowd.duration_ms = 400.0;
  crowd.multiplier = 3.0;
  spec.flash_crowds.push_back(crowd);
  spec.slo_ms = 40.0;
  spec.use_cursors = streamed;
  spec.chunk_rows = 64;
  return spec;
}

ScenarioReport RunSmall(GlobalSystem* gis, double qps, bool streamed) {
  EXPECT_TRUE(BuildRetailFederation(gis, SmallFederation()).ok());
  auto report = RunScenario(gis, SmallScenario(qps, streamed));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : ScenarioReport{};
}

ScenarioReport RunSmall(double qps, bool streamed) {
  GlobalSystem gis(TightOptions());
  return RunSmall(&gis, qps, streamed);
}

TEST(ScenarioRate, ComposesDiurnalAndFlashModulation) {
  ScenarioSpec spec = SmallScenario(100.0, false);
  const double base = spec.base_qps / 1000.0;

  // t=0: sin(0) = 0 → exactly the base rate, no crowd active.
  EXPECT_NEAR(ScenarioOfferedRate(spec, 0.0), base, 1e-12);
  // Diurnal crest at a quarter period.
  EXPECT_NEAR(ScenarioOfferedRate(spec, 250.0), base * 1.3, 1e-9);
  // Diurnal trough at three quarters.
  EXPECT_NEAR(ScenarioOfferedRate(spec, 750.0), base * 0.7, 1e-9);
  // Inside the flash crowd the step multiplier compounds the sinusoid.
  const double t = 900.0;
  const double diurnal =
      1.0 + 0.3 * std::sin(2.0 * M_PI * t / spec.diurnal_period_ms);
  EXPECT_NEAR(ScenarioOfferedRate(spec, t), base * diurnal * 3.0, 1e-9);
  // The crowd's half-open window, compared at matched diurnal phase
  // (the period divides 1000 ms): active at the start instant, gone at
  // the end instant.
  EXPECT_NEAR(ScenarioOfferedRate(spec, 800.0),
              3.0 * ScenarioOfferedRate(spec, 1800.0), 1e-9);
  EXPECT_NEAR(ScenarioOfferedRate(spec, 1200.0),
              ScenarioOfferedRate(spec, 200.0), 1e-9);

  EXPECT_EQ(ScenarioTemplateCount(), 5);
}

TEST(ScenarioEngine, SameSeedReplaysIdentically) {
  const ScenarioReport a = RunSmall(60.0, /*streamed=*/true);
  const ScenarioReport b = RunSmall(60.0, /*streamed=*/true);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  EXPECT_EQ(a.total_rows, b.total_rows);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_DOUBLE_EQ(a.slo_attainment, b.slo_attainment);
}

TEST(ScenarioEngine, ShedRateRisesWithOfferedLoad) {
  const ScenarioReport light = RunSmall(20.0, /*streamed=*/false);
  const ScenarioReport heavy = RunSmall(160.0, /*streamed=*/false);

  ASSERT_GT(light.offered, 0);
  ASSERT_GT(heavy.offered, light.offered);
  EXPECT_EQ(light.failed, 0);
  EXPECT_EQ(heavy.failed, 0);

  const double light_shed =
      static_cast<double>(light.shed_queue + light.shed_deadline +
                          light.shed_memory) /
      light.offered;
  const double heavy_shed =
      static_cast<double>(heavy.shed_queue + heavy.shed_deadline +
                          heavy.shed_memory) /
      heavy.offered;
  EXPECT_GT(heavy_shed, light_shed);
  EXPECT_GT(light.slo_attainment, heavy.slo_attainment);
}

TEST(ScenarioEngine, ReportReconcilesWithAdmissionAccounting) {
  GlobalSystem gis(TightOptions());
  // 70 qps keeps the arrival count under the query log's ring capacity
  // (256) so the gis.queries cross-check below sees every entry, while
  // the 3× flash crowd still pushes the governor into shedding.
  const ScenarioReport r = RunSmall(&gis, 70.0, /*streamed=*/false);
  ASSERT_GT(r.offered, 0);
  ASSERT_GT(r.shed_queue + r.shed_deadline, 0);
  ASSERT_LT(r.offered, static_cast<int64_t>(QueryLog::kDefaultCapacity));
  EXPECT_EQ(static_cast<int64_t>(r.decisions.size()), r.offered);
  EXPECT_EQ(r.offered, r.completed + r.shed_queue + r.shed_deadline +
                           r.shed_memory + r.shed_cursor + r.failed);
  // No per-query memory cap is set, so nothing sheds on memory here and
  // the governor's counters reconcile exactly with the report.
  EXPECT_EQ(r.shed_memory, 0);
  EXPECT_EQ(gis.metrics().Get("admission.shed"),
            r.shed_queue + r.shed_deadline);
  EXPECT_EQ(gis.metrics().Get("admission.admitted"), r.completed);

  // The shed decomposition is also queryable through the system tables.
  auto shed = gis.Query(
      "SELECT COUNT(*) FROM gis.queries WHERE shed_reason <> ''");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->batch.rows()[0][0].AsInt(),
            r.shed_queue + r.shed_deadline);
}

TEST(ScenarioEngine, StreamedPeakFootprintStaysAtOrBelowMaterialized) {
  const ScenarioReport materialized = RunSmall(60.0, /*streamed=*/false);
  const ScenarioReport streamed = RunSmall(60.0, /*streamed=*/true);

  ASSERT_GT(streamed.streamed_queries, 0);
  ASSERT_GT(streamed.total_chunks, 0);
  EXPECT_EQ(streamed.failed, 0);
  EXPECT_LE(streamed.mem_peak_bytes, materialized.mem_peak_bytes);
  // Same traffic, same completions-or-sheds universe: both modes must
  // account for every arrival.
  EXPECT_EQ(streamed.offered, materialized.offered);
}

}  // namespace
}  // namespace gisql
