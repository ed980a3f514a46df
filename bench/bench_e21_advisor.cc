/// \file bench_e21_advisor.cc
/// \brief E21: the self-driving mediator closing the observe→act loop.
///
/// A retail federation whose product catalog sits behind a slow WAN
/// link absorbs an open-loop workload that *shifts* mid-run: the
/// product-lookup template, lukewarm at first, becomes the hottest
/// query on the wire. The run compares advisor-off against advisor-on
/// over the identical seeded arrival sequence:
///
///   1. With the advisor on, the hot template is detected from query
///      fingerprints, its base table is replicated off the slow site,
///      and placement hints steer routing to the replica — the
///      converged tail p95 must come out strictly better than the
///      advisor-off run's.
///   2. The decision log is part of the experiment's output: replaying
///      the same seed (serial or pooled) must reproduce it
///      byte-for-byte, or the "self-driving" loop is not deterministic.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "workload/generator.h"
#include "workload/scenario.h"

using namespace gisql;
using namespace gisql::bench;

namespace {

constexpr uint64_t kSeed = 21;

WorkloadSpec FederationSpec() {
  WorkloadSpec spec;
  spec.seed = kSeed;
  spec.num_sites = 2;
  spec.num_customers = Scaled(300, 60);
  spec.num_products = Scaled(80, 20);
  spec.orders_per_site = Scaled(1200, 150);
  return spec;
}

ScenarioSpec MakeScenario() {
  const WorkloadSpec fed = FederationSpec();
  ScenarioSpec spec;
  spec.seed = kSeed;
  spec.num_customers = fed.num_customers;
  spec.num_products = fed.num_products;
  spec.num_tenants = Scaled(int64_t{100000}, int64_t{2000});
  spec.tenant_zipf_theta = 0.99;
  // Steep template skew so "hottest" is unambiguous: rank 0 draws
  // roughly 46% of arrivals, rank 1 roughly 22%.
  spec.template_zipf_theta = 1.1;
  spec.base_qps = 40.0;
  spec.duration_ms = Scaled(6000.0, 3000.0);
  spec.slo_ms = 60.0;

  // Mid-run shift: product-lookup (rank 1) swaps popularity with the
  // former favorite — the advisor has to chase a moving target.
  spec.template_shift_ms = Scaled(2000.0, 800.0);
  spec.template_shift_rank = 1;
  // Converged tail: arrivals late enough that an adaptive policy had
  // time to act on the shift.
  spec.report_tail_from_ms = Scaled(3500.0, 2000.0);
  return spec;
}

PlannerOptions BaseOptions(bool advisor_on, bool pooled) {
  PlannerOptions options;
  options.parallel_execution = pooled;
  options.admission.max_concurrent = 8;
  options.admission.queue_limit = 64;
  options.admission.max_wait_ms = 500.0;
  options.advisor.enabled = advisor_on;
  options.advisor.interval_ms = 100.0;
  options.advisor.window_ms = 1000.0;
  options.advisor.hot_threshold = 14;
  options.advisor.min_gain_ms = 1.0;
  return options;
}

struct RunOutput {
  ScenarioReport report;
  std::string decision_log;
  int64_t materializations = 0;
  int64_t placements = 0;
  int64_t decisions = 0;
};

RunOutput RunOnce(bool advisor_on, bool pooled) {
  GlobalSystem gis(BaseOptions(advisor_on, pooled));
  if (!BuildRetailFederation(&gis, FederationSpec()).ok()) std::abort();
  // The catalog source is a distant, slow site: product queries cross
  // an expensive link until someone moves the data.
  LinkSpec slow;
  slow.latency_ms = 25.0;
  slow.bandwidth_mbps = 10.0;
  gis.network().SetLink(GlobalSystem::kMediatorHost, "catalog", slow);

  auto report = RunScenario(&gis, MakeScenario());
  if (!report.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  RunOutput out;
  out.report = *report;
  out.decision_log = gis.advisor().LogText();
  const AdvisorCounters c = gis.advisor().counters();
  out.materializations = c.materializations;
  out.placements = c.placements;
  out.decisions = c.decisions;
  return out;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    std::abort();
  }
}

void PrintRun(const char* label, const RunOutput& run) {
  std::printf(
      "%-12s offered=%lld completed=%lld p50=%.2f ms p95=%.2f ms | "
      "tail(n=%lld) p50=%.2f ms p95=%.2f ms | decisions=%lld "
      "(materialize=%lld placement=%lld)\n",
      label, static_cast<long long>(run.report.offered),
      static_cast<long long>(run.report.completed), run.report.p50_ms,
      run.report.p95_ms, static_cast<long long>(run.report.tail_completed),
      run.report.tail_p50_ms, run.report.tail_p95_ms,
      static_cast<long long>(run.decisions),
      static_cast<long long>(run.materializations),
      static_cast<long long>(run.placements));
}

}  // namespace

int main() {
  std::printf("# E21: self-driving mediator — hot-template shift\n\n");
  std::printf(
      "products lives on 'catalog' behind a 25 ms / 10 Mbps link; at "
      "t=%.0f ms the product-lookup template becomes the workload's "
      "hottest. Tail percentiles cover arrivals from t=%.0f ms on.\n\n",
      MakeScenario().template_shift_ms, MakeScenario().report_tail_from_ms);

  const RunOutput off = RunOnce(/*advisor_on=*/false, /*pooled=*/false);
  const RunOutput on = RunOnce(/*advisor_on=*/true, /*pooled=*/false);
  PrintRun("advisor-off", off);
  PrintRun("advisor-on", on);

  Check(off.decisions == 0, "advisor-off run makes no decisions");
  Check(on.materializations >= 1,
        "advisor materialized the shifted hot template's table");
  Check(on.decision_log.find("materialize") != std::string::npos &&
            on.decision_log.find("products") != std::string::npos,
        "decision log names the products materialization");
  Check(on.report.tail_completed > 0 && off.report.tail_completed > 0,
        "tail window saw completed queries in both runs");
  Check(on.report.tail_p95_ms < off.report.tail_p95_ms,
        "advisor-on converged tail p95 strictly beats advisor-off");

  // Determinism: the same seed replays the decision log byte-for-byte,
  // serial and pooled alike — the advisor acts on simulation-time
  // signals only.
  const RunOutput replay = RunOnce(/*advisor_on=*/true, /*pooled=*/false);
  const RunOutput pooled = RunOnce(/*advisor_on=*/true, /*pooled=*/true);
  Check(replay.decision_log == on.decision_log,
        "serial replay reproduces the decision log byte-for-byte");
  Check(pooled.decision_log == on.decision_log,
        "pooled run reproduces the decision log byte-for-byte");
  Check(replay.report.decisions == on.report.decisions,
        "serial replay reproduces the admission decision string");

  std::printf("\n## decision log (advisor-on)\n%s\n", on.decision_log.c_str());
  std::printf(
      "tail p95: %.2f ms (off) -> %.2f ms (on); decision log "
      "byte-identical across serial replay and pooled re-run\n",
      off.report.tail_p95_ms, on.report.tail_p95_ms);
  return 0;
}
