/// \file bench_e18_scenarios.cc
/// \brief E18: million-user scenarios — streamed vs materialized
/// delivery under Zipf-skewed, diurnally-modulated, flash-crowd load.
///
/// A retail federation serves an open-loop tenant population (a
/// million tenants, Zipf-popular) at 0.5×–8× of its service capacity,
/// with a diurnal cycle and a 3× flash crowd mid-run. Each rung runs
/// twice: materialized (every query through Submit) and streamed
/// (streamable templates through cursors, chunk at a time). The table
/// reports tail sojourn (p99/p99.9), SLO attainment with sheds counted
/// as misses, shed decomposition, and the mediator's peak memory
/// footprint. Expected shape: attainment degrades gracefully as the
/// ladder climbs (shedding rises instead of tails exploding), and the
/// streamed column's peak footprint stays well below the materialized
/// one at every load. A same-seed rerun must replay the identical
/// per-arrival decision string.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

using namespace gisql;
using namespace gisql::bench;

namespace {

constexpr uint64_t kSeed = 18;

WorkloadSpec FederationSpec() {
  WorkloadSpec spec;
  spec.seed = kSeed;
  spec.num_sites = 3;
  spec.num_customers = Scaled(300, 40);
  spec.num_products = Scaled(80, 15);
  spec.orders_per_site = Scaled(1500, 150);
  spec.zipf_theta = 0.8;  // product popularity skew in the data itself
  return spec;
}

/// Mean simulated service time over a closed-loop probe of the
/// scenario's query shapes — the capacity estimate the ladder scales.
double MeanServiceMs() {
  GlobalSystem gis;
  if (!BuildRetailFederation(&gis, FederationSpec()).ok()) std::abort();
  const WorkloadSpec fed = FederationSpec();
  const std::vector<std::string> probe = {
      "SELECT sid, pid, amount FROM sales WHERE cid = 1",
      "SELECT pname, price FROM products WHERE pid = 3",
      "SELECT COUNT(*), SUM(amount) FROM sales WHERE cid = 2",
      "SELECT sid, cid, amount FROM sales WHERE amount > 500",
      "SELECT day, SUM(qty) FROM sales WHERE pid = " +
          std::to_string(fed.num_products / 2) + " GROUP BY day ORDER BY day",
  };
  double total = 0.0;
  int n = 0;
  for (int r = 0; r < 2; ++r) {
    for (const auto& q : probe) {
      total += Run(gis, q).elapsed_ms;
      ++n;
    }
  }
  return total / n;
}

ScenarioSpec MakeScenario(double multiplier, double service_ms,
                          bool streamed) {
  const WorkloadSpec fed = FederationSpec();
  ScenarioSpec spec;
  spec.seed = kSeed;
  spec.num_customers = fed.num_customers;
  spec.num_products = fed.num_products;
  spec.num_tenants = Scaled(int64_t{1000000}, int64_t{10000});
  spec.tenant_zipf_theta = 0.99;
  spec.template_zipf_theta = 0.5;

  // Offered rate: multiplier× the slot pool's service capacity; the
  // run length is chosen so every rung offers about the same number of
  // arrivals regardless of its multiplier.
  const int slots = 2;
  spec.base_qps = multiplier * slots * 1000.0 / service_ms;
  const double target_arrivals = Scaled(220.0, 28.0);
  spec.duration_ms = target_arrivals / (spec.base_qps / 1000.0);

  spec.diurnal_amplitude = 0.3;
  spec.diurnal_period_ms = spec.duration_ms / 2.0;
  FlashCrowd crowd;
  crowd.start_ms = 0.4 * spec.duration_ms;
  crowd.duration_ms = 0.2 * spec.duration_ms;
  crowd.multiplier = 3.0;
  spec.flash_crowds.push_back(crowd);

  spec.slo_ms = 4.0 * service_ms;
  spec.use_cursors = streamed;
  spec.chunk_rows = 128;
  return spec;
}

ScenarioReport RunRung(double multiplier, double service_ms, bool streamed) {
  PlannerOptions options;
  options.parallel_execution = false;
  options.admission.max_concurrent = 2;
  options.admission.queue_limit = 8;
  options.admission.max_wait_ms = 4.0 * service_ms;
  options.cursor_max_open = 8;
  GlobalSystem gis(options);
  if (!BuildRetailFederation(&gis, FederationSpec()).ok()) std::abort();
  auto report = RunScenario(&gis, MakeScenario(multiplier, service_ms,
                                               streamed));
  if (!report.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  return *report;
}

void TenantConcentration() {
  // What "a million users, Zipf 0.99" means in practice: the share of
  // traffic the hottest tenants absorb, from a direct draw.
  Rng rng(kSeed);
  const int64_t tenants = Scaled(int64_t{1000000}, int64_t{10000});
  const int draws = Scaled(20000, 2000);
  int64_t top1 = 0, top100 = 0;
  for (int i = 0; i < draws; ++i) {
    const int64_t rank = rng.Zipf(tenants, 0.99);
    if (rank == 1) ++top1;
    if (rank <= 100) ++top100;
  }
  std::printf(
      "## tenant concentration: %lld tenants, zipf 0.99 — hottest tenant "
      "%.1f%% of traffic, hottest 100 tenants %.1f%%\n\n",
      static_cast<long long>(tenants), 100.0 * top1 / draws,
      100.0 * top100 / draws);
}

void ScenarioLadder() {
  const double service_ms = MeanServiceMs();
  std::printf(
      "## scenario ladder (mean service %.2f ms, 2 slots, diurnal ±30%%, "
      "3× flash crowd mid-run, SLO %.1f ms)\n",
      service_ms, 4.0 * service_ms);
  std::printf("%-13s %-9s %8s %9s %5s %5s %5s %5s %9s %10s %9s %8s %9s\n",
              "mode", "offered×", "arrivals", "completed", "shedQ", "shedD",
              "shedM", "shedC", "p99", "p99.9", "SLO", "chunks",
              "mem peak");

  ScenarioReport mat_base, mat_peak, str_peak;
  int64_t mat_peak_mem = 0, str_peak_mem = 0;
  for (const bool streamed : {false, true}) {
    for (const double m : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      const ScenarioReport r = RunRung(m, service_ms, streamed);
      std::printf(
          "%-13s %-9.1f %8lld %9lld %5lld %5lld %5lld %5lld %6.2f ms "
          "%7.2f ms %8.1f%% %8lld %7lld K\n",
          streamed ? "streamed" : "materialized", m,
          static_cast<long long>(r.offered),
          static_cast<long long>(r.completed),
          static_cast<long long>(r.shed_queue),
          static_cast<long long>(r.shed_deadline),
          static_cast<long long>(r.shed_memory),
          static_cast<long long>(r.shed_cursor), r.p99_ms, r.p999_ms,
          100.0 * r.slo_attainment, static_cast<long long>(r.total_chunks),
          static_cast<long long>(r.mem_peak_bytes / 1024));
      if (!streamed && m == 0.5) mat_base = r;
      if (!streamed && m == 8.0) {
        mat_peak = r;
        mat_peak_mem = r.mem_peak_bytes;
      }
      if (streamed && m == 8.0) {
        str_peak = r;
        str_peak_mem = r.mem_peak_bytes;
      }
    }
  }
  std::printf("\n");

  // The claims the table must support, checked rather than eyeballed.
  const int64_t base_shed = mat_base.shed_queue + mat_base.shed_deadline;
  const int64_t peak_shed = mat_peak.shed_queue + mat_peak.shed_deadline;
  if (peak_shed <= base_shed) {
    std::fprintf(stderr, "shed rate did not rise with overload\n");
    std::abort();
  }
  if (mat_base.slo_attainment <= mat_peak.slo_attainment) {
    std::fprintf(stderr, "SLO attainment did not fall under overload\n");
    std::abort();
  }
  if (str_peak.streamed_queries == 0 || str_peak.total_chunks == 0) {
    std::fprintf(stderr, "streamed rung streamed nothing\n");
    std::abort();
  }
  if (str_peak_mem > mat_peak_mem) {
    std::fprintf(stderr,
                 "streamed peak footprint (%lld) exceeded materialized "
                 "(%lld)\n",
                 static_cast<long long>(str_peak_mem),
                 static_cast<long long>(mat_peak_mem));
    std::abort();
  }

  // Same seed, same spec: the per-arrival decision string replays bit
  // for bit.
  const ScenarioReport replay = RunRung(8.0, service_ms, /*streamed=*/true);
  std::printf("## determinism: 8.0× streamed rung rerun — decisions %s\n\n",
              replay.decisions == str_peak.decisions ? "identical"
                                                     : "DIVERGED");
  if (replay.decisions != str_peak.decisions) std::abort();
}

}  // namespace

int main() {
  Logger::Instance().set_level(LogLevel::kError);
  Header("E18: million-user scenarios, streamed vs materialized",
         "a global federation absorbing planetary-scale user traffic: "
         "Zipf tenant popularity, diurnal cycles, flash crowds",
         "SLO attainment degrades gracefully as offered load climbs "
         "(shedding rises, tails stay bounded); cursor streaming holds "
         "the mediator's peak memory far below materialized delivery; "
         "same seed replays identical decisions");

  TenantConcentration();
  ScenarioLadder();
  return 0;
}
