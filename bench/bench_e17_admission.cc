/// \file bench_e17_admission.cc
/// \brief E17: admission control & adaptive load management — an
/// open-loop overload ladder against the resource governor, plus the
/// circuit-breaker failover-cost comparison.
///
/// A retail federation receives an open-loop query stream at 0.5×–8× of
/// its service capacity. With the governor on, the bounded wait queue
/// and the balk-at-admission deadline keep the p95 sojourn (queue wait
/// + execution) of *admitted* queries flat while the shed rate climbs
/// with the overload; the uncontrolled configuration (unbounded queue,
/// no deadline) admits everything and its p95 sojourn grows without
/// bound. A same-seed rerun must replay the identical admit/shed
/// decision sequence. The breaker section replays the E11/E15 failover
/// scenario: with the primary replica down, breaker-off queries burn
/// the detection timeout every time, while an open breaker skips the
/// dead replica at zero network cost — same messages, less simulated
/// time. All numbers come from the deterministic simulation.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "common/logging.h"
#include "workload/generator.h"

using namespace gisql;
using namespace gisql::bench;

namespace {

constexpr uint64_t kSeed = 17;

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.seed = kSeed;
  spec.num_sites = 3;
  spec.num_customers = Scaled(300, 40);
  spec.num_products = Scaled(80, 15);
  spec.orders_per_site = Scaled(1500, 150);
  return spec;
}

const std::vector<std::string>& Mix() {
  static const std::vector<std::string> queries = {
      "SELECT COUNT(*), SUM(amount) FROM sales",
      "SELECT day, COUNT(*) FROM sales WHERE qty > 2 GROUP BY day "
      "ORDER BY day",
      "SELECT cid, name FROM customers WHERE cid < 10 ORDER BY cid",
      "SELECT region, COUNT(*) FROM customers GROUP BY region "
      "ORDER BY region",
  };
  return queries;
}

/// Mean simulated service time of the mix, measured closed-loop on a
/// throwaway system — the capacity estimate the ladder is scaled by.
double MeanServiceMs() {
  GlobalSystem gis;
  if (!BuildRetailFederation(&gis, Spec()).ok()) std::abort();
  double total = 0.0;
  int n = 0;
  for (int r = 0; r < 2; ++r) {
    for (const auto& q : Mix()) {
      total += Run(gis, q).elapsed_ms;
      ++n;
    }
  }
  return total / n;
}

struct RungResult {
  int offered = 0;
  int admitted = 0;
  int shed_queue = 0;
  int shed_deadline = 0;
  double p50_sojourn = 0.0;
  double p95_sojourn = 0.0;
  double max_wait = 0.0;
  std::string decisions;  ///< "A"/"Q"/"D" per offered query
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

/// One ladder rung: a fresh federation under an open-loop stream at
/// `multiplier`× capacity. `controlled` picks the governed limits or
/// the unbounded-queue stand-in for a mediator without a governor.
RungResult Rung(double multiplier, double service_ms, bool controlled) {
  PlannerOptions options;
  options.parallel_execution = false;
  options.admission.max_concurrent = 2;
  if (controlled) {
    options.admission.queue_limit = 8;
    options.admission.max_wait_ms = 4.0 * service_ms;
  } else {
    options.admission.queue_limit = 1 << 20;
    options.admission.max_wait_ms = 1e18;
  }
  GlobalSystem gis(options);
  if (!BuildRetailFederation(&gis, Spec()).ok()) std::abort();

  // Offered load: multiplier× the service capacity of the slot pool,
  // with a seeded ±25% spacing jitter so arrivals are not metronomic.
  const int n = Scaled(240, 32);
  const double mean_gap =
      service_ms / (options.admission.max_concurrent * multiplier);
  RungResult out;
  out.offered = n;
  std::vector<double> sojourns;
  double arrival = 0.0;
  for (int i = 0; i < n; ++i) {
    const uint64_t h = HashInt(HashCombine(kSeed, static_cast<uint64_t>(i)));
    const double jitter =
        0.75 + 0.5 * static_cast<double>(h >> 11) / 9007199254740992.0;
    arrival += mean_gap * jitter;
    GlobalSystem::SubmitOptions submit;
    submit.arrival_ms = arrival;
    auto r = gis.Submit(Mix()[i % Mix().size()], submit);
    if (r.ok()) {
      ++out.admitted;
      out.decisions += "A";
      sojourns.push_back(r->metrics.admission_wait_ms +
                         r->metrics.elapsed_ms);
      out.max_wait = std::max(out.max_wait, r->metrics.admission_wait_ms);
    } else if (r.status().message().find("deadline") != std::string::npos) {
      ++out.shed_deadline;
      out.decisions += "D";
    } else {
      ++out.shed_queue;
      out.decisions += "Q";
    }
  }
  out.p50_sojourn = Percentile(sojourns, 0.50);
  out.p95_sojourn = Percentile(sojourns, 0.95);
  return out;
}

void OverloadLadder() {
  const double service_ms = MeanServiceMs();
  std::printf("## open-loop overload ladder (mean service %.2f ms, %d slots)\n",
              service_ms, 2);
  std::printf("%-14s %-10s %9s %9s %10s %10s %12s %12s %12s\n", "config",
              "offered×", "admitted", "shed", "shed_queue", "shed_dead",
              "p50 sojourn", "p95 sojourn", "max wait");
  RungResult governed_peak, uncontrolled_peak, governed_base;
  for (const bool controlled : {true, false}) {
    for (const double m : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      const RungResult r = Rung(m, service_ms, controlled);
      std::printf("%-14s %-10.1f %9d %9d %10d %10d %9.2f ms %9.2f ms %9.2f ms\n",
                  controlled ? "governed" : "uncontrolled", m, r.admitted,
                  r.shed_queue + r.shed_deadline, r.shed_queue,
                  r.shed_deadline, r.p50_sojourn, r.p95_sojourn, r.max_wait);
      if (controlled && m == 0.5) governed_base = r;
      if (controlled && m == 8.0) governed_peak = r;
      if (!controlled && m == 8.0) uncontrolled_peak = r;
    }
  }
  std::printf("\n");

  // The claims the table must support, checked rather than eyeballed.
  if (governed_peak.p95_sojourn >= uncontrolled_peak.p95_sojourn) {
    std::fprintf(stderr, "governed p95 did not stay below uncontrolled\n");
    std::abort();
  }
  if (governed_peak.shed_queue + governed_peak.shed_deadline <=
      governed_base.shed_queue + governed_base.shed_deadline) {
    std::fprintf(stderr, "shed rate did not rise with overload\n");
    std::abort();
  }

  // Same seed, same arrival schedule: the decision string replays
  // bit for bit.
  const RungResult replay = Rung(8.0, service_ms, /*controlled=*/true);
  std::printf("## determinism: 8.0× governed rung rerun — decisions %s\n\n",
              replay.decisions == governed_peak.decisions
                  ? "identical"
                  : "DIVERGED");
  if (replay.decisions != governed_peak.decisions) std::abort();
}

/// Two full replicas; the primary goes down. Breaker off: every query
/// rediscovers the outage by burning the detection timeout (the E11
/// failover / E15 chaos cost). Breaker on: after open_after failures
/// the open breaker answers instead of the wire.
void BreakerFailoverCost() {
  auto run = [](bool breaker) {
    PlannerOptions options;
    options.parallel_execution = false;
    options.health_aware_routing = false;  // isolate the breaker's effect
    options.breaker.enabled = breaker;
    options.breaker.open_after = 3;
    options.breaker.cooldown_skips = 1 << 20;  // hold it open for the run
    GlobalSystem gis(options);
    for (int i = 0; i < 2; ++i) {
      const std::string name = "replica" + std::to_string(i);
      auto src = *gis.CreateSource(name, SourceDialect::kRelational);
      if (!src->ExecuteLocalSql("CREATE TABLE inv (id bigint, qty bigint)")
               .ok() ||
          !src->ExecuteLocalSql(
                  "INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30)")
               .ok() ||
          !gis.ImportTable(name, "inv", "inv_" + name).ok()) {
        std::abort();
      }
    }
    if (!gis.CreateReplicatedView("inventory",
                                  {"inv_replica0", "inv_replica1"})
             .ok() ||
        !gis.catalog().SetLatencyHint("replica0", 1.0).ok() ||
        !gis.catalog().SetLatencyHint("replica1", 2.0).ok()) {
      std::abort();
    }
    gis.network().SetHostDown("replica0", true);

    const int queries = Scaled(40, 8);
    double total_ms = 0.0;
    int64_t total_messages = 0;
    double last_ms = 0.0;
    for (int i = 0; i < queries; ++i) {
      const QueryMetrics m = Run(gis, "SELECT SUM(qty) FROM inventory");
      total_ms += m.elapsed_ms;
      total_messages += m.messages;
      last_ms = m.elapsed_ms;
    }
    std::printf(
        "breaker %-3s %4d queries: %10.2f simulated ms total, %4lld "
        "messages, steady-state %6.2f ms/query, breaker skips %lld\n",
        breaker ? "on" : "off", queries, total_ms,
        static_cast<long long>(total_messages), last_ms,
        static_cast<long long>(gis.governor().breakers().TotalSkips()));
    return std::pair<double, double>(total_ms, last_ms);
  };

  std::printf("## failover cost with the primary replica down\n");
  const auto off = run(false);
  const auto on = run(true);
  if (on.first >= off.first || on.second >= off.second) {
    std::fprintf(stderr, "breaker did not cut the failover cost\n");
    std::abort();
  }
  std::printf(
      "steady-state saving: %.2f ms/query (%.0f%% of the detection burn); "
      "the skip itself sends zero messages\n\n",
      off.second - on.second, 100.0 * (off.second - on.second) / off.second);
}

}  // namespace

int main() {
  // The failover section deliberately queries a down host 80 times;
  // per-query WARN lines would drown the tables.
  Logger::Instance().set_level(LogLevel::kError);
  Header("E17: admission control & adaptive load management",
         "a mediator governing its own intake: slots + bounded queue + "
         "deadlines, per-query memory budgets, per-source breakers",
         "admitted p95 sojourn stays bounded while shed rate rises with "
         "overload; uncontrolled p95 grows without bound; same seed "
         "replays identical decisions; open breakers skip dead "
         "replicas at zero network cost");

  OverloadLadder();
  BreakerFailoverCost();
  return 0;
}
