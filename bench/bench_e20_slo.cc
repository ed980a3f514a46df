/// \file bench_e20_slo.cc
/// \brief E20: workload intelligence — per-tenant attribution, SLO
/// error-budget burn, and the incident flight recorder under a
/// Zipf-tenant flash crowd.
///
/// A federation absorbs an open-loop tenant population (Zipf-popular,
/// so a handful of tenants dominate) pushed to 8× its service
/// capacity with a 3× flash crowd mid-run. The run must demonstrate
/// the three workload-intelligence guarantees end to end:
///
///   1. Attribution closes the books: summing any column of the
///      per-tenant ledger reproduces the accountant's grand total
///      exactly, and the traffic totals equal the network registry's
///      counter deltas over the same span — no query goes
///      unattributed, none is double-charged.
///   2. SLO alerts are exact simulated instants: the same seed yields
///      the identical alert log (objective, timestamp, burn rates),
///      serial or pooled.
///   3. The flight recorder captures at least one incident, and its
///      JSON snapshot is byte-identical serial vs pooled.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "workload/generator.h"
#include "workload/scenario.h"

using namespace gisql;
using namespace gisql::bench;

namespace {

constexpr uint64_t kSeed = 20;

WorkloadSpec FederationSpec() {
  WorkloadSpec spec;
  spec.seed = kSeed;
  spec.num_sites = 3;
  spec.num_customers = Scaled(300, 40);
  spec.num_products = Scaled(80, 15);
  spec.orders_per_site = Scaled(1200, 120);
  spec.zipf_theta = 0.8;
  return spec;
}

double MeanServiceMs() {
  GlobalSystem gis;
  if (!BuildRetailFederation(&gis, FederationSpec()).ok()) std::abort();
  const std::vector<std::string> probe = {
      "SELECT sid, pid, amount FROM sales WHERE cid = 1",
      "SELECT COUNT(*), SUM(amount) FROM sales WHERE cid = 2",
      "SELECT pname, price FROM products WHERE pid = 3",
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

ScenarioSpec MakeScenario(double service_ms) {
  const WorkloadSpec fed = FederationSpec();
  ScenarioSpec spec;
  spec.seed = kSeed;
  spec.num_customers = fed.num_customers;
  spec.num_products = fed.num_products;
  spec.num_tenants = Scaled(int64_t{100000}, int64_t{2000});
  spec.tenant_zipf_theta = 0.99;
  spec.template_zipf_theta = 0.5;

  // 8× the two-slot service capacity: a sustained overload, so queue
  // waits blow the interactive target and the governor sheds — the
  // regime the SLO engine and flight recorder exist to narrate.
  const int slots = 2;
  spec.base_qps = 8.0 * slots * 1000.0 / service_ms;
  const double target_arrivals = Scaled(400.0, 60.0);
  spec.duration_ms = target_arrivals / (spec.base_qps / 1000.0);

  FlashCrowd crowd;
  crowd.start_ms = 0.4 * spec.duration_ms;
  crowd.duration_ms = 0.2 * spec.duration_ms;
  crowd.multiplier = 3.0;
  spec.flash_crowds.push_back(crowd);

  spec.slo_ms = 4.0 * service_ms;
  return spec;
}

struct RunOutput {
  ScenarioReport report;
  TenantUsage totals;
  std::vector<TenantUsage> tenants;
  size_t tracked = 0;
  // Network registry deltas bracketing the scenario.
  int64_t net_messages = 0;
  int64_t net_bytes_sent = 0;
  int64_t net_bytes_received = 0;
  int64_t net_retries = 0;
  int64_t executed = 0;  // mediator query.count delta
  int64_t sheds = 0;     // admission.shed + cursor.shed delta
  std::string alert_log;
  std::string incident_json;
  int64_t incidents = 0;
};

std::string FormatAlerts(const std::vector<SloAlert>& alerts) {
  std::string out;
  char buf[160];
  for (const auto& a : alerts) {
    std::snprintf(buf, sizeof(buf), "%s @ %.17g fast=%.17g slow=%.17g\n",
                  a.objective.c_str(), a.at_ms, a.fast_burn, a.slow_burn);
    out += buf;
  }
  return out;
}

RunOutput RunOnce(double service_ms, bool pooled) {
  PlannerOptions options;
  options.parallel_execution = pooled;
  options.admission.max_concurrent = 2;
  options.admission.queue_limit = 8;
  options.admission.max_wait_ms = 4.0 * service_ms;
  GlobalSystem gis(options);
  if (!BuildRetailFederation(&gis, FederationSpec()).ok()) std::abort();

  const auto net_before = [&] {
    const MetricsRegistry& net = gis.network().metrics();
    return std::vector<int64_t>{net.Get("net.messages"),
                                net.Get("net.bytes_sent"),
                                net.Get("net.bytes_received"),
                                net.Get("net.retries")};
  }();
  const int64_t executed_before = gis.metrics().Get("query.count");
  const int64_t sheds_before =
      gis.metrics().Get("admission.shed") + gis.metrics().Get("cursor.shed");

  auto report = RunScenario(&gis, MakeScenario(service_ms));
  if (!report.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }

  RunOutput out;
  out.report = *report;
  out.totals = gis.tenants().Totals();
  out.tenants = gis.tenants().SnapshotTenants();
  out.tracked = gis.tenants().tracked_count();
  const MetricsRegistry& net = gis.network().metrics();
  out.net_messages = net.Get("net.messages") - net_before[0];
  out.net_bytes_sent = net.Get("net.bytes_sent") - net_before[1];
  out.net_bytes_received = net.Get("net.bytes_received") - net_before[2];
  out.net_retries = net.Get("net.retries") - net_before[3];
  out.executed = gis.metrics().Get("query.count") - executed_before;
  out.sheds = gis.metrics().Get("admission.shed") +
              gis.metrics().Get("cursor.shed") - sheds_before;
  out.alert_log = FormatAlerts(gis.slo().Alerts());
  out.incidents = gis.flight_recorder().incidents_captured();
  for (const auto& i : gis.flight_recorder().Incidents()) {
    out.incident_json += i.json;
    out.incident_json += "\n";
  }
  return out;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    std::abort();
  }
}

void AttributionAudit(const RunOutput& run) {
  // Sum the ledger by hand; it must equal the grand-total row exactly.
  TenantUsage sum;
  for (const auto& t : run.tenants) {
    sum.queries += t.queries;
    sum.sheds += t.sheds;
    sum.rows += t.rows;
    sum.elapsed_ms += t.elapsed_ms;
    sum.bytes_sent += t.bytes_sent;
    sum.bytes_received += t.bytes_received;
    sum.messages += t.messages;
    sum.retries += t.retries;
  }
  Check(sum.queries == run.totals.queries, "tenant query sums == totals");
  Check(sum.sheds == run.totals.sheds, "tenant shed sums == totals");
  Check(sum.rows == run.totals.rows, "tenant row sums == totals");
  Check(sum.bytes_sent == run.totals.bytes_sent &&
            sum.bytes_received == run.totals.bytes_received,
        "tenant byte sums == totals");
  Check(sum.messages == run.totals.messages, "tenant message sums == totals");

  // The ledger closes against the global registries: every arrival is
  // attributed (executed or shed), every wire byte of the scenario is
  // charged to some tenant.
  Check(run.totals.queries + run.totals.sheds == run.report.offered,
        "queries + sheds == offered arrivals");
  Check(run.totals.queries == run.executed,
        "tenant queries == query.count delta");
  Check(run.totals.sheds == run.sheds,
        "tenant sheds == shed counter delta");
  Check(run.totals.messages == run.net_messages,
        "tenant messages == net.messages delta");
  Check(run.totals.bytes_sent == run.net_bytes_sent,
        "tenant bytes_sent == net.bytes_sent delta");
  Check(run.totals.bytes_received == run.net_bytes_received,
        "tenant bytes_received == net.bytes_received delta");
  Check(run.totals.retries == run.net_retries,
        "tenant retries == net.retries delta");

  std::printf(
      "## attribution audit: %lld arrivals = %lld executed + %lld shed; "
      "%lld msgs, %lld B sent, %lld B received — ledger == registry "
      "deltas exactly\n\n",
      static_cast<long long>(run.report.offered),
      static_cast<long long>(run.totals.queries),
      static_cast<long long>(run.totals.sheds),
      static_cast<long long>(run.totals.messages),
      static_cast<long long>(run.totals.bytes_sent),
      static_cast<long long>(run.totals.bytes_received));

  // The hottest tenants, as the ledger ranks them.
  std::vector<TenantUsage> ranked = run.tenants;
  std::sort(ranked.begin(), ranked.end(),
            [](const TenantUsage& a, const TenantUsage& b) {
              if (a.queries + a.sheds != b.queries + b.sheds) {
                return a.queries + a.sheds > b.queries + b.sheds;
              }
              return a.tenant < b.tenant;
            });
  std::printf("%-10s %8s %6s %10s %10s %12s\n", "tenant", "queries", "sheds",
              "rows", "elapsed", "bytes recv");
  const size_t top = ranked.size() < 5 ? ranked.size() : 5;
  for (size_t i = 0; i < top; ++i) {
    const auto& t = ranked[i];
    std::printf("%-10s %8lld %6lld %10lld %7.2f ms %12lld\n",
                t.tenant.c_str(), static_cast<long long>(t.queries),
                static_cast<long long>(t.sheds),
                static_cast<long long>(t.rows), t.elapsed_ms,
                static_cast<long long>(t.bytes_received));
  }
  std::printf("   (%zu tenants tracked, zipf 0.99 over %lld)\n\n",
              run.tracked,
              static_cast<long long>(Scaled(int64_t{100000}, int64_t{2000})));
}

}  // namespace

int main() {
  Logger::Instance().set_level(LogLevel::kError);
  Header("E20: workload intelligence under a Zipf-tenant flash crowd",
         "per-tenant chargeback, SLO error budgets, and incident "
         "postmortems for a planetary-scale federation",
         "the tenant ledger sums exactly to the global counters; the "
         "same seed replays the identical SLO alert log and incident "
         "JSON, serial or pooled; overload raises at least one alert "
         "and captures at least one incident");

  const double service_ms = MeanServiceMs();
  std::printf("## mean service %.2f ms, 2 slots, 8.0x offered, 3x flash "
              "crowd mid-run\n\n",
              service_ms);

  const RunOutput serial = RunOnce(service_ms, /*pooled=*/false);
  AttributionAudit(serial);

  // Overload must actually exercise the alerting and capture paths.
  Check(!serial.alert_log.empty(), "overload raised at least one SLO alert");
  Check(serial.incidents >= 1, "at least one incident captured");
  std::printf("## slo alerts (exact simulated instants)\n%s\n",
              serial.alert_log.c_str());
  std::printf("## incidents captured: %lld\n\n",
              static_cast<long long>(serial.incidents));

  // Determinism, part 1: same seed, same mode — identical everything.
  const RunOutput replay = RunOnce(service_ms, /*pooled=*/false);
  Check(replay.report.decisions == serial.report.decisions,
        "same-seed replay: identical decision string");
  Check(replay.alert_log == serial.alert_log,
        "same-seed replay: identical alert log");
  Check(replay.incident_json == serial.incident_json,
        "same-seed replay: identical incident JSON");

  // Determinism, part 2: the worker pool changes wall-clock only. The
  // alert timestamps and the incident bytes must not notice.
  const RunOutput pooled = RunOnce(service_ms, /*pooled=*/true);
  Check(pooled.report.decisions == serial.report.decisions,
        "pooled: identical decision string");
  Check(pooled.alert_log == serial.alert_log,
        "pooled: identical alert log (exact timestamps)");
  Check(pooled.incident_json == serial.incident_json,
        "pooled: byte-identical incident JSON");
  std::printf(
      "## determinism: serial, same-seed replay, and pooled runs agree — "
      "%zu alert-log bytes, %zu incident-JSON bytes, identical\n",
      serial.alert_log.size(), serial.incident_json.size());
  return 0;
}
