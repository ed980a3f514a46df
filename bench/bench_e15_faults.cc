/// \file bench_e15_faults.cc
/// \brief E15: the price of fault tolerance — a deterministic cost
/// ladder for one query under increasingly severe, seeded WAN faults.
///
/// One replicated 20k-row table behind two replicas; the same COUNT/MAX
/// query runs (a) clean, (b) through a transient outage absorbed by
/// retry/backoff, (c) against a permanently dead preferred replica
/// (retries exhaust, then failover), and (d) with every replica dead
/// (typed error after full exhaustion). All times are simulated ms and
/// every run reproduces exactly from the seeds in this file.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "wire/protocol.h"

using namespace gisql;
using namespace gisql::bench;

namespace {

/// Builds the two-replica world. Rebuilt per scenario so message
/// indices (the fault schedule's domain) start identically.
void Build(GlobalSystem* gis) {
  for (int i = 0; i < 2; ++i) {
    const std::string name = "replica" + std::to_string(i);
    auto src = *gis->CreateSource(name, SourceDialect::kRelational);
    (void)src->ExecuteLocalSql(
        "CREATE TABLE catalog_t (id bigint, name varchar, price double)");
    auto t = *src->engine().GetTable("catalog_t");
    std::vector<Row> rows;
    for (int r = 0; r < Scaled(20000, 1000); ++r) {
      rows.push_back({Value::Int(r), Value::String("item"),
                      Value::Double(r * 0.01)});
    }
    t->InsertUnchecked(std::move(rows));
    (void)gis->ImportTable(name, "catalog_t", "cat_" + name);
    (void)gis->catalog().SetLatencyHint(name, 5.0 + 45.0 * i);
    gis->network().SetLink(GlobalSystem::kMediatorHost, name,
                           {5.0 + 45.0 * i, 100.0});
  }
  (void)gis->CreateReplicatedView("items", {"cat_replica0", "cat_replica1"});
}

struct Outcome {
  double sim_ms = 0.0;
  long long bytes = 0;
  long long retries = 0;
  const char* result = "ok";
};

Outcome Scenario(FaultKind kind, int count, bool kill_both) {
  GlobalSystem gis;
  Build(&gis);
  gis.set_retry_policy(RetryPolicy::Standard(4, /*seed=*/15));
  gis.network().InstallFaults(/*seed=*/15, FaultProfile{});
  if (kind != FaultKind::kNone) {
    const int op = static_cast<int>(wire::Opcode::kExecuteFragmentColumnar);
    gis.network().faults()->InjectOn("replica0", op, kind, count);
    if (kill_both) {
      gis.network().faults()->InjectOn("replica1", op, kind, count);
    }
  }

  Outcome out;
  // Snapshot the cumulative simulated-time counter so a failed query can
  // still report what it burned (QueryResult carries no metrics on error).
  const long long us0 = gis.network().metrics().Get("net.sim_us");
  const long long sent0 = gis.network().metrics().Get("net.bytes_sent");
  const long long recv0 = gis.network().metrics().Get("net.bytes_received");
  auto result =
      gis.Query("SELECT COUNT(*), MAX(price) FROM items WHERE id < 5000");
  if (result.ok()) {
    out.sim_ms = result->metrics.elapsed_ms;
    out.bytes = result->metrics.bytes_sent + result->metrics.bytes_received;
  } else {
    out.sim_ms =
        (gis.network().metrics().Get("net.sim_us") - us0) / 1000.0;
    out.bytes = gis.network().metrics().Get("net.bytes_sent") - sent0 +
                gis.network().metrics().Get("net.bytes_received") - recv0;
    out.result = result.status().IsNetworkError() ? "NetworkError"
                                                  : "error";
  }
  out.retries = gis.network().metrics().Get("net.retries");
  return out;
}

}  // namespace

int main() {
  Header("E15: fault injection — the deterministic cost ladder",
         "mediator resilience on an unreliable WAN (drops, outages, dead "
         "sources) with retry/backoff and replica failover",
         "clean < transient-with-retry < failover-to-replica < "
         "exhausted-retries; identical numbers on every run");

  constexpr int kPermanent = 1 << 30;
  const Outcome clean = Scenario(FaultKind::kNone, 0, false);
  // One dropped fragment request: absorbed by a single retry.
  const Outcome transient = Scenario(FaultKind::kDrop, 1, false);
  // replica0 permanently partitioned: retries exhaust, failover reads
  // replica1 over its slower link.
  const Outcome failover = Scenario(FaultKind::kOutage, kPermanent, false);
  // Both replicas dead: the query fails typed after full exhaustion.
  const Outcome dead = Scenario(FaultKind::kOutage, kPermanent, true);

  std::printf("%-28s %12s %10s %8s  %s\n", "scenario", "sim_ms", "bytes",
              "retries", "result");
  const struct {
    const char* name;
    const Outcome* o;
  } rows[] = {{"clean", &clean},
              {"transient drop + retry", &transient},
              {"replica0 dead + failover", &failover},
              {"all replicas dead", &dead}};
  for (const auto& row : rows) {
    std::printf("%-28s %12.2f %10lld %8lld  %s\n", row.name, row.o->sim_ms,
                row.o->bytes, row.o->retries, row.o->result);
  }

  // The ladder must be strictly ordered or the experiment is broken.
  if (!(clean.sim_ms < transient.sim_ms &&
        transient.sim_ms < failover.sim_ms &&
        failover.sim_ms < dead.sim_ms)) {
    std::fprintf(stderr, "cost ladder out of order\n");
    return 1;
  }
  return 0;
}
