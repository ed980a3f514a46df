/// Golden lifecycle transcript: one seeded federation driven through
/// every statement outcome GlobalSystem can record — closed-loop Query
/// and open-loop Submit, queue-full / deadline / memory-budget /
/// cursor-limit sheds, cursors that drain, close, and expire, EXPLAIN
/// and EXPLAIN ANALYZE, a result-cache hit, the interactive
/// transaction API, and one-shot ExecuteAtomically — then dumping every
/// observation surface (per-call results and traces, gis.queries,
/// gis.tenants, gis.slo, gis.incidents, the Prometheus exposition, and
/// the flight recorder's frames and incident JSON), then every `gis.*`
/// table's schema and full contents. A second federation with circuit
/// breakers and the advisor on rides out a seeded outage that opens a
/// breaker, and dumps the same surfaces.
///
/// The transcript is compared byte for byte against
/// tests/golden/lifecycle_transcript.txt, under serial and pooled
/// execution alike. A mismatch writes the actual text next to the test
/// binary (lifecycle_transcript.<mode>.actual.txt); a deliberate
/// behaviour change regenerates the golden file by copying it over.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "catalog/system_tables.h"
#include "core/global_system.h"

namespace gisql {
namespace {

std::string Num(double v) { return std::to_string(v); }

void Build(GlobalSystem* gis) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  auto br = *gis->CreateSource("br", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql("CREATE TABLE orders (oid bigint, "
                                  "cid bigint, total double)")
                  .ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(hq->ExecuteLocalSql("INSERT INTO orders VALUES (" +
                                    std::to_string(i) + ", " +
                                    std::to_string(i % 10) + ", " +
                                    std::to_string(i * 1.25) + ")")
                    .ok());
  }
  ASSERT_TRUE(
      br->ExecuteLocalSql("CREATE TABLE clients (cid bigint, region text)")
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(br->ExecuteLocalSql("INSERT INTO clients VALUES (" +
                                    std::to_string(i) + ", 'r" +
                                    std::to_string(i % 3) + "')")
                    .ok());
  }
  for (auto* s : {hq, br}) {
    ASSERT_TRUE(
        s->ExecuteLocalSql("CREATE TABLE accounts (id bigint, bal double)")
            .ok());
    ASSERT_TRUE(
        s->ExecuteLocalSql("INSERT INTO accounts VALUES (1, 100.0)").ok());
    ASSERT_TRUE(
        s->ExecuteLocalSql("INSERT INTO accounts VALUES (2, 50.0)").ok());
  }
  ASSERT_TRUE(gis->ImportTable("hq", "orders", "orders").ok());
  ASSERT_TRUE(gis->ImportTable("br", "clients", "clients").ok());
  ASSERT_TRUE(gis->ImportTable("hq", "accounts", "accounts_hq").ok());
  ASSERT_TRUE(gis->ImportTable("br", "accounts", "accounts_br").ok());
}

class Transcript {
 public:
  explicit Transcript(GlobalSystem* gis) : gis_(gis) {}

  void Line(const std::string& text) { out_ += text + "\n"; }

  void Outcome(const std::string& label, const Status& st) {
    Line("== " + label + ": " + (st.ok() ? "OK" : st.ToString()));
  }

  void Metrics(const QueryMetrics& m) {
    Line("   elapsed_ms=" + Num(m.elapsed_ms) +
         " bytes_sent=" + std::to_string(m.bytes_sent) +
         " bytes_received=" + std::to_string(m.bytes_received) +
         " messages=" + std::to_string(m.messages) +
         " retries=" + std::to_string(m.retries) +
         " cache_hit=" + (m.cache_hit ? "1" : "0") +
         " admission_wait_ms=" + Num(m.admission_wait_ms));
  }

  void Result(const std::string& label, const Result<QueryResult>& r) {
    Outcome(label, r.status());
    if (!r.ok()) return;
    Metrics(r->metrics);
    out_ += r->metrics.plan_text;
    out_ += r->batch.ToString(1 << 20);
    if (gis_->trace() != nullptr) out_ += gis_->trace()->ToText();
  }

  void Query(const std::string& sql) { Result(sql, gis_->Query(sql)); }

  void Submit(const std::string& sql, double arrival_ms, int priority,
              const std::string& tenant, double max_wait_ms = -1.0) {
    GlobalSystem::SubmitOptions submit;
    submit.arrival_ms = arrival_ms;
    submit.priority = priority;
    submit.tenant = tenant;
    submit.max_wait_ms = max_wait_ms;
    Result("submit@" + Num(arrival_ms) + " " + tenant + " " + sql,
           gis_->Submit(sql, submit));
  }

  uint64_t Open(const std::string& sql, int64_t chunk_rows,
                double lease_ms = -1.0, const std::string& tenant = "") {
    GlobalSystem::CursorOptions copts;
    copts.chunk_rows = chunk_rows;
    copts.lease_ms = lease_ms;
    copts.submit.tenant = tenant;
    auto id = gis_->OpenCursor(sql, copts);
    Outcome("open " + sql, id.status());
    if (!id.ok()) return 0;
    Line("   cursor=" + std::to_string(*id));
    return *id;
  }

  bool Fetch(uint64_t id) {
    auto chunk = gis_->FetchChunk(id);
    Outcome("fetch " + std::to_string(id), chunk.status());
    if (!chunk.ok()) return false;
    Line("   seq=" + std::to_string(chunk->seq) +
         " done=" + (chunk->done ? "1" : "0") +
         " rows=" + std::to_string(chunk->batch.num_rows()));
    Metrics(chunk->metrics);
    return !chunk->done;
  }

  void Dump(const std::string& sql) {
    auto r = gis_->Query(sql);
    Outcome("dump " + sql, r.status());
    if (r.ok()) out_ += r->batch.ToString(1 << 20);
  }

  /// One `name: column:TYPE ...` line per gis.* table, then each
  /// table's full contents.
  void Tables(bool with_schemas) {
    const SystemTableProvider& sys = *gis_->catalog().system_tables();
    if (with_schemas) {
      Line("== schemas");
      for (const auto& name : sys.TableNames()) {
        std::string line = name + ":";
        const SchemaPtr schema = *sys.TableSchema(name);
        for (const auto& f : schema->fields()) {
          line += " " + f.name + ":" + TypeName(f.type);
        }
        Line(line);
      }
    }
    for (const auto& name : sys.TableNames()) Dump("SELECT * FROM " + name);
  }

  /// The Prometheus exposition and every incident's JSON snapshot.
  void Exports() {
    Line("== prometheus");
    Line(gis_->ExportPrometheus());
    Line("== flight incidents");
    for (const auto& inc : gis_->flight_recorder().Incidents()) {
      Line(std::to_string(inc.id) + " " + inc.trigger + " " + inc.detail);
      Line(inc.json);
    }
  }

  const std::string& text() const { return out_; }

 private:
  GlobalSystem* gis_;
  std::string out_;
};

/// A second federation with circuit breakers and the advisor on: a
/// hot template warms the advisor, then a seeded drop streak at `br`
/// opens its breaker (a breaker_open incident), skips follow, and the
/// half-open probes close it again once the faults are spent.
std::string RunBreakerOutage(bool parallel) {
  PlannerOptions options;
  options.parallel_execution = parallel;
  options.worker_threads = 2;
  options.breaker.enabled = true;
  options.breaker.open_after = 3;
  options.breaker.cooldown_skips = 2;
  options.breaker.probe_ratio = 1.0;
  options.advisor.enabled = true;
  options.advisor.interval_ms = 1.0;
  options.advisor.window_ms = 100000.0;
  options.advisor.hot_threshold = 3;
  options.advisor.max_views = 1;
  GlobalSystem gis(options);
  Build(&gis);
  Transcript t(&gis);
  t.Line("== breaker outage");
  for (int i = 0; i < 4; ++i) {
    t.Query("SELECT oid, total FROM orders WHERE oid = " +
            std::to_string(i));
  }
  gis.set_retry_policy(RetryPolicy::Standard(2, /*seed=*/5));
  gis.network().InstallFaults(/*seed=*/5, FaultProfile{});
  gis.network().faults()->InjectOn("br", /*opcode=*/-1, FaultKind::kDrop, 6);
  for (int i = 0; i < 5; ++i) {
    t.Query("SELECT region, COUNT(*) FROM clients GROUP BY region "
            "ORDER BY region");
    t.Query("SELECT oid, total FROM orders WHERE oid = " +
            std::to_string(10 + i));
  }
  t.Tables(/*with_schemas=*/false);
  t.Exports();
  return t.text();
}

std::string RunLifecycle(bool parallel) {
  PlannerOptions options;
  options.parallel_execution = parallel;
  options.worker_threads = 2;
  options.admission.max_concurrent = 1;
  options.admission.queue_limit = 3;
  options.admission.max_wait_ms = 1000.0;
  options.memory.query_bytes = 64000;
  options.cursor_max_open = 2;
  options.flight.shed_spike = 2;
  options.flight.shed_window_ms = 1000.0;
  GlobalSystem gis(options);
  Build(&gis);
  gis.EnableResultCache();
  gis.EnableTracing();
  Transcript t(&gis);

  // Closed-loop SELECT, then the same statement again from the cache.
  t.Query("SELECT COUNT(*), SUM(total) FROM orders WHERE oid < 100");
  t.Query("SELECT COUNT(*), SUM(total) FROM orders WHERE oid < 100");
  t.Query("EXPLAIN SELECT region, COUNT(*) FROM orders JOIN clients "
          "ON orders.cid = clients.cid WHERE oid < 40 GROUP BY region");
  t.Query("EXPLAIN ANALYZE SELECT region, COUNT(*) FROM orders JOIN "
          "clients ON orders.cid = clients.cid WHERE oid < 40 "
          "GROUP BY region");
  // Over the per-query budget: a memory-budget shed.
  t.Query("SELECT oid, cid, total FROM orders");
  // Unrecorded error.
  t.Query("SELECT * FROM ghost");

  // Open-loop flash crowd: one slot, a short queue, one tight deadline.
  const double t0 = gis.governor().now_ms() + 100.0;
  for (int i = 0; i < 6; ++i) {
    t.Submit("SELECT SUM(total) FROM orders WHERE cid = " +
                 std::to_string(i),
             t0, i % 3, i % 2 == 0 ? "acme" : "zeta",
             i == 2 ? 0.001 : -1.0);
  }

  // Cursors: drained (streaming), closed (spool), cursor-limit shed,
  // expired by lease, chunk over budget, spool over budget.
  uint64_t drained = t.Open("SELECT oid FROM orders WHERE oid < 50", 16,
                            -1.0, "acme");
  while (drained != 0 && t.Fetch(drained)) {
  }
  const uint64_t spool = t.Open(
      "SELECT cid, SUM(total) AS s FROM orders GROUP BY cid ORDER BY cid",
      4);
  t.Fetch(spool);
  t.Outcome("close " + std::to_string(spool), gis.CloseCursor(spool));
  const uint64_t leased = t.Open("SELECT oid FROM orders", 32, 10.0, "zeta");
  t.Fetch(leased);
  const uint64_t second = t.Open("SELECT cid FROM orders", 32);
  t.Open("SELECT total FROM orders", 32);  // cursor_limit
  t.Submit("SELECT COUNT(*) FROM clients", gis.governor().now_ms() + 1e5, 1,
           "");
  t.Fetch(leased);   // swept: expired
  t.Fetch(second);   // its default lease ran out too
  const uint64_t wide = t.Open("SELECT oid, cid, total FROM orders", 1000);
  t.Fetch(wide);     // chunk charge denied
  t.Open("SELECT oid, cid, total FROM orders ORDER BY total DESC", 16);
  t.Open("EXPLAIN SELECT oid FROM orders", 16);

  // Interactive transaction: snapshot read, writes at two sources,
  // read-your-writes, commit; a conflicting transaction aborts.
  auto txn = gis.BeginTransaction();
  t.Outcome("begin", txn.status());
  t.Result("txn read",
           gis.QueryInTxn(*txn, "SELECT SUM(bal) FROM accounts_hq"));
  t.Outcome("txn write hq",
            gis.TxnWrite(*txn, "hq", "INSERT INTO accounts VALUES (3, 30.0)"));
  t.Outcome("txn write br",
            gis.TxnWrite(*txn, "br", "DELETE FROM accounts WHERE id = 1"));
  auto other = gis.BeginTransaction();
  t.Outcome("begin other", other.status());
  t.Outcome("other write br",
            gis.TxnWrite(*other, "br", "DELETE FROM accounts WHERE id = 1"));
  t.Outcome("abort other", gis.AbortTransaction(*other));
  t.Result("txn read own writes",
           gis.QueryInTxn(*txn, "SELECT COUNT(*), SUM(bal) FROM accounts_hq"));
  t.Outcome("commit", gis.CommitTransaction(*txn));

  // One-shot 2PC: success, then a prepare failure that aborts both.
  t.Outcome("atomic",
            gis.ExecuteAtomically(
                {{"hq", "INSERT INTO accounts VALUES (4, 40.0)"},
                 {"br", "INSERT INTO accounts VALUES (4, 40.0)"}}));
  t.Outcome("atomic ghost",
            gis.ExecuteAtomically(
                {{"hq", "INSERT INTO accounts VALUES (5, 50.0)"},
                 {"br", "INSERT INTO ghost VALUES (5, 50.0)"}}));
  t.Query("SELECT id, bal FROM accounts_hq ORDER BY id");
  t.Query("SELECT id, bal FROM accounts_br ORDER BY id");

  t.Dump("SELECT * FROM gis.queries ORDER BY id");
  t.Dump("SELECT * FROM gis.tenants ORDER BY tenant");
  t.Dump("SELECT * FROM gis.slo ORDER BY objective");
  t.Dump("SELECT * FROM gis.incidents ORDER BY id");
  t.Line("== prometheus");
  t.Line(gis.ExportPrometheus());
  t.Line("== flight frames");
  for (const auto& f : gis.flight_recorder().Frames()) {
    t.Line(std::to_string(f.id) + " " + f.tenant + " p" +
           std::to_string(f.priority) + " finish=" + Num(f.finish_ms) +
           " sojourn=" + Num(f.sojourn_ms()) + " rows=" +
           std::to_string(f.rows) + " bytes=" +
           std::to_string(f.bytes_sent + f.bytes_received) +
           " hit=" + (f.cache_hit ? "1" : "0") + " shed=" + f.shed_reason +
           " " + f.sql);
  }
  t.Line("== flight incidents");
  for (const auto& inc : gis.flight_recorder().Incidents()) {
    t.Line(std::to_string(inc.id) + " " + inc.trigger + " " + inc.detail);
    t.Line(inc.json);
  }
  t.Tables(/*with_schemas=*/true);
  return t.text() + RunBreakerOutage(parallel);
}

std::string ReadGolden() {
  std::ifstream in(std::string(GOLDEN_DIR) + "/lifecycle_transcript.txt",
                   std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void ExpectMatchesGolden(bool parallel) {
  const std::string golden = ReadGolden();
  const std::string actual = RunLifecycle(parallel);
  if (actual != golden) {
    const std::string path = std::string("lifecycle_transcript.") +
                             (parallel ? "pooled" : "serial") +
                             ".actual.txt";
    std::ofstream(path, std::ios::binary) << actual;
    size_t at = 0;
    while (at < actual.size() && at < golden.size() &&
           actual[at] == golden[at]) {
      ++at;
    }
    const size_t from = at > 200 ? at - 200 : 0;
    FAIL() << "transcript diverges from the golden file at byte " << at
           << " (actual written to " << path << ")\n--- golden:\n"
           << golden.substr(from, 400) << "\n--- actual:\n"
           << actual.substr(from, 400);
  }
}

TEST(LifecycleGoldenTest, SerialTranscriptMatchesGolden) {
  ExpectMatchesGolden(/*parallel=*/false);
}

TEST(LifecycleGoldenTest, PooledTranscriptMatchesGolden) {
  ExpectMatchesGolden(/*parallel=*/true);
}

}  // namespace
}  // namespace gisql
