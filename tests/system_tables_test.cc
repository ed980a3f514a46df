/// Tests of the mediator's self-observation surface: the gis.* virtual
/// system tables (through the ordinary SQL pipeline, at zero network
/// cost), the bounded query log, and the Prometheus text exposition.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/system_tables.h"
#include "core/global_system.h"
#include "core/query_log.h"
#include "obs/catalogue.h"

namespace gisql {
namespace {

/// Two-source federation with enough data for multi-fragment queries.
void Build(GlobalSystem* gis) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE orders (oid bigint, cid bigint, "
                    "total double)")
                  .ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(hq->ExecuteLocalSql(
                      "INSERT INTO orders VALUES (" + std::to_string(i) +
                      ", " + std::to_string(i % 8) + ", " +
                      std::to_string(i * 2.5) + ")")
                    .ok());
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

TEST(SystemTableNamesTest, PrefixDetection) {
  EXPECT_TRUE(IsSystemTableName("gis.sources"));
  EXPECT_TRUE(IsSystemTableName("GIS.Sources"));
  EXPECT_FALSE(IsSystemTableName("gis."));   // prefix alone names nothing
  EXPECT_FALSE(IsSystemTableName("gis"));
  EXPECT_FALSE(IsSystemTableName("orders"));
  EXPECT_FALSE(IsSystemTableName("register"));
}

class SystemTablesTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(&gis_); }
  GlobalSystem gis_;
};

TEST_F(SystemTablesTest, AcceptanceQueryRunsWithZeroTraffic) {
  // Prime some traffic so health rows are non-trivial.
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());

  auto result = gis_.Query(
      "SELECT source, state, requests, errors, p95_ms "
      "FROM gis.sources WHERE state <> 'healthy'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Fault-free world: every source is healthy, so the filter removes
  // all rows — and the scan itself moved zero bytes over the network.
  EXPECT_EQ(result->batch.num_rows(), 0u);
  EXPECT_EQ(result->metrics.messages, 0);
  EXPECT_EQ(result->metrics.bytes_sent, 0);
  EXPECT_EQ(result->metrics.bytes_received, 0);
}

TEST_F(SystemTablesTest, SourcesReflectImportTraffic) {
  auto result = gis_.Query(
      "SELECT source, state, requests, errors FROM gis.sources "
      "ORDER BY source");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  const auto& rows = result->batch.rows();
  EXPECT_EQ(rows[0][0].AsString(), "branch");
  EXPECT_EQ(rows[1][0].AsString(), "hq");
  for (const auto& row : rows) {
    EXPECT_EQ(row[1].AsString(), "healthy");
    EXPECT_GT(row[2].AsInt(), 0);  // schema/stats import already called it
    EXPECT_EQ(row[3].AsInt(), 0);
  }
}

TEST_F(SystemTablesTest, ExplainShowsVirtualScan) {
  auto text = gis_.Explain("SELECT source FROM gis.sources");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("VirtualTableScan"), std::string::npos) << *text;
  EXPECT_NE(text->find("gis.sources"), std::string::npos) << *text;
  EXPECT_EQ(text->find("RemoteFragment"), std::string::npos) << *text;
}

TEST_F(SystemTablesTest, AliasesAndQualifiedColumns) {
  auto result = gis_.Query(
      "SELECT s.source FROM gis.sources AS s WHERE s.requests > 0 "
      "ORDER BY s.source");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "branch");
}

TEST_F(SystemTablesTest, AggregatesOverMetrics) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  auto result = gis_.Query(
      "SELECT registry, COUNT(*) FROM gis.metrics "
      "GROUP BY registry ORDER BY registry");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 2u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "mediator");
  EXPECT_EQ(result->batch.rows()[1][0].AsString(), "network");
  EXPECT_GT(result->batch.rows()[1][1].AsInt(), 0);
}

TEST_F(SystemTablesTest, GaugesAreQuarantinedOutOfMetrics) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  // The last-value gauge renders via gis.gauges...
  auto gauges = gis_.Query(
      "SELECT registry, name, value FROM gis.gauges "
      "WHERE name = 'net.last_elapsed_ms'");
  ASSERT_TRUE(gauges.ok()) << gauges.status().ToString();
  EXPECT_EQ(gauges->batch.num_rows(), 1u);
  // ...and never via gis.metrics, whose counters are monotone and
  // schedule-independent by construction.
  auto metrics = gis_.Query(
      "SELECT name FROM gis.metrics WHERE kind <> 'counter'");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->batch.num_rows(), 0u);
}

TEST_F(SystemTablesTest, HistogramsDigestNetworkLatency) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  auto result = gis_.Query(
      "SELECT name, count, p95 FROM gis.histograms "
      "WHERE registry = 'network' AND name = 'net.rpc_ms'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_GT(result->batch.rows()[0][1].AsInt(), 0);
  EXPECT_GT(result->batch.rows()[0][2].AsDouble(), 0.0);
}

TEST_F(SystemTablesTest, QueriesTableRecordsHistory) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  ASSERT_TRUE(gis_.Query("SELECT cid FROM clients ORDER BY cid").ok());
  auto result = gis_.Query(
      "SELECT id, sql, messages, cache_hit, rows FROM gis.queries "
      "ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The running query is appended only after it finishes, so exactly
  // the two prior statements are visible.
  ASSERT_EQ(result->batch.num_rows(), 2u);
  const auto& rows = result->batch.rows();
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "SELECT COUNT(*) FROM orders");
  EXPECT_GT(rows[0][2].AsInt(), 0);
  EXPECT_FALSE(rows[0][3].AsBool());
  EXPECT_EQ(rows[1][4].AsInt(), 8);
}

TEST_F(SystemTablesTest, UnknownSystemTableIsBindError) {
  auto result = gis_.Query("SELECT * FROM gis.nonsense");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("gis.sources"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(SystemTablesTest, JoinSystemTableWithRemoteTable) {
  // Mixed plans work: the virtual side snapshots locally while the
  // remote side ships a fragment.
  auto result = gis_.Query(
      "SELECT s.state, COUNT(*) FROM gis.sources s JOIN clients "
      "ON s.requests > 0 AND clients.cid >= 0 GROUP BY s.state");
  if (!result.ok()) {
    // Non-equi joins may be unsupported; the essential property is that
    // it fails cleanly rather than crashing or shipping gis.* remotely.
    SUCCEED() << result.status().ToString();
    return;
  }
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "healthy");
}

TEST_F(SystemTablesTest, VirtualScansBypassResultCache) {
  gis_.EnableResultCache();
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());

  auto first = gis_.Query("SELECT MAX(id) FROM gis.queries");
  ASSERT_TRUE(first.ok());
  auto second = gis_.Query("SELECT MAX(id) FROM gis.queries");
  ASSERT_TRUE(second.ok());
  // Never served from cache — each scan sees a fresh snapshot, so the
  // second run observes the first one's log entry.
  EXPECT_FALSE(first->metrics.cache_hit);
  EXPECT_FALSE(second->metrics.cache_hit);
  EXPECT_EQ(second->batch.rows()[0][0].AsInt(),
            first->batch.rows()[0][0].AsInt() + 1);

  // Ordinary queries still cache.
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  auto cached = gis_.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->metrics.cache_hit);
}

TEST(SystemTablesDeterminismTest, SerialAndPooledResultsAreIdentical) {
  auto run = [](bool parallel) {
    PlannerOptions options;
    options.parallel_execution = parallel;
    auto gis = std::make_unique<GlobalSystem>(options);
    Build(gis.get());
    // Same workload either way; gis.* must render byte-identically.
    EXPECT_TRUE(gis->Query("SELECT COUNT(*) FROM orders").ok());
    EXPECT_TRUE(
        gis->Query("SELECT name FROM clients WHERE cid < 4 ORDER BY cid")
            .ok());
    EXPECT_TRUE(gis->Query("SELECT total FROM orders JOIN clients "
                           "ON orders.cid = clients.cid WHERE oid < 5 "
                           "ORDER BY oid")
                    .ok());
    std::string out;
    for (const char* q :
         {"SELECT * FROM gis.sources ORDER BY source",
          "SELECT id, sql, bytes_sent, bytes_received, messages, retries, "
          "cache_hit, rows FROM gis.queries ORDER BY id",
          // gis.metrics carries counters only (the point-in-time
          // gauges are quarantined in gis.gauges), so the whole
          // snapshot must match byte for byte — no exclusions.
          "SELECT registry, name, kind, value FROM gis.metrics "
          "ORDER BY registry, name",
          "SELECT * FROM gis.admission"}) {
      auto r = gis->Query(q);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) out += r->batch.ToString(1 << 20);
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// Validates one `{name="value",...}` label block: names are bare
/// identifiers, values are double-quoted with backslash, quote, and
/// newline escaped (the EscapeLabelValue contract).
void ValidateLabelBlock(const std::string& labels, const std::string& line) {
  ASSERT_GE(labels.size(), 2u) << line;
  ASSERT_EQ(labels.front(), '{') << line;
  ASSERT_EQ(labels.back(), '}') << line;
  size_t i = 1;
  while (i < labels.size() - 1) {
    // Label name up to '='.
    const size_t eq = labels.find('=', i);
    ASSERT_NE(eq, std::string::npos) << line;
    for (size_t j = i; j < eq; ++j) {
      const char c = labels[j];
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << "bad label name char in: " << line;
    }
    ASSERT_EQ(labels[eq + 1], '"') << line;
    // Quoted value: scan to the closing unescaped quote; raw newlines
    // and raw inner quotes are format violations.
    size_t j = eq + 2;
    bool closed = false;
    while (j < labels.size() - 1) {
      if (labels[j] == '\\') {
        ASSERT_LT(j + 1, labels.size() - 1) << line;
        const char next = labels[j + 1];
        ASSERT_TRUE(next == '\\' || next == '"' || next == 'n') << line;
        j += 2;
        continue;
      }
      ASSERT_NE(labels[j], '\n') << "raw newline in label value: " << line;
      if (labels[j] == '"') {
        closed = true;
        break;
      }
      ++j;
    }
    ASSERT_TRUE(closed) << "unterminated label value: " << line;
    i = j + 1;
    if (i < labels.size() - 1) {
      ASSERT_EQ(labels[i], ',') << line;
      ++i;
    }
  }
}

/// Minimal line-by-line validator of the Prometheus text format: every
/// sample's base name must be declared by a preceding # TYPE line,
/// label blocks must be well-formed (escaped values), histogram bucket
/// counts must be cumulative (nondecreasing), and the +Inf bucket must
/// equal _count.
void ValidatePrometheus(const std::string& text) {
  std::map<std::string, std::string> declared;  // base name -> type
  std::map<std::string, int64_t> last_bucket;
  std::map<std::string, int64_t> inf_bucket;
  std::map<std::string, int64_t> hist_count;
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream hdr(line.substr(7));
      std::string name, type;
      hdr >> name >> type;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      ASSERT_EQ(declared.count(name), 0u) << "re-declared: " << name;
      declared[name] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    ASSERT_FALSE(value.empty()) << line;
    // Strip any {label="..."} suffix down to the sample name, but
    // validate the block itself first.
    const size_t brace = key.find('{');
    if (brace != std::string::npos) {
      ValidateLabelBlock(key.substr(brace), line);
    }
    std::string sample = key.substr(0, brace);
    for (char c : sample) {
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << "bad metric name char in: " << line;
    }
    // Histogram series attach to their base name.
    std::string base = sample;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (base.size() > s.size() &&
          base.compare(base.size() - s.size(), s.size(), s) == 0 &&
          declared.count(base.substr(0, base.size() - s.size()))) {
        base = base.substr(0, base.size() - s.size());
        break;
      }
    }
    ASSERT_TRUE(declared.count(base)) << "undeclared sample: " << line;
    ++samples;
    if (declared[base] == "histogram" && sample == base + "_bucket") {
      const int64_t v = std::stoll(value);
      auto it = last_bucket.find(base);
      if (it != last_bucket.end()) {
        ASSERT_GE(v, it->second) << "non-cumulative buckets: " << line;
      }
      last_bucket[base] = v;
      if (key.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket[base] = v;
      }
    }
    if (declared[base] == "histogram" && sample == base + "_count") {
      hist_count[base] = std::stoll(value);
    }
  }
  EXPECT_GT(samples, 0);
  for (const auto& [base, count] : hist_count) {
    ASSERT_TRUE(inf_bucket.count(base)) << base << " missing +Inf bucket";
    EXPECT_EQ(inf_bucket[base], count) << base;
  }
}

TEST_F(SystemTablesTest, PrometheusExportValidatesAndCoversRegistries) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  const std::string text = gis_.ExportPrometheus();
  ValidatePrometheus(text);
  EXPECT_NE(text.find("# TYPE gisql_query_count counter"),
            std::string::npos)
      << text.substr(0, 500);
  EXPECT_NE(text.find("# TYPE gisql_net_rpc_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gisql_source_state{source=\"hq\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("gisql_source_requests_total{source=\"branch\"}"),
            std::string::npos);
}

/// The sample value of `series` (its full name with labels) in `text`.
double SampleOf(const std::string& text, const std::string& series) {
  const size_t at = text.find("\n" + series + " ");
  EXPECT_NE(at, std::string::npos) << series;
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + series.size() + 2, nullptr);
}

TEST(PrometheusCatalogueTest, LabeledDoublesRoundTripThroughExposition) {
  struct Probe {
    std::string key;
    double value = 0.0;
  };
  const Columns<Probe> columns = {Col("key", &Probe::key).Label(),
                                  Col("value", &Probe::value).Gauge("probe")};
  const std::vector<Probe> rows = {{"tiny", 1e-7}, {"third", 1.0 / 3.0}};
  std::string text = "\n";
  AppendSeries(&text, "t", columns, rows);
  ValidatePrometheus(text.substr(1));
  for (const Probe& p : rows) {
    EXPECT_EQ(SampleOf(text, "t_probe{key=\"" + p.key + "\"}"), p.value);
  }
}

TEST_F(SystemTablesTest, PrometheusLatencyEqualsGisSourcesExactly) {
  ASSERT_TRUE(gis_.Query("SELECT COUNT(*) FROM orders").ok());
  auto sources = gis_.Query("SELECT source, ewma_ms, p95_ms FROM gis.sources");
  ASSERT_TRUE(sources.ok()) << sources.status().ToString();
  const std::string text = gis_.ExportPrometheus();
  for (const auto& row : sources->batch.rows()) {
    const std::string label = "{source=\"" + row[0].AsString() + "\"}";
    EXPECT_EQ(SampleOf(text, "gisql_source_ewma_latency_ms" + label),
              row[1].AsDouble());
    EXPECT_EQ(SampleOf(text, "gisql_source_p95_latency_ms" + label),
              row[2].AsDouble());
  }
}

TEST(PrometheusRegistryTest, EmptyRegistryExportsNothing) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.ExportPrometheus(), "");
}

TEST(PrometheusRegistryTest, SanitizesNamesAndEmitsAllKinds) {
  MetricsRegistry reg;
  reg.Add("net.bytes_sent", 10);
  reg.Set("pool.size", 4.0);
  reg.Observe("rpc.ms", 1.5);
  reg.Observe("rpc.ms", 3.0);
  const std::string text = reg.ExportPrometheus("t");
  EXPECT_NE(text.find("# TYPE t_net_bytes_sent counter"),
            std::string::npos);
  EXPECT_NE(text.find("t_net_bytes_sent 10"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_pool_size gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_rpc_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("t_rpc_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_rpc_ms_count 2"), std::string::npos);
  ValidatePrometheus(text);
}

// ---------------------------------------------------------------------------
// Query log ring
// ---------------------------------------------------------------------------

TEST(QueryLogTest, RingEvictsOldestAndKeepsMonotonicIds) {
  QueryLog log(3);
  for (int i = 1; i <= 5; ++i) {
    QueryLogEntry e;
    e.sql = "q" + std::to_string(i);
    log.Append(std::move(e));
  }
  EXPECT_EQ(log.total_appended(), 5);
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, 3);
  EXPECT_EQ(entries[0].sql, "q3");
  EXPECT_EQ(entries[2].id, 5);
  EXPECT_EQ(entries[2].sql, "q5");
}

TEST(QueryLogTest, SystemKeepsMostRecentEntries) {
  GlobalSystem gis;
  Build(&gis);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        gis.Query("SELECT COUNT(*) FROM orders WHERE oid > " +
                  std::to_string(i))
            .ok());
  }
  EXPECT_EQ(gis.query_log().total_appended(), 4);
  EXPECT_EQ(gis.query_log().Snapshot().size(), 4u);
}

}  // namespace
}  // namespace gisql
