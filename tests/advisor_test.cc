/// Self-driving advisor regressions (ctest -L advisor): query
/// fingerprints, the gis.queries fingerprint column, hot-template
/// auto-materialization with cold-view eviction, byte-identical
/// decision logs across serial/pooled/replayed runs, breaker-aware
/// target selection, result-cache coherence across the view lifecycle,
/// and the governor's tuning guard rails.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/global_system.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace gisql {
namespace {

/// A two-tier federation: `products` lives on "far" behind a slow WAN
/// link; "near1"/"near2" are cheap empty sites the advisor can
/// replicate onto; "home" holds a small table for background traffic.
void BuildSplitFederation(GlobalSystem* gis) {
  for (const char* name : {"far", "near1", "near2", "home"}) {
    ASSERT_TRUE(gis->CreateSource(name, SourceDialect::kRelational).ok());
  }
  LinkSpec slow;
  slow.latency_ms = 25.0;
  slow.bandwidth_mbps = 10.0;
  gis->network().SetLink(GlobalSystem::kMediatorHost, "far", slow);

  ASSERT_TRUE(
      gis->ExecuteAt("far",
                     "CREATE TABLE products (pid bigint, pname string, "
                     "price double)")
          .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(gis->ExecuteAt("far", "INSERT INTO products VALUES (" +
                                          std::to_string(i) + ", 'p" +
                                          std::to_string(i) + "', " +
                                          std::to_string(i * 2.5) + ")")
                    .ok());
  }
  ASSERT_TRUE(
      gis->ExecuteAt("home", "CREATE TABLE local_t (id bigint, v double)")
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(gis->ExecuteAt("home", "INSERT INTO local_t VALUES (" +
                                           std::to_string(i) + ", " +
                                           std::to_string(i * 0.5) + ")")
                    .ok());
  }
  ASSERT_TRUE(gis->ImportSource("far").ok());
  ASSERT_TRUE(gis->ImportSource("home").ok());
}

PlannerOptions AdvisorOptions() {
  PlannerOptions options;
  options.parallel_execution = false;
  options.advisor.enabled = true;
  options.advisor.interval_ms = 1.0;  // tick after every statement
  options.advisor.window_ms = 100000.0;
  options.advisor.hot_threshold = 3;
  options.advisor.min_gain_ms = 1.0;
  options.advisor.max_views = 1;
  options.advisor.cold_ticks = 3;
  return options;
}

std::string ProductQuery(int pid) {
  return "SELECT pname, price FROM products WHERE pid = " +
         std::to_string(pid);
}

TEST(Fingerprint, CollapsesLiteralsOnly) {
  EXPECT_EQ(sql::NormalizeStatement("SELECT x FROM t WHERE id = 7"),
            sql::NormalizeStatement("select x from t  where id=42"));
  EXPECT_EQ(sql::FingerprintHex("SELECT x FROM t WHERE id = 7"),
            sql::FingerprintHex("SELECT x FROM t WHERE id = 42"));
  EXPECT_NE(sql::FingerprintHex("SELECT x FROM t WHERE id = 7"),
            sql::FingerprintHex("SELECT x FROM u WHERE id = 7"));
  EXPECT_NE(sql::FingerprintHex("SELECT x FROM t WHERE id = 'a'"),
            sql::FingerprintHex("SELECT y FROM t WHERE id = 'a'"));
  EXPECT_EQ(sql::FingerprintHex("SELECT 1").size(), 16u);
}

TEST(Fingerprint, StampedIntoQueryLog) {
  GlobalSystem gis;
  BuildSplitFederation(&gis);
  ASSERT_TRUE(gis.Query(ProductQuery(1)).ok());
  ASSERT_TRUE(gis.Query(ProductQuery(17)).ok());

  auto r = gis.Query("SELECT sql, fingerprint FROM gis.queries");
  ASSERT_TRUE(r.ok());
  const std::string expected = sql::FingerprintHex(ProductQuery(1));
  int matches = 0;
  for (const auto& row : r->batch.rows()) {
    if (row[0].AsString().find("FROM products") == std::string::npos) continue;
    EXPECT_EQ(row[1].AsString(), expected);
    ++matches;
  }
  EXPECT_EQ(matches, 2);  // both literals collapse to one template
}

TEST(Fingerprint, ParseTokensGiveTheSqlFingerprint) {
  // The parse stamps the fingerprint from its own tokens; it must equal
  // the one FingerprintHex re-lexes the text for.
  const std::vector<std::string> corpus = {
      "SELECT x FROM t WHERE id = 7",
      "select x from t  where id=42",
      "SELECT\tx\nFROM t\r\n  WHERE id = -7.25e3",
      "SELECT x FROM t WHERE name = 'it''s' AND id IN (1, 2.5, 'x')",
      "SELECT x FROM t -- a trailing comment",
      "-- leading comment\nSELECT x FROM t;",
      "SELECT \"Quoted Col\", t.y FROM t WHERE a <> b AND c >= 1 "
      "OR d <= 2 OR e < 3 OR f > 4",
      "SELECT COUNT(*) / 2 % 3 + 1 FROM t GROUP BY y ORDER BY y LIMIT 5",
      "EXPLAIN SELECT pname FROM products WHERE pid = 3",
      "SELECT FROM WHERE",  // lexes, does not parse
      "",
  };
  int parsed = 0;
  for (const std::string& text : corpus) {
    auto tokens = sql::Lexer(text).Tokenize();
    ASSERT_TRUE(tokens.ok()) << text;
    EXPECT_EQ(sql::FingerprintHex(*tokens), sql::FingerprintHex(text))
        << text;
    auto stmt = sql::ParseStatement(text);
    if (!stmt.ok()) continue;
    EXPECT_EQ(stmt->fingerprint, sql::FingerprintHex(text)) << text;
    ++parsed;
  }
  EXPECT_EQ(parsed, 9);
}

TEST(Fingerprint, ParsedAndNeverParsedStatementsInQueryLog) {
  PlannerOptions options;
  options.cursor_max_open = 1;
  GlobalSystem gis(options);
  BuildSplitFederation(&gis);
  auto id = gis.OpenCursor(ProductQuery(4));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Over the cursor cap the open is shed before any parse; this text
  // does not even lex, so it is its own template.
  const std::string bad = "SELECT 'unterminated FROM products";
  ASSERT_FALSE(sql::Lexer(bad).Tokenize().ok());
  EXPECT_EQ(sql::NormalizeStatement(bad), bad);
  auto shed = gis.OpenCursor(bad);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status().ToString();
  ASSERT_TRUE(gis.CloseCursor(*id).ok());

  auto r = gis.Query("SELECT sql, fingerprint FROM gis.queries");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), 2u);
  for (const auto& row : r->batch.rows()) {
    EXPECT_EQ(row[1].AsString(), sql::FingerprintHex(row[0].AsString()))
        << row[0].AsString();
  }
}

TEST(Advisor, MaterializesHotTemplateAndServesSameRows) {
  GlobalSystem gis(AdvisorOptions());
  BuildSplitFederation(&gis);

  auto before = gis.Query(ProductQuery(3));
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(gis.Query(ProductQuery(i)).ok());
  }

  // The hot template's base table was promoted to a replicated view
  // over the aliased base and a fresh replica on the cheapest site
  // (near1: ties in observed cost break by sorted source name).
  EXPECT_TRUE(gis.catalog().HasView("products"));
  EXPECT_TRUE(gis.catalog().HasTable("products__base"));
  EXPECT_TRUE(gis.catalog().HasTable("products__near1"));
  EXPECT_GE(gis.advisor().counters().materializations, 1);

  // Promotion is invisible to results.
  auto after = gis.Query(ProductQuery(3));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->batch.num_rows(), before->batch.num_rows());
  for (size_t i = 0; i < before->batch.num_rows(); ++i) {
    for (size_t c = 0; c < before->batch.rows()[i].size(); ++c) {
      EXPECT_EQ(
          after->batch.rows()[i][c].Compare(before->batch.rows()[i][c]), 0);
    }
  }

  // The decision is queryable through the gis.advisor virtual table.
  auto log = gis.Query(
      "SELECT kind, target, outcome FROM gis.advisor WHERE kind = "
      "'materialize'");
  ASSERT_TRUE(log.ok());
  ASSERT_GE(log->batch.num_rows(), 1u);
  EXPECT_EQ(log->batch.rows()[0][1].AsString(), "products");
  EXPECT_EQ(log->batch.rows()[0][2].AsString(), "ok");
}

TEST(Advisor, EvictsColdViewAndRestoresBaseTable) {
  PlannerOptions options = AdvisorOptions();
  // Finite observation window so the hot template can age out of it.
  options.advisor.window_ms = 400.0;
  GlobalSystem gis(options);
  BuildSplitFederation(&gis);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(gis.Query(ProductQuery(i)).ok());
  }
  ASSERT_TRUE(gis.catalog().HasView("products"));

  // Background traffic on another table keeps the clock ticking while
  // the products view ages out of the window and goes cold.
  for (int i = 0; i < 120 && gis.catalog().HasView("products"); ++i) {
    ASSERT_TRUE(
        gis.Query("SELECT v FROM local_t WHERE id = " + std::to_string(i % 10))
            .ok());
  }

  EXPECT_FALSE(gis.catalog().HasView("products"));
  EXPECT_TRUE(gis.catalog().HasTable("products"));
  EXPECT_FALSE(gis.catalog().HasTable("products__base"));
  EXPECT_GE(gis.advisor().counters().evictions, 1);

  auto r = gis.Query(ProductQuery(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->batch.num_rows(), 1u);
}

/// One deterministic mixed workload; returns the advisor's canonical
/// decision log.
std::string RunAdvisorWorkload(PlannerOptions options) {
  GlobalSystem gis(options);
  BuildSplitFederation(&gis);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(gis.Query(ProductQuery((round * 3 + i) % 20)).ok());
    }
    EXPECT_TRUE(
        gis.Query("SELECT v FROM local_t WHERE id = " + std::to_string(round))
            .ok());
  }
  return gis.advisor().LogText();
}

TEST(Advisor, DecisionLogBytesIdenticalSerialPooledReplayed) {
  PlannerOptions serial = AdvisorOptions();
  PlannerOptions pooled = AdvisorOptions();
  pooled.parallel_execution = true;
  pooled.worker_threads = 4;

  const std::string serial_log = RunAdvisorWorkload(serial);
  const std::string pooled_log = RunAdvisorWorkload(pooled);
  const std::string replay_log = RunAdvisorWorkload(serial);

  EXPECT_FALSE(serial_log.empty());
  EXPECT_EQ(serial_log, pooled_log);
  EXPECT_EQ(serial_log, replay_log);
}

TEST(Advisor, NeverTargetsABreakerOpenSource) {
  PlannerOptions options = AdvisorOptions();
  options.breaker.enabled = true;
  GlobalSystem gis(options);
  BuildSplitFederation(&gis);

  // Open near1's breaker (the tie-break favorite) before the template
  // gets hot: the advisor must place the replica elsewhere.
  for (int i = 0; i < options.breaker.open_after; ++i) {
    gis.governor().breakers().OnSourceOutcome("near1", false);
  }
  ASSERT_EQ(gis.governor().breakers().StateOf("near1"), BreakerState::kOpen);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(gis.Query(ProductQuery(i)).ok());
  }

  EXPECT_TRUE(gis.catalog().HasView("products"));
  EXPECT_FALSE(gis.catalog().HasTable("products__near1"));
  EXPECT_TRUE(gis.catalog().HasTable("products__near2"));
  for (const auto& d : gis.advisor().Decisions()) {
    if (d.kind == "materialize") {
      EXPECT_EQ(d.action.find("-> near1"), std::string::npos) << d.action;
    }
  }
}

TEST(Advisor, CacheStaysCoherentAcrossViewLifecycle) {
  GlobalSystem gis;  // advisor off: drive the lifecycle directly
  BuildSplitFederation(&gis);
  gis.EnableResultCache();

  const std::string q = ProductQuery(1);
  ASSERT_TRUE(gis.Query(q).ok());
  auto hit = gis.Query(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->metrics.cache_hit);

  // Promote then demote: the plan shape ends up identical to the
  // cached entry's, so without table-level invalidation the stale
  // pre-promotion entry would be served.
  auto replica = gis.MaterializeReplica("products", "near1");
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(*replica, "products__near1");
  ASSERT_TRUE(gis.DemoteReplicatedView("products").ok());

  auto fresh = gis.Query(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->metrics.cache_hit);
  ASSERT_EQ(fresh->batch.num_rows(), 1u);
  EXPECT_EQ(fresh->batch.rows()[0][0].AsString(), "p1");

  // And the cache works again after the lifecycle completes.
  auto rehit = gis.Query(q);
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit->metrics.cache_hit);
}

TEST(Advisor, GovernorClampsTuningToGuardRails) {
  GlobalSystem gis;
  ResourceGovernor& governor = gis.governor();

  // Watermarks stay within [0.1, defaults]; background never exceeds
  // normal.
  const auto [bg_low, norm_low] = governor.SetAdmissionWatermarks(0.0, 0.0);
  EXPECT_DOUBLE_EQ(bg_low, 0.1);
  EXPECT_DOUBLE_EQ(norm_low, 0.1);
  const auto [bg_high, norm_high] =
      governor.SetAdmissionWatermarks(5.0, 5.0);
  EXPECT_DOUBLE_EQ(bg_high, 0.5);
  EXPECT_DOUBLE_EQ(norm_high, 0.8);

  // The per-query cap stays within [base/2, min(4*base, global)].
  const int64_t base = gis.options().memory.query_bytes;
  EXPECT_EQ(governor.SetQueryMemCap(1), base / 2);
  const int64_t ceiling =
      std::min(4 * base, governor.memory().global_cap());
  EXPECT_EQ(governor.SetQueryMemCap(INT64_MAX), ceiling);
}

TEST(Advisor, KillSwitchAndDefaultOff) {
  {
    GlobalSystem gis;  // default options: advisor present but disabled
    EXPECT_FALSE(gis.advisor().enabled());
  }
  setenv("GISQL_ADVISOR_KILL", "1", 1);
  {
    GlobalSystem gis(AdvisorOptions());
    EXPECT_FALSE(gis.advisor().enabled());
  }
  unsetenv("GISQL_ADVISOR_KILL");
  {
    GlobalSystem gis(AdvisorOptions());
    EXPECT_TRUE(gis.advisor().enabled());
  }
}

}  // namespace
}  // namespace gisql
