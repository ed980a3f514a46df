/// Differential testing: randomized predicates run through the full
/// mediator pipeline (bind → optimize → decompose → ship → execute) must
/// return exactly the rows that direct per-row evaluation over the
/// source's storage selects.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/global_system.h"
#include "expr/binder.h"
#include "expr/eval.h"
#include "sql/parser.h"

namespace gisql {
namespace {

/// Generates a random predicate over (k bigint, v double, s varchar,
/// d date) as SQL text.
std::string RandomPredicate(Rng& rng, int depth = 0) {
  const int pick = static_cast<int>(rng.Uniform(0, depth >= 2 ? 6 : 9));
  switch (pick) {
    case 0:
      return "k " + std::string(rng.Bernoulli(0.5) ? "<" : ">=") + " " +
             std::to_string(rng.Uniform(-10, 110));
    case 1:
      return "v " + std::string(rng.Bernoulli(0.5) ? "<=" : ">") + " " +
             std::to_string(rng.Uniform(0, 50)) + ".5";
    case 2:
      return "s LIKE '" + std::string(1, 'a' + char(rng.Uniform(0, 3))) +
             "%'";
    case 3:
      return "k IN (" + std::to_string(rng.Uniform(0, 99)) + ", " +
             std::to_string(rng.Uniform(0, 99)) + ")";
    case 4:
      return std::string("v IS ") + (rng.Bernoulli(0.5) ? "" : "NOT ") +
             "NULL";
    case 5:
      return "k BETWEEN " + std::to_string(rng.Uniform(0, 50)) + " AND " +
             std::to_string(rng.Uniform(50, 100));
    case 6:
      return "(" + RandomPredicate(rng, depth + 1) + " AND " +
             RandomPredicate(rng, depth + 1) + ")";
    case 7:
      return "(" + RandomPredicate(rng, depth + 1) + " OR " +
             RandomPredicate(rng, depth + 1) + ")";
    default:
      return "NOT (" + RandomPredicate(rng, depth + 1) + ")";
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, MediatorMatchesDirectEvaluation) {
  Rng rng(GetParam());
  GlobalSystem gis;
  // Alternate dialects so compensation paths get differential coverage.
  const SourceDialect dialect =
      GetParam() % 2 ? SourceDialect::kRelational : SourceDialect::kLegacy;
  auto src = *gis.CreateSource("s1", dialect);
  ASSERT_TRUE(src->ExecuteLocalSql(
                    "CREATE TABLE t (k bigint, v double, s varchar, "
                    "d date)")
                  .ok());
  auto table = *src->engine().GetTable("t");
  {
    std::vector<Row> rows;
    const int n = static_cast<int>(rng.Uniform(50, 400));
    for (int i = 0; i < n; ++i) {
      rows.push_back(
          {Value::Int(i),
           rng.Bernoulli(0.15) ? Value::Null(TypeId::kDouble)
                               : Value::Double(rng.Uniform(0, 50) + 0.25),
           Value::String(std::string(1, 'a' + char(rng.Uniform(0, 5))) +
                         rng.NextString(3)),
           Value::Date(rng.Uniform(6000, 8000))});
    }
    table->InsertUnchecked(std::move(rows));
  }
  ASSERT_TRUE(gis.ImportSource("s1").ok());

  Binder binder(*table->schema());
  for (int trial = 0; trial < 25; ++trial) {
    const std::string pred = RandomPredicate(rng);

    // Reference: direct evaluation over the source's storage.
    auto ast = sql::ParseScalarExpr(pred);
    ASSERT_TRUE(ast.ok()) << pred;
    auto bound = binder.BindScalar(**ast);
    ASSERT_TRUE(bound.ok()) << pred << ": " << bound.status().ToString();
    std::vector<int64_t> expected;
    for (const auto& row : table->rows()) {
      auto keep = EvalPredicate(**bound, row);
      ASSERT_TRUE(keep.ok()) << pred;
      if (*keep) expected.push_back(row[0].AsInt());
    }

    // System under test: the whole federated pipeline.
    auto result =
        gis.Query("SELECT k FROM t WHERE " + pred + " ORDER BY k");
    ASSERT_TRUE(result.ok()) << pred << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->batch.num_rows(), expected.size()) << pred;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result->batch.rows()[i][0].AsInt(), expected[i])
          << pred << " row " << i;
    }
  }
}

TEST_P(DifferentialTest, AggregatesMatchDirectEvaluation) {
  Rng rng(GetParam() + 5000);
  GlobalSystem gis;
  auto src = *gis.CreateSource("s1", SourceDialect::kRelational);
  ASSERT_TRUE(
      src->ExecuteLocalSql("CREATE TABLE t (k bigint, v double, g bigint)")
          .ok());
  auto table = *src->engine().GetTable("t");
  {
    std::vector<Row> rows;
    const int n = static_cast<int>(rng.Uniform(50, 500));
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i),
                      rng.Bernoulli(0.1)
                          ? Value::Null(TypeId::kDouble)
                          : Value::Double(rng.Uniform(0, 1000) * 0.125),
                      Value::Int(rng.Uniform(0, 7))});
    }
    table->InsertUnchecked(std::move(rows));
  }
  ASSERT_TRUE(gis.ImportSource("s1").ok());

  auto result = gis.Query(
      "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) "
      "FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Reference aggregation straight off the storage.
  std::map<int64_t, std::vector<double>> groups;
  std::map<int64_t, int64_t> totals;
  for (const auto& row : table->rows()) {
    const int64_t g = row[2].AsInt();
    ++totals[g];
    if (!row[1].is_null()) groups[g].push_back(row[1].AsDouble());
  }
  ASSERT_EQ(result->batch.num_rows(), totals.size());
  size_t r = 0;
  for (const auto& [g, count_star] : totals) {
    const auto& row = result->batch.rows()[r++];
    ASSERT_EQ(row[0].AsInt(), g);
    EXPECT_EQ(row[1].AsInt(), count_star);
    const auto& vals = groups[g];
    EXPECT_EQ(row[2].AsInt(), static_cast<int64_t>(vals.size()));
    if (vals.empty()) {
      EXPECT_TRUE(row[3].is_null());
      EXPECT_TRUE(row[4].is_null());
      EXPECT_TRUE(row[5].is_null());
      EXPECT_TRUE(row[6].is_null());
      continue;
    }
    double sum = 0, mn = vals[0], mx = vals[0];
    for (double v : vals) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(row[3].AsDouble(), sum, 1e-6);
    EXPECT_DOUBLE_EQ(row[4].AsDouble(), mn);
    EXPECT_DOUBLE_EQ(row[5].AsDouble(), mx);
    EXPECT_NEAR(row[6].AsDouble(), sum / vals.size(), 1e-9);
  }
}

/// Streamed delivery is a transport, not a semantics change: for every
/// random predicate, the concatenation of a cursor's chunks must equal
/// the materialized result byte-for-byte (ToString over all rows),
/// with serial and with pooled execution.
TEST_P(DifferentialTest, StreamedChunksConcatenateToMaterializedResult) {
  for (const bool parallel : {false, true}) {
    Rng rng(GetParam() + 9000);  // same data in every configuration
    PlannerOptions options;
    options.parallel_execution = parallel;
    GlobalSystem gis(options);
    auto src = *gis.CreateSource("s1", SourceDialect::kRelational);
    ASSERT_TRUE(src->ExecuteLocalSql(
                      "CREATE TABLE t (k bigint, v double, s varchar, "
                      "d date)")
                    .ok());
    auto table = *src->engine().GetTable("t");
    {
      std::vector<Row> rows;
      const int n = static_cast<int>(rng.Uniform(80, 300));
      for (int i = 0; i < n; ++i) {
        rows.push_back(
            {Value::Int(i),
             rng.Bernoulli(0.15)
                 ? Value::Null(TypeId::kDouble)
                 : Value::Double(rng.Uniform(0, 50) + 0.25),
             Value::String(std::string(1, 'a' + char(rng.Uniform(0, 5))) +
                           rng.NextString(3)),
             Value::Date(rng.Uniform(6000, 8000))});
      }
      table->InsertUnchecked(std::move(rows));
    }
    ASSERT_TRUE(gis.ImportSource("s1").ok());

    for (int trial = 0; trial < 8; ++trial) {
      // Alternate sorted (blocking → spooled cursor) and unsorted
      // (streamable pipeline; single-fragment order is deterministic)
      // shapes so both delivery paths get differential coverage.
      std::string sql =
          "SELECT k, v, s FROM t WHERE " + RandomPredicate(rng);
      if (trial % 2 == 0) sql += " ORDER BY k";
      auto want = gis.Query(sql);
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();

      GlobalSystem::CursorOptions copts;
      copts.chunk_rows = 1 + static_cast<int64_t>(rng.Uniform(0, 30));
      auto id = gis.OpenCursor(sql, copts);
      ASSERT_TRUE(id.ok()) << sql << ": " << id.status().ToString();
      RowBatch got;
      bool first = true;
      while (true) {
        auto chunk = gis.FetchChunk(*id);
        ASSERT_TRUE(chunk.ok()) << sql << ": "
                                << chunk.status().ToString();
        ASSERT_LE(chunk->batch.num_rows(),
                  static_cast<size_t>(copts.chunk_rows));
        if (first) {
          got = RowBatch(chunk->batch.schema());
          first = false;
        }
        for (const auto& row : chunk->batch.rows()) got.Append(row);
        if (chunk->done) break;
      }
      EXPECT_EQ(got.ToString(1 << 20), want->batch.ToString(1 << 20))
          << sql << " (parallel=" << parallel
          << " chunk_rows=" << copts.chunk_rows << ")";
    }
    EXPECT_EQ(gis.cursors().OpenCount(), 0u);
    EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(700, 712));

}  // namespace
}  // namespace gisql
