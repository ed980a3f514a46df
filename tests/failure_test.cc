/// Failure-injection and resilience tests: unreachable sources,
/// replicated-view failover, Byzantine sources returning malformed
/// bytes, the admin channel, and degenerate data shapes (empty tables,
/// all-NULL columns) through every operator.

#include <gtest/gtest.h>

#include "core/global_system.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {
namespace {

/// A Byzantine host: responds to every request with garbage bytes.
class GarbageHandler : public RpcHandler {
 public:
  Result<std::vector<uint8_t>> Handle(uint8_t, const std::vector<uint8_t>&,
                                      double*) override {
    return std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef, 0xff, 0x07};
  }
};

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      const std::string name = "replica" + std::to_string(i);
      auto src = *gis_.CreateSource(name, SourceDialect::kRelational);
      ASSERT_TRUE(
          src->ExecuteLocalSql("CREATE TABLE inv (id bigint, qty bigint)")
              .ok());
      // All replicas hold identical data.
      ASSERT_TRUE(src->ExecuteLocalSql(
                        "INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30)")
                      .ok());
      ASSERT_TRUE(
          gis_.ImportTable(name, "inv", "inv_" + name).ok());
    }
    ASSERT_TRUE(gis_.CreateReplicatedView(
                       "inventory",
                       {"inv_replica0", "inv_replica1", "inv_replica2"})
                    .ok());
  }

  GlobalSystem gis_;
};

TEST_F(ReplicationTest, ReadsExactlyOneReplica) {
  auto result = gis_.Query("SELECT SUM(qty) FROM inventory");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Not 3x60: the replicated view reads one copy.
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 60);
  EXPECT_EQ(result->metrics.messages, 1);
}

TEST_F(ReplicationTest, LatencyHintSteersReplicaChoice) {
  ASSERT_TRUE(gis_.catalog().SetLatencyHint("replica0", 100.0).ok());
  ASSERT_TRUE(gis_.catalog().SetLatencyHint("replica1", 1.0).ok());
  ASSERT_TRUE(gis_.catalog().SetLatencyHint("replica2", 50.0).ok());
  auto text = *gis_.Explain("SELECT * FROM inventory");
  EXPECT_NE(text.find("@replica1"), std::string::npos);
}

TEST_F(ReplicationTest, FailoverOnPrimaryDown) {
  // Find which replica the plan reads and take it down.
  auto text = *gis_.Explain("SELECT * FROM inventory WHERE id = 2");
  std::string primary;
  for (const char* r : {"replica0", "replica1", "replica2"}) {
    if (text.find(std::string("@") + r) != std::string::npos) primary = r;
  }
  ASSERT_FALSE(primary.empty());
  gis_.network().SetHostDown(primary, true);

  auto result = gis_.Query("SELECT qty FROM inventory WHERE id = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 20);
}

TEST_F(ReplicationTest, AllReplicasDownFails) {
  for (const char* r : {"replica0", "replica1", "replica2"}) {
    gis_.network().SetHostDown(r, true);
  }
  EXPECT_TRUE(
      gis_.Query("SELECT * FROM inventory").status().IsNetworkError());
}

TEST_F(ReplicationTest, PartitionedViewDoesNotFailOver) {
  // Union views read every member: one down member fails the query.
  ASSERT_TRUE(gis_.CreateUnionView(
                     "all_copies",
                     {"inv_replica0", "inv_replica1", "inv_replica2"})
                  .ok());
  gis_.network().SetHostDown("replica1", true);
  EXPECT_TRUE(
      gis_.Query("SELECT COUNT(*) FROM all_copies").status().IsNetworkError());
  gis_.network().SetHostDown("replica1", false);
  auto result = gis_.Query("SELECT COUNT(*) FROM all_copies");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 9);
}

TEST(AdminChannelTest, DdlAndDmlOverTheWire) {
  GlobalSystem gis;
  ASSERT_TRUE(gis.CreateSource("s1", SourceDialect::kRelational).ok());
  ASSERT_TRUE(
      gis.ExecuteAt("s1", "CREATE TABLE t (id bigint, v varchar)").ok());
  ASSERT_TRUE(gis.ExecuteAt("s1", "INSERT INTO t VALUES (1, 'x')").ok());
  ASSERT_TRUE(gis.ImportSource("s1").ok());
  auto result = gis.Query("SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.rows()[0][0].AsString(), "x");
  // Errors propagate across the admin channel.
  EXPECT_FALSE(gis.ExecuteAt("s1", "CREATE TABLE t (id bigint)").ok());
  EXPECT_FALSE(gis.ExecuteAt("s1", "SELECT 1").ok());
  EXPECT_TRUE(gis.ExecuteAt("ghost", "CREATE TABLE x (a bigint)")
                  .IsNetworkError());
  // The admin traffic was metered like everything else.
  EXPECT_GT(gis.network().metrics().Get("net.messages"), 2);
}

TEST(ByzantineTest, GarbageResponsesSurfaceAsSerializationErrors) {
  GlobalSystem gis;
  GarbageHandler garbage;
  ASSERT_TRUE(gis.network().RegisterHost("evil", &garbage).ok());
  SourceInfo info;
  info.name = "evil";
  info.dialect = SourceDialect::kRelational;
  info.capabilities = SourceCapabilities::For(SourceDialect::kRelational);
  ASSERT_TRUE(gis.catalog().RegisterSource(info).ok());
  TableMapping mapping;
  mapping.global_name = "lies";
  mapping.source_name = "evil";
  mapping.exported_name = "lies";
  mapping.schema = std::make_shared<Schema>(
      Schema({{"id", TypeId::kInt64}}).WithQualifier("lies"));
  mapping.stats.row_count = 100;
  ASSERT_TRUE(gis.catalog().RegisterTable(std::move(mapping)).ok());

  auto result = gis.Query("SELECT * FROM lies");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsSerializationError())
      << result.status().ToString();
  // Import against the Byzantine source also fails cleanly.
  EXPECT_FALSE(gis.ImportSource("evil").ok());
}

/// A source whose fragment results have the wrong arity.
class WrongArityHandler : public RpcHandler {
 public:
  Result<std::vector<uint8_t>> Handle(uint8_t, const std::vector<uint8_t>&,
                                      double*) override {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
    RowBatch batch(schema);
    batch.Append({Value::Int(1), Value::Int(2)});
    ByteWriter w;
    wire::WriteFragmentResponse(&w, batch, {});
    return w.Release();
  }
};

TEST(ByzantineTest, ArityMismatchDetected) {
  GlobalSystem gis;
  WrongArityHandler handler;
  ASSERT_TRUE(gis.network().RegisterHost("evil", &handler).ok());
  SourceInfo info;
  info.name = "evil";
  info.capabilities = SourceCapabilities::For(SourceDialect::kRelational);
  ASSERT_TRUE(gis.catalog().RegisterSource(info).ok());
  TableMapping mapping;
  mapping.global_name = "lies";
  mapping.source_name = "evil";
  mapping.exported_name = "lies";
  mapping.schema = std::make_shared<Schema>(
      Schema({{"id", TypeId::kInt64}}).WithQualifier("lies"));
  ASSERT_TRUE(gis.catalog().RegisterTable(std::move(mapping)).ok());
  auto result = gis.Query("SELECT * FROM lies");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
}

/// A real source whose fragment results and cursor chunks carry one
/// junk byte past their end (after the page-stats trailer, if any).
class TrailingByteHandler : public RpcHandler {
 public:
  explicit TrailingByteHandler(RpcHandler* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> Handle(uint8_t opcode,
                                      const std::vector<uint8_t>& request,
                                      double* processing_ms) override {
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           inner_->Handle(opcode, request, processing_ms));
    if (opcode ==
            static_cast<uint8_t>(wire::Opcode::kExecuteFragmentColumnar) ||
        opcode == static_cast<uint8_t>(wire::Opcode::kFetchChunk)) {
      payload.push_back(0x5a);
    }
    return payload;
  }

 private:
  RpcHandler* inner_;
};

TEST(ByzantineTest, TrailingBytesAfterResultAreRejected) {
  GlobalSystem gis;
  ComponentSource* src = *gis.CreateSource("s1", SourceDialect::kRelational);
  ASSERT_TRUE(src->ExecuteLocalSql("CREATE TABLE t (id bigint)").ok());
  ASSERT_TRUE(src->ExecuteLocalSql("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(gis.ImportSource("s1").ok());
  TrailingByteHandler junk(src);
  ASSERT_TRUE(gis.network().UnregisterHost("s1").ok());
  ASSERT_TRUE(gis.network().RegisterHost("s1", &junk).ok());

  auto result = gis.Query("SELECT id FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsSerializationError())
      << result.status().ToString();

  auto cursor = gis.OpenCursor("SELECT id FROM t");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto chunk = gis.FetchChunk(*cursor);
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(chunk.status().IsSerializationError())
      << chunk.status().ToString();

  ASSERT_TRUE(gis.network().UnregisterHost("s1").ok());
  ASSERT_TRUE(gis.network().RegisterHost("s1", src).ok());
}

class DegenerateDataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto src = *gis_.CreateSource("s1", SourceDialect::kRelational);
    ASSERT_TRUE(src->ExecuteLocalSql(
                      "CREATE TABLE empty_t (id bigint, v double)")
                    .ok());
    ASSERT_TRUE(src->ExecuteLocalSql(
                      "CREATE TABLE nullish (id bigint, v double, "
                      "s varchar)")
                    .ok());
    ASSERT_TRUE(src->ExecuteLocalSql(
                      "INSERT INTO nullish VALUES (1, NULL, NULL), "
                      "(2, NULL, NULL), (3, 1.5, NULL)")
                    .ok());
    ASSERT_TRUE(gis_.ImportSource("s1").ok());
  }
  GlobalSystem gis_;
};

TEST_F(DegenerateDataTest, EmptyTableThroughAllOperators) {
  auto r1 = gis_.Query("SELECT * FROM empty_t WHERE id > 0 ORDER BY v");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->batch.num_rows(), 0u);

  auto r2 = gis_.Query("SELECT COUNT(*), SUM(v), AVG(v) FROM empty_t");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->batch.rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(r2->batch.rows()[0][1].is_null());
  EXPECT_TRUE(r2->batch.rows()[0][2].is_null());

  auto r3 = gis_.Query(
      "SELECT n.id FROM nullish n JOIN empty_t e ON n.id = e.id");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->batch.num_rows(), 0u);

  auto r4 = gis_.Query(
      "SELECT n.id, e.v FROM nullish n LEFT JOIN empty_t e "
      "ON n.id = e.id ORDER BY n.id");
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->batch.num_rows(), 3u);
  EXPECT_TRUE(r4->batch.rows()[0][1].is_null());

  auto r5 = gis_.Query("SELECT DISTINCT v FROM empty_t LIMIT 5");
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->batch.num_rows(), 0u);

  auto r6 = gis_.Query("SELECT id FROM empty_t GROUP BY id");
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(r6->batch.num_rows(), 0u);
}

TEST_F(DegenerateDataTest, AllNullColumnSemantics) {
  auto agg = gis_.Query(
      "SELECT COUNT(*), COUNT(s), MIN(s), SUM(v), AVG(v) FROM nullish");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  const auto& row = agg->batch.rows()[0];
  EXPECT_EQ(row[0].AsInt(), 3);        // COUNT(*) counts rows
  EXPECT_EQ(row[1].AsInt(), 0);        // COUNT(s) skips NULLs
  EXPECT_TRUE(row[2].is_null());       // MIN of all-NULL
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(row[4].AsDouble(), 1.5);

  // NULL keys never join.
  auto self = gis_.Query(
      "SELECT COUNT(*) FROM nullish a JOIN nullish b ON a.v = b.v");
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->batch.rows()[0][0].AsInt(), 1);  // only the 1.5 row

  // NULL grouping: NULLs form one group.
  auto groups = gis_.Query(
      "SELECT v, COUNT(*) FROM nullish GROUP BY v ORDER BY v");
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->batch.num_rows(), 2u);
  EXPECT_TRUE(groups->batch.rows()[0][0].is_null());  // NULLs sort first
  EXPECT_EQ(groups->batch.rows()[0][1].AsInt(), 2);
}

TEST_F(DegenerateDataTest, DivisionByZeroSurfacesCleanly) {
  auto result = gis_.Query("SELECT id / (id - id) FROM nullish");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
}

}  // namespace
}  // namespace gisql
