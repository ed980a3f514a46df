/// Unit tests for component sources: local DDL/DML, fragment execution,
/// capability enforcement, and the RPC surface over the simulated net.

#include <gtest/gtest.h>

#include <fstream>

#include "expr/binder.h"
#include "net/sim_network.h"
#include "source/component_source.h"
#include "sql/parser.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {
namespace {

/// Creates a populated RELATIONAL source with an `orders` table.
ComponentSourcePtr MakeOrdersSource(SourceDialect dialect,
                                    int n_rows = 100) {
  auto src = std::make_shared<ComponentSource>("s1", dialect);
  EXPECT_TRUE(src->ExecuteLocalSql("CREATE TABLE orders (id bigint, "
                                   "amount double, region varchar)")
                  .ok());
  auto table = *src->engine().GetTable("orders");
  std::vector<Row> rows;
  for (int i = 0; i < n_rows; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i * 2.0),
                    Value::String(i % 2 ? "east" : "west")});
  }
  table->InsertUnchecked(std::move(rows));
  return src;
}

ExprPtr BindOnOrders(const ComponentSourcePtr& src, const std::string& text) {
  auto table = *src->engine().GetTable("orders");
  auto ast = sql::ParseScalarExpr(text);
  EXPECT_TRUE(ast.ok());
  Binder binder(*table->schema());
  auto e = binder.BindScalar(**ast);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return *e;
}

TEST(ComponentSourceTest, LocalDdlAndDml) {
  ComponentSource src("s1", SourceDialect::kRelational);
  ASSERT_TRUE(
      src.ExecuteLocalSql("CREATE TABLE t (id bigint, name varchar)").ok());
  ASSERT_TRUE(
      src.ExecuteLocalSql("INSERT INTO t VALUES (1, 'a'), (2, NULL)").ok());
  auto table = *src.engine().GetTable("t");
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_TRUE(table->rows()[1][1].is_null());
  // Key column indexed automatically.
  EXPECT_NE(table->GetHashIndex(0), nullptr);
  // SELECT locally is rejected: autonomy boundary.
  EXPECT_TRUE(src.ExecuteLocalSql("SELECT * FROM t").IsInvalidArgument());
  // Bad inserts surface storage errors.
  EXPECT_FALSE(src.ExecuteLocalSql("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(src.ExecuteLocalSql("INSERT INTO missing VALUES (1)").ok());
}

TEST(ComponentSourceTest, PlainScanFragment) {
  auto src = MakeOrdersSource(SourceDialect::kLegacy);
  FragmentPlan frag;
  frag.table = "orders";
  int64_t scanned = 0;
  auto batch = src->ExecuteFragment(frag, &scanned);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->num_rows(), 100u);
  EXPECT_EQ(scanned, 100);
  EXPECT_EQ(batch->schema()->num_fields(), 3u);
}

TEST(ComponentSourceTest, FilterFragment) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "amount > 100.0");
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 49u);  // ids 51..99
}

TEST(ComponentSourceTest, ProjectionFragment) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.projections = {BindOnOrders(src, "id"),
                      BindOnOrders(src, "amount * 1.1")};
  frag.projection_names = {"id", "taxed"};
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->schema()->num_fields(), 2u);
  EXPECT_EQ(batch->schema()->field(1).name, "taxed");
  EXPECT_DOUBLE_EQ(batch->rows()[10][1].AsDouble(), 22.0);
}

TEST(ComponentSourceTest, LimitFragment) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.limit = 7;
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 7u);
}

TEST(ComponentSourceTest, TopNFragment) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.order_by = {BindOnOrders(src, "amount")};
  frag.order_ascending = {false};
  frag.limit = 3;
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->num_rows(), 3u);
  EXPECT_DOUBLE_EQ(batch->rows()[0][1].AsDouble(), 99 * 2.0);
  EXPECT_DOUBLE_EQ(batch->rows()[2][1].AsDouble(), 97 * 2.0);

  // Order without limit sorts the whole fragment.
  frag.limit = -1;
  batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 100u);
  EXPECT_DOUBLE_EQ(batch->rows()[99][1].AsDouble(), 0.0);
}

TEST(ComponentSourceTest, TopNOverAggregate) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.has_aggregate = true;
  frag.group_by = {BindOnOrders(src, "region")};
  BoundAggregate sum;
  sum.kind = AggKind::kSum;
  sum.arg = BindOnOrders(src, "amount");
  sum.result_type = TypeId::kDouble;
  sum.display = "SUM(amount)";
  frag.aggregates = {sum};
  // Order by the aggregate output column (index 1 of the output row).
  frag.order_by = {MakeColumn(1, TypeId::kDouble, "SUM(amount)")};
  frag.order_ascending = {false};
  frag.limit = 1;
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->num_rows(), 1u);
  // Odd ids (east) sum to 2*(1+3+...+99)=9900 > west's 9800.
  EXPECT_EQ(batch->rows()[0][0].AsString(), "east");
}

TEST(CapabilityTest, KeyValueRejectsOrderBy) {
  auto src = MakeOrdersSource(SourceDialect::kKeyValue);
  FragmentPlan frag;
  frag.table = "orders";
  frag.order_by = {BindOnOrders(src, "amount")};
  frag.order_ascending = {true};
  frag.limit = 3;
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());
}

TEST(ComponentSourceTest, SemijoinViaIndex) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.semijoin_column = 0;  // key column — index exists
  frag.semijoin_values = {Value::Int(3), Value::Int(50), Value::Int(999)};
  int64_t scanned = 0;
  auto batch = src->ExecuteFragment(frag, &scanned);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 2u);  // 999 misses
  EXPECT_EQ(scanned, 2);             // index lookups, not a full scan
}

TEST(ComponentSourceTest, SemijoinWithoutIndexScans) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.semijoin_column = 2;  // region — no index
  frag.semijoin_values = {Value::String("east")};
  int64_t scanned = 0;
  auto batch = src->ExecuteFragment(frag, &scanned);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 50u);
  EXPECT_EQ(scanned, 100);  // full scan
}

TEST(ComponentSourceTest, AggregateFragment) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.has_aggregate = true;
  frag.group_by = {BindOnOrders(src, "region")};
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  count.display = "COUNT(*)";
  BoundAggregate sum;
  sum.kind = AggKind::kSum;
  sum.arg = BindOnOrders(src, "amount");
  sum.result_type = TypeId::kDouble;
  sum.display = "SUM(amount)";
  frag.aggregates = {count, sum};

  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->num_rows(), 2u);
  double total = 0;
  int64_t n = 0;
  for (const auto& row : batch->rows()) {
    n += row[1].AsInt();
    total += row[2].AsDouble();
  }
  EXPECT_EQ(n, 100);
  EXPECT_DOUBLE_EQ(total, 2.0 * (99 * 100 / 2));
}

TEST(ComponentSourceTest, GlobalAggregateOnEmptyInput) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "amount > 1e9");
  frag.has_aggregate = true;
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  count.display = "COUNT(*)";
  BoundAggregate mx;
  mx.kind = AggKind::kMax;
  mx.arg = BindOnOrders(src, "amount");
  mx.result_type = TypeId::kDouble;
  mx.display = "MAX(amount)";
  frag.aggregates = {count, mx};
  auto batch = src->ExecuteFragment(frag);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->num_rows(), 1u);
  EXPECT_EQ(batch->rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(batch->rows()[0][1].is_null());
}

TEST(CapabilityTest, LegacyRejectsEverything) {
  auto src = MakeOrdersSource(SourceDialect::kLegacy);
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "amount > 1.0");
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());

  frag = FragmentPlan{};
  frag.table = "orders";
  frag.limit = 5;
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());

  frag = FragmentPlan{};
  frag.table = "orders";
  frag.projections = {BindOnOrders(src, "id")};
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());
}

TEST(CapabilityTest, DocumentAllowsFilterNotAggregate) {
  auto src = MakeOrdersSource(SourceDialect::kDocument);
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "amount > 100.0");
  EXPECT_TRUE(src->ExecuteFragment(frag).ok());

  frag.has_aggregate = true;
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  frag.aggregates = {count};
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());
}

TEST(CapabilityTest, KeyValueSemijoinKeyOnly) {
  auto src = MakeOrdersSource(SourceDialect::kKeyValue);
  FragmentPlan frag;
  frag.table = "orders";
  frag.semijoin_column = 0;
  frag.semijoin_values = {Value::Int(1)};
  EXPECT_TRUE(src->ExecuteFragment(frag).ok());

  frag.semijoin_column = 2;  // non-key
  frag.semijoin_values = {Value::String("east")};
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());

  // No filter capability either.
  frag = FragmentPlan{};
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "amount > 1.0");
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsCapabilityError());
}

TEST(CapabilityTest, DistinctAggregateNeverShips) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  FragmentPlan frag;
  frag.table = "orders";
  frag.has_aggregate = true;
  BoundAggregate agg;
  agg.kind = AggKind::kCount;
  agg.arg = BindOnOrders(src, "region");
  agg.distinct = true;
  frag.aggregates = {agg};
  EXPECT_TRUE(src->ExecuteFragment(frag).status().IsInvalidArgument());
}

TEST(SnapshotTest, SaveAndLoadRoundTrip) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  ASSERT_TRUE(src->ExecuteLocalSql(
                    "CREATE TABLE tags (id bigint, t varchar)")
                  .ok());
  ASSERT_TRUE(
      src->ExecuteLocalSql("INSERT INTO tags VALUES (1, NULL), (2, 'x')")
          .ok());
  const std::string path = ::testing::TempDir() + "/snap_test.gisql";
  ASSERT_TRUE(src->SaveSnapshot(path).ok());

  ComponentSource restored("s2", SourceDialect::kRelational);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  auto names = restored.engine().TableNames();
  ASSERT_EQ(names.size(), 2u);
  auto orders = *restored.engine().GetTable("orders");
  EXPECT_EQ(orders->num_rows(), 100);
  EXPECT_EQ(orders->schema()->num_fields(), 3u);
  auto tags = *restored.engine().GetTable("tags");
  ASSERT_EQ(tags->num_rows(), 2);
  EXPECT_TRUE(tags->rows()[0][1].is_null());
  EXPECT_EQ(tags->rows()[1][1].AsString(), "x");
  // Key index restored for KV-style lookups.
  EXPECT_NE(orders->GetHashIndex(0), nullptr);
}

TEST(SnapshotTest, LoadRequiresEmptyEngine) {
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  const std::string path = ::testing::TempDir() + "/snap_test2.gisql";
  ASSERT_TRUE(src->SaveSnapshot(path).ok());
  EXPECT_TRUE(src->LoadSnapshot(path).IsInvalidArgument());
}

TEST(SnapshotTest, CorruptSnapshotsRejected) {
  ComponentSource src("s1", SourceDialect::kRelational);
  EXPECT_TRUE(src.LoadSnapshot("/nonexistent.gisql").IsIOError());

  const std::string bad_path = ::testing::TempDir() + "/bad.gisql";
  {
    std::ofstream out(bad_path, std::ios::binary);
    out << "definitely not a snapshot";
  }
  EXPECT_TRUE(src.LoadSnapshot(bad_path).IsSerializationError());
}

TEST(SourceRpcTest, FullProtocolOverSimNet) {
  SimNetwork net;
  auto src = MakeOrdersSource(SourceDialect::kRelational);
  ASSERT_TRUE(net.RegisterHost("s1", src.get()).ok());

  // Ping.
  auto ping = net.Call("mediator", "s1",
                       static_cast<uint8_t>(wire::Opcode::kPing), {});
  ASSERT_TRUE(ping.ok());

  // ListTables.
  auto list = net.Call("mediator", "s1",
                       static_cast<uint8_t>(wire::Opcode::kListTables), {});
  ASSERT_TRUE(list.ok());
  ByteReader lr(list->payload);
  EXPECT_EQ(*lr.GetVarint(), 1u);
  EXPECT_EQ(*lr.GetString(), "orders");

  // GetSchema.
  ByteWriter req;
  req.PutString("orders");
  auto schema_resp =
      net.Call("mediator", "s1",
               static_cast<uint8_t>(wire::Opcode::kGetSchema), req.data());
  ASSERT_TRUE(schema_resp.ok());
  ByteReader sr(schema_resp->payload);
  auto schema = wire::ReadSchema(&sr);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 3u);

  // GetStats.
  auto stats_resp =
      net.Call("mediator", "s1",
               static_cast<uint8_t>(wire::Opcode::kGetStats), req.data());
  ASSERT_TRUE(stats_resp.ok());
  ByteReader tr(stats_resp->payload);
  auto stats = wire::ReadTableStats(&tr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 100);

  // ExecuteFragment.
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOnOrders(src, "id < 10");
  auto frag_resp = net.Call(
      "mediator", "s1",
      static_cast<uint8_t>(wire::Opcode::kExecuteFragmentColumnar),
      wire::SerializeFragment(frag));
  ASSERT_TRUE(frag_resp.ok()) << frag_resp.status().ToString();
  ByteReader br(frag_resp->payload);
  auto batch = wire::ReadResultBatch(&br);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows.num_rows(), 10u);

  // Unknown table error propagates across the wire.
  ByteWriter bad;
  bad.PutString("ghost");
  auto err = net.Call("mediator", "s1",
                      static_cast<uint8_t>(wire::Opcode::kGetSchema),
                      bad.data());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(SourceRpcTest, ProcessingTimeScalesWithRows) {
  SimNetwork net;
  auto small = MakeOrdersSource(SourceDialect::kRelational, 10);
  auto big_src = std::make_shared<ComponentSource>(
      "s2", SourceDialect::kRelational);
  ASSERT_TRUE(big_src
                  ->ExecuteLocalSql("CREATE TABLE orders (id bigint, "
                                    "amount double, region varchar)")
                  .ok());
  {
    auto table = *big_src->engine().GetTable("orders");
    std::vector<Row> rows;
    for (int i = 0; i < 100000; ++i) {
      rows.push_back({Value::Int(i), Value::Double(i), Value::String("x")});
    }
    table->InsertUnchecked(std::move(rows));
  }
  ASSERT_TRUE(net.RegisterHost("s1", small.get()).ok());
  ASSERT_TRUE(net.RegisterHost("s2", big_src.get()).ok());

  FragmentPlan count_frag;
  count_frag.table = "orders";
  count_frag.has_aggregate = true;
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  count.display = "COUNT(*)";
  count_frag.aggregates = {count};
  const auto payload = wire::SerializeFragment(count_frag);

  const auto opcode =
      static_cast<uint8_t>(wire::Opcode::kExecuteFragmentColumnar);
  auto r_small = net.Call("m", "s1", opcode, payload);
  auto r_big = net.Call("m", "s2", opcode, payload);
  ASSERT_TRUE(r_small.ok());
  ASSERT_TRUE(r_big.ok());
  // Both responses are one aggregate row, so the elapsed difference is
  // dominated by simulated scan CPU.
  EXPECT_GT(r_big->elapsed_ms, r_small->elapsed_ms);
}

// ---------------------------------------------------------------------------
// Fragment shapes: each test pins the exact rows (and their order) that
// ExecuteFragment returns for one pushdown shape, ties and NULLs
// included, so the operator bodies a source runs can be swapped without
// changing an answer.
// ---------------------------------------------------------------------------

class FragmentShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(src_.ExecuteLocalSql("CREATE TABLE ord (id bigint, cust "
                                     "bigint, amount double, region "
                                     "varchar)")
                    .ok());
    // Ties on amount and region, NULL amounts, a NULL and a dangling
    // customer key.
    ASSERT_TRUE(src_.ExecuteLocalSql(
                        "INSERT INTO ord VALUES (0, 1, 5.0, 'w'), "
                        "(1, 2, NULL, 'e'), (2, 1, 3.0, 'e'), "
                        "(3, 3, 5.0, 'w'), (4, 2, NULL, 'w'), "
                        "(5, 9, 3.0, 'e'), (6, 3, 5.0, 'e'), "
                        "(7, NULL, 1.0, 'w')")
                    .ok());
    ASSERT_TRUE(src_.ExecuteLocalSql(
                        "CREATE TABLE cust (id bigint, name varchar, tier "
                        "bigint)")
                    .ok());
    ASSERT_TRUE(src_.ExecuteLocalSql("INSERT INTO cust VALUES (1, 'ann', "
                                     "2), (2, 'bob', 1), (3, 'cyd', 2)")
                    .ok());
  }

  /// Binds `text` over `ord`'s columns, or over `ord ++ cust` when
  /// `joined` (the row space of an index-nested-loop join).
  ExprPtr Bind(const std::string& text, bool joined = false) {
    std::vector<Field> fields =
        (*src_.engine().GetTable("ord"))->schema()->fields();
    if (joined) {
      const auto& inner = (*src_.engine().GetTable("cust"))->schema();
      fields.insert(fields.end(), inner->fields().begin(),
                    inner->fields().end());
    }
    const Schema schema(std::move(fields));
    auto ast = sql::ParseScalarExpr(text);
    EXPECT_TRUE(ast.ok()) << text;
    auto e = Binder(schema).BindScalar(**ast);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return *e;
  }

  static BoundAggregate Agg(AggKind kind, ExprPtr arg, TypeId type,
                            std::string display, bool distinct = false) {
    BoundAggregate a;
    a.kind = kind;
    a.arg = std::move(arg);
    a.result_type = type;
    a.display = std::move(display);
    a.distinct = distinct;
    return a;
  }

  /// Runs `frag` over `ord` and returns column `col` of every row.
  std::vector<std::string> Column(FragmentPlan frag, size_t col,
                                  int64_t* scanned = nullptr) {
    frag.table = "ord";
    auto batch = src_.ExecuteFragment(frag, scanned);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    std::vector<std::string> out;
    if (!batch.ok()) return out;
    for (const Row& row : batch->rows()) out.push_back(row[col].ToString());
    return out;
  }

  using Strings = std::vector<std::string>;
  ComponentSource src_{"s1", SourceDialect::kRelational};
};

TEST_F(FragmentShapeTest, OrderByKeepsTiesInInputOrderWithNullsLowest) {
  FragmentPlan frag;
  frag.order_by = {Bind("amount")};
  frag.order_ascending = {true};
  EXPECT_EQ(Column(frag, 0), (Strings{"1", "4", "7", "2", "5", "0", "3", "6"}));
  frag.order_ascending = {false};
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "3", "6", "2", "5", "7", "1", "4"}));
  frag.order_by = {Bind("region"), Bind("amount")};
  frag.order_ascending = {true, false};
  EXPECT_EQ(Column(frag, 0), (Strings{"6", "2", "5", "1", "0", "3", "7", "4"}));
  // Top-N cuts after the sort, inside a tie.
  frag.order_by = {Bind("amount")};
  frag.order_ascending = {false};
  frag.limit = 2;
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "3"}));
  frag.order_ascending = {true};
  frag.limit = 1;
  EXPECT_EQ(Column(frag, 0), (Strings{"1"}));
}

TEST_F(FragmentShapeTest, TopNOverAnAggregate) {
  FragmentPlan frag;
  frag.has_aggregate = true;
  frag.group_by = {Bind("cust")};
  frag.aggregates = {
      Agg(AggKind::kCountStar, nullptr, TypeId::kInt64, "COUNT(*)"),
      Agg(AggKind::kSum, Bind("amount"), TypeId::kDouble, "SUM(amount)")};
  // Groups in first-seen order: 1, 2, 3, 9, NULL.
  frag.order_by = {MakeColumn(2, TypeId::kDouble, "SUM(amount)")};
  frag.order_ascending = {false};
  frag.limit = 3;
  EXPECT_EQ(Column(frag, 0), (Strings{"3", "1", "9"}));
  EXPECT_EQ(Column(frag, 2), (Strings{"10", "8", "3"}));
  frag.order_ascending = {true};
  frag.limit = 2;
  EXPECT_EQ(Column(frag, 0), (Strings{"2", "NULL"}));
  frag.order_by = {MakeColumn(1, TypeId::kInt64, "COUNT(*)")};
  frag.order_ascending = {false};
  EXPECT_EQ(Column(frag, 0), (Strings{"1", "2"}));
}

TEST_F(FragmentShapeTest, AggregateWithLimitAndNoOrderKeepsFirstGroups) {
  FragmentPlan frag;
  frag.has_aggregate = true;
  frag.group_by = {Bind("cust")};
  frag.aggregates = {
      Agg(AggKind::kCountStar, nullptr, TypeId::kInt64, "COUNT(*)")};
  frag.limit = 2;
  EXPECT_EQ(Column(frag, 0), (Strings{"1", "2"}));
  EXPECT_EQ(Column(frag, 1), (Strings{"2", "2"}));
  frag.limit = 0;
  EXPECT_EQ(Column(frag, 0), Strings{});
  // A global aggregate under LIMIT 0 emits no row either.
  frag.group_by.clear();
  EXPECT_EQ(Column(frag, 0), Strings{});
  frag.limit = 1;
  EXPECT_EQ(Column(frag, 0), (Strings{"8"}));
}

TEST_F(FragmentShapeTest, ProjectionWithLimitAndNoOrderStopsEarly) {
  FragmentPlan frag;
  frag.projections = {Bind("id"), Bind("100 / (id - 3)")};
  frag.projection_names = {"id", "q"};
  frag.limit = 3;
  // Row 3 would divide by zero; the projection stops before it.
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "1", "2"}));
  EXPECT_EQ(Column(frag, 1), (Strings{"-33", "-50", "-100"}));
  frag.limit = 4;
  frag.table = "ord";
  EXPECT_FALSE(src_.ExecuteFragment(frag).ok());
  // Without projections the rows pass through, cut at the limit.
  frag.projections.clear();
  frag.projection_names.clear();
  frag.limit = 2;
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "1"}));
  // A filter sees every row, so its error past the limit still
  // surfaces, as it would at the mediator.
  frag.filter = Bind("100 / (id - 5) > -1000");
  frag.table = "ord";
  EXPECT_FALSE(src_.ExecuteFragment(frag).ok());
  frag.filter = Bind("amount > 2.0");
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "2"}));
}

TEST_F(FragmentShapeTest, IndexJoinWithPostJoinFilterAndTopN) {
  FragmentPlan frag;
  frag.join_table = "cust";
  frag.join_outer_column = 1;
  frag.join_inner_column = 0;
  // References a customer column, so it runs on the joined row.
  frag.filter = Bind("cust.tier = 2 AND ord.amount IS NOT NULL", true);
  frag.order_by = {Bind("ord.amount", true)};
  frag.order_ascending = {true};
  frag.limit = 3;
  int64_t scanned = 0;
  EXPECT_EQ(Column(frag, 0, &scanned), (Strings{"2", "0", "3"}));
  // 8 outer rows plus 6 inner matches (NULL and dangling keys probe
  // nothing).
  EXPECT_EQ(scanned, 14);
  EXPECT_EQ(Column(frag, 5), (Strings{"'ann'", "'ann'", "'cyd'"}));
  // An outer-only filter prunes probes before the join.
  frag.filter = Bind("ord.region = 'e'", true);
  frag.order_ascending = {false};
  frag.limit = -1;
  EXPECT_EQ(Column(frag, 0, &scanned), (Strings{"6", "2", "1"}));
  EXPECT_EQ(scanned, 11);
}

TEST_F(FragmentShapeTest, AggregateOutsideTheColumnarSubsetUsesRowKernel) {
  FragmentPlan frag;
  frag.has_aggregate = true;
  // A comparison group key and a DISTINCT aggregate are both outside
  // the columnar kernel's subset.
  frag.group_by = {Bind("amount > 4.0")};
  frag.aggregates = {
      Agg(AggKind::kCountStar, nullptr, TypeId::kInt64, "COUNT(*)"),
      Agg(AggKind::kMax, Bind("amount"), TypeId::kDouble, "MAX(amount)",
          /*distinct=*/true)};
  EXPECT_EQ(Column(frag, 0), (Strings{"true", "NULL", "false"}));
  EXPECT_EQ(Column(frag, 1), (Strings{"3", "2", "3"}));
  EXPECT_EQ(Column(frag, 2), (Strings{"5", "NULL", "3"}));
  frag.order_by = {MakeColumn(0, TypeId::kBool, "amount > 4.0")};
  frag.order_ascending = {true};
  frag.limit = 2;
  EXPECT_EQ(Column(frag, 0), (Strings{"NULL", "false"}));
}

TEST_F(FragmentShapeTest, ReadYourWritesRowsUnderTopN) {
  ASSERT_TRUE(src_.PrepareTxnAt("g1",
                                "INSERT INTO ord VALUES (20, 1, 4.0, 'x'), "
                                "(21, 2, NULL, 'x')",
                                1, /*numeric_txn_id=*/7, /*snapshot_ts=*/0)
                  .ok());
  ASSERT_TRUE(src_.PrepareTxnAt("g1", "DELETE FROM ord WHERE id = 3", 2, 7, 0)
                  .ok());
  FragmentPlan frag;
  frag.txn_id = 7;
  frag.order_by = {Bind("amount")};
  frag.order_ascending = {false};
  frag.limit = 4;
  // Staged inserts follow the heap rows; the staged delete hides id 3.
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "6", "20", "2"}));
  frag.order_ascending = {true};
  EXPECT_EQ(Column(frag, 0), (Strings{"1", "4", "21", "7"}));
  // Another reader sees neither staged write.
  frag.txn_id = 0;
  frag.order_ascending = {false};
  EXPECT_EQ(Column(frag, 0), (Strings{"0", "3", "6", "2"}));
}

}  // namespace
}  // namespace gisql
