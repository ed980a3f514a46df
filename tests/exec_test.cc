/// Unit tests for execution components: aggregate accumulators, hash
/// aggregation, executor edge behavior (semijoin fallback, union
/// coercion, sort stability, distinct, workload generator determinism),
/// and the vectorized kernels against the row evaluator.

#include <gtest/gtest.h>

#include <random>

#include "core/global_system.h"
#include "exec/aggregate.h"
#include "exec/hash_aggregate.h"
#include "exec/vectorized.h"
#include "expr/eval.h"
#include "workload/generator.h"

namespace gisql {
namespace {

BoundAggregate Spec(AggKind kind, TypeId arg_type = TypeId::kInt64,
                    bool distinct = false) {
  BoundAggregate spec;
  spec.kind = kind;
  spec.distinct = distinct;
  if (kind != AggKind::kCountStar) {
    spec.arg = MakeColumn(0, arg_type, "x");
  }
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      spec.result_type = TypeId::kInt64;
      break;
    case AggKind::kAvg:
      spec.result_type = TypeId::kDouble;
      break;
    default:
      spec.result_type = arg_type;
  }
  return spec;
}

TEST(AccumulatorTest, CountStarCountsEverything) {
  AggregateAccumulator acc(Spec(AggKind::kCountStar));
  acc.Update(Value::Int(1));
  acc.Update(Value::Null());
  acc.Update(Value::Int(3));
  EXPECT_EQ(acc.Finalize().AsInt(), 3);
}

TEST(AccumulatorTest, CountSkipsNulls) {
  AggregateAccumulator acc(Spec(AggKind::kCount));
  acc.Update(Value::Int(1));
  acc.Update(Value::Null(TypeId::kInt64));
  acc.Update(Value::Int(3));
  EXPECT_EQ(acc.Finalize().AsInt(), 2);
}

TEST(AccumulatorTest, SumIntAndDouble) {
  AggregateAccumulator int_acc(Spec(AggKind::kSum));
  int_acc.Update(Value::Int(2));
  int_acc.Update(Value::Int(40));
  EXPECT_EQ(int_acc.Finalize().AsInt(), 42);

  AggregateAccumulator dbl_acc(Spec(AggKind::kSum, TypeId::kDouble));
  dbl_acc.Update(Value::Double(0.5));
  dbl_acc.Update(Value::Double(1.25));
  EXPECT_DOUBLE_EQ(dbl_acc.Finalize().AsDouble(), 1.75);
}

TEST(AccumulatorTest, EmptyInputSemantics) {
  EXPECT_EQ(AggregateAccumulator(Spec(AggKind::kCount)).Finalize().AsInt(),
            0);
  EXPECT_TRUE(AggregateAccumulator(Spec(AggKind::kSum)).Finalize().is_null());
  EXPECT_TRUE(AggregateAccumulator(Spec(AggKind::kAvg)).Finalize().is_null());
  EXPECT_TRUE(AggregateAccumulator(Spec(AggKind::kMin)).Finalize().is_null());
}

TEST(AccumulatorTest, AvgMinMax) {
  AggregateAccumulator avg(Spec(AggKind::kAvg));
  AggregateAccumulator mn(Spec(AggKind::kMin));
  AggregateAccumulator mx(Spec(AggKind::kMax));
  for (int v : {4, 8, 6}) {
    avg.Update(Value::Int(v));
    mn.Update(Value::Int(v));
    mx.Update(Value::Int(v));
  }
  EXPECT_DOUBLE_EQ(avg.Finalize().AsDouble(), 6.0);
  EXPECT_EQ(mn.Finalize().AsInt(), 4);
  EXPECT_EQ(mx.Finalize().AsInt(), 8);
}

TEST(AccumulatorTest, DistinctDeduplicates) {
  AggregateAccumulator acc(Spec(AggKind::kCount, TypeId::kInt64, true));
  for (int v : {1, 2, 2, 3, 1}) acc.Update(Value::Int(v));
  EXPECT_EQ(acc.Finalize().AsInt(), 3);

  AggregateAccumulator sum(Spec(AggKind::kSum, TypeId::kInt64, true));
  for (int v : {5, 5, 7}) sum.Update(Value::Int(v));
  EXPECT_EQ(sum.Finalize().AsInt(), 12);
}

TEST(AccumulatorTest, MinMaxStrings) {
  AggregateAccumulator mn(Spec(AggKind::kMin, TypeId::kString));
  mn.Update(Value::String("pear"));
  mn.Update(Value::String("apple"));
  EXPECT_EQ(mn.Finalize().AsString(), "apple");
}

TEST(HashAggregateTest, GroupsAndGlobal) {
  std::vector<Row> storage;
  for (int i = 0; i < 10; ++i) {
    storage.push_back({Value::Int(i % 3), Value::Int(i)});
  }
  std::vector<const Row*> rows;
  for (const auto& r : storage) rows.push_back(&r);

  std::vector<ExprPtr> groups = {MakeColumn(0, TypeId::kInt64, "g")};
  BoundAggregate sum;
  sum.kind = AggKind::kSum;
  sum.arg = MakeColumn(1, TypeId::kInt64, "v");
  sum.result_type = TypeId::kInt64;
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64}, {"s", TypeId::kInt64}});
  auto out = HashAggregate(rows, groups, {sum}, schema);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  int64_t total = 0;
  for (const auto& row : out->rows()) total += row[1].AsInt();
  EXPECT_EQ(total, 45);

  // Global aggregation over empty input → one row.
  auto empty = HashAggregate({}, {}, {sum},
                             std::make_shared<Schema>(std::vector<Field>{
                                 {"s", TypeId::kInt64}}));
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty->num_rows(), 1u);
  EXPECT_TRUE(empty->rows()[0][0].is_null());
}

TEST(HashAggregateTest, NullGroupKeyIsItsOwnGroup) {
  std::vector<Row> storage = {
      {Value::Null(TypeId::kInt64), Value::Int(1)},
      {Value::Int(5), Value::Int(2)},
      {Value::Null(TypeId::kInt64), Value::Int(3)},
  };
  std::vector<const Row*> rows;
  for (const auto& r : storage) rows.push_back(&r);
  std::vector<ExprPtr> groups = {MakeColumn(0, TypeId::kInt64, "g")};
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  count.result_type = TypeId::kInt64;
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64}, {"n", TypeId::kInt64}});
  auto out = HashAggregate(rows, groups, {count}, schema);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);  // NULL group + {5}
}

TEST(HashAggregateTest, LimitCapsGroups) {
  std::vector<Row> storage;
  for (int i = 0; i < 100; ++i) storage.push_back({Value::Int(i)});
  std::vector<const Row*> rows;
  for (const auto& r : storage) rows.push_back(&r);
  std::vector<ExprPtr> groups = {MakeColumn(0, TypeId::kInt64, "g")};
  BoundAggregate count;
  count.kind = AggKind::kCountStar;
  count.result_type = TypeId::kInt64;
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64}, {"n", TypeId::kInt64}});
  auto out = HashAggregate(rows, groups, {count}, schema, 7);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 7u);
}

class ExecBehaviorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.num_sites = 2;
    spec.num_customers = 100;
    spec.num_products = 20;
    spec.orders_per_site = 500;
    ASSERT_TRUE(BuildRetailFederation(&gis_, spec).ok());
  }
  GlobalSystem gis_;
};

TEST_F(ExecBehaviorTest, WorkloadIsDeterministic) {
  GlobalSystem other;
  WorkloadSpec spec;
  spec.num_sites = 2;
  spec.num_customers = 100;
  spec.num_products = 20;
  spec.orders_per_site = 500;
  ASSERT_TRUE(BuildRetailFederation(&other, spec).ok());
  auto a = gis_.Query("SELECT SUM(amount) FROM sales");
  auto b = other.Query("SELECT SUM(amount) FROM sales");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->batch.rows()[0][0].AsDouble(),
                   b->batch.rows()[0][0].AsDouble());
  EXPECT_DOUBLE_EQ(a->metrics.elapsed_ms, b->metrics.elapsed_ms);
  EXPECT_EQ(a->metrics.bytes_received, b->metrics.bytes_received);
}

TEST_F(ExecBehaviorTest, SemijoinFallbackWhenKeysExceedCap) {
  PlannerOptions opts;
  opts.semijoin_max_keys = 3;  // force the runtime fallback path
  gis_.set_options(opts);
  auto result = gis_.Query(
      "SELECT COUNT(*) FROM customers c JOIN sales_site0 s "
      "ON c.cid = s.cid");
  gis_.set_options(PlannerOptions::Full());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.rows()[0][0].AsInt(), 500);
}

TEST_F(ExecBehaviorTest, SemijoinAndShipAgree) {
  const std::string q =
      "SELECT c.region, SUM(s.amount) FROM customers c JOIN sales s "
      "ON c.cid = s.cid WHERE c.segment = 'seg1' "
      "GROUP BY c.region ORDER BY c.region";
  auto semi = gis_.Query(q);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  PlannerOptions no_semi;
  no_semi.enable_semijoin = false;
  gis_.set_options(no_semi);
  auto ship = gis_.Query(q);
  gis_.set_options(PlannerOptions::Full());
  ASSERT_TRUE(ship.ok());
  ASSERT_EQ(semi->batch.num_rows(), ship->batch.num_rows());
  for (size_t i = 0; i < semi->batch.num_rows(); ++i) {
    EXPECT_EQ(semi->batch.rows()[i][0].AsString(),
              ship->batch.rows()[i][0].AsString());
    EXPECT_NEAR(semi->batch.rows()[i][1].AsDouble(),
                ship->batch.rows()[i][1].AsDouble(), 1e-6);
  }
}

TEST_F(ExecBehaviorTest, AllBaselinesAgreeOnAnswers) {
  const std::string queries[] = {
      "SELECT COUNT(*) FROM sales WHERE amount > 50",
      "SELECT pid, SUM(qty) FROM sales GROUP BY pid ORDER BY pid LIMIT 5",
      "SELECT c.segment, COUNT(*) FROM customers c JOIN sales s ON "
      "c.cid = s.cid GROUP BY c.segment ORDER BY c.segment",
  };
  for (const auto& q : queries) {
    gis_.set_options(PlannerOptions::Full());
    auto full = gis_.Query(q);
    ASSERT_TRUE(full.ok()) << q << ": " << full.status().ToString();
    gis_.set_options(PlannerOptions::ShipEverything());
    auto ship = gis_.Query(q);
    ASSERT_TRUE(ship.ok()) << q << ": " << ship.status().ToString();
    gis_.set_options(PlannerOptions::FilterPushdownOnly());
    auto filt = gis_.Query(q);
    ASSERT_TRUE(filt.ok()) << q << ": " << filt.status().ToString();
    gis_.set_options(PlannerOptions::Full());

    ASSERT_EQ(full->batch.num_rows(), ship->batch.num_rows()) << q;
    ASSERT_EQ(full->batch.num_rows(), filt->batch.num_rows()) << q;
    for (size_t i = 0; i < full->batch.num_rows(); ++i) {
      for (size_t c = 0; c < full->batch.schema()->num_fields(); ++c) {
        EXPECT_EQ(full->batch.rows()[i][c].Compare(ship->batch.rows()[i][c]),
                  0)
            << q << " row " << i << " col " << c;
        EXPECT_EQ(full->batch.rows()[i][c].Compare(filt->batch.rows()[i][c]),
                  0)
            << q << " row " << i << " col " << c;
      }
    }
  }
}

TEST_F(ExecBehaviorTest, SortIsStableAndNullsFirst) {
  auto hq = *gis_.GetSource("hq");
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE t (id bigint, v bigint)")
                  .ok());
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "INSERT INTO t VALUES (1, 5), (2, NULL), (3, 5), "
                    "(4, 1)")
                  .ok());
  ASSERT_TRUE(gis_.ImportTable("hq", "t", "t").ok());
  auto result = gis_.Query("SELECT id, v FROM t ORDER BY v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->batch.num_rows(), 4u);
  EXPECT_TRUE(result->batch.rows()[0][1].is_null());  // NULL first
  EXPECT_EQ(result->batch.rows()[1][1].AsInt(), 1);
  // Stability: id 1 before id 3 among equal v=5.
  EXPECT_EQ(result->batch.rows()[2][0].AsInt(), 1);
  EXPECT_EQ(result->batch.rows()[3][0].AsInt(), 3);
}

TEST_F(ExecBehaviorTest, ZipfSkewConcentratesSales) {
  GlobalSystem skewed;
  WorkloadSpec spec;
  spec.num_sites = 1;
  spec.num_customers = 100;
  spec.num_products = 100;
  spec.orders_per_site = 5000;
  spec.zipf_theta = 0.9;
  ASSERT_TRUE(BuildRetailFederation(&skewed, spec).ok());
  auto top = skewed.Query(
      "SELECT pid, COUNT(*) AS n FROM sales GROUP BY pid "
      "ORDER BY n DESC LIMIT 1");
  ASSERT_TRUE(top.ok());
  // With theta=0.9 the top product takes far more than uniform 1%.
  EXPECT_GT(top->batch.rows()[0][1].AsInt(), 5000 / 100 * 4);
}

}  // namespace
}  // namespace gisql

namespace gisql {
namespace {

TEST_F(ExecBehaviorTest, ParallelAndSerialExecutionAgreeExactly) {
  const std::string queries[] = {
      "SELECT pid, SUM(amount) FROM sales GROUP BY pid ORDER BY pid",
      "SELECT c.region, COUNT(*) FROM sales s JOIN customers c "
      "ON s.cid = c.cid GROUP BY c.region ORDER BY c.region",
  };
  for (const auto& q : queries) {
    PlannerOptions parallel;
    parallel.parallel_execution = true;
    gis_.set_options(parallel);
    auto p = gis_.Query(q);
    ASSERT_TRUE(p.ok()) << p.status().ToString();

    PlannerOptions serial;
    serial.parallel_execution = false;
    gis_.set_options(serial);
    auto s = gis_.Query(q);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    gis_.set_options(PlannerOptions::Full());

    // Identical rows, identical simulated accounting: threads are a
    // wall-clock-only concern.
    ASSERT_EQ(p->batch.num_rows(), s->batch.num_rows()) << q;
    for (size_t i = 0; i < p->batch.num_rows(); ++i) {
      for (size_t c = 0; c < p->batch.schema()->num_fields(); ++c) {
        EXPECT_EQ(
            p->batch.rows()[i][c].Compare(s->batch.rows()[i][c]), 0)
            << q;
      }
    }
    EXPECT_DOUBLE_EQ(p->metrics.elapsed_ms, s->metrics.elapsed_ms) << q;
    EXPECT_EQ(p->metrics.bytes_received, s->metrics.bytes_received) << q;
    EXPECT_EQ(p->metrics.messages, s->metrics.messages) << q;
  }
}

// ---------------------------------------------------------------------------
// Kernel differential: the row evaluator is the reference for every
// vectorized kernel the executors pick when a batch arrived columnar.
// ---------------------------------------------------------------------------

/// Every value type; two int columns so keys and comparisons can mix.
const std::vector<Field>& KernelFields() {
  static const std::vector<Field> fields = {
      {"b", TypeId::kBool},   {"i", TypeId::kInt64},
      {"j", TypeId::kInt64},  {"d", TypeId::kDouble},
      {"s", TypeId::kString}, {"t", TypeId::kDate}};
  return fields;
}
constexpr size_t kB = 0, kI = 1, kJ = 2, kD = 3, kS = 4, kT = 5;

ExprPtr KCol(size_t i) {
  return MakeColumn(i, KernelFields()[i].type, KernelFields()[i].name);
}

/// One cell in four is NULL; small domains make groups and ties
/// common, and integral doubles hit the int/double hash equivalence.
Value KernelCell(std::mt19937_64& rng, TypeId type) {
  if (rng() % 4 == 0) return Value::Null(type);
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(rng() % 2 == 0);
    case TypeId::kInt64:
      return Value::Int(static_cast<int64_t>(rng() % 7) - 3);
    case TypeId::kDouble:
      return Value::Double(static_cast<double>(rng() % 13) / 2 - 3);
    case TypeId::kString:
      return Value::String(
          std::string(1 + rng() % 2, static_cast<char>('a' + rng() % 3)));
    default:
      return Value::Date(static_cast<int64_t>(rng() % 5));
  }
}

RowBatch KernelBatch(std::mt19937_64& rng) {
  RowBatch batch(std::make_shared<Schema>(KernelFields()));
  const size_t n = rng() % 64;  // the empty batch included
  for (size_t r = 0; r < n; ++r) {
    Row row;
    for (const Field& f : KernelFields()) {
      row.push_back(KernelCell(rng, f.type));
    }
    batch.Append(std::move(row));
  }
  return batch;
}

/// A comparison, IS [NOT] NULL, IN or LIKE leaf over comparable types.
ExprPtr KernelLeaf(std::mt19937_64& rng) {
  const CompareOp op = static_cast<CompareOp>(rng() % 6);
  const size_t numeric[] = {kI, kJ, kD};
  switch (rng() % 8) {
    case 0:
      return MakeCompare(op, KCol(numeric[rng() % 3]),
                         KCol(numeric[rng() % 3]));
    case 1:
      return MakeCompare(op, KCol(numeric[rng() % 3]),
                         MakeLiteral(KernelCell(rng, TypeId::kInt64)));
    case 2:
      return MakeCompare(
          op,
          MakeArith(static_cast<ArithOp>(rng() % 3), KCol(kI), KCol(kD)),
          MakeLiteral(KernelCell(rng, TypeId::kDouble)));
    case 3:
      return MakeCompare(op, KCol(kS),
                         MakeLiteral(KernelCell(rng, TypeId::kString)));
    case 4:
      return MakeCompare(op, KCol(kT),
                         MakeLiteral(KernelCell(rng, TypeId::kDate)));
    case 5:
      return MakeIsNull(KCol(rng() % KernelFields().size()), rng() % 2 == 0);
    case 6: {
      auto in = std::make_shared<Expr>(ExprKind::kIn);
      in->type = TypeId::kBool;
      in->negated = rng() % 2 == 0;
      in->children.push_back(KCol(kI));
      for (int k = 0; k < 3; ++k) {
        in->children.push_back(MakeLiteral(KernelCell(rng, TypeId::kInt64)));
      }
      return in;
    }
    default: {
      auto like = std::make_shared<Expr>(ExprKind::kLike);
      like->type = TypeId::kBool;
      like->negated = rng() % 2 == 0;
      const char* patterns[] = {"a%", "%b", "_", "c_", "%"};
      like->children = {KCol(kS), MakeLiteral(Value::String(
                                      patterns[rng() % 5]))};
      return like;
    }
  }
}

ExprPtr KernelPredicate(std::mt19937_64& rng, int depth) {
  switch (depth > 0 ? rng() % 5 : 0) {
    case 0:
      return KernelLeaf(rng);
    case 1:
      return MakeNot(KernelPredicate(rng, depth - 1));
    case 2:
      return KCol(kB);
    default:
      return MakeLogic(rng() % 2 == 0 ? LogicOp::kAnd : LogicOp::kOr,
                       KernelPredicate(rng, depth - 1),
                       KernelPredicate(rng, depth - 1));
  }
}

TEST(KernelDifferential, ColumnarKernelsMatchRowEvaluator) {
  std::mt19937_64 rng(20261018);
  int predicates = 0, aggregates = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const RowBatch batch = KernelBatch(rng);
    Result<ColumnBatch> cols = ColumnBatch::FromRows(batch);
    ASSERT_TRUE(cols.ok()) << cols.status().ToString();

    // Filter: the selection vector keeps exactly the rows the row
    // evaluator keeps.
    const ExprPtr pred = KernelPredicate(rng, 3);
    ASSERT_TRUE(IsVectorizablePredicate(*pred, *cols)) << pred->ToString();
    std::vector<uint32_t> want_sel;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      auto keep = EvalPredicate(*pred, batch.rows()[r]);
      ASSERT_TRUE(keep.ok()) << pred->ToString();
      if (*keep) want_sel.push_back(static_cast<uint32_t>(r));
    }
    auto col_pred = EvalPredicateColumnar(*pred, *cols);
    ASSERT_TRUE(col_pred.ok()) << col_pred.status().ToString();
    EXPECT_EQ(SelectTrue(col_pred->get(), cols->num_rows()), want_sel)
        << pred->ToString();
    ++predicates;

    // Join/group hashing: one hash per row, cell for cell.
    std::vector<size_t> keys;
    for (size_t c = 0; c < KernelFields().size(); ++c) {
      if (rng() % 3 == 0) keys.push_back(c);
    }
    if (keys.empty()) keys.push_back(rng() % KernelFields().size());
    const std::vector<uint64_t> hashes = HashKeysColumnar(*cols, keys);
    ASSERT_EQ(hashes.size(), batch.num_rows());
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_EQ(hashes[r], HashRowKeys(batch.rows()[r], keys)) << "row " << r;
    }

    // Aggregation: identical output whenever the columnar kernel may run.
    std::vector<ExprPtr> group_by;
    const size_t group_cols[] = {kB, kI, kD, kS, kT};
    for (size_t g = rng() % 3; g > 0; --g) {
      group_by.push_back(
          rng() % 4 == 0
              ? MakeArith(ArithOp::kMod, KCol(kJ),
                          MakeLiteral(Value::Int(2)))
              : KCol(group_cols[rng() % 5]));
    }
    std::vector<BoundAggregate> aggs;
    std::vector<Field> out_fields;
    for (const auto& g : group_by) {
      out_fields.emplace_back(g->ToString(), g->type);
    }
    for (size_t a = 1 + rng() % 3; a > 0; --a) {
      BoundAggregate agg;
      agg.kind = static_cast<AggKind>(rng() % 6);
      agg.distinct = rng() % 8 == 0;
      const size_t numeric[] = {kI, kJ, kD};
      const size_t c = agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg
                           ? numeric[rng() % 3]
                           : rng() % KernelFields().size();
      if (agg.kind != AggKind::kCountStar) agg.arg = KCol(c);
      agg.result_type =
          agg.kind == AggKind::kCountStar || agg.kind == AggKind::kCount
              ? TypeId::kInt64
          : agg.kind == AggKind::kAvg ? TypeId::kDouble
                                      : KernelFields()[c].type;
      agg.display = "agg" + std::to_string(aggs.size());
      out_fields.emplace_back(agg.display, agg.result_type);
      aggs.push_back(std::move(agg));
    }
    if (!CanVectorizeAggregate(group_by, aggs, *cols)) continue;
    auto out_schema = std::make_shared<Schema>(std::move(out_fields));
    std::vector<const Row*> rows;
    for (const auto& row : batch.rows()) rows.push_back(&row);
    auto want = HashAggregate(rows, group_by, aggs, out_schema);
    auto got = HashAggregateColumnar(*cols, group_by, aggs, out_schema);
    ASSERT_EQ(got.ok(), want.ok())
        << (want.ok() ? got.status() : want.status()).ToString();
    if (want.ok()) {
      EXPECT_EQ(got->ToString(1 << 20), want->ToString(1 << 20));
      ++aggregates;
    }
  }
  // The generators must keep exercising the kernels, not the gates.
  EXPECT_EQ(predicates, 300);
  EXPECT_GT(aggregates, 150);
}

}  // namespace
}  // namespace gisql
