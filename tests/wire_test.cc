/// Unit tests for the wire protocol: value/schema/batch/expr/fragment
/// serde round-trips and malformed-input rejection.

#include <gtest/gtest.h>

#include "expr/binder.h"
#include "sql/parser.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {
namespace {

TEST(ValueSerdeTest, RoundTripAllTypes) {
  const Value cases[] = {
      Value::Null(),
      Value::Null(TypeId::kInt64),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(0),
      Value::Int(-123456789),
      Value::Int(INT64_MAX),
      Value::Double(3.14159),
      Value::Double(-0.0),
      Value::String(""),
      Value::String("hello world"),
      Value::Date(19500),
  };
  for (const Value& v : cases) {
    ByteWriter w;
    wire::WriteValue(&w, v);
    ByteReader r(w.data());
    auto back = wire::ReadValue(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->type(), v.type());
    EXPECT_EQ(back->is_null(), v.is_null());
    if (!v.is_null()) EXPECT_EQ(back->Compare(v), 0);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ValueSerdeTest, BadTagRejected) {
  std::vector<uint8_t> bad = {0x07};  // type 7 does not exist
  ByteReader r(bad);
  EXPECT_TRUE(wire::ReadValue(&r).status().IsSerializationError());
}

TEST(SchemaSerdeTest, RoundTrip) {
  Schema schema({{"id", TypeId::kInt64, false, "orders"},
                 {"total", TypeId::kDouble, true, "orders"},
                 {"note", TypeId::kString, true, ""}});
  ByteWriter w;
  wire::WriteSchema(&w, schema);
  ByteReader r(w.data());
  auto back = wire::ReadSchema(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Equals(schema));
  EXPECT_EQ(back->field(0).qualifier, "orders");
  EXPECT_FALSE(back->field(0).nullable);
}

TEST(BatchSerdeTest, RoundTripWithNulls) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  RowBatch batch(schema);
  batch.Append({Value::Int(1), Value::String("x")});
  batch.Append({Value::Null(TypeId::kInt64), Value::Null(TypeId::kString)});
  batch.Append({Value::Int(3), Value::String("")});

  auto bytes = wire::SerializeBatch(batch);
  ByteReader r(bytes);
  auto back = wire::ReadBatch(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->rows()[0][0].AsInt(), 1);
  EXPECT_TRUE(back->rows()[1][0].is_null());
  EXPECT_EQ(back->rows()[1][0].type(), TypeId::kInt64);
  EXPECT_EQ(back->rows()[2][1].AsString(), "");
}

TEST(BatchSerdeTest, EmptyBatch) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", TypeId::kInt64}});
  RowBatch batch(schema);
  auto bytes = wire::SerializeBatch(batch);
  ByteReader r(bytes);
  auto back = wire::ReadBatch(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->schema()->num_fields(), 1u);
}

ExprPtr BindOverTestSchema(const std::string& text) {
  static Schema schema({{"id", TypeId::kInt64, false, "t"},
                        {"price", TypeId::kDouble, true, "t"},
                        {"name", TypeId::kString, true, "t"}});
  auto ast = sql::ParseScalarExpr(text);
  EXPECT_TRUE(ast.ok());
  Binder binder(schema);
  auto e = binder.BindScalar(**ast);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return *e;
}

TEST(ExprSerdeTest, RoundTripVariety) {
  const char* exprs[] = {
      "id",
      "id + 1",
      "price * 2.5 - id",
      "id > 5 AND name LIKE 'a%'",
      "id IN (1, 2, 3)",
      "id IS NOT NULL",
      "NOT (id = 3)",
      "CASE WHEN id > 0 THEN 'p' ELSE 'n' END",
      "CAST(price AS bigint)",
      "UPPER(name)",
      "COALESCE(name, 'none')",
      "id BETWEEN 1 AND 9",
  };
  for (const char* text : exprs) {
    ExprPtr e = BindOverTestSchema(text);
    ByteWriter w;
    wire::WriteExpr(&w, *e);
    ByteReader r(w.data());
    auto back = wire::ReadExpr(&r);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    EXPECT_TRUE((*back)->Equals(*e)) << text;
    EXPECT_EQ((*back)->ToString(), e->ToString());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ExprSerdeTest, TruncationRejected) {
  ExprPtr e = BindOverTestSchema("id > 5 AND name LIKE 'a%'");
  ByteWriter w;
  wire::WriteExpr(&w, *e);
  for (size_t cut : {1ul, 3ul, w.size() / 2, w.size() - 1}) {
    ByteReader r(w.data().data(), cut);
    EXPECT_FALSE(wire::ReadExpr(&r).ok()) << "cut at " << cut;
  }
}

TEST(AggregateSerdeTest, RoundTrip) {
  BoundAggregate agg;
  agg.kind = AggKind::kSum;
  agg.arg = BindOverTestSchema("price * 2.0");
  agg.distinct = false;
  agg.result_type = TypeId::kDouble;
  agg.display = "SUM(price*2)";
  ByteWriter w;
  wire::WriteAggregate(&w, agg);
  ByteReader r(w.data());
  auto back = wire::ReadAggregate(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Equals(agg));
  EXPECT_EQ(back->display, agg.display);
  EXPECT_EQ(back->result_type, TypeId::kDouble);
}

TEST(AggregateSerdeTest, CountStarHasNoArg) {
  BoundAggregate agg;
  agg.kind = AggKind::kCountStar;
  agg.display = "COUNT(*)";
  ByteWriter w;
  wire::WriteAggregate(&w, agg);
  ByteReader r(w.data());
  auto back = wire::ReadAggregate(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arg, nullptr);
}

TEST(FragmentSerdeTest, FullRoundTrip) {
  FragmentPlan frag;
  frag.table = "orders";
  frag.filter = BindOverTestSchema("price > 10.0");
  frag.projections = {BindOverTestSchema("id"),
                      BindOverTestSchema("price * 1.1")};
  frag.projection_names = {"id", "taxed"};
  frag.semijoin_column = 0;
  frag.semijoin_values = {Value::Int(1), Value::Int(5), Value::Int(9)};
  frag.limit = 100;

  auto bytes = wire::SerializeFragment(frag);
  ByteReader r(bytes);
  auto back = wire::ReadFragment(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->table, "orders");
  ASSERT_TRUE(back->filter != nullptr);
  EXPECT_TRUE(back->filter->Equals(*frag.filter));
  ASSERT_EQ(back->projections.size(), 2u);
  EXPECT_EQ(back->projection_names[1], "taxed");
  EXPECT_EQ(back->semijoin_column, 0);
  ASSERT_EQ(back->semijoin_values.size(), 3u);
  EXPECT_EQ(back->semijoin_values[2].AsInt(), 9);
  EXPECT_EQ(back->limit, 100);
  EXPECT_FALSE(back->has_aggregate);
}

TEST(FragmentSerdeTest, AggregateFragment) {
  FragmentPlan frag;
  frag.table = "orders";
  frag.has_aggregate = true;
  frag.group_by = {BindOverTestSchema("name")};
  BoundAggregate agg;
  agg.kind = AggKind::kCountStar;
  agg.display = "COUNT(*)";
  frag.aggregates = {agg};

  auto bytes = wire::SerializeFragment(frag);
  ByteReader r(bytes);
  auto back = wire::ReadFragment(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->has_aggregate);
  ASSERT_EQ(back->group_by.size(), 1u);
  ASSERT_EQ(back->aggregates.size(), 1u);
  EXPECT_EQ(back->aggregates[0].kind, AggKind::kCountStar);
  EXPECT_EQ(back->limit, -1);
}

TEST(FragmentSerdeTest, TopNFragment) {
  FragmentPlan frag;
  frag.table = "orders";
  frag.order_by = {BindOverTestSchema("price"), BindOverTestSchema("id")};
  frag.order_ascending = {false, true};
  frag.limit = 10;
  auto bytes = wire::SerializeFragment(frag);
  ByteReader r(bytes);
  auto back = wire::ReadFragment(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->order_by.size(), 2u);
  EXPECT_TRUE(back->order_by[0]->Equals(*frag.order_by[0]));
  EXPECT_FALSE(back->order_ascending[0]);
  EXPECT_TRUE(back->order_ascending[1]);
  EXPECT_EQ(back->limit, 10);
}

TEST(FragmentSerdeTest, MinimalFragment) {
  FragmentPlan frag;
  frag.table = "t";
  auto bytes = wire::SerializeFragment(frag);
  ByteReader r(bytes);
  auto back = wire::ReadFragment(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table, "t");
  EXPECT_EQ(back->filter, nullptr);
  EXPECT_TRUE(back->projections.empty());
  EXPECT_EQ(back->semijoin_column, -1);
}

/// A two-row result and its page stats, encoded as a source sends them.
std::vector<uint8_t> FragmentResponseBytes() {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  RowBatch batch(schema);
  batch.Append({Value::Int(1), Value::String("x")});
  batch.Append({Value::Null(TypeId::kInt64), Value::String("y")});
  ByteWriter w;
  wire::WriteFragmentResponse(&w, batch, {.page_hits = 3,
                                          .page_misses = 2,
                                          .evictions = 1,
                                          .disk_us = 250.5});
  return w.Release();
}

TEST(FragmentResponseTest, RoundTripCarriesPageStats) {
  auto back = wire::ReadFragmentResponse(FragmentResponseBytes());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->batch.rows.num_rows(), 2u);
  EXPECT_NE(back->batch.columnar, nullptr);
  EXPECT_EQ(back->batch.rows.rows()[1][1].AsString(), "y");
  EXPECT_EQ(back->pages.page_hits, 3);
  EXPECT_EQ(back->pages.page_misses, 2);
  EXPECT_EQ(back->pages.evictions, 1);
  EXPECT_DOUBLE_EQ(back->pages.disk_us, 250.5);
}

TEST(FragmentResponseTest, MissingTrailerRejected) {
  std::vector<uint8_t> bytes = FragmentResponseBytes();
  // The trailer is three one-byte varints and an 8-byte double; drop
  // all of it, then only its last byte.
  for (size_t cut : {size_t{11}, size_t{1}}) {
    const std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - cut);
    auto back = wire::ReadFragmentResponse(truncated);
    ASSERT_FALSE(back.ok()) << cut;
    EXPECT_TRUE(back.status().IsSerializationError()) << cut;
  }
}

TEST(FragmentResponseTest, ExtraByteRejected) {
  std::vector<uint8_t> bytes = FragmentResponseBytes();
  bytes.push_back(0);
  auto back = wire::ReadFragmentResponse(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsSerializationError())
      << back.status().ToString();
}

TEST(ProtocolTest, ResponseFramingOk) {
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  auto frame = wire::EncodeResponse(Status::OK(), payload);
  auto back = wire::DecodeResponse(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(ProtocolTest, ResponseFramingError) {
  auto frame =
      wire::EncodeResponse(Status::CapabilityError("no filters"), {});
  auto back = wire::DecodeResponse(frame);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCapabilityError());
  EXPECT_EQ(back.status().message(), "no filters");
}

TEST(ProtocolTest, LengthMismatchRejected) {
  ByteWriter w;
  w.PutBool(true);
  w.PutVarint(10);  // claims 10 bytes
  w.PutRaw("abc", 3);
  EXPECT_FALSE(wire::DecodeResponse(w.data()).ok());
}

TEST(ProtocolTest, StatsRoundTrip) {
  TableStats stats;
  stats.row_count = 1000;
  ColumnStats c;
  c.min = Value::Int(1);
  c.max = Value::Int(99);
  c.null_count = 5;
  c.distinct_count = 42;
  c.avg_width = 6.5;
  stats.columns = {c};

  ByteWriter w;
  wire::WriteTableStats(&w, stats);
  ByteReader r(w.data());
  auto back = wire::ReadTableStats(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->row_count, 1000);
  ASSERT_EQ(back->columns.size(), 1u);
  EXPECT_EQ(back->columns[0].distinct_count, 42);
  EXPECT_DOUBLE_EQ(back->columns[0].avg_width, 6.5);
  EXPECT_EQ(back->columns[0].max.AsInt(), 99);
}

}  // namespace
}  // namespace gisql
