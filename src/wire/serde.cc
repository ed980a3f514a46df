#include "wire/serde.h"

#include <bit>
#include <cstring>

namespace gisql {
namespace wire {

namespace {
// Value tags: low 3 bits = TypeId, bit 3 = null flag.
constexpr uint8_t kNullBit = 0x08;

// Decoder allocation guard: a row count larger than this is rejected
// before any per-row allocation happens.
constexpr uint64_t kMaxWireRows = uint64_t{1} << 28;

/// Bulk little-endian array write: memcpy on little-endian hosts, an
/// element loop elsewhere. T is a trivially copyable 4/8-byte scalar.
template <typename T>
void PutScalarArray(ByteWriter* w, const T* data, size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    w->PutRaw(data, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      std::memcpy(&bits, &data[i], sizeof(T));
      if constexpr (sizeof(T) == 4) {
        w->PutU32(static_cast<uint32_t>(bits));
      } else {
        w->PutU64(bits);
      }
    }
  }
}

template <typename T>
Status GetScalarArray(ByteReader* r, std::vector<T>* out, size_t count) {
  GISQL_ASSIGN_OR_RETURN(const uint8_t* raw, r->GetRaw(count * sizeof(T)));
  out->resize(count);
  if (count == 0) return Status::OK();
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out->data(), raw, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      for (size_t b = 0; b < sizeof(T); ++b) {
        bits |= static_cast<uint64_t>(raw[i * sizeof(T) + b]) << (8 * b);
      }
      T v;
      if constexpr (sizeof(T) == 4) {
        const uint32_t narrow = static_cast<uint32_t>(bits);
        std::memcpy(&v, &narrow, sizeof(T));
      } else {
        std::memcpy(&v, &bits, sizeof(T));
      }
      (*out)[i] = v;
    }
  }
  return Status::OK();
}
}  // namespace

void WriteValue(ByteWriter* w, const Value& v) {
  uint8_t tag = static_cast<uint8_t>(v.type());
  if (v.is_null()) {
    w->PutU8(tag | kNullBit);
    return;
  }
  w->PutU8(tag);
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      w->PutBool(v.AsBool());
      break;
    case TypeId::kInt64:
      w->PutSignedVarint(v.AsInt());
      break;
    case TypeId::kDate:
      w->PutSignedVarint(v.AsInt());
      break;
    case TypeId::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case TypeId::kString:
      w->PutString(v.AsString());
      break;
  }
}

Result<Value> ReadValue(ByteReader* r) {
  GISQL_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  const auto type = static_cast<TypeId>(tag & 0x07);
  if (static_cast<uint8_t>(type) > static_cast<uint8_t>(TypeId::kDate)) {
    return Status::SerializationError("bad value tag ", int(tag));
  }
  if (tag & kNullBit) return Value::Null(type);
  switch (type) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool: {
      GISQL_ASSIGN_OR_RETURN(bool b, r->GetBool());
      return Value::Bool(b);
    }
    case TypeId::kInt64: {
      GISQL_ASSIGN_OR_RETURN(int64_t i, r->GetSignedVarint());
      return Value::Int(i);
    }
    case TypeId::kDate: {
      GISQL_ASSIGN_OR_RETURN(int64_t i, r->GetSignedVarint());
      return Value::Date(i);
    }
    case TypeId::kDouble: {
      GISQL_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value::Double(d);
    }
    case TypeId::kString: {
      GISQL_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value::String(std::move(s));
    }
  }
  return Status::SerializationError("unreachable value tag");
}

void WriteSchema(ByteWriter* w, const Schema& schema) {
  w->PutVarint(schema.num_fields());
  for (const auto& f : schema.fields()) {
    w->PutString(f.name);
    w->PutString(f.qualifier);
    w->PutU8(static_cast<uint8_t>(f.type));
    w->PutBool(f.nullable);
  }
}

Result<Schema> ReadSchema(ByteReader* r) {
  GISQL_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 1 << 16) {
    return Status::SerializationError("schema too wide: ", n);
  }
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    GISQL_ASSIGN_OR_RETURN(f.name, r->GetString());
    GISQL_ASSIGN_OR_RETURN(f.qualifier, r->GetString());
    GISQL_ASSIGN_OR_RETURN(uint8_t t, r->GetU8());
    if (t > static_cast<uint8_t>(TypeId::kDate)) {
      return Status::SerializationError("bad field type ", int(t));
    }
    f.type = static_cast<TypeId>(t);
    GISQL_ASSIGN_OR_RETURN(f.nullable, r->GetBool());
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

void WriteBatch(ByteWriter* w, const RowBatch& batch) {
  WriteSchema(w, *batch.schema());
  w->PutVarint(batch.num_rows());
  for (const auto& row : batch.rows()) {
    for (const auto& v : row) WriteValue(w, v);
  }
}

Result<RowBatch> ReadBatch(ByteReader* r) {
  GISQL_ASSIGN_OR_RETURN(Schema schema, ReadSchema(r));
  GISQL_ASSIGN_OR_RETURN(uint64_t nrows, r->GetVarint());
  if (nrows > kMaxWireRows) {
    return Status::SerializationError("row batch too tall: ", nrows, " rows");
  }
  auto schema_ptr = std::make_shared<Schema>(std::move(schema));
  const size_t width = schema_ptr->num_fields();
  RowBatch batch(schema_ptr);
  batch.Reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      GISQL_ASSIGN_OR_RETURN(Value v, ReadValue(r));
      row.push_back(std::move(v));
    }
    batch.Append(std::move(row));
  }
  return batch;
}

namespace {
// Column flag bits of the columnar encoding.
constexpr uint8_t kColHasNulls = 0x01;
}  // namespace

void WriteColumnBatch(ByteWriter* w, const ColumnBatch& batch) {
  WriteSchema(w, *batch.schema());
  const size_t n = batch.num_rows();
  w->PutVarint(n);
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnBatch::Column& col = batch.column(c);
    uint8_t flags = 0;
    if (col.has_nulls() && col.type != TypeId::kNull) flags |= kColHasNulls;
    w->PutU8(flags);
    if (flags & kColHasNulls) w->PutRaw(col.nulls.data(), (n + 7) / 8);
    switch (col.type) {
      case TypeId::kNull:
        break;  // every row is NULL; no data travels
      case TypeId::kBool:
        w->PutRaw(col.bools.data(), n);
        break;
      case TypeId::kInt64:
      case TypeId::kDate:
        // Zig-zag varints rather than raw words: fragment results are
        // dominated by small integers (keys, counts, dates), and wire
        // bytes are simulated-WAN latency. The column still beats the
        // row encoding by the per-value tag byte.
        for (size_t i = 0; i < n; ++i) w->PutSignedVarint(col.ints[i]);
        break;
      case TypeId::kDouble:
        PutScalarArray(w, col.doubles.data(), n);
        break;
      case TypeId::kString:
        // Lengths (offset deltas) as varints, then the arena in one
        // block; the decoder rebuilds the offsets by prefix sum.
        w->PutVarint(col.arena.size());
        for (size_t i = 0; i < n; ++i) {
          w->PutVarint(col.offsets[i + 1] - col.offsets[i]);
        }
        w->PutRaw(col.arena.data(), col.arena.size());
        break;
    }
  }
}

Result<ColumnBatch> ReadColumnBatch(ByteReader* r) {
  GISQL_ASSIGN_OR_RETURN(Schema schema, ReadSchema(r));
  GISQL_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > kMaxWireRows) {
    return Status::SerializationError("column batch too tall: ", n, " rows");
  }
  ColumnBatch batch(std::make_shared<Schema>(std::move(schema)));
  batch.set_num_rows(n);
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    ColumnBatch::Column& col = batch.column(c);
    GISQL_ASSIGN_OR_RETURN(uint8_t flags, r->GetU8());
    if (flags & ~kColHasNulls) {
      return Status::SerializationError("bad column flags ", int(flags));
    }
    if (flags & kColHasNulls) {
      const size_t nbytes = (n + 7) / 8;
      GISQL_ASSIGN_OR_RETURN(const uint8_t* bits, r->GetRaw(nbytes));
      col.nulls.assign(bits, bits + nbytes);
    }
    switch (col.type) {
      case TypeId::kNull:
        break;
      case TypeId::kBool: {
        GISQL_ASSIGN_OR_RETURN(const uint8_t* raw, r->GetRaw(n));
        col.bools.resize(n);
        for (size_t i = 0; i < n; ++i) col.bools[i] = raw[i] != 0;
        break;
      }
      case TypeId::kInt64:
      case TypeId::kDate: {
        // Every varint is at least one byte, so this bounds the resize
        // before a hostile row count can allocate gigabytes.
        if (n > r->remaining()) {
          return Status::SerializationError("int column data truncated");
        }
        col.ints.resize(n);
        for (size_t i = 0; i < n; ++i) {
          GISQL_ASSIGN_OR_RETURN(col.ints[i], r->GetSignedVarint());
        }
        break;
      }
      case TypeId::kDouble:
        GISQL_RETURN_NOT_OK(GetScalarArray(r, &col.doubles, n));
        break;
      case TypeId::kString: {
        GISQL_ASSIGN_OR_RETURN(uint64_t arena_len, r->GetVarint());
        if (arena_len > r->remaining() || arena_len > UINT32_MAX) {
          return Status::SerializationError(
              "string arena length ", arena_len, " exceeds the ",
              r->remaining(), " bytes remaining");
        }
        if (n > r->remaining()) {
          return Status::SerializationError("string lengths truncated");
        }
        col.offsets.resize(n + 1);
        col.offsets[0] = 0;
        for (size_t i = 0; i < n; ++i) {
          GISQL_ASSIGN_OR_RETURN(uint64_t len, r->GetVarint());
          if (len > arena_len - col.offsets[i]) {
            return Status::SerializationError(
                "string lengths overrun the arena at row ", i);
          }
          col.offsets[i + 1] = col.offsets[i] + static_cast<uint32_t>(len);
        }
        if (col.offsets[n] != arena_len) {
          return Status::SerializationError(
              "string lengths do not span the arena");
        }
        GISQL_ASSIGN_OR_RETURN(const uint8_t* raw, r->GetRaw(arena_len));
        col.arena.assign(reinterpret_cast<const char*>(raw), arena_len);
        break;
      }
    }
  }
  return batch;
}

namespace {
// Format byte leading a result batch.
constexpr uint8_t kBatchFormatRow = 0;       // ReadBatch follows
constexpr uint8_t kBatchFormatColumnar = 1;  // ReadColumnBatch follows
}  // namespace

void WriteResultBatch(ByteWriter* w, const RowBatch& rows) {
  Result<ColumnBatch> columnar = ColumnBatch::FromRows(rows);
  if (columnar.ok()) {
    w->PutU8(kBatchFormatColumnar);
    WriteColumnBatch(w, *columnar);
  } else {
    w->PutU8(kBatchFormatRow);
    WriteBatch(w, rows);
  }
}

Result<ResultBatch> ReadResultBatch(ByteReader* r) {
  ResultBatch result;
  GISQL_ASSIGN_OR_RETURN(uint8_t format, r->GetU8());
  if (format == kBatchFormatColumnar) {
    GISQL_ASSIGN_OR_RETURN(ColumnBatch cols, ReadColumnBatch(r));
    result.rows = cols.ToRows();
    result.columnar = std::make_shared<ColumnBatch>(std::move(cols));
  } else if (format == kBatchFormatRow) {
    GISQL_ASSIGN_OR_RETURN(result.rows, ReadBatch(r));
  } else {
    return Status::SerializationError("bad batch format byte ",
                                      int(format));
  }
  return result;
}

void WriteFragmentResponse(ByteWriter* w, const RowBatch& rows,
                           const FragmentPageStats& pages) {
  WriteResultBatch(w, rows);
  w->PutVarint(static_cast<uint64_t>(pages.page_hits));
  w->PutVarint(static_cast<uint64_t>(pages.page_misses));
  w->PutVarint(static_cast<uint64_t>(pages.evictions));
  w->PutDouble(pages.disk_us);
}

Result<FragmentResponse> ReadFragmentResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  FragmentResponse response;
  GISQL_ASSIGN_OR_RETURN(response.batch, ReadResultBatch(&r));
  GISQL_ASSIGN_OR_RETURN(uint64_t hits, r.GetVarint());
  GISQL_ASSIGN_OR_RETURN(uint64_t misses, r.GetVarint());
  GISQL_ASSIGN_OR_RETURN(uint64_t evictions, r.GetVarint());
  GISQL_ASSIGN_OR_RETURN(response.pages.disk_us, r.GetDouble());
  response.pages.page_hits = static_cast<int64_t>(hits);
  response.pages.page_misses = static_cast<int64_t>(misses);
  response.pages.evictions = static_cast<int64_t>(evictions);
  if (!r.AtEnd()) {
    return Status::SerializationError(
        "trailing bytes after a fragment response");
  }
  return response;
}

void WriteExpr(ByteWriter* w, const Expr& e) {
  w->PutU8(static_cast<uint8_t>(e.kind));
  w->PutU8(static_cast<uint8_t>(e.type));
  switch (e.kind) {
    case ExprKind::kColumn:
      w->PutVarint(e.column_index);
      w->PutString(e.column_name);
      break;
    case ExprKind::kLiteral:
      WriteValue(w, e.literal);
      break;
    case ExprKind::kCompare:
      w->PutU8(static_cast<uint8_t>(e.compare_op));
      break;
    case ExprKind::kArith:
      w->PutU8(static_cast<uint8_t>(e.arith_op));
      break;
    case ExprKind::kLogic:
      w->PutU8(static_cast<uint8_t>(e.logic_op));
      break;
    case ExprKind::kFunc:
      w->PutString(e.func_name);
      break;
    default:
      break;
  }
  w->PutBool(e.negated);
  w->PutBool(e.has_else);
  w->PutVarint(e.children.size());
  for (const auto& c : e.children) WriteExpr(w, *c);
}

Result<ExprPtr> ReadExpr(ByteReader* r) {
  GISQL_ASSIGN_OR_RETURN(uint8_t kind_raw, r->GetU8());
  if (kind_raw > static_cast<uint8_t>(ExprKind::kCase)) {
    return Status::SerializationError("bad expr kind ", int(kind_raw));
  }
  auto e = std::make_shared<Expr>(static_cast<ExprKind>(kind_raw));
  GISQL_ASSIGN_OR_RETURN(uint8_t type_raw, r->GetU8());
  if (type_raw > static_cast<uint8_t>(TypeId::kDate)) {
    return Status::SerializationError("bad expr type ", int(type_raw));
  }
  e->type = static_cast<TypeId>(type_raw);
  switch (e->kind) {
    case ExprKind::kColumn: {
      GISQL_ASSIGN_OR_RETURN(uint64_t idx, r->GetVarint());
      e->column_index = idx;
      GISQL_ASSIGN_OR_RETURN(e->column_name, r->GetString());
      break;
    }
    case ExprKind::kLiteral: {
      GISQL_ASSIGN_OR_RETURN(e->literal, ReadValue(r));
      break;
    }
    case ExprKind::kCompare: {
      GISQL_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
      if (op > static_cast<uint8_t>(CompareOp::kGe)) {
        return Status::SerializationError("bad compare op");
      }
      e->compare_op = static_cast<CompareOp>(op);
      break;
    }
    case ExprKind::kArith: {
      GISQL_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
      if (op > static_cast<uint8_t>(ArithOp::kMod)) {
        return Status::SerializationError("bad arith op");
      }
      e->arith_op = static_cast<ArithOp>(op);
      break;
    }
    case ExprKind::kLogic: {
      GISQL_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
      if (op > static_cast<uint8_t>(LogicOp::kOr)) {
        return Status::SerializationError("bad logic op");
      }
      e->logic_op = static_cast<LogicOp>(op);
      break;
    }
    case ExprKind::kFunc: {
      GISQL_ASSIGN_OR_RETURN(e->func_name, r->GetString());
      break;
    }
    default:
      break;
  }
  GISQL_ASSIGN_OR_RETURN(e->negated, r->GetBool());
  GISQL_ASSIGN_OR_RETURN(e->has_else, r->GetBool());
  GISQL_ASSIGN_OR_RETURN(uint64_t nchildren, r->GetVarint());
  if (nchildren > 1 << 16) {
    return Status::SerializationError("expr too wide: ", nchildren,
                                      " children");
  }
  e->children.reserve(nchildren);
  for (uint64_t i = 0; i < nchildren; ++i) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr c, ReadExpr(r));
    e->children.push_back(std::move(c));
  }
  return e;
}

void WriteAggregate(ByteWriter* w, const BoundAggregate& agg) {
  w->PutU8(static_cast<uint8_t>(agg.kind));
  w->PutBool(agg.distinct);
  w->PutU8(static_cast<uint8_t>(agg.result_type));
  w->PutString(agg.display);
  w->PutBool(agg.arg != nullptr);
  if (agg.arg) WriteExpr(w, *agg.arg);
}

Result<BoundAggregate> ReadAggregate(ByteReader* r) {
  BoundAggregate agg;
  GISQL_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(AggKind::kAvg)) {
    return Status::SerializationError("bad aggregate kind");
  }
  agg.kind = static_cast<AggKind>(kind);
  GISQL_ASSIGN_OR_RETURN(agg.distinct, r->GetBool());
  GISQL_ASSIGN_OR_RETURN(uint8_t rt, r->GetU8());
  if (rt > static_cast<uint8_t>(TypeId::kDate)) {
    return Status::SerializationError("bad aggregate result type");
  }
  agg.result_type = static_cast<TypeId>(rt);
  GISQL_ASSIGN_OR_RETURN(agg.display, r->GetString());
  GISQL_ASSIGN_OR_RETURN(bool has_arg, r->GetBool());
  if (has_arg) {
    GISQL_ASSIGN_OR_RETURN(agg.arg, ReadExpr(r));
  }
  return agg;
}

void WriteFragment(ByteWriter* w, const FragmentPlan& frag) {
  w->PutString(frag.table);
  w->PutBool(frag.filter != nullptr);
  if (frag.filter) WriteExpr(w, *frag.filter);
  w->PutVarint(frag.projections.size());
  for (size_t i = 0; i < frag.projections.size(); ++i) {
    WriteExpr(w, *frag.projections[i]);
    w->PutString(i < frag.projection_names.size() ? frag.projection_names[i]
                                                  : "");
  }
  w->PutSignedVarint(frag.semijoin_column);
  w->PutVarint(frag.semijoin_values.size());
  for (const auto& v : frag.semijoin_values) WriteValue(w, v);
  w->PutBool(frag.has_aggregate);
  if (frag.has_aggregate) {
    w->PutVarint(frag.group_by.size());
    for (const auto& g : frag.group_by) WriteExpr(w, *g);
    w->PutVarint(frag.aggregates.size());
    for (const auto& a : frag.aggregates) WriteAggregate(w, a);
  }
  w->PutVarint(frag.order_by.size());
  for (size_t i = 0; i < frag.order_by.size(); ++i) {
    WriteExpr(w, *frag.order_by[i]);
    w->PutBool(i < frag.order_ascending.size() ? frag.order_ascending[i]
                                               : true);
  }
  w->PutSignedVarint(frag.limit);
  w->PutSignedVarint(frag.index_column);
  if (frag.index_column >= 0) {
    WriteValue(w, frag.range_lo);
    WriteValue(w, frag.range_hi);
    w->PutBool(frag.range_lo_inclusive);
    w->PutBool(frag.range_hi_inclusive);
  }
  w->PutString(frag.join_table);
  if (!frag.join_table.empty()) {
    w->PutSignedVarint(frag.join_outer_column);
    w->PutSignedVarint(frag.join_inner_column);
    w->PutBool(frag.join_inner_filter != nullptr);
    if (frag.join_inner_filter) WriteExpr(w, *frag.join_inner_filter);
  }
  w->PutVarint(frag.snapshot_ts);
  w->PutVarint(frag.txn_id);
}

Result<FragmentPlan> ReadFragment(ByteReader* r) {
  FragmentPlan frag;
  GISQL_ASSIGN_OR_RETURN(frag.table, r->GetString());
  GISQL_ASSIGN_OR_RETURN(bool has_filter, r->GetBool());
  if (has_filter) {
    GISQL_ASSIGN_OR_RETURN(frag.filter, ReadExpr(r));
  }
  GISQL_ASSIGN_OR_RETURN(uint64_t nproj, r->GetVarint());
  if (nproj > 1 << 16) {
    return Status::SerializationError("too many projections");
  }
  for (uint64_t i = 0; i < nproj; ++i) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr p, ReadExpr(r));
    frag.projections.push_back(std::move(p));
    GISQL_ASSIGN_OR_RETURN(std::string name, r->GetString());
    frag.projection_names.push_back(std::move(name));
  }
  GISQL_ASSIGN_OR_RETURN(frag.semijoin_column, r->GetSignedVarint());
  GISQL_ASSIGN_OR_RETURN(uint64_t nsemi, r->GetVarint());
  frag.semijoin_values.reserve(nsemi);
  for (uint64_t i = 0; i < nsemi; ++i) {
    GISQL_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    frag.semijoin_values.push_back(std::move(v));
  }
  GISQL_ASSIGN_OR_RETURN(frag.has_aggregate, r->GetBool());
  if (frag.has_aggregate) {
    GISQL_ASSIGN_OR_RETURN(uint64_t ng, r->GetVarint());
    for (uint64_t i = 0; i < ng; ++i) {
      GISQL_ASSIGN_OR_RETURN(ExprPtr g, ReadExpr(r));
      frag.group_by.push_back(std::move(g));
    }
    GISQL_ASSIGN_OR_RETURN(uint64_t na, r->GetVarint());
    for (uint64_t i = 0; i < na; ++i) {
      GISQL_ASSIGN_OR_RETURN(BoundAggregate a, ReadAggregate(r));
      frag.aggregates.push_back(std::move(a));
    }
  }
  GISQL_ASSIGN_OR_RETURN(uint64_t nord, r->GetVarint());
  if (nord > 1 << 12) {
    return Status::SerializationError("too many order-by terms");
  }
  for (uint64_t i = 0; i < nord; ++i) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr e, ReadExpr(r));
    frag.order_by.push_back(std::move(e));
    GISQL_ASSIGN_OR_RETURN(bool asc, r->GetBool());
    frag.order_ascending.push_back(asc);
  }
  GISQL_ASSIGN_OR_RETURN(frag.limit, r->GetSignedVarint());
  GISQL_ASSIGN_OR_RETURN(frag.index_column, r->GetSignedVarint());
  if (frag.index_column >= 0) {
    GISQL_ASSIGN_OR_RETURN(frag.range_lo, ReadValue(r));
    GISQL_ASSIGN_OR_RETURN(frag.range_hi, ReadValue(r));
    GISQL_ASSIGN_OR_RETURN(frag.range_lo_inclusive, r->GetBool());
    GISQL_ASSIGN_OR_RETURN(frag.range_hi_inclusive, r->GetBool());
  }
  GISQL_ASSIGN_OR_RETURN(frag.join_table, r->GetString());
  if (!frag.join_table.empty()) {
    GISQL_ASSIGN_OR_RETURN(frag.join_outer_column, r->GetSignedVarint());
    GISQL_ASSIGN_OR_RETURN(frag.join_inner_column, r->GetSignedVarint());
    GISQL_ASSIGN_OR_RETURN(bool has_inner_filter, r->GetBool());
    if (has_inner_filter) {
      GISQL_ASSIGN_OR_RETURN(frag.join_inner_filter, ReadExpr(r));
    }
  }
  GISQL_ASSIGN_OR_RETURN(frag.snapshot_ts, r->GetVarint());
  GISQL_ASSIGN_OR_RETURN(frag.txn_id, r->GetVarint());
  return frag;
}

std::vector<uint8_t> SerializeFragment(const FragmentPlan& frag) {
  ByteWriter w;
  WriteFragment(&w, frag);
  return w.Release();
}

std::vector<uint8_t> SerializeBatch(const RowBatch& batch) {
  ByteWriter w;
  WriteBatch(&w, batch);
  return w.Release();
}

std::vector<uint8_t> SerializeColumnBatch(const ColumnBatch& batch) {
  ByteWriter w;
  WriteColumnBatch(&w, batch);
  return w.Release();
}

}  // namespace wire
}  // namespace gisql
