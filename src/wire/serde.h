/// \file serde.h
/// \brief Wire serialization of the mediator↔wrapper protocol payloads:
/// values, schemas, row batches, bound expressions, aggregate specs, and
/// fragment plans.
///
/// Everything is encoded little-endian with varint lengths (see
/// common/bytes.h). Deserialization is fully bounds-checked; malformed
/// input yields SerializationError, never UB.

#pragma once

#include <memory>

#include "common/bytes.h"
#include "expr/binder.h"
#include "expr/expr.h"
#include "source/fragment.h"
#include "types/column_batch.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace gisql {
namespace wire {

/// \name Scalar values
/// @{
void WriteValue(ByteWriter* w, const Value& v);
Result<Value> ReadValue(ByteReader* r);
/// @}

/// \name Schemas
/// @{
void WriteSchema(ByteWriter* w, const Schema& schema);
Result<Schema> ReadSchema(ByteReader* r);
/// @}

/// \name Row batches (schema + rows)
/// @{
void WriteBatch(ByteWriter* w, const RowBatch& batch);
Result<RowBatch> ReadBatch(ByteReader* r);
/// @}

/// \name Column batches (schema + per-column bulk arrays)
///
/// The columnar encoding eliminates the per-value tag byte and varint
/// of the row format: fixed-width columns cross the wire as one raw
/// little-endian array each, strings as an offsets array plus one
/// arena. Null bitmaps travel only for columns that have nulls.
/// Decoding is fully bounds-checked (offsets must be monotone and end
/// exactly at the arena length); malformed input yields
/// SerializationError, never UB — the same contract as the row serde.
/// @{
void WriteColumnBatch(ByteWriter* w, const ColumnBatch& batch);
Result<ColumnBatch> ReadColumnBatch(ByteReader* r);
/// @}

/// \name Result batches (format byte + row or column batch)
///
/// How a source ships a fragment's result, whole or one cursor chunk
/// at a time: columnar when every row fits its declared column types,
/// the row encoding otherwise (e.g. an expression whose value type
/// differs from the projected column's declared type).
/// @{

/// \brief A decoded result batch.
struct ResultBatch {
  RowBatch rows;
  /// The columns `rows` were decoded from, when the batch crossed the
  /// wire columnar; vectorized kernels read it directly.
  std::shared_ptr<ColumnBatch> columnar;
};

void WriteResultBatch(ByteWriter* w, const RowBatch& rows);
Result<ResultBatch> ReadResultBatch(ByteReader* r);
/// @}

/// \name Fragment responses (result batch + page-stats trailer)
///
/// A source answers a fragment with its result batch followed by the
/// buffer-pool work the execution cost. Both parts are required, and
/// no byte may follow them.
/// @{

/// \brief Buffer-pool counter deltas of one fragment execution.
struct FragmentPageStats {
  int64_t page_hits = 0;
  int64_t page_misses = 0;
  int64_t evictions = 0;
  double disk_us = 0.0;
};

/// \brief A decoded fragment response.
struct FragmentResponse {
  ResultBatch batch;
  FragmentPageStats pages;
};

void WriteFragmentResponse(ByteWriter* w, const RowBatch& rows,
                           const FragmentPageStats& pages);
/// \brief Decodes a whole response payload; a missing trailer or a
/// trailing byte is a SerializationError.
Result<FragmentResponse> ReadFragmentResponse(
    const std::vector<uint8_t>& payload);
/// @}

/// \name Bound expressions
/// @{
void WriteExpr(ByteWriter* w, const Expr& e);
Result<ExprPtr> ReadExpr(ByteReader* r);
/// @}

/// \name Aggregate specs
/// @{
void WriteAggregate(ByteWriter* w, const BoundAggregate& agg);
Result<BoundAggregate> ReadAggregate(ByteReader* r);
/// @}

/// \name Fragment plans
/// @{
void WriteFragment(ByteWriter* w, const FragmentPlan& frag);
Result<FragmentPlan> ReadFragment(ByteReader* r);
/// @}

/// \brief Convenience: serializes a fragment to a fresh buffer.
std::vector<uint8_t> SerializeFragment(const FragmentPlan& frag);

/// \brief Convenience: serializes a batch to a fresh buffer.
std::vector<uint8_t> SerializeBatch(const RowBatch& batch);

/// \brief Convenience: serializes a column batch to a fresh buffer.
std::vector<uint8_t> SerializeColumnBatch(const ColumnBatch& batch);

}  // namespace wire
}  // namespace gisql
