/// \file operators.h
/// \brief The per-batch relational operator bodies, one of each, run by
/// the mediator's executors and by component sources alike.
///
/// A body takes expressions and schemas, never a plan node, so whether
/// an operator is pushed down to a source decides only where it runs,
/// not which implementation runs it. A `columnar` argument, when
/// non-null, holds the same rows as the batch beside it.

#pragma once

#include <cstdint>
#include <vector>

#include "expr/binder.h"
#include "expr/expr.h"
#include "types/column_batch.h"
#include "types/row.h"

namespace gisql {

/// \brief Keeps the rows where `predicate` is TRUE, under the input's
/// schema. A vectorizable predicate over `columnar` runs as a columnar
/// kernel into a selection vector; otherwise the row evaluator runs.
/// Both keep the same rows. Every row is evaluated, so an evaluation
/// error anywhere in the batch surfaces.
Result<RowBatch> FilterRows(const Expr& predicate, RowBatch rows,
                            const ColumnBatch* columnar);

/// \brief Evaluates `projections` over the rows into `out_schema`.
/// `limit` >= 0 (a LIMIT without ORDER BY) stops after that many
/// output rows; the rows past it are never evaluated.
Result<RowBatch> ProjectRows(const std::vector<ExprPtr>& projections,
                             SchemaPtr out_schema, const RowBatch& rows,
                             int64_t limit = -1);

/// \brief Hash-aggregates the rows (see HashAggregate for the output
/// shape and `limit`). The kernel depends only on the input: the
/// columnar kernel over `columnar` when CanVectorizeAggregate accepts
/// it; else, when it accepts the rows' declared column types, the
/// columnar kernel over a pivot of just the referenced columns; else,
/// or when a value does not fit its declared type, the row kernel.
/// Every kernel gives the same rows.
Result<RowBatch> AggregateRows(const RowBatch& rows,
                               const ColumnBatch* columnar,
                               const std::vector<ExprPtr>& group_by,
                               const std::vector<BoundAggregate>& aggs,
                               SchemaPtr out_schema, int64_t limit = -1);

/// \brief Stable sort by `keys`, each evaluated over the row it orders;
/// ties keep input order and NULL sorts lowest (Value::Compare). A key
/// without an `ascending` flag sorts ascending. Every key is evaluated
/// before any row moves, so an evaluation error leaves `rows` as it was.
Status SortRows(const std::vector<ExprPtr>& keys,
                const std::vector<bool>& ascending, RowBatch* rows);

/// \brief Keeps rows [offset, offset + limit); `limit` < 0 keeps every
/// row from `offset` on.
void SliceRows(int64_t offset, int64_t limit, RowBatch* rows);

}  // namespace gisql
