#include "exec/operators.h"

#include <algorithm>
#include <utility>

#include "exec/hash_aggregate.h"
#include "exec/vectorized.h"
#include "expr/eval.h"

namespace gisql {

Result<RowBatch> FilterRows(const Expr& predicate, RowBatch rows,
                            const ColumnBatch* columnar) {
  RowBatch out(rows.schema());
  if (columnar != nullptr && IsVectorizablePredicate(predicate, *columnar)) {
    // The vectorizable subset is total and replicates the row
    // evaluator's Kleene semantics, so the selected set is identical.
    GISQL_ASSIGN_OR_RETURN(ColumnRef pred,
                           EvalPredicateColumnar(predicate, *columnar));
    const std::vector<uint32_t> sel =
        SelectTrue(pred.get(), columnar->num_rows());
    out.Reserve(sel.size());
    for (uint32_t r : sel) out.Append(std::move(rows.rows()[r]));
    return out;
  }
  for (auto& row : rows.rows()) {
    GISQL_ASSIGN_OR_RETURN(bool keep, EvalPredicate(predicate, row));
    if (keep) out.Append(std::move(row));
  }
  return out;
}

Result<RowBatch> ProjectRows(const std::vector<ExprPtr>& projections,
                             SchemaPtr out_schema, const RowBatch& rows,
                             int64_t limit) {
  size_t n = rows.num_rows();
  if (limit >= 0) n = std::min(n, static_cast<size_t>(limit));
  RowBatch out(std::move(out_schema));
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row projected;
    projected.reserve(projections.size());
    for (const auto& p : projections) {
      GISQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, rows.rows()[i]));
      projected.push_back(std::move(v));
    }
    out.Append(std::move(projected));
  }
  return out;
}

Result<RowBatch> AggregateRows(const RowBatch& rows,
                               const ColumnBatch* columnar,
                               const std::vector<ExprPtr>& group_by,
                               const std::vector<BoundAggregate>& aggs,
                               SchemaPtr out_schema, int64_t limit) {
  if (columnar != nullptr &&
      CanVectorizeAggregate(group_by, aggs, *columnar)) {
    return HashAggregateColumnar(*columnar, group_by, aggs,
                                 std::move(out_schema), limit);
  }
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.num_rows());
  for (const Row& row : rows.rows()) ptrs.push_back(&row);
  // A zero-row batch carries the declared column types for the cheap
  // eligibility check; the pivot then converts only what the
  // aggregation reads.
  if (CanVectorizeAggregate(group_by, aggs, ColumnBatch(rows.schema()))) {
    std::vector<size_t> needed;
    for (const auto& g : group_by) g->CollectColumns(&needed);
    for (const auto& a : aggs) {
      if (a.arg) a.arg->CollectColumns(&needed);
    }
    Result<ColumnBatch> pivot =
        ColumnBatch::FromRowPtrs(rows.schema(), ptrs, &needed);
    if (pivot.ok()) {
      return HashAggregateColumnar(*pivot, group_by, aggs,
                                   std::move(out_schema), limit);
    }
  }
  return HashAggregate(ptrs, group_by, aggs, std::move(out_schema), limit);
}

Status SortRows(const std::vector<ExprPtr>& keys,
                const std::vector<bool>& ascending, RowBatch* rows) {
  if (keys.empty()) return Status::OK();
  std::vector<std::pair<Row, size_t>> keyed;
  keyed.reserve(rows->num_rows());
  for (size_t i = 0; i < rows->num_rows(); ++i) {
    Row row_keys;
    row_keys.reserve(keys.size());
    for (const auto& e : keys) {
      GISQL_ASSIGN_OR_RETURN(Value k, EvalExpr(*e, rows->rows()[i]));
      row_keys.push_back(std::move(k));
    }
    keyed.emplace_back(std::move(row_keys), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const auto& a, const auto& b) {
                     for (size_t k = 0; k < keys.size(); ++k) {
                       const int c = a.first[k].Compare(b.first[k]);
                       if (c == 0) continue;
                       const bool asc = k >= ascending.size() || ascending[k];
                       return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<Row> sorted;
  sorted.reserve(keyed.size());
  for (const auto& [row_keys, i] : keyed) {
    sorted.push_back(std::move(rows->rows()[i]));
  }
  rows->rows() = std::move(sorted);
  return Status::OK();
}

void SliceRows(int64_t offset, int64_t limit, RowBatch* rows) {
  std::vector<Row>& all = rows->rows();
  const int64_t n = static_cast<int64_t>(all.size());
  const int64_t begin = std::clamp<int64_t>(offset, 0, n);
  const int64_t end = limit < 0 ? n : std::min(n, begin + limit);
  all.erase(all.begin() + end, all.end());
  all.erase(all.begin(), all.begin() + begin);
}

}  // namespace gisql
