/// \file streaming.h
/// \brief Incremental (pull-based) execution of streamable plans.
///
/// The materializing executor (exec/executor.h) computes a query's
/// whole result before the first row reaches the client — the one
/// remaining O(result) memory path after per-query budgets. This file
/// is the alternative for plans that don't need it: a *streamable*
/// plan — any composition of Filter / Project / Limit / UnionAll over
/// RemoteFragment leaves — executes as a chain of pull operators that
/// hold at most one bounded chunk each. Fragment leaves open a cursor
/// at their source (wire/cursor.h) and fetch it chunk by chunk;
/// mediator-side compensation (filter, project, limit, union
/// coercion) applies per chunk, so the resident footprint is O(chunk)
/// while the concatenated chunks equal the materialized result row
/// for row.
///
/// Everything else (joins, aggregates, sorts, distinct — the blocking
/// operators) still materializes; core/cursor_manager.h drains those
/// into a budget-charged spool and serves chunks from it.

#pragma once

#include <cstdint>
#include <memory>

#include "exec/executor.h"
#include "planner/plan.h"

namespace gisql {

/// \brief One increment of a streamed result, with its simulated cost.
struct StreamChunk {
  RowBatch rows;
  /// The chunk's rows as columns, when they crossed the wire columnar
  /// and no operator has rewritten them since; vectorized kernels read
  /// it.
  std::shared_ptr<const ColumnBatch> columnar;
  /// True on the last chunk (which may still carry rows, or be empty
  /// for an empty result).
  bool done = false;
  /// Simulated milliseconds spent producing this chunk (source scan on
  /// the first fetch, wire transfer, mediator CPU).
  double elapsed_ms = 0.0;
};

/// \brief A pull operator: yields a streamable plan's result in
/// bounded chunks.
class RowStream {
 public:
  virtual ~RowStream() = default;

  /// \brief Output schema of every chunk.
  virtual const SchemaPtr& schema() const = 0;

  /// \brief Produces the next chunk (at most the pipeline's chunk_rows
  /// rows; operators like Filter may shrink a chunk, never grow it).
  /// Must not be called again after a chunk with done == true.
  virtual Result<StreamChunk> Next() = 0;

  /// \brief Releases remote cursors (idempotent). Returns the
  /// simulated milliseconds the close RPCs cost.
  virtual double Close() = 0;
};

/// \brief True when `plan` can execute incrementally: Filter / Project
/// / Limit / UnionAll chains over RemoteFragment leaves (a semijoin
/// marker without injected keys counts as a plain fragment, matching
/// the executor). Blocking operators (join, aggregate, sort, distinct)
/// and virtual scans make a plan non-streamable.
bool IsStreamablePlan(const PlanNodePtr& plan);

/// \brief Builds the pull pipeline for a streamable plan.
///
/// No network traffic happens here: each fragment leaf opens its
/// source cursor lazily on its first Next(), so union members are
/// staged at their sources one at a time, not all at once. Open
/// idempotency tokens are drawn from `*next_token` (monotonically
/// consumed; the caller owns the counter and must never reuse values).
/// Fails only when the plan is not streamable.
Result<std::unique_ptr<RowStream>> OpenPlanStream(const ExecContext& ctx,
                                                  PlanNodePtr plan,
                                                  int64_t chunk_rows,
                                                  uint64_t* next_token);

/// \brief Serves an already-materialized result (the blocking-plan
/// spool) in bounded chunks, so cursor clients see one interface.
std::unique_ptr<RowStream> MakeSpoolStream(RowBatch spool,
                                           int64_t chunk_rows);

}  // namespace gisql
