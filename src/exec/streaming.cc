#include "exec/streaming.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/operators.h"
#include "net/retry.h"
#include "wire/cursor.h"
#include "wire/protocol.h"

namespace gisql {
namespace {

/// Leaf: pulls a fragment's rows through a source cursor. The cursor
/// opens lazily on the first Next(); replica failover happens only at
/// open, before any row has been delivered — once chunks flow, the
/// stream is pinned to its source (a replica would restart the scan
/// and duplicate rows).
class FragmentStream : public RowStream {
 public:
  FragmentStream(const ExecContext& ctx, PlanNodePtr node,
                 int64_t chunk_rows, uint64_t token)
      : ctx_(ctx), node_(std::move(node)), chunk_rows_(chunk_rows),
        token_(token) {}

  const SchemaPtr& schema() const override { return node_->output_schema; }

  Result<StreamChunk> Next() override {
    StreamChunk chunk;
    if (exhausted_) {
      chunk.rows = RowBatch(node_->output_schema);
      chunk.done = true;
      return chunk;
    }
    if (!opened_) GISQL_RETURN_NOT_OK(Open(&chunk));

    wire::FetchChunkRequest req{cursor_id_, next_seq_};
    ByteWriter writer;
    wire::WriteFetchChunkRequest(&writer, req);
    RetryResult call = CallWithRetry(
        *ctx_.net, ctx_.retry_policy, ctx_.mediator_host, source_,
        static_cast<uint8_t>(wire::Opcode::kFetchChunk), writer.Release(),
        HashString(node_->fragment.table) ^ token_);
    chunk.elapsed_ms += call.elapsed_ms;
    GISQL_RETURN_NOT_OK(call.status);
    ByteReader reader(call.payload);
    GISQL_ASSIGN_OR_RETURN(wire::CursorChunk wire_chunk,
                           wire::ReadCursorChunk(&reader));
    if (!reader.AtEnd()) {
      return Status::SerializationError(
          "trailing bytes after cursor chunk ", next_seq_, " from source '",
          source_, "'");
    }
    if (wire_chunk.cursor_id != cursor_id_ || wire_chunk.seq != next_seq_) {
      return Status::ExecutionError(
          "cursor ", cursor_id_, " answered chunk ", wire_chunk.seq,
          " of cursor ", wire_chunk.cursor_id, ", expected chunk ",
          next_seq_, " from source '", source_, "'");
    }
    GISQL_RETURN_NOT_OK(AdoptPlanSchema(*node_, source_, &wire_chunk.batch));
    ++next_seq_;
    exhausted_ = wire_chunk.done;
    chunk.rows = std::move(wire_chunk.batch.rows);
    chunk.columnar = std::move(wire_chunk.batch.columnar);
    chunk.done = wire_chunk.done;
    return chunk;
  }

  double Close() override {
    if (!opened_ || closed_) return 0.0;
    closed_ = true;
    ByteWriter writer;
    wire::WriteCloseCursorRequest(&writer, {cursor_id_});
    // Best effort: an unreachable source keeps the cursor until its
    // own staging limit recycles it; the mediator-side lease has
    // already been settled by the caller.
    RetryResult call = CallWithRetry(
        *ctx_.net, ctx_.retry_policy, ctx_.mediator_host, source_,
        static_cast<uint8_t>(wire::Opcode::kCloseCursor), writer.Release(),
        HashString(node_->fragment.table) ^ token_ ^ 1);
    if (!call.ok()) {
      GISQL_LOG(kWarn) << "close of cursor " << cursor_id_ << " at '"
                       << source_ << "' failed: "
                       << call.status.message();
    }
    return call.elapsed_ms;
  }

 private:
  /// Opens the source cursor, failing over across replica candidates
  /// exactly as the materializing executor does.
  Status Open(StreamChunk* chunk) {
    FragmentPlan frag = node_->fragment;
    frag.snapshot_ts = ctx_.snapshot_ts;
    frag.txn_id = ctx_.txn_id;
    if (frag.semijoin_column >= 0 && frag.semijoin_values.empty()) {
      frag.semijoin_column = -1;  // decomposer marker without keys
    }
    auto open_at = [&](const std::string& source, const std::string& table,
                       double) {
      wire::OpenCursorRequest req;
      req.token = token_;
      req.chunk_rows = chunk_rows_;
      req.fragment = frag;
      req.fragment.table = table;
      ByteWriter writer;
      wire::WriteOpenCursorRequest(&writer, req);
      RetryResult call = CallWithRetry(
          *ctx_.net, ctx_.retry_policy, ctx_.mediator_host, source,
          static_cast<uint8_t>(wire::Opcode::kOpenCursor), writer.Release(),
          HashString(frag.table) ^ token_);
      chunk->elapsed_ms += call.elapsed_ms;
      return call;
    };
    GISQL_ASSIGN_OR_RETURN(ReplicaAnswer answer,
                           CallReplicas(ctx_, *node_, TraceSink(), open_at));
    ByteReader reader(answer.payload);
    GISQL_ASSIGN_OR_RETURN(wire::OpenCursorResponse resp,
                           wire::ReadOpenCursorResponse(&reader));
    source_ = *answer.source;
    cursor_id_ = resp.cursor_id;
    opened_ = true;
    return Status::OK();
  }

  ExecContext ctx_;
  PlanNodePtr node_;
  int64_t chunk_rows_;
  uint64_t token_;
  bool opened_ = false;
  bool closed_ = false;
  bool exhausted_ = false;
  std::string source_;
  uint64_t cursor_id_ = 0;
  uint64_t next_seq_ = 0;
};

/// Filter or Project over a child stream: one chunk in, one chunk out
/// (a filter may shrink it), through the executor's per-batch body.
class MapStream : public RowStream {
 public:
  using Body =
      std::function<Result<RowBatch>(RowBatch, const ColumnBatch*)>;

  MapStream(const ExecContext& ctx, PlanNodePtr node,
            std::unique_ptr<RowStream> child, Body body)
      : ctx_(ctx), node_(std::move(node)), child_(std::move(child)),
        body_(std::move(body)) {}

  const SchemaPtr& schema() const override { return node_->output_schema; }

  Result<StreamChunk> Next() override {
    GISQL_ASSIGN_OR_RETURN(StreamChunk chunk, child_->Next());
    chunk.elapsed_ms += CpuMs(ctx_, chunk.rows.num_rows());
    GISQL_ASSIGN_OR_RETURN(
        chunk.rows, body_(std::move(chunk.rows), chunk.columnar.get()));
    chunk.columnar.reset();
    return chunk;
  }

  double Close() override { return child_->Close(); }

 private:
  ExecContext ctx_;
  PlanNodePtr node_;
  std::unique_ptr<RowStream> child_;
  Body body_;
};

/// Limit/offset over a child stream. The child is closed early when
/// the limit is reached — the whole point of streaming LIMIT: rows
/// past it are never fetched.
class LimitStream : public RowStream {
 public:
  LimitStream(PlanNodePtr node, std::unique_ptr<RowStream> child)
      : node_(std::move(node)), child_(std::move(child)),
        skip_(node_->offset),
        remaining_(node_->limit) {}

  const SchemaPtr& schema() const override { return node_->output_schema; }

  Result<StreamChunk> Next() override {
    StreamChunk chunk;
    if (done_) {
      chunk.rows = RowBatch(node_->output_schema);
      chunk.done = true;
      return chunk;
    }
    // Skip whole offset-consumed chunks without surfacing empties.
    while (true) {
      GISQL_ASSIGN_OR_RETURN(StreamChunk in, child_->Next());
      chunk.elapsed_ms += in.elapsed_ms;
      const int64_t arrived = static_cast<int64_t>(in.rows.num_rows());
      SliceRows(skip_, remaining_, &in.rows);
      skip_ -= std::min(skip_, arrived);
      auto& rows = in.rows.rows();
      if (remaining_ >= 0) remaining_ -= static_cast<int64_t>(rows.size());
      const bool child_done = in.done;
      const bool limit_hit = remaining_ == 0;
      if (limit_hit && !child_done) {
        chunk.elapsed_ms += child_->Close();
      }
      if (child_done || limit_hit) done_ = true;
      if (done_ || !rows.empty()) {
        chunk.rows = RowBatch(node_->output_schema, std::move(rows));
        chunk.done = done_;
        return chunk;
      }
    }
  }

  double Close() override { return child_->Close(); }

 private:
  PlanNodePtr node_;
  std::unique_ptr<RowStream> child_;
  bool done_ = false;
  int64_t skip_ = 0;
  int64_t remaining_ = -1;  ///< -1 = no limit, only offset
};

/// Concatenates member streams in plan order, coercing member values
/// to the union view's column types like the materializing executor.
/// Members run one after another, so only one source cursor is staged
/// at a time.
class UnionStream : public RowStream {
 public:
  UnionStream(const ExecContext& ctx, PlanNodePtr node,
              std::vector<std::unique_ptr<RowStream>> members)
      : ctx_(ctx), node_(std::move(node)), members_(std::move(members)) {}

  const SchemaPtr& schema() const override { return node_->output_schema; }

  Result<StreamChunk> Next() override {
    StreamChunk chunk;
    while (current_ < members_.size()) {
      GISQL_ASSIGN_OR_RETURN(StreamChunk in, members_[current_]->Next());
      chunk.elapsed_ms += in.elapsed_ms;
      if (in.done) {
        chunk.elapsed_ms += members_[current_]->Close();
        ++current_;
      }
      if (in.rows.num_rows() == 0 && current_ < members_.size()) {
        continue;  // exhausted member's empty tail: move on silently
      }
      RowBatch out(node_->output_schema);
      out.Reserve(in.rows.num_rows());
      GISQL_RETURN_NOT_OK(AppendUnionMember(*node_, std::move(in.rows),
                                            in.columnar.get(), &out));
      chunk.elapsed_ms += CpuMs(ctx_, out.num_rows());
      chunk.rows = std::move(out);
      chunk.done = current_ >= members_.size();
      return chunk;
    }
    chunk.rows = RowBatch(node_->output_schema);
    chunk.done = true;
    return chunk;
  }

  double Close() override {
    double ms = 0.0;
    for (size_t i = current_; i < members_.size(); ++i) {
      ms += members_[i]->Close();
    }
    current_ = members_.size();
    return ms;
  }

 private:
  ExecContext ctx_;
  PlanNodePtr node_;
  std::vector<std::unique_ptr<RowStream>> members_;
  size_t current_ = 0;
};

class SpoolStream : public RowStream {
 public:
  SpoolStream(RowBatch spool, int64_t chunk_rows)
      : schema_(spool.schema()), spool_(std::move(spool)),
        chunk_rows_(chunk_rows) {}

  const SchemaPtr& schema() const override { return schema_; }

  Result<StreamChunk> Next() override {
    StreamChunk chunk;
    const int64_t total = spool_.num_rows();
    const int64_t take = std::min(chunk_rows_, total - pos_);
    std::vector<Row> rows(spool_.rows().begin() + pos_,
                          spool_.rows().begin() + pos_ + take);
    pos_ += take;
    chunk.rows = RowBatch(schema_, std::move(rows));
    chunk.done = pos_ >= total;
    return chunk;
  }

  double Close() override { return 0.0; }

 private:
  SchemaPtr schema_;
  RowBatch spool_;
  int64_t chunk_rows_;
  int64_t pos_ = 0;
};

bool IsStreamableNode(const PlanNodePtr& node) {
  switch (node->kind) {
    case PlanKind::kRemoteFragment:
      // A semijoin reduction with injected keys only exists below a
      // join — a blocking parent — so in practice this always streams;
      // the guard keeps the invariant local.
      return !(node->fragment.semijoin_column >= 0 &&
               !node->fragment.semijoin_values.empty());
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kLimit:
      return IsStreamableNode(node->children[0]);
    case PlanKind::kUnionAll:
      for (const auto& child : node->children) {
        if (!IsStreamableNode(child)) return false;
      }
      return true;
    default:
      return false;
  }
}

Result<std::unique_ptr<RowStream>> Build(const ExecContext& ctx,
                                         const PlanNodePtr& node,
                                         int64_t chunk_rows,
                                         uint64_t* next_token) {
  switch (node->kind) {
    case PlanKind::kRemoteFragment:
      return std::unique_ptr<RowStream>(
          new FragmentStream(ctx, node, chunk_rows, (*next_token)++));
    case PlanKind::kFilter: {
      GISQL_ASSIGN_OR_RETURN(
          std::unique_ptr<RowStream> child,
          Build(ctx, node->children[0], chunk_rows, next_token));
      return std::unique_ptr<RowStream>(new MapStream(
          ctx, node, std::move(child),
          [node](RowBatch rows, const ColumnBatch* columnar) {
            return FilterRows(*node->filter, std::move(rows), columnar);
          }));
    }
    case PlanKind::kProject: {
      GISQL_ASSIGN_OR_RETURN(
          std::unique_ptr<RowStream> child,
          Build(ctx, node->children[0], chunk_rows, next_token));
      return std::unique_ptr<RowStream>(new MapStream(
          ctx, node, std::move(child),
          [node](RowBatch rows, const ColumnBatch*) {
            return ProjectRows(node->projections, node->output_schema, rows);
          }));
    }
    case PlanKind::kLimit: {
      GISQL_ASSIGN_OR_RETURN(
          std::unique_ptr<RowStream> child,
          Build(ctx, node->children[0], chunk_rows, next_token));
      return std::unique_ptr<RowStream>(
          new LimitStream(node, std::move(child)));
    }
    case PlanKind::kUnionAll: {
      std::vector<std::unique_ptr<RowStream>> members;
      members.reserve(node->children.size());
      for (const auto& child : node->children) {
        GISQL_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> member,
                               Build(ctx, child, chunk_rows, next_token));
        members.push_back(std::move(member));
      }
      return std::unique_ptr<RowStream>(
          new UnionStream(ctx, node, std::move(members)));
    }
    default:
      return Status::InvalidArgument("plan node ",
                                     PlanKindName(node->kind),
                                     " is not streamable");
  }
}

}  // namespace

bool IsStreamablePlan(const PlanNodePtr& plan) {
  return plan != nullptr && IsStreamableNode(plan);
}

Result<std::unique_ptr<RowStream>> OpenPlanStream(const ExecContext& ctx,
                                                  PlanNodePtr plan,
                                                  int64_t chunk_rows,
                                                  uint64_t* next_token) {
  if (!IsStreamablePlan(plan)) {
    return Status::InvalidArgument("plan is not streamable");
  }
  if (chunk_rows <= 0) {
    return Status::InvalidArgument("chunk_rows must be positive, got ",
                                   chunk_rows);
  }
  // Streaming stays serial by construction (the client drives the
  // pulls), so no pool is consulted; results are identical to the
  // materializing executor either way.
  ExecContext stream_ctx = ctx;
  stream_ctx.pool = nullptr;
  stream_ctx.memory = nullptr;  // the cursor's owner charges per chunk
  stream_ctx.trace = nullptr;
  return Build(stream_ctx, plan, chunk_rows, next_token);
}

std::unique_ptr<RowStream> MakeSpoolStream(RowBatch spool,
                                           int64_t chunk_rows) {
  return std::make_unique<SpoolStream>(std::move(spool),
                                       std::max<int64_t>(1, chunk_rows));
}

}  // namespace gisql
