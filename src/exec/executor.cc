#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "catalog/system_tables.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/source_health.h"
#include "exec/operators.h"
#include "exec/vectorized.h"
#include "expr/eval.h"
#include "net/retry.h"
#include "sched/circuit_breaker.h"
#include "sched/memory_budget.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

double CpuMs(const ExecContext& ctx, size_t rows) {
  return static_cast<double>(rows) * ctx.mediator_cpu_us_per_row / 1e3;
}

Result<ReplicaAnswer> CallReplicas(const ExecContext& ctx,
                                   const PlanNode& node,
                                   const TraceSink& sink,
                                   const ReplicaCall& call) {
  struct Candidate {
    const std::string* source;
    const std::string* table;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({&node.fragment_source, &node.fragment.table});
  for (const auto& alt : node.scan_alternates) {
    candidates.push_back({&alt.source, &alt.exported_name});
  }
  // A suspect source (sustained failure streak — likely down) is tried
  // after the healthy replicas instead of first, saving the
  // detection-timeout burn its attempt would cost.
  if (ctx.health != nullptr && candidates.size() > 1) {
    auto penalty = [&](const Candidate& c) {
      return ctx.health->StateOf(*c.source) == SourceHealthState::kSuspect
                 ? 1
                 : 0;
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const Candidate& a, const Candidate& b) {
                       const int pa = penalty(a), pb = penalty(b);
                       if (pa != pb) return pa < pb;
                       return pa > 0 && *a.source < *b.source;
                     });
  }

  ReplicaAnswer answer;
  Status last;
  std::string tried;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::string& source = *candidates[i].source;
    const bool has_next = i + 1 < candidates.size();
    if (ctx.breakers != nullptr && ctx.breakers->ShouldSkip(source)) {
      // Free by construction; the E17 bench asserts it stays that way.
      last = Status::NetworkError("circuit breaker open for source '",
                                  source, "'");
      if (sink.enabled()) {
        const double at = sink.start_ms + answer.elapsed_ms;
        const uint64_t span =
            sink.trace->Begin("breaker.skip", "net", sink.parent, at);
        sink.trace->SetHost(span, source);
        sink.trace->End(span, at);
      }
      if (has_next) {
        GISQL_LOG(kInfo) << "breaker open for '" << source
                         << "'; skipping to replica '"
                         << *candidates[i + 1].source << "'";
      }
    } else {
      RetryResult result =
          call(source, *candidates[i].table, answer.elapsed_ms);
      answer.elapsed_ms += result.elapsed_ms;
      if (result.ok()) {
        answer.source = &source;
        answer.payload = std::move(result.payload);
        return answer;
      }
      last = std::move(result.status);
      if (!last.IsNetworkError()) return last;
      if (has_next) {
        GISQL_LOG(kWarn) << "source '" << source
                         << "' unreachable; failing over to replica '"
                         << *candidates[i + 1].source << "'";
      }
    }
    tried += tried.empty() ? source : ", " + source;
  }
  if (candidates.size() > 1) {
    return Status::NetworkError("all replicas of '", node.fragment.table,
                                "' unreachable (tried ", tried,
                                "); last error: ", last.message());
  }
  return last;
}

Status AdoptPlanSchema(const PlanNode& node, const std::string& source,
                       wire::ResultBatch* result) {
  const size_t width = node.output_schema->num_fields();
  if (result->rows.schema()->num_fields() != width) {
    return Status::ExecutionError(
        "fragment result arity ", result->rows.schema()->num_fields(),
        " does not match plan arity ", width, " from source '", source,
        "'");
  }
  result->rows =
      RowBatch(node.output_schema, std::move(result->rows.rows()));
  if (result->columnar != nullptr) {
    result->columnar->AdoptSchema(node.output_schema);
  }
  return Status::OK();
}

Status AppendUnionMember(const PlanNode& node, RowBatch rows,
                         const ColumnBatch* columnar, RowBatch* out) {
  const size_t width = node.output_schema->num_fields();
  bool coerced = columnar != nullptr && columnar->num_columns() >= width;
  for (size_t c = 0; coerced && c < width; ++c) {
    const TypeId type = columnar->column(c).type;
    coerced = type == node.output_schema->field(c).type ||
              type == TypeId::kNull;
  }
  for (auto& row : rows.rows()) {
    if (!coerced) {
      for (size_t c = 0; c < width && c < row.size(); ++c) {
        const TypeId want = node.output_schema->field(c).type;
        if (!row[c].is_null() && row[c].type() != want) {
          GISQL_ASSIGN_OR_RETURN(row[c], row[c].CastTo(want));
        }
      }
    }
    out->Append(std::move(row));
  }
  return Status::OK();
}

Result<ExecOutput> Executor::Execute(const PlanNodePtr& plan) {
  if (ctx_.net == nullptr) {
    return Status::InvalidArgument("executor requires a network");
  }
  // Serial execution already visits fragments in pre-order; only
  // pooled execution needs the explicit ordering.
  if (ctx_.pool != nullptr) sequencer_.Plan(plan);
  return Exec(*plan, ctx_.trace_start_ms, ctx_.trace_parent);
}

Status Executor::ChargeMemory(size_t rows, size_t width, const char* what) {
  if (ctx_.memory == nullptr) return Status::OK();
  return ctx_.memory->Charge(
      EstimateRowBytes(static_cast<int64_t>(rows),
                       static_cast<int64_t>(width)),
      what);
}

uint64_t Executor::BeginNodeSpan(const PlanNode& node, double t0,
                                 uint64_t parent) {
  if (ctx_.trace == nullptr) return 0;
  std::string label;
  if (node.kind == PlanKind::kRemoteFragment) {
    label = "fragment " + node.fragment.table + " @" + node.fragment_source;
  } else if (node.kind == PlanKind::kVirtualScan) {
    label = "system " + node.scan_global_name;
  } else {
    label = PlanKindName(node.kind);
  }
  const uint64_t span =
      ctx_.trace->Begin(std::move(label), "operator", parent, t0);
  if (node.kind == PlanKind::kRemoteFragment) {
    ctx_.trace->SetHost(span, node.fragment_source);
  }
  return span;
}

void Executor::FinishNodeSpan(const PlanNode& node, uint64_t span, double t0,
                              const Result<ExecOutput>& out) {
  if (out.ok()) {
    if (ctx_.record_actuals) {
      node.actual_rows = static_cast<double>(out->batch.num_rows());
      node.actual_ms = out->elapsed_ms;
    }
    if (ctx_.trace != nullptr) {
      ctx_.trace->SetRows(span, out->batch.num_rows());
      ctx_.trace->End(span, t0 + out->elapsed_ms);
    }
  } else if (ctx_.trace != nullptr) {
    ctx_.trace->SetNote(span, out.status().message());
    ctx_.trace->End(span, t0);
  }
}

Result<ExecOutput> Executor::ExecFragment(const PlanNode& node,
                                          const FragmentPlan& frag,
                                          double t0, uint64_t self) {
  // Wait for this fragment's turn on its planned source (no-op when
  // sequencing is off or on re-entry); held until the response is in.
  SourceSequencer::Turn turn = sequencer_.Acquire(&node);
  if (frag.semijoin_column >= 0 && frag.semijoin_values.empty()) {
    // A decomposer marker without injected keys (e.g. the plain path of
    // a join that fell back to shipping): execute as a plain fragment.
    FragmentPlan plain = frag;
    plain.semijoin_column = -1;
    return ExecFragment(node, plain, t0, self);
  }
  // Each candidate gets the full retry budget; exhausting one on a
  // transport failure moves to the next replica. All attempts and
  // backoffs charge the same simulated clock (E11 failover and E15
  // chaos share this path). Node-level network actuals accumulate
  // across all candidates and attempts (failed ones included — their
  // traffic was charged too).
  int64_t total_sent = 0;
  int64_t total_received = 0;
  int64_t total_attempts = 0;
  // Decorrelates backoff jitter between the fragments of one query.
  const uint64_t nonce = HashString(frag.table);
  Result<ReplicaAnswer> answer = CallReplicas(
      ctx_, node, TraceSink{ctx_.trace, self, t0},
      [&](const std::string& source, const std::string& table,
          double spent_ms) {
        FragmentPlan attempt = frag;
        attempt.table = table;
        attempt.snapshot_ts = ctx_.snapshot_ts;
        attempt.txn_id = ctx_.txn_id;
        std::vector<uint8_t> request = wire::SerializeFragment(attempt);
        if (ctx_.trace != nullptr) {
          // Wire-encode marker: free on the simulated clock, but it
          // shows what the mediator shipped before any network time.
          const uint64_t enc = ctx_.trace->Begin("encode", "net", self,
                                                 t0 + spent_ms);
          ctx_.trace->SetHost(enc, source);
          ctx_.trace->AddIo(enc, static_cast<int64_t>(request.size()), 0,
                            0, 0, 0);
          ctx_.trace->End(enc, t0 + spent_ms);
        }
        RetryResult call = CallWithRetry(
            *ctx_.net, ctx_.retry_policy, ctx_.mediator_host, source,
            static_cast<uint8_t>(wire::Opcode::kExecuteFragmentColumnar),
            request, nonce, TraceSink{ctx_.trace, self, t0 + spent_ms});
        total_sent += call.bytes_sent;
        total_received += call.bytes_received;
        total_attempts += call.attempts;
        if (ctx_.trace != nullptr) {
          ctx_.trace->AddIo(self, call.bytes_sent, call.bytes_received,
                            call.attempts, call.attempts,
                            call.attempts > 0 ? call.attempts - 1 : 0);
        }
        return call;
      });
  if (ctx_.record_actuals) {
    node.actual_bytes_sent = total_sent;
    node.actual_bytes_received = total_received;
    node.actual_messages = total_attempts;
    node.actual_attempts = total_attempts;
  }
  GISQL_RETURN_NOT_OK(answer.status());
  GISQL_ASSIGN_OR_RETURN(wire::FragmentResponse response,
                         wire::ReadFragmentResponse(answer->payload));
  GISQL_RETURN_NOT_OK(
      AdoptPlanSchema(node, *answer->source, &response.batch));
  if (ctx_.record_actuals) {
    node.actual_page_hits = response.pages.page_hits;
    node.actual_page_misses = response.pages.page_misses;
    node.actual_evictions = response.pages.evictions;
    node.actual_disk_ms = response.pages.disk_us / 1e3;
  }
  ExecOutput out;
  out.batch = std::move(response.batch.rows);
  out.columnar = std::move(response.batch.columnar);
  out.elapsed_ms = answer->elapsed_ms;
  GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                   node.output_schema->num_fields(),
                                   "a fragment result"));
  return out;
}

Result<ExecOutput> Executor::ExecUnionAll(const PlanNode& node, double t0,
                                          uint64_t self) {
  ExecOutput out;
  out.batch = RowBatch(node.output_schema);
  double slowest = 0.0;

  // Fetch members concurrently on the bounded pool (their simulated
  // costs already combine as a max; the workers only buy wall-clock
  // overlap). Results are appended in member order, so output is
  // deterministic regardless of completion order or pool size. Every
  // member's span starts at t0 — overlap is the simulated semantics.
  std::vector<Result<ExecOutput>> parts(
      node.children.size(), Result<ExecOutput>(ExecOutput{}));
  if (ctx_.pool != nullptr && node.children.size() > 1) {
    TaskGroup group(ctx_.pool);
    for (size_t i = 0; i < node.children.size(); ++i) {
      group.Spawn([this, &node, &parts, t0, self, i] {
        parts[i] = Exec(*node.children[i], t0, self);
      });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < node.children.size(); ++i) {
      parts[i] = Exec(*node.children[i], t0, self);
    }
  }

  for (auto& part_result : parts) {
    GISQL_RETURN_NOT_OK(part_result.status());
    ExecOutput part = std::move(*part_result);
    slowest = std::max(slowest, part.elapsed_ms);
    GISQL_RETURN_NOT_OK(AppendUnionMember(node, std::move(part.batch),
                                          part.columnar.get(), &out.batch));
  }
  out.elapsed_ms = slowest + CpuMs(ctx_, out.batch.num_rows());
  GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                   node.output_schema->num_fields(),
                                   "a union result"));
  return out;
}

Result<ExecOutput> Executor::ExecJoin(const PlanNode& node, double t0,
                                      uint64_t self) {
  const PlanNode& left_node = *node.children[0];
  const PlanNode& right_node = *node.children[1];
  // Ship-strategy joins fetch both sides independently: overlap them on
  // threads. Semijoin needs the left result first, so it stays serial.
  // Either way both ship-side spans start at t0 (simulated overlap);
  // the semijoin probe starts only after the build side arrived.
  ExecOutput left;
  ExecOutput right;
  bool right_done = false;
  if (ctx_.pool != nullptr && node.join_strategy == JoinStrategy::kShip) {
    Result<ExecOutput> right_result(ExecOutput{});
    {
      TaskGroup group(ctx_.pool);
      group.Spawn([this, &right_node, &right_result, t0, self] {
        right_result = Exec(right_node, t0, self);
      });
      Result<ExecOutput> left_result = Exec(left_node, t0, self);
      group.Wait();
      GISQL_RETURN_NOT_OK(left_result.status());
      left = std::move(*left_result);
    }
    GISQL_RETURN_NOT_OK(right_result.status());
    right = std::move(*right_result);
    right_done = true;
  } else {
    Result<ExecOutput> left_result = Exec(left_node, t0, self);
    if (!left_result.ok()) {
      // The right subtree will never run; free its sequencer tickets
      // so concurrent same-source fragments elsewhere don't wait.
      sequencer_.SkipSubtree(node.children[1]);
      return left_result.status();
    }
    left = std::move(*left_result);
  }

  bool sequential = false;
  if (right_done) {
    // both sides already fetched above
  } else if (node.join_strategy == JoinStrategy::kSemijoin &&
             !node.left_keys.empty()) {
    // Collect distinct build-side key values.
    struct ValueHash {
      size_t operator()(const Value& v) const { return v.Hash(); }
    };
    struct ValueEq {
      bool operator()(const Value& a, const Value& b) const {
        return a.Compare(b) == 0;
      }
    };
    std::unordered_set<Value, ValueHash, ValueEq> key_set;
    const size_t key_col = node.left_keys[0];
    for (const auto& row : left.batch.rows()) {
      if (!row[key_col].is_null()) key_set.insert(row[key_col]);
    }
    std::vector<Value> keys(key_set.begin(), key_set.end());
    // Deterministic key order for reproducible byte counts.
    std::sort(keys.begin(), keys.end(),
              [](const Value& a, const Value& b) {
                return a.Compare(b) < 0;
              });
    sequential = true;  // the reduction depends on the left result
    Result<ExecOutput> probe =
        ExecSemijoinProbe(right_node, keys, t0 + left.elapsed_ms, self);
    if (!probe.ok()) {
      // The probe may have failed before reaching the marked fragment;
      // release whatever tickets it never claimed.
      sequencer_.SkipSubtree(node.children[1]);
      return probe.status();
    }
    right = std::move(*probe);
  } else {
    GISQL_ASSIGN_OR_RETURN(right, Exec(right_node, t0, self));
  }

  // Build a hash table over the right side. When a side arrived
  // columnar, key hashes come from a bulk pass over the key columns
  // (HashKeysColumnar matches HashRowKeys cell for cell) instead of a
  // per-row, per-Value hash.
  std::unordered_map<uint64_t, std::vector<const Row*>> table;
  table.reserve(right.batch.num_rows());
  // Bucket and pointer overhead per build row; the rows themselves
  // were charged when their batch materialized.
  if (ctx_.memory != nullptr) {
    GISQL_RETURN_NOT_OK(ctx_.memory->Charge(
        48 * static_cast<int64_t>(right.batch.num_rows()),
        "a join hash table"));
  }
  auto keys_nonnull = [](const Row& row, const std::vector<size_t>& keys) {
    for (size_t k : keys) {
      if (row[k].is_null()) return false;
    }
    return true;
  };
  const bool keyed = !node.left_keys.empty();
  std::vector<uint64_t> right_hashes;
  if (keyed && right.columnar != nullptr) {
    right_hashes = HashKeysColumnar(*right.columnar, node.right_keys);
  }
  std::vector<uint64_t> left_hashes;
  if (keyed && left.columnar != nullptr) {
    left_hashes = HashKeysColumnar(*left.columnar, node.left_keys);
  }
  bool right_has_null_key = false;
  {
    size_t r = 0;
    for (const auto& row : right.batch.rows()) {
      const size_t idx = r++;
      if (!keys_nonnull(row, node.right_keys)) {
        right_has_null_key = true;
        continue;
      }
      const uint64_t h = right_hashes.empty()
                             ? HashRowKeys(row, node.right_keys)
                             : right_hashes[idx];
      table[h].push_back(&row);
    }
  }

  if (node.join_type == JoinType::kAnti) {
    // Null-aware anti-join (NOT IN semantics): a NULL anywhere on the
    // right makes every membership test UNKNOWN → nothing qualifies;
    // NULL probes are UNKNOWN too and drop.
    ExecOutput out;
    out.batch = RowBatch(node.output_schema);
    if (!right_has_null_key) {
      size_t l = 0;
      for (const auto& lrow : left.batch.rows()) {
        const size_t lidx = l++;
        if (!keys_nonnull(lrow, node.left_keys)) continue;
        auto it = table.find(left_hashes.empty()
                                 ? HashRowKeys(lrow, node.left_keys)
                                 : left_hashes[lidx]);
        bool matched = false;
        if (it != table.end()) {
          for (const Row* rrow : it->second) {
            bool equal = true;
            for (size_t i = 0; i < node.left_keys.size(); ++i) {
              if (lrow[node.left_keys[i]].Compare(
                      (*rrow)[node.right_keys[i]]) != 0) {
                equal = false;
                break;
              }
            }
            if (equal) {
              matched = true;
              break;
            }
          }
        }
        if (!matched) out.batch.Append(lrow);
      }
    }
    const double fetch = sequential
                             ? left.elapsed_ms + right.elapsed_ms
                             : std::max(left.elapsed_ms, right.elapsed_ms);
    out.elapsed_ms = fetch + CpuMs(ctx_, left.batch.num_rows() +
                                   right.batch.num_rows());
    GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                     node.output_schema->num_fields(),
                                     "an anti-join result"));
    return out;
  }

  ExecOutput out;
  out.batch = RowBatch(node.output_schema);
  const size_t right_width = right_node.output_schema->num_fields();
  const bool cross = node.left_keys.empty();

  // Join output is charged in chunks *while* it grows, so a hostile
  // cross join hits its budget after the next chunk instead of after
  // materializing the full product.
  constexpr size_t kChargeChunk = 8192;
  const size_t out_width = node.output_schema->num_fields();
  size_t charged_rows = 0;
  auto charge_output = [&]() -> Status {
    const size_t n = out.batch.num_rows();
    if (n >= charged_rows + kChargeChunk) {
      GISQL_RETURN_NOT_OK(
          ChargeMemory(n - charged_rows, out_width, "a join result"));
      charged_rows = n;
    }
    return Status::OK();
  };

  size_t probe_idx = 0;
  for (const auto& lrow : left.batch.rows()) {
    const size_t lidx = probe_idx++;
    bool matched = false;
    auto try_match = [&](const Row& rrow) -> Status {
      Row combined = lrow;
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      if (node.join_residual) {
        GISQL_ASSIGN_OR_RETURN(bool keep,
                               EvalPredicate(*node.join_residual, combined));
        if (!keep) return Status::OK();
      }
      matched = true;
      out.batch.Append(std::move(combined));
      return charge_output();
    };
    if (cross) {
      for (const auto& rrow : right.batch.rows()) {
        GISQL_RETURN_NOT_OK(try_match(rrow));
      }
    } else if (keys_nonnull(lrow, node.left_keys)) {
      auto it = table.find(left_hashes.empty()
                               ? HashRowKeys(lrow, node.left_keys)
                               : left_hashes[lidx]);
      if (it != table.end()) {
        for (const Row* rrow : it->second) {
          // Verify by value (hash collisions, cross-type equality).
          bool equal = true;
          for (size_t i = 0; i < node.left_keys.size(); ++i) {
            if (lrow[node.left_keys[i]].Compare(
                    (*rrow)[node.right_keys[i]]) != 0) {
              equal = false;
              break;
            }
          }
          if (equal) GISQL_RETURN_NOT_OK(try_match(*rrow));
        }
      }
    }
    if (!matched && node.join_type == JoinType::kLeft) {
      Row combined = lrow;
      for (size_t i = 0; i < right_width; ++i) {
        combined.push_back(
            Value::Null(right_node.output_schema->field(i).type));
      }
      out.batch.Append(std::move(combined));
      GISQL_RETURN_NOT_OK(charge_output());
    }
  }
  GISQL_RETURN_NOT_OK(
      ChargeMemory(out.batch.num_rows() - charged_rows, out_width,
                   "a join result"));

  const double fetch_ms = sequential
                              ? left.elapsed_ms + right.elapsed_ms
                              : std::max(left.elapsed_ms, right.elapsed_ms);
  out.elapsed_ms = fetch_ms + CpuMs(ctx_, left.batch.num_rows() +
                                    right.batch.num_rows() +
                                    out.batch.num_rows());
  return out;
}

Result<ExecOutput> Executor::ApplyFilter(const PlanNode& node,
                                         ExecOutput child) {
  ExecOutput out;
  out.elapsed_ms = child.elapsed_ms + CpuMs(ctx_, child.batch.num_rows());
  GISQL_ASSIGN_OR_RETURN(out.batch,
                         FilterRows(*node.filter, std::move(child.batch),
                                    child.columnar.get()));
  return out;
}

Result<ExecOutput> Executor::ApplyProject(const PlanNode& node,
                                          ExecOutput child) {
  ExecOutput out;
  out.elapsed_ms = child.elapsed_ms + CpuMs(ctx_, child.batch.num_rows());
  GISQL_ASSIGN_OR_RETURN(out.batch, ProjectRows(node.projections,
                                                node.output_schema,
                                                child.batch));
  GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                   node.output_schema->num_fields(),
                                   "a projected result"));
  return out;
}

Result<ExecOutput> Executor::ExecSemijoinProbe(const PlanNode& node,
                                               const std::vector<Value>& keys,
                                               double t0, uint64_t parent) {
  // Mirrors the Exec wrapper so probe-side nodes get spans and EXPLAIN
  // ANALYZE actuals too.
  auto traced = [&](auto&& body) -> Result<ExecOutput> {
    const uint64_t span = BeginNodeSpan(node, t0, parent);
    Result<ExecOutput> out = body(span != 0 ? span : parent);
    FinishNodeSpan(node, span, t0, out);
    return out;
  };
  switch (node.kind) {
    case PlanKind::kRemoteFragment:
      return traced([&](uint64_t self) -> Result<ExecOutput> {
        if (node.fragment.semijoin_column < 0 ||
            static_cast<int64_t>(keys.size()) > ctx_.semijoin_max_keys) {
          // Unmarked fragment or too many keys: ship it whole.
          FragmentPlan plain = node.fragment;
          plain.semijoin_column = -1;
          return ExecFragment(node, plain, t0, self);
        }
        FragmentPlan reduced = node.fragment;
        reduced.semijoin_values = keys;
        return ExecFragment(node, reduced, t0, self);
      });
    case PlanKind::kFilter:
      return traced([&](uint64_t self) -> Result<ExecOutput> {
        GISQL_ASSIGN_OR_RETURN(
            ExecOutput child,
            ExecSemijoinProbe(*node.children[0], keys, t0, self));
        return ApplyFilter(node, std::move(child));
      });
    case PlanKind::kProject:
      return traced([&](uint64_t self) -> Result<ExecOutput> {
        GISQL_ASSIGN_OR_RETURN(
            ExecOutput child,
            ExecSemijoinProbe(*node.children[0], keys, t0, self));
        return ApplyProject(node, std::move(child));
      });
    default:
      // No fragment to reduce below this shape; execute normally.
      return Exec(node, t0, parent);
  }
}

Result<ExecOutput> Executor::ExecAggregate(const PlanNode& node, double t0,
                                           uint64_t self) {
  GISQL_ASSIGN_OR_RETURN(ExecOutput child, Exec(*node.children[0], t0, self));
  ExecOutput result;
  result.elapsed_ms = child.elapsed_ms + CpuMs(ctx_, child.batch.num_rows());
  GISQL_ASSIGN_OR_RETURN(
      result.batch,
      AggregateRows(child.batch, child.columnar.get(), node.group_by,
                    node.aggregates, node.output_schema));
  GISQL_RETURN_NOT_OK(ChargeMemory(result.batch.num_rows(),
                                   node.output_schema->num_fields(),
                                   "an aggregate result"));
  return result;
}

Result<ExecOutput> Executor::Exec(const PlanNode& node, double t0,
                                  uint64_t parent) {
  if (!ctx_.record_actuals && ctx_.trace == nullptr) {
    return ExecImpl(node, t0, parent);
  }
  const uint64_t span = BeginNodeSpan(node, t0, parent);
  Result<ExecOutput> out = ExecImpl(node, t0, span != 0 ? span : parent);
  FinishNodeSpan(node, span, t0, out);
  return out;
}

Result<ExecOutput> Executor::ExecImpl(const PlanNode& node, double t0,
                                      uint64_t self) {
  switch (node.kind) {
    case PlanKind::kValues: {
      ExecOutput out;
      out.batch = RowBatch(node.output_schema, node.values_rows);
      return out;
    }

    case PlanKind::kSourceScan:
      return Status::Internal(
          "SourceScan reached the executor; run the decomposer first");

    case PlanKind::kVirtualScan: {
      if (ctx_.system_tables == nullptr) {
        return Status::Internal("virtual scan of '", node.scan_global_name,
                                "' without a system-table provider");
      }
      GISQL_ASSIGN_OR_RETURN(
          RowBatch snap, ctx_.system_tables->Snapshot(node.scan_global_name));
      // Re-shape under the plan's (qualified) schema; rows are already
      // positionally aligned. Mediator-local: CPU cost only, no wire.
      ExecOutput out;
      out.batch = RowBatch(node.output_schema, std::move(snap.rows()));
      out.elapsed_ms = CpuMs(ctx_, out.batch.num_rows());
      GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                       node.output_schema->num_fields(),
                                       "a system-table snapshot"));
      return out;
    }

    case PlanKind::kRemoteFragment:
      return ExecFragment(node, node.fragment, t0, self);

    case PlanKind::kUnionAll:
      return ExecUnionAll(node, t0, self);

    case PlanKind::kFilter: {
      GISQL_ASSIGN_OR_RETURN(ExecOutput child,
                             Exec(*node.children[0], t0, self));
      return ApplyFilter(node, std::move(child));
    }

    case PlanKind::kProject: {
      GISQL_ASSIGN_OR_RETURN(ExecOutput child,
                             Exec(*node.children[0], t0, self));
      return ApplyProject(node, std::move(child));
    }

    case PlanKind::kJoin:
      return ExecJoin(node, t0, self);

    case PlanKind::kAggregate:
      return ExecAggregate(node, t0, self);

    case PlanKind::kSort: {
      GISQL_ASSIGN_OR_RETURN(ExecOutput child,
                             Exec(*node.children[0], t0, self));
      // Sort scratch is proportional to the input it permutes.
      GISQL_RETURN_NOT_OK(ChargeMemory(child.batch.num_rows(),
                                       node.output_schema->num_fields(),
                                       "a sort buffer"));
      std::vector<ExprPtr> keys;
      for (size_t c : node.sort_columns) {
        keys.push_back(MakeColumn(c, node.output_schema->field(c).type));
      }
      GISQL_RETURN_NOT_OK(
          SortRows(keys, node.sort_ascending, &child.batch));
      // Sorting costs ~n log n row touches.
      const double n = static_cast<double>(child.batch.num_rows());
      child.elapsed_ms +=
          CpuMs(ctx_, static_cast<size_t>(n * std::max(1.0, std::log2(n + 1))));
      child.batch = RowBatch(node.output_schema, std::move(child.batch.rows()));
      return child;
    }

    case PlanKind::kLimit: {
      GISQL_ASSIGN_OR_RETURN(ExecOutput child,
                             Exec(*node.children[0], t0, self));
      SliceRows(node.offset, node.limit, &child.batch);
      child.batch = RowBatch(node.output_schema, std::move(child.batch.rows()));
      return child;
    }

    case PlanKind::kDistinct: {
      GISQL_ASSIGN_OR_RETURN(ExecOutput child,
                             Exec(*node.children[0], t0, self));
      // Buckets hold indexes into the output batch (stable under growth).
      std::unordered_map<uint64_t, std::vector<size_t>> seen;
      ExecOutput out;
      out.batch = RowBatch(node.output_schema);
      std::vector<size_t> all_cols(node.output_schema->num_fields());
      for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
      for (auto& row : child.batch.rows()) {
        const uint64_t h = HashRowKeys(row, all_cols);
        auto& bucket = seen[h];
        bool duplicate = false;
        for (size_t prev : bucket) {
          if (CompareRowKeys(row, out.batch.rows()[prev], all_cols) == 0) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        bucket.push_back(out.batch.num_rows());
        out.batch.Append(std::move(row));
      }
      out.elapsed_ms = child.elapsed_ms + CpuMs(ctx_, child.batch.num_rows());
      GISQL_RETURN_NOT_OK(ChargeMemory(out.batch.num_rows(),
                                       node.output_schema->num_fields(),
                                       "a distinct result"));
      return out;
    }
  }
  return Status::Internal("unreachable plan kind in executor");
}

}  // namespace gisql
