/// \file executor.h
/// \brief The mediator's execution engine: interprets a decomposed plan,
/// shipping fragments over the simulated network and compensating with
/// local operators.
///
/// Simulated-time model: each node reports the elapsed simulated
/// milliseconds of its subtree. Independent remote fetches (union
/// members, both sides of a ship-strategy join) overlap and contribute
/// their maximum; dependent stages (semijoin reduction, local operators
/// over fetched data) add up. Mediator CPU is charged per row processed.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/retry_policy.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/source_sequencer.h"
#include "net/retry.h"
#include "net/sim_network.h"
#include "planner/plan.h"
#include "types/column_batch.h"

namespace gisql {

class SystemTableProvider;
class MemoryGrant;
class CircuitBreakerRegistry;
class SourceHealthTracker;
namespace wire {
struct ResultBatch;
}  // namespace wire

/// \brief Execution environment handed to the executor.
struct ExecContext {
  SimNetwork* net = nullptr;
  std::string mediator_host = "mediator";
  /// Source of gis.* virtual-table snapshots (catalog/system_tables.h).
  /// Not owned; may be null, in which case kVirtualScan nodes error.
  const SystemTableProvider* system_tables = nullptr;
  double mediator_cpu_us_per_row = 0.05;
  int64_t semijoin_max_keys = 100000;
  /// EXPLAIN ANALYZE support: record actual rows / simulated ms onto
  /// each plan node as it executes.
  bool record_actuals = false;
  /// Bounded worker pool that independent subtrees (union members,
  /// both sides of a ship-strategy join) are dispatched on. Results and
  /// simulated-time accounting are identical either way; this only
  /// changes wall time. Null = serial execution. Not owned; the pool
  /// outlives every query using it (GlobalSystem owns one per system).
  /// The executor never creates threads of its own, so concurrency is
  /// capped at the pool size no matter how bushy the plan is.
  ThreadPool* pool = nullptr;
  /// Retry/backoff applied to every remote fragment call. The default
  /// (one attempt, no backoff) makes replica failover pay exactly one
  /// detection timeout per dead host; chaos runs raise max_attempts so
  /// transient faults are absorbed before failing over.
  RetryPolicy retry_policy = RetryPolicy::NoRetry();
  /// Query-lifecycle tracing (common/trace.h). When set, every operator
  /// records a span [subtree start, subtree end] on the simulated
  /// clock, with per-attempt network sub-spans below remote fragments.
  /// Span content (rows, bytes, timings) is identical between serial
  /// and pooled execution; only recording order differs, and exports
  /// render in canonical order. Not owned.
  TraceCollector* trace = nullptr;
  /// Span to parent the plan root under (e.g. the "execute" lifecycle
  /// span), and the simulated time at which execution begins.
  uint64_t trace_parent = 0;
  double trace_start_ms = 0.0;
  /// Per-query memory grant (sched/memory_budget.h). Operators charge
  /// an estimate of every batch they materialize; a crossed cap aborts
  /// the query with Status::Overloaded. Not owned; null = unbudgeted.
  MemoryGrant* memory = nullptr;
  /// Health tracker consulted when ordering a replicated view's
  /// failover candidates: suspect sources are tried after healthy ones
  /// (stable, name tie-break), and plan order is preserved while every
  /// candidate is healthy. Not owned; null = plan order always.
  const SourceHealthTracker* health = nullptr;
  /// Per-source circuit breakers (sched/circuit_breaker.h): an open
  /// breaker makes ExecFragment skip the candidate at zero network
  /// cost. Not owned; null or disabled = classic behavior.
  CircuitBreakerRegistry* breakers = nullptr;
  /// MVCC read context stamped onto every shipped fragment:
  /// snapshot_ts > 0 pins reads to that global snapshot, txn_id lets
  /// sources overlay the transaction's own staged writes
  /// (read-your-writes). Both 0 = classic latest-committed reads.
  uint64_t snapshot_ts = 0;
  uint64_t txn_id = 0;
};

/// \brief A materialized result plus its simulated cost.
struct ExecOutput {
  RowBatch batch;
  double elapsed_ms = 0.0;
  /// When the result arrived via the columnar wire encoding, the
  /// decoded columns ride along (same rows as `batch`) so the parent
  /// operator can run vectorized kernels without re-pivoting.
  std::shared_ptr<const ColumnBatch> columnar;
};

/// \name Pieces shared by both executors
///
/// The materializing Executor and the streaming pipeline
/// (exec/streaming.h) run one fragment path, and the operator bodies
/// of exec/operators.h that component sources run too; they differ
/// only in whether a batch is a whole result or one chunk of it. A
/// `columnar` argument, when non-null, holds the same rows as the
/// batch beside it.
/// @{

/// \brief Simulated mediator CPU for processing `rows` rows.
double CpuMs(const ExecContext& ctx, size_t rows);

/// \brief One replica candidate's call: ship the fragment to `source`,
/// which exports its table as `table`, after `spent_ms` of simulated
/// time went to earlier candidates. The call accounts its own traffic.
using ReplicaCall = std::function<RetryResult(
    const std::string& source, const std::string& table, double spent_ms)>;

/// \brief A fragment call answered by one of its replica candidates.
struct ReplicaAnswer {
  const std::string* source = nullptr;  ///< the candidate that answered
  std::vector<uint8_t> payload;
  double elapsed_ms = 0.0;  ///< every candidate's calls, failed ones too
};

/// \brief Calls `node`'s fragment at the first reachable candidate: the
/// planned source, then a replicated view's alternates in catalog
/// order. Under health-aware routing a suspect source moves behind the
/// healthy ones (a stable sort, so plan order survives while all are
/// healthy; demoted candidates tie-break on name). An open breaker
/// skips its candidate before the wire does: no message, no bytes, no
/// simulated time; the skip is traced under `sink`. Only a NetworkError
/// fails over: any other error would repeat identically at a replica,
/// so it returns at once.
Result<ReplicaAnswer> CallReplicas(const ExecContext& ctx,
                                   const PlanNode& node,
                                   const TraceSink& sink,
                                   const ReplicaCall& call);

/// \brief Checks a fragment result decoded from `source` against
/// `node`'s arity and relabels it under the plan's (qualified) schema
/// for downstream name resolution.
Status AdoptPlanSchema(const PlanNode& node, const std::string& source,
                       wire::ResultBatch* result);

/// \brief Appends a UNION ALL member's rows to `out`, casting values to
/// the view's column types. When every column of `columnar` already
/// has the view's type, the rows move over without per-value checks.
Status AppendUnionMember(const PlanNode& node, RowBatch rows,
                         const ColumnBatch* columnar, RowBatch* out);
/// @}

class Executor {
 public:
  explicit Executor(ExecContext ctx) : ctx_(std::move(ctx)) {}

  /// \brief Executes a decomposed plan to completion.
  Result<ExecOutput> Execute(const PlanNodePtr& plan);

 private:
  /// Execution methods thread two tracing arguments: `t0`, the
  /// simulated time at which this subtree begins (children of
  /// overlapping fetches share their parent's t0; dependent stages
  /// start after what they depend on), and the span to attach to —
  /// `parent` for methods that open their own node span, `self` (the
  /// already-open span of `node`) for the per-kind bodies.
  Result<ExecOutput> Exec(const PlanNode& node, double t0, uint64_t parent);
  Result<ExecOutput> ExecImpl(const PlanNode& node, double t0,
                              uint64_t self);
  Result<ExecOutput> ExecFragment(const PlanNode& node,
                                  const FragmentPlan& frag, double t0,
                                  uint64_t self);
  Result<ExecOutput> ExecUnionAll(const PlanNode& node, double t0,
                                  uint64_t self);
  Result<ExecOutput> ExecJoin(const PlanNode& node, double t0,
                              uint64_t self);
  Result<ExecOutput> ExecAggregate(const PlanNode& node, double t0,
                                   uint64_t self);

  /// Applies a Filter/Project node's operation to an already-computed
  /// child output (shared by Exec and the semijoin probe path).
  Result<ExecOutput> ApplyFilter(const PlanNode& node, ExecOutput child);
  Result<ExecOutput> ApplyProject(const PlanNode& node, ExecOutput child);

  /// Executes the probe side of a semijoin-reduced join, pushing the
  /// collected build keys through any mediator-side compensation chain
  /// (Project/Filter) down to the marked fragment.
  Result<ExecOutput> ExecSemijoinProbe(const PlanNode& node,
                                       const std::vector<Value>& keys,
                                       double t0, uint64_t parent);

  /// Opens the operator span for `node` (0 when tracing is off).
  uint64_t BeginNodeSpan(const PlanNode& node, double t0, uint64_t parent);
  /// Closes the span and records EXPLAIN ANALYZE actuals onto the node.
  void FinishNodeSpan(const PlanNode& node, uint64_t span, double t0,
                      const Result<ExecOutput>& out);

  /// Charges `rows` materialized rows of `width` columns against the
  /// query's memory grant (no-op when unbudgeted).
  Status ChargeMemory(size_t rows, size_t width, const char* what);

  ExecContext ctx_;
  /// Orders same-source fragment executions into plan pre-order under
  /// pooled execution, so source-side buffer-pool metrics replay
  /// byte-identically between serial and parallel runs.
  SourceSequencer sequencer_;
};

}  // namespace gisql
