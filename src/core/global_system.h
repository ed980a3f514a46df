/// \file global_system.h
/// \brief The public API of gisql: a Global Information System mediator.
///
/// A GlobalSystem hosts a simulated network, a set of autonomous
/// component information systems, and the mediator stack (catalog,
/// planner, optimizer, decomposer, executor). Typical use:
///
/// \code
///   GlobalSystem gis;
///   auto* hq = *gis.CreateSource("hq", SourceDialect::kRelational);
///   hq->ExecuteLocalSql("CREATE TABLE orders (id bigint, total double)");
///   hq->ExecuteLocalSql("INSERT INTO orders VALUES (1, 9.5)");
///   gis.ImportSource("hq");
///   auto result = gis.Query("SELECT total FROM orders WHERE id = 1");
///   std::cout << result->batch.ToString();
/// \endcode

#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/catalog.h"
#include "common/retry_policy.h"
#include "common/trace.h"
#include "core/cursor_manager.h"
#include "core/query_cache.h"
#include "core/query_log.h"
#include "core/source_health.h"
#include "core/system_catalog.h"
#include "exec/executor.h"
#include "net/retry.h"
#include "net/sim_network.h"
#include "obs/flight_recorder.h"
#include "obs/query_context.h"
#include "obs/slo.h"
#include "obs/tenant_accountant.h"
#include "planner/options.h"
#include "planner/plan.h"
#include "sched/governor.h"
#include "source/component_source.h"
#include "sql/ast.h"
#include "txn/transaction_manager.h"
#include "wire/protocol.h"

namespace gisql {

/// \brief Per-query accounting: the statement's Usage (all values from
/// the simulation, fully deterministic) plus how it was served.
struct QueryMetrics : Usage {
  /// Served from the mediator result cache: no network traffic at all
  /// (the zero usage is real zeros, not unknowns).
  bool cache_hit = false;
  /// Simulated time spent in the admission queue before a slot freed
  /// (0 under closed-loop traffic or with admission control off).
  double admission_wait_ms = 0.0;
  std::string plan_text;        ///< EXPLAIN of the executed plan
};

/// \brief A query's rows plus its accounting.
struct QueryResult {
  RowBatch batch;
  QueryMetrics metrics;
};

/// \brief The mediator and its world.
///
/// GlobalSystem is also the advisor's AdvisorHost: the advisor decides,
/// and the host methods below (MaterializeReplica / DemoteReplicatedView)
/// carry the actions over the same wire protocol every other mediator
/// operation uses.
class GlobalSystem : public AdvisorHost {
 public:
  explicit GlobalSystem(PlannerOptions options = PlannerOptions());

  /// \name Topology
  /// @{

  /// \brief Creates a component source, registers it on the network,
  /// and records it in the catalog. The GlobalSystem owns the source;
  /// the returned pointer stays valid for the system's lifetime.
  Result<ComponentSource*> CreateSource(const std::string& name,
                                        SourceDialect dialect);

  /// \brief The source previously created under `name`.
  Result<ComponentSource*> GetSource(const std::string& name) const;

  SimNetwork& network() { return network_; }
  Catalog& catalog() { return catalog_; }
  /// @}

  /// \name Schema integration
  /// @{

  /// \brief Imports every exported table of `source_name` over the
  /// protocol (schema + statistics). Global names default to the
  /// exported names; on conflict, "<source>_<table>".
  Status ImportSource(const std::string& source_name);

  /// \brief Imports one table under an explicit global name.
  Status ImportTable(const std::string& source_name,
                     const std::string& exported_name,
                     const std::string& global_name);

  /// \brief Re-fetches statistics for a registered global table.
  Status RefreshStats(const std::string& global_name);

  /// \brief Defines a union-compatible global view (partitioned entity
  /// across sources; queries read every member).
  Status CreateUnionView(const std::string& name,
                         const std::vector<std::string>& members);

  /// \brief Defines a replicated view: each member holds a full copy.
  /// Queries read the cheapest replica and fail over to the others when
  /// its source is unreachable.
  Status CreateReplicatedView(const std::string& name,
                              const std::vector<std::string>& members);

  /// \brief Ships DDL/DML to a source over the admin channel of the
  /// wire protocol (the network-visible alternative to calling
  /// ComponentSource::ExecuteLocalSql in-process).
  Status ExecuteAt(const std::string& source_name, const std::string& sql);

  /// \brief One statement of a global transaction.
  struct GlobalWrite {
    std::string source;  ///< destination host
    std::string sql;     ///< INSERT statement
  };

  /// \brief Atomically applies INSERTs across multiple autonomous
  /// sources via two-phase commit over the wire protocol.
  ///
  /// Phase 1 PREPAREs (parse + full validation + staging) every
  /// statement; any failure aborts all participants and nothing is
  /// applied. Phase 2 COMMITs. If a participant becomes unreachable
  /// *between* the phases the transaction is left in the classic 2PC
  /// in-doubt state: committed participants keep their rows, the
  /// unreachable one still holds its staged rows, and the returned
  /// Internal error names it so the operator can resolve (re-send
  /// COMMIT via the wire, or abort at the source).
  Status ExecuteAtomically(const std::vector<GlobalWrite>& writes);
  /// @}

  /// \name Interactive global transactions (snapshot isolation)
  ///
  /// The mediator's TransactionManager hands every transaction a global
  /// snapshot timestamp at Begin. Reads inside the transaction
  /// (QueryInTxn) ship that timestamp on every fragment, so sources
  /// evaluate MVCC visibility [begin_ts, end_ts) against one consistent
  /// global snapshot — and overlay the transaction's own staged writes
  /// (read-your-writes). Writes (TxnWrite) prepare at the owning source
  /// under row/table locks; a lock conflict never blocks (the
  /// simulation is single-threaded) — the mediator records the
  /// waits-for edge, runs deadlock detection, and either sheds the
  /// statement (Status::Overloaded, no cycle: caller may retry later)
  /// or resolves the cycle by aborting the youngest transaction on it.
  /// Commit runs the existing 2PC machinery, stamping row versions
  /// with a fresh commit timestamp and piggybacking the GC watermark.
  /// @{

  /// \brief Starts a global transaction; returns its id. Overloaded
  /// when txn_max_active transactions are already running.
  Result<uint64_t> BeginTransaction();

  /// \brief A SELECT inside the transaction: same pipeline as Query()
  /// but pinned to the transaction's snapshot and overlaying its own
  /// staged writes. Bypasses the result cache.
  Result<QueryResult> QueryInTxn(uint64_t txn_id, const std::string& sql);

  /// \brief Stages one INSERT or DELETE at `source` under the
  /// transaction's locks. ExecutionError names a deadlock (this
  /// transaction was chosen as victim and is already aborted) or a
  /// write-write conflict; Overloaded means the statement would block
  /// on an un-cycled lock conflict and may be retried.
  Status TxnWrite(uint64_t txn_id, const std::string& source,
                  const std::string& sql);

  /// \brief Commits: allocates the commit timestamp, delivers 2PC
  /// COMMIT (with the GC watermark) to every participant. A
  /// participant unreachable at commit leaves the classic in-doubt
  /// state, reported as Internal.
  Status CommitTransaction(uint64_t txn_id);

  /// \brief Aborts: best-effort 2PC ABORT at every participant, then
  /// marks the transaction aborted at the mediator.
  Status AbortTransaction(uint64_t txn_id, const std::string& reason = "");

  /// \brief Transaction bookkeeping (gis.transactions is the SQL view
  /// of the same state).
  TransactionManager& transactions() { return txns_; }
  const TransactionManager& transactions() const { return txns_; }
  /// @}

  /// \name Querying
  /// @{

  /// \brief Parses, plans, optimizes, decomposes, and executes a SELECT
  /// (or EXPLAIN SELECT) against the global schema. Arrives on the
  /// governor's virtual clock (closed-loop: at the completion time of
  /// the previous query, so it never queues).
  Result<QueryResult> Query(const std::string& sql);

  /// \brief Open-loop submission knobs for one query (see Submit).
  struct SubmitOptions {
    /// Simulated arrival time; < 0 uses the governor's virtual clock
    /// (the previous query's completion — closed-loop traffic).
    double arrival_ms = -1.0;
    /// Admission priority class: 0 background, 1 normal, 2 interactive.
    int priority = 1;
    /// Queue-wait deadline override; < 0 uses
    /// PlannerOptions::admission.max_wait_ms.
    double max_wait_ms = -1.0;
    /// Accountable principal the query is charged to; "" attributes
    /// to the "default" tenant (see obs/query_context.h).
    std::string tenant;
  };

  /// \brief Query() with explicit admission parameters. With
  /// admission.enabled on, the resource governor may *shed* the query
  /// — Status::Overloaded, zero simulated cost, nothing executed —
  /// when the wait queue is full or the deadline is unmeetable.
  /// Decisions are a pure function of the arrival schedule (and the
  /// configured knobs), so replays match bit for bit.
  Result<QueryResult> Submit(const std::string& sql,
                             const SubmitOptions& submit);

  /// \name Cursor-based streaming results
  ///
  /// The alternative to Query()/Submit() for large results: OpenCursor
  /// admits and plans the query but delivers it through FetchChunk as
  /// bounded chunks, so the mediator's resident footprint per query is
  /// O(chunk) instead of O(result). Streamable plans (filter / project
  /// / limit / union pipelines over remote scans) execute
  /// incrementally — sources stage the scan behind wire cursors
  /// (kOpenCursor/kFetchChunk/kCloseCursor) and rows cross the WAN one
  /// chunk at a time; blocking plans (joins, aggregates, sorts) drain
  /// into a spool charged to the query's memory grant at open and are
  /// then served from it. Cursors carry a lease on the simulated
  /// clock: one not fetched within its lease expires on the next
  /// cursor call, releasing its grant and source staging. Admission
  /// control gates OpenCursor exactly like Submit — a shed open
  /// allocates neither cursor nor grant. State is queryable as
  /// gis.cursors.
  /// @{

  /// \brief Per-cursor knobs; negatives fall back to PlannerOptions
  /// (cursor_chunk_rows / cursor_lease_ms).
  struct CursorOptions {
    SubmitOptions submit;   ///< admission parameters, as for Submit()
    int64_t chunk_rows = -1;
    double lease_ms = -1.0;
  };

  /// \brief One fetched chunk plus its per-fetch accounting.
  struct CursorChunkResult {
    RowBatch batch;
    /// True on the last chunk; the cursor is drained and already
    /// finalized (no CloseCursor needed, though calling it is OK).
    bool done = false;
    uint64_t seq = 0;        ///< 0-based chunk ordinal
    QueryMetrics metrics;    ///< this fetch only
  };

  /// \brief Admits, plans, and stages `sql` behind a cursor; returns
  /// its id. Overloaded when admission sheds it or the open-cursor
  /// limit is reached — in both cases nothing was allocated.
  Result<uint64_t> OpenCursor(const std::string& sql,
                              const CursorOptions& opts);
  Result<uint64_t> OpenCursor(const std::string& sql) {
    return OpenCursor(sql, CursorOptions());
  }

  /// \brief Serves the cursor's next chunk. After a transport error
  /// the cursor stays open and the same chunk can be re-fetched (the
  /// source re-serves idempotently); fatal errors finalize it.
  Result<CursorChunkResult> FetchChunk(uint64_t cursor_id);

  /// \brief Releases the cursor (idempotent; unknown or finished ids
  /// are OK).
  Status CloseCursor(uint64_t cursor_id);

  /// \brief Cursor bookkeeping, for tests/monitoring (gis.cursors is
  /// the SQL view of the same state).
  const CursorManager& cursors() const { return cursors_; }
  /// @}

  /// \brief The decomposed plan's EXPLAIN text, without executing.
  Result<std::string> Explain(const std::string& sql);

  /// \brief Full planning pipeline; exposed for tests and tooling.
  /// When `trace` is set, the pipeline stages (bind/plan, optimize,
  /// decompose) are recorded as zero-width lifecycle markers — planning
  /// is free on the simulated clock — under `parent`.
  Result<PlanNodePtr> PlanQuery(const sql::SelectStmt& stmt,
                                TraceCollector* trace = nullptr,
                                uint64_t parent = 0) const;
  /// @}

  /// \name Query-lifecycle tracing
  ///
  /// When enabled, every Query() call records a span tree — parse →
  /// plan stages → execute (one operator span per plan node, with
  /// per-attempt network sub-spans under each remote fragment) → cache
  /// — over the simulated clock. The collector holds the *last*
  /// executed query's trace; export it with
  /// trace()->ToChromeJson() / ToText(). Off by default (spans cost a
  /// little wall-clock on the hot path, never simulated time).
  /// @{
  void EnableTracing();
  void DisableTracing();
  /// \brief The last query's trace, or nullptr when tracing is off.
  TraceCollector* trace() { return trace_.get(); }
  /// @}

  /// \brief Mediator-side metrics: `cache.hits`/`cache.misses`
  /// counters, `query.count`, and the `query.ms`/`query.bytes`
  /// latency/size histograms (SnapshotHistogram gives p50/p95/p99).
  /// Network-side counters live in network().metrics().
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// \name Self-observation
  ///
  /// The mediator watches its own traffic: every RPC attempt feeds the
  /// per-source health tracker, every executed query lands in the
  /// bounded query log, and all of it is queryable as the `gis.*`
  /// system tables (gis.sources, gis.metrics, gis.histograms,
  /// gis.queries) through the ordinary SQL pipeline — zero network
  /// cost, so observing never perturbs the experiment.
  /// @{
  SourceHealthTracker& health() { return health_; }
  const SourceHealthTracker& health() const { return health_; }
  const QueryLog& query_log() const { return query_log_; }

  /// \brief Per-tenant attribution: every executed or shed statement
  /// is charged to exactly one tenant, and the accountant's Totals()
  /// row provably equals the sum of the per-tenant rows (gis.tenants
  /// is the SQL view).
  const TenantAccountant& tenants() const { return tenants_; }

  /// \brief SLO engine: rolling-window attainment and multi-window
  /// error-budget burn rates per priority class, on the simulated
  /// clock (gis.slo is the SQL view). Mutable access lets callers
  /// install custom objectives.
  SloEngine& slo() { return slo_; }
  const SloEngine& slo() const { return slo_; }

  /// \brief Flight recorder: bounded ring of recent query frames plus
  /// deterministic incident snapshots (gis.incidents is the SQL view).
  FlightRecorder& flight_recorder() { return flight_; }
  const FlightRecorder& flight_recorder() const { return flight_; }

  /// \brief Prometheus text exposition of the whole system: the
  /// mediator registry, the network registry, and every family the
  /// observability catalogue declares (core/system_catalog.h).
  std::string ExportPrometheus() const;

  /// \brief Bytes of buffer-pool frames currently charged against the
  /// global memory budget, summed over every source. Pools only grow,
  /// so at quiescence `governor().memory().in_use()` equals exactly
  /// this residency.
  int64_t BufferPoolResidentBytes() const;
  /// @}

  /// \brief Reconfigures every subsystem from `options` (construction
  /// takes the same path).
  void set_options(const PlannerOptions& options) {
    options_ = options;
    governor_.Configure(options.admission, options.memory, options.breaker);
    tenants_.Configure(options.tenants);
    slo_.Configure(options.slo);
    flight_.Configure(options.flight);
    ConfigureAdvisor();
  }
  const PlannerOptions& options() const { return options_; }

  /// \name Resource governance
  ///
  /// Admission control, per-query/global memory budgets, and
  /// per-source circuit breakers (src/sched/, DESIGN.md "Resource
  /// governance"). State is queryable as gis.admission plus the
  /// breaker/shed columns of gis.sources and gis.queries.
  /// @{
  ResourceGovernor& governor() { return governor_; }
  const ResourceGovernor& governor() const { return governor_; }
  /// @}

  /// \name Self-driving advisor (src/advisor/, DESIGN.md "Self-driving
  /// mediator")
  ///
  /// A deterministic background policy engine, ticked from the query
  /// path on the simulated clock, that closes the observe→act loop:
  /// auto-materialization of hot templates, replica placement toward
  /// cheap healthy sites, and guard-railed admission/memory tuning.
  /// Off by default (PlannerOptions::advisor.enabled / GISQL_ADVISOR);
  /// GISQL_ADVISOR_KILL=1 force-disables it regardless. Decisions are
  /// queryable as gis.advisor.
  /// @{
  Advisor& advisor() { return *advisor_; }
  const Advisor& advisor() const { return *advisor_; }

  /// \brief AdvisorHost: copies `global_table` to `target_source` as a
  /// single kBulkLoad transfer, imports it as
  /// "<table>__<target>", renames the original to "<table>__base", and
  /// promotes the original global name to a replicated view over both
  /// — existing queries transparently start reading the cheapest
  /// replica. Returns the replica's global name.
  Result<std::string> MaterializeReplica(
      const std::string& global_table,
      const std::string& target_source) override;

  /// \brief AdvisorHost: reverses MaterializeReplica — drops the view,
  /// drops the replica (catalog mapping + best-effort source-side DROP
  /// TABLE), and restores the base table under its original name.
  Status DemoteReplicatedView(const std::string& view_name) override;
  /// @}

  /// \name Fault tolerance
  ///
  /// One retry policy governs every mediator→source interaction
  /// (fragment execution including replica failover, schema/stats
  /// import, 2PC rounds). The default NoRetry preserves the classic
  /// single-attempt behavior; chaos experiments raise max_attempts and
  /// pair it with SimNetwork::InstallFaults. ExecuteAt (the admin
  /// channel) stays single-attempt: its DDL/DML is not idempotent, so
  /// blind redelivery could double-apply — operators re-run it
  /// explicitly.
  /// @{
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// @}

  /// \name Result caching (off by default — see core/query_cache.h for
  /// the autonomy staleness caveat)
  /// @{
  void EnableResultCache(size_t max_entries = 128);
  void DisableResultCache();
  /// \brief The cache, or nullptr when disabled (for stats/invalidation).
  QueryCache* result_cache() { return cache_.get(); }
  /// @}

  /// \brief Mediator host name on the simulated network.
  static constexpr const char* kMediatorHost = "mediator";

  /// \brief The executor worker pool, for tests/monitoring (its
  /// peak_worker_tasks() proves the concurrency bound). Null until the
  /// first parallel query.
  const ThreadPool* worker_pool() const { return pool_.get(); }

 private:
  // The observability catalogue reads every subsystem's state to render
  // gis.*, Prometheus, and incident JSON.
  friend class SystemCatalog;

  /// \brief The executor worker pool, created lazily on first parallel
  /// query (sized by options_.worker_threads; 0 = auto) and reused by
  /// every query after that.
  ThreadPool* WorkerPool();

  /// \brief Execution environment reflecting the current options,
  /// network, retry policy, and the query's memory grant (tracing
  /// fields left unset).
  ExecContext MakeExecContext(MemoryGrant* grant);

  /// \brief One statement's passage through the admission gate: its
  /// attribution context and, when admission control is on, the slot
  /// it holds until Release.
  struct Admission {
    QueryContext qctx;
    bool governed = false;
    uint64_t ticket = 0;
  };

  /// \brief Attribution context of a statement arriving now (or at the
  /// open-loop arrival `submit` names), before admission.
  QueryContext Arrive(const SubmitOptions& submit) const;

  /// \brief The admission gate shared by Submit and OpenCursor. On a
  /// shed, logs the refusal and returns Overloaded — before anything
  /// (cursor, grant) is allocated.
  Result<Admission> Admit(const std::string& sql, const SubmitOptions& submit);

  /// \brief Frees the admission slot `elapsed_ms` after the statement
  /// started and advances the clock there. An Overloaded `st` is a
  /// memory-budget abort, recorded as a shed. Returns `st`.
  Status Release(const std::string& sql, const Admission& adm,
                 const Status& st, double elapsed_ms);

  /// \brief The post-admission body of Submit: parse through execute,
  /// charging `grant`. `qctx` carries the attribution (tenant,
  /// priority, clock, admission wait). Non-zero snapshot_ts/txn_id pin
  /// execution to a transaction's snapshot (and bypass the result
  /// cache — snapshots are per-txn). EXPLAIN ANALYZE runs the SELECT
  /// path with operator actuals recorded and returns the annotated
  /// plan text instead of rows.
  Result<QueryResult> RunStatement(const std::string& sql, MemoryGrant* grant,
                                   const QueryContext& qctx,
                                   uint64_t snapshot_ts = 0,
                                   uint64_t txn_id = 0);

  /// \brief Accounts one executed statement (a cache hit included):
  /// counts it, closes its trace root, records `entry` (its context,
  /// usage, rows and trace root), and fills `result`'s metrics from it.
  QueryResult CompleteStatement(QueryLogEntry entry, QueryResult result);

  /// \brief The single funnel pairing every query-log append with its
  /// attribution charge, SLO event, and flight-recorder frame, so the
  /// four views can never drift apart: each reads the same `entry`.
  void RecordQueryOutcome(QueryLogEntry entry);

  /// \brief Records a statement refused at `at_ms` for `reason`: zero
  /// usage, nothing executed.
  void RecordShed(const std::string& sql, const QueryContext& qctx,
                  double at_ms, const char* reason);

  /// \brief Mediator→source control-plane call under the system retry
  /// policy; the response payload on success.
  Result<std::vector<uint8_t>> RetriedCall(const std::string& to,
                                           wire::Opcode op,
                                           const std::vector<uint8_t>& req);

  /// \brief 2PC PREPARE of `t`'s next statement at `source`, retried
  /// under the system policy (the participant dedups by statement
  /// seq, so at-least-once delivery is safe).
  RetryResult Prepare(const TxnInfo& t, const std::string& source,
                      const std::string& sql);

  /// \brief 2PC phase two: allocates the commit timestamp, retires
  /// transaction `txn_id`, and delivers COMMIT (with the GC watermark)
  /// to every participant. Undelivered commits leave the classic
  /// in-doubt state, reported as Internal. `participants` is a copy:
  /// retiring the transaction frees its TxnInfo.
  Status CommitAtParticipants(uint64_t txn_id,
                              std::set<std::string> participants);

  /// \brief Delivers kTxnAbort to every participant (best effort) and
  /// marks transaction `txn_id` aborted. Shared by AbortTransaction,
  /// the deadlock victim path, and a failed one-shot prepare.
  void AbortAtParticipants(uint64_t txn_id,
                           const std::set<std::string>& participants,
                           const std::string& reason);

  /// \brief Closes expired-lease cursors (called lazily at the top of
  /// every cursor operation; no background thread).
  void SweepExpiredCursors(double now_ms);

  /// \brief (Re)applies options_.advisor, honoring the
  /// GISQL_ADVISOR_KILL environment kill switch (which force-disables
  /// the advisor even when options enabled it programmatically). The
  /// Advisor object itself is created once and reconfigured in place —
  /// the system catalog holds a pointer into it.
  void ConfigureAdvisor();

  /// \brief Ends a cursor's life: closes its stream (best-effort
  /// remote close), writes its query-log entry, releases its grant.
  void FinalizeCursor(CursorManager::Entry& entry,
                      CursorManager::State state,
                      const char* shed_reason = "");

  PlannerOptions options_;
  RetryPolicy retry_policy_ = RetryPolicy::NoRetry();
  // governor_ precedes health_ (the tracker forwards outcomes into the
  // governor's breaker registry), and health_ precedes network_ (which
  // holds a raw observer pointer into it), so destruction unwinds
  // consumer-first.
  ResourceGovernor governor_;
  SourceHealthTracker health_;
  SimNetwork network_;
  Catalog catalog_;
  std::vector<ComponentSourcePtr> sources_;
  QueryLog query_log_{QueryLog::CapacityFromEnv()};
  // cursors_ precedes system_catalog_ (which snapshots it).
  CursorManager cursors_;
  // txns_ precedes system_catalog_ (which snapshots it too).
  TransactionManager txns_;
  // The workload-intelligence trio precedes system_catalog_ (which
  // snapshots all three as gis.tenants / gis.slo / gis.incidents).
  TenantAccountant tenants_;
  SloEngine slo_;
  FlightRecorder flight_;
  // Breaker-transition count last seen by RecordQueryOutcome, for the
  // breaker-open incident trigger (polled per statement, which is
  // deterministic; RPC-time callbacks would race under the pool).
  int64_t seen_breaker_transitions_ = 0;
  // advisor_ precedes system_catalog_ (which snapshots its decision
  // log as gis.advisor); everything the advisor reads or acts through
  // (catalog_, query_log_, health_, slo_, governor_) precedes it.
  std::unique_ptr<Advisor> advisor_;
  std::unique_ptr<SystemCatalog> system_catalog_;
  std::unique_ptr<QueryCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TraceCollector> trace_;
  MetricsRegistry metrics_;
};

}  // namespace gisql
