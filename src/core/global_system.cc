#include "core/global_system.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/bytes.h"
#include "exec/streaming.h"
#include "net/retry.h"
#include "planner/cost_model.h"
#include "planner/decomposer.h"
#include "planner/logical_planner.h"
#include "planner/optimizer.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

GlobalSystem::GlobalSystem(PlannerOptions options) {
  network_.set_rpc_observer(&health_);
  // Every RPC outcome the health tracker ingests also feeds the
  // governor's per-source circuit breakers.
  health_.set_outcome_listener(&governor_.breakers());
  flight_.SetSystemSnapshotFn([this](double now_ms) {
    return system_catalog_->StateJson(now_ms);
  });
  set_options(options);
  system_catalog_ = std::make_unique<SystemCatalog>(*this);
  catalog_.RegisterSystemTableProvider(system_catalog_.get());
}

ThreadPool* GlobalSystem::WorkerPool() {
  if (!options_.parallel_execution) return nullptr;
  if (pool_ == nullptr) {
    const size_t n = options_.worker_threads > 0
                         ? static_cast<size_t>(options_.worker_threads)
                         : ThreadPool::DefaultThreads();
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return pool_.get();
}

Result<ComponentSource*> GlobalSystem::CreateSource(const std::string& name,
                                                    SourceDialect dialect) {
  // Every source's buffer pool is charged against the mediator's global
  // memory budget, so pool growth and query grants share one regime.
  auto source = std::make_shared<ComponentSource>(
      name, dialect, /*cpu_us_per_row=*/0.05, StorageConfig::FromEnv(),
      &governor_.memory());
  GISQL_RETURN_NOT_OK(network_.RegisterHost(name, source.get()));
  SourceInfo info;
  info.name = name;
  info.dialect = dialect;
  info.capabilities = source->capabilities();
  Status st = catalog_.RegisterSource(std::move(info));
  if (!st.ok()) {
    (void)network_.UnregisterHost(name);
    return st;
  }
  sources_.push_back(source);
  return source.get();
}

Result<ComponentSource*> GlobalSystem::GetSource(
    const std::string& name) const {
  for (const auto& s : sources_) {
    if (s->name() == name) return s.get();
  }
  return Status::NotFound("source '", name, "' does not exist");
}

Status GlobalSystem::ImportTable(const std::string& source_name,
                                 const std::string& exported_name,
                                 const std::string& global_name) {
  // Schema over the wire.
  ByteWriter req;
  req.PutString(exported_name);
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> schema_payload,
      RetriedCall(source_name, wire::Opcode::kGetSchema, req.data()));
  ByteReader schema_reader(schema_payload);
  GISQL_ASSIGN_OR_RETURN(Schema schema, wire::ReadSchema(&schema_reader));

  // Statistics over the wire.
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> stats_payload,
      RetriedCall(source_name, wire::Opcode::kGetStats, req.data()));
  ByteReader stats_reader(stats_payload);
  GISQL_ASSIGN_OR_RETURN(TableStats stats,
                         wire::ReadTableStats(&stats_reader));

  TableMapping mapping;
  mapping.global_name = global_name;
  mapping.source_name = source_name;
  mapping.exported_name = exported_name;
  mapping.schema =
      std::make_shared<Schema>(schema.WithQualifier(global_name));
  mapping.stats = std::move(stats);
  return catalog_.RegisterTable(std::move(mapping));
}

Status GlobalSystem::ImportSource(const std::string& source_name) {
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      RetriedCall(source_name, wire::Opcode::kListTables, {}));
  ByteReader reader(payload);
  GISQL_ASSIGN_OR_RETURN(uint64_t n, reader.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    GISQL_ASSIGN_OR_RETURN(std::string table, reader.GetString());
    std::string global_name = table;
    if (catalog_.HasTable(global_name) || catalog_.HasView(global_name)) {
      global_name = source_name + "_" + table;
    }
    GISQL_RETURN_NOT_OK(ImportTable(source_name, table, global_name));
  }
  return Status::OK();
}

Status GlobalSystem::RefreshStats(const std::string& global_name) {
  GISQL_ASSIGN_OR_RETURN(const TableMapping* mapping,
                         catalog_.GetTable(global_name));
  ByteWriter req;
  req.PutString(mapping->exported_name);
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      RetriedCall(mapping->source_name, wire::Opcode::kGetStats, req.data()));
  ByteReader reader(payload);
  GISQL_ASSIGN_OR_RETURN(TableStats stats, wire::ReadTableStats(&reader));
  // Fresh statistics signal the source's data may have changed.
  if (cache_) cache_->InvalidateSource(mapping->source_name);
  return catalog_.UpdateStats(global_name, std::move(stats));
}

Status GlobalSystem::CreateUnionView(const std::string& name,
                                     const std::vector<std::string>& members) {
  return catalog_.CreateUnionView(name, members);
}

Status GlobalSystem::CreateReplicatedView(
    const std::string& name, const std::vector<std::string>& members) {
  return catalog_.CreateReplicatedView(name, members);
}

Status GlobalSystem::ExecuteAt(const std::string& source_name,
                               const std::string& sql) {
  ByteWriter req;
  req.PutString(sql);
  // Deliberately single-attempt: admin DDL/DML is not idempotent, so a
  // retry after a lost ack could apply it twice. Operators re-run.
  GISQL_ASSIGN_OR_RETURN(
      RpcResult rpc,
      network_.Call(kMediatorHost, source_name,
                    static_cast<uint8_t>(wire::Opcode::kAdminSql),
                    req.data()));
  (void)rpc;
  // The mediator just changed this source: drop dependent cache entries.
  if (cache_) cache_->InvalidateSource(source_name);
  return Status::OK();
}

Status GlobalSystem::ExecuteAtomically(
    const std::vector<GlobalWrite>& writes) {
  if (writes.empty()) return Status::OK();
  // One-shot 2PC rides the same transaction machinery as the
  // interactive API: a TransactionManager id (locks at the sources,
  // a gis.transactions row) and a commit timestamp stamping the rows.
  TxnInfo& t = txns_.Begin(governor_.now_ms());

  // Phase 1: prepare everywhere; on any failure, abort everyone we
  // reached (abort is idempotent, so aborting non-prepared hosts is
  // harmless).
  std::set<std::string> participants;
  for (const auto& w : writes) participants.insert(w.source);
  for (const auto& w : writes) {
    RetryResult r = Prepare(t, w.source, w.sql);
    Status st = r.status;
    if (st.ok() && !r.payload.empty()) {
      // Lock verdict in the response trailer: a one-shot transaction
      // has nothing to wait for, so a conflict aborts it outright.
      ByteReader verdict(r.payload);
      auto flag = verdict.GetU8();
      if (flag.ok() && *flag != 0) {
        st = Status::Overloaded("row or table locks are held by a "
                                "concurrent transaction");
      }
    }
    if (!st.ok()) {
      AbortAtParticipants(t.id, participants,
                          "prepare failed at '" + w.source + "'");
      return Status(st.code(),
                    "global transaction aborted: prepare failed at '" +
                        w.source + "': " + st.message());
    }
    t.statements += 1;
    t.participants.insert(w.source);
  }
  // Phase 2: commit. Failures here leave the classic in-doubt state.
  return CommitAtParticipants(t.id, std::move(participants));
}

Result<uint64_t> GlobalSystem::BeginTransaction() {
  if (txns_.active_count() >=
      static_cast<size_t>(options_.txn_max_active)) {
    return Status::Overloaded("transaction shed: ", txns_.active_count(),
                              " transactions already active (limit ",
                              options_.txn_max_active, ")");
  }
  return txns_.Begin(governor_.now_ms()).id;
}

Result<QueryResult> GlobalSystem::QueryInTxn(uint64_t txn_id,
                                             const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  MemoryGrant grant = governor_.memory().NewGrant();
  // Transactional statements are interactive-session work: default
  // tenant, closed-loop arrival at the current virtual clock, no
  // admission gate.
  const QueryContext qctx = Arrive(SubmitOptions());
  Result<QueryResult> result =
      RunStatement(sql, &grant, qctx, t->snapshot_ts, txn_id);
  if (result.ok()) {
    governor_.AdvanceTo(qctx.start_ms + result->metrics.elapsed_ms);
    t->statements += 1;
  }
  return result;
}

RetryResult GlobalSystem::Prepare(const TxnInfo& t, const std::string& source,
                                  const std::string& sql) {
  const uint64_t seq = static_cast<uint64_t>(t.statements);
  ByteWriter req;
  req.PutString("gtxn-" + std::to_string(t.id));
  req.PutVarint(seq);
  req.PutString(sql);
  req.PutVarint(t.id);
  req.PutVarint(t.snapshot_ts);
  return CallWithRetry(network_, retry_policy_, kMediatorHost, source,
                       static_cast<uint8_t>(wire::Opcode::kTxnPrepare),
                       req.data(), seq);
}

Status GlobalSystem::TxnWrite(uint64_t txn_id, const std::string& source,
                              const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));

  for (int attempt = 0;; ++attempt) {
    RetryResult r = Prepare(*t, source, sql);
    if (!r.ok()) {
      // A transport failure leaves the transaction active (the caller
      // may retry the statement); an application error — bad SQL, a
      // write-write conflict under first-committer-wins — aborts it,
      // releasing locks everywhere.
      if (!IsRetryableTransport(r.status)) {
        AbortAtParticipants(t->id, t->participants, r.status.message());
      }
      return r.status;
    }

    ByteReader verdict(r.payload);
    GISQL_ASSIGN_OR_RETURN(uint8_t conflicted, verdict.GetU8());
    if (conflicted == 0) {
      txns_.ClearWaits(t->id);
      t->statements += 1;
      t->participants.insert(source);
      return Status::OK();
    }

    // Lock conflict: the source reported the holders instead of
    // blocking. Record the waits-for edges and look for a cycle.
    GISQL_ASSIGN_OR_RETURN(uint64_t n, verdict.GetVarint());
    std::vector<uint64_t> holders;
    holders.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      GISQL_ASSIGN_OR_RETURN(uint64_t h, verdict.GetVarint());
      holders.push_back(h);
    }
    t->lock_waits += 1;
    txns_.CountLockWait();
    txns_.OnConflict(t->id, holders);
    if (trace_ != nullptr) {
      // Zero-width marker on the simulated clock: who waited on whom.
      const uint64_t span =
          trace_->Begin("lock.wait", "txn", 0, governor_.now_ms());
      std::string note = "txn " + std::to_string(t->id) + " blocked at '" +
                         source + "' by";
      for (uint64_t h : holders) note += " " + std::to_string(h);
      trace_->SetNote(span, note);
      trace_->End(span, governor_.now_ms());
    }

    const uint64_t victim = txns_.DetectCycleVictim(t->id);
    if (victim == 0) {
      // No deadlock — the statement would simply block. The simulation
      // is single-threaded, so waiting can never be satisfied inline;
      // the caller retries after the holder commits or aborts. The
      // waits-for edges stay recorded: this transaction still holds
      // its locks and still wants these, so a future conflict report
      // from the other side must be able to close the cycle.
      std::string who;
      for (uint64_t h : holders) {
        if (!who.empty()) who += ", ";
        who += std::to_string(h);
      }
      return Status::Overloaded("transaction ", t->id,
                                " would block at '", source,
                                "' on locks held by transaction(s) ", who);
    }
    if (victim == t->id) {
      AbortAtParticipants(t->id, t->participants, "deadlock victim");
      return Status::ExecutionError(
          "deadlock: transaction ", txn_id,
          " chosen as victim (youngest on the cycle) and aborted");
    }
    // Another transaction on the cycle is younger: abort it there and
    // retry this statement against the freed locks.
    auto victim_or = txns_.GetActive(victim);
    if (victim_or.ok()) {
      AbortAtParticipants(victim, (*victim_or)->participants,
                          "deadlock victim");
    }
    txns_.ClearWaits(t->id);
    if (attempt + 1 >= options_.txn_max_prepare_retries) {
      return Status::Overloaded("transaction ", t->id, " still blocked at '",
                                source, "' after ", attempt + 1,
                                " prepare attempts");
    }
  }
}

Status GlobalSystem::CommitTransaction(uint64_t txn_id) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  return CommitAtParticipants(txn_id, t->participants);
}

Status GlobalSystem::CommitAtParticipants(
    uint64_t txn_id, std::set<std::string> participants) {
  // Retire the transaction before computing the watermark so its own
  // snapshot no longer holds GC back; delivery failures below cannot
  // un-commit it (presumed commit — the classic in-doubt state).
  const std::string wire_id = "gtxn-" + std::to_string(txn_id);
  const uint64_t commit_ts = txns_.AllocateCommitTs();
  txns_.MarkCommitted(txn_id, commit_ts, governor_.now_ms());
  const uint64_t watermark = options_.txn_gc ? txns_.Watermark() : 0;

  std::string in_doubt;
  for (const auto& p : participants) {
    ByteWriter req;
    req.PutString(wire_id);
    req.PutVarint(commit_ts);
    req.PutVarint(watermark);
    Status st =
        CallWithRetry(network_, retry_policy_, kMediatorHost, p,
                      static_cast<uint8_t>(wire::Opcode::kTxnCommit),
                      req.data())
            .status;
    if (!st.ok()) {
      if (!in_doubt.empty()) in_doubt += ", ";
      in_doubt += "'" + p + "' (" + st.message() + ")";
    }
    if (cache_) cache_->InvalidateSource(p);
  }
  if (!in_doubt.empty()) {
    return Status::Internal(
        "global transaction ", wire_id,
        " is in doubt: commit could not be delivered to ", in_doubt,
        "; staged rows remain there until the source is reachable and "
        "the commit is re-sent or aborted");
  }
  return Status::OK();
}

Status GlobalSystem::AbortTransaction(uint64_t txn_id,
                                      const std::string& reason) {
  GISQL_ASSIGN_OR_RETURN(TxnInfo * t, txns_.GetActive(txn_id));
  AbortAtParticipants(txn_id, t->participants,
                      reason.empty() ? "aborted by client" : reason);
  return Status::OK();
}

void GlobalSystem::AbortAtParticipants(
    uint64_t txn_id, const std::set<std::string>& participants,
    const std::string& reason) {
  const std::string wire_id = "gtxn-" + std::to_string(txn_id);
  for (const auto& p : participants) {
    ByteWriter req;
    req.PutString(wire_id);
    // Best effort: abort is idempotent and a source that missed it
    // still drops the staged writes when an operator resolves it.
    (void)CallWithRetry(network_, retry_policy_, kMediatorHost, p,
                        static_cast<uint8_t>(wire::Opcode::kTxnAbort),
                        req.data());
  }
  txns_.MarkAborted(txn_id, reason, governor_.now_ms());
}

std::string GlobalSystem::ExportPrometheus() const {
  return system_catalog_->ExportPrometheus();
}

int64_t GlobalSystem::BufferPoolResidentBytes() const {
  int64_t bytes = 0;
  for (const auto& source : sources_) {
    bytes += source->engine().pool().resident_bytes();
  }
  return bytes;
}

void GlobalSystem::EnableResultCache(size_t max_entries) {
  cache_ = std::make_unique<QueryCache>(max_entries);
  cache_->set_metrics(&metrics_);
}

void GlobalSystem::DisableResultCache() { cache_.reset(); }

void GlobalSystem::EnableTracing() {
  if (trace_ == nullptr) trace_ = std::make_unique<TraceCollector>();
}

void GlobalSystem::DisableTracing() { trace_.reset(); }

ExecContext GlobalSystem::MakeExecContext(MemoryGrant* grant) {
  ExecContext ctx;
  ctx.net = &network_;
  ctx.mediator_host = kMediatorHost;
  ctx.system_tables = system_catalog_.get();
  ctx.mediator_cpu_us_per_row = options_.mediator_cpu_us_per_row;
  ctx.semijoin_max_keys = options_.semijoin_max_keys;
  ctx.pool = WorkerPool();
  ctx.retry_policy = retry_policy_;
  ctx.memory = grant;
  ctx.health = options_.health_aware_routing ? &health_ : nullptr;
  ctx.breakers = &governor_.breakers();
  return ctx;
}

Result<PlanNodePtr> GlobalSystem::PlanQuery(const sql::SelectStmt& stmt,
                                            TraceCollector* trace,
                                            uint64_t parent) const {
  // Planning is mediator CPU only — free on the simulated clock — so
  // its stages record as zero-width markers at t=0.
  auto mark = [&](const char* stage) {
    if (trace != nullptr) trace->Begin(stage, "lifecycle", parent, 0.0);
  };

  mark("bind+plan");
  LogicalPlanner planner(catalog_);
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(stmt));

  CostParams params;
  params.link = network_.default_link();
  params.mediator_cpu_us_per_row = options_.mediator_cpu_us_per_row;
  CostModel cost(catalog_, params);

  mark("optimize");
  Optimizer optimizer(catalog_, options_, &cost);
  GISQL_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));

  mark("decompose");
  Decomposer decomposer(catalog_, options_, &cost);
  return decomposer.Decompose(std::move(plan));
}

Result<std::string> GlobalSystem::Explain(const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.select == nullptr) {
    return Status::InvalidArgument("EXPLAIN requires a SELECT statement");
  }
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanQuery(*stmt.select));
  return plan->Explain();
}

namespace {

/// The one bracketing of the counters a statement can move: construct
/// before an operation, Delta() after it. Safe as per-statement
/// attribution because the mediator executes one statement at a time
/// (the worker pool parallelizes *within* a statement, and
/// SourceSequencer makes pooled page counters replay serial-identically).
class UsageMeter {
 public:
  UsageMeter(const SimNetwork& net,
             const std::vector<ComponentSourcePtr>& sources)
      : net_(net), sources_(sources), start_(Read()) {}

  /// Traffic and source page work since construction; elapsed time and
  /// memory are the caller's to fill.
  Usage Delta() const {
    const Counters now = Read();
    Usage u;
    u.bytes_sent = now.bytes_sent - start_.bytes_sent;
    u.bytes_received = now.bytes_received - start_.bytes_received;
    u.messages = now.messages - start_.messages;
    u.retries = now.retries - start_.retries;
    u.page_hits = now.page_hits - start_.page_hits;
    u.page_misses = now.page_misses - start_.page_misses;
    u.disk_ms = (now.disk_us - start_.disk_us) / 1e3;
    return u;
  }

 private:
  struct Counters {
    int64_t bytes_sent = 0, bytes_received = 0, messages = 0, retries = 0;
    int64_t page_hits = 0, page_misses = 0;
    double disk_us = 0.0;
  };

  Counters Read() const {
    Counters c;
    c.bytes_sent = net_.metrics().Get("net.bytes_sent");
    c.bytes_received = net_.metrics().Get("net.bytes_received");
    c.messages = net_.metrics().Get("net.messages");
    c.retries = net_.metrics().Get("net.retries");
    for (const auto& s : sources_) {
      const BufferPoolStats p = s->engine().pool().Snapshot();
      c.page_hits += p.hits;
      c.page_misses += p.misses;
      c.disk_us += p.disk_us;
    }
    return c;
  }

  const SimNetwork& net_;
  const std::vector<ComponentSourcePtr>& sources_;
  const Counters start_;
};

/// EXPLAIN's one-row, one-column answer.
QueryResult PlanTextResult(std::string text) {
  QueryResult result;
  result.batch = RowBatch(std::make_shared<Schema>(
      std::vector<Field>{{"plan", TypeId::kString}}));
  result.batch.Append({Value::String(text)});
  result.metrics.plan_text = std::move(text);
  return result;
}

}  // namespace

Result<QueryResult> GlobalSystem::Query(const std::string& sql) {
  return Submit(sql, SubmitOptions());
}

Result<std::vector<uint8_t>> GlobalSystem::RetriedCall(
    const std::string& to, wire::Opcode op, const std::vector<uint8_t>& req) {
  RetryResult r = CallWithRetry(network_, retry_policy_, kMediatorHost, to,
                                static_cast<uint8_t>(op), req);
  if (!r.ok()) return r.status;
  return std::move(r.payload);
}

void GlobalSystem::RecordQueryOutcome(QueryLogEntry entry) {
  tenants_.Record(entry);
  const int priority = entry.priority;
  const double finish_ms = entry.finish_ms;
  const double sojourn_ms = entry.sojourn_ms();
  const bool shed = entry.shed();

  // Append before feeding the triggers so an incident fired by this
  // very statement already sees it in gis.queries and the frame ring.
  QueryLogEntry frame = entry;
  frame.id = query_log_.Append(std::move(entry));
  flight_.RecordFrame(std::move(frame));

  for (const SloAlert& alert :
       slo_.Record(priority, finish_ms, sojourn_ms, shed)) {
    flight_.OnSloAlert(alert.objective, alert.at_ms, alert.fast_burn,
                       alert.slow_burn);
  }

  // Breaker-open trigger: polled per statement (deterministic — RPC
  // completion order within a statement is sequenced) rather than via
  // callbacks from network threads.
  const int64_t transitions = governor_.breakers().TotalTransitions();
  if (transitions > seen_breaker_transitions_) {
    seen_breaker_transitions_ = transitions;
    std::vector<std::string> open;
    for (const auto& b : governor_.breakers().Snapshot()) {
      if (b.state == BreakerState::kOpen) open.push_back(b.source);
    }
    if (!open.empty()) {
      std::sort(open.begin(), open.end());
      std::string detail;
      for (const auto& s : open) {
        if (!detail.empty()) detail += ",";
        detail += s;
      }
      flight_.OnBreakerOpen(detail, finish_ms);
    }
  }
}

void GlobalSystem::RecordShed(const std::string& sql, const QueryContext& qctx,
                              double at_ms, const char* reason) {
  QueryLogEntry entry(qctx, Usage(), sql);
  // Template fingerprint: literals/whitespace normalized away, so the
  // advisor (and gis.queries readers) can group recurring shapes. No
  // parse is at hand where a statement is shed, so this lexes the text.
  entry.fingerprint = sql::FingerprintHex(sql);
  entry.finish_ms = at_ms;
  entry.shed_reason = reason;
  RecordQueryOutcome(std::move(entry));
}

QueryContext GlobalSystem::Arrive(const SubmitOptions& submit) const {
  QueryContext qctx;
  qctx.tenant = QueryContext::NormalizeTenant(submit.tenant);
  qctx.priority = submit.priority;
  // Closed-loop callers (plain Query) arrive at the completion time
  // of the previous query, so a slot is always free and the governor
  // is invisible; open-loop callers pass explicit arrivals.
  qctx.arrival_ms =
      submit.arrival_ms >= 0 ? submit.arrival_ms : governor_.now_ms();
  qctx.start_ms = qctx.arrival_ms;
  return qctx;
}

Result<GlobalSystem::Admission> GlobalSystem::Admit(
    const std::string& sql, const SubmitOptions& submit) {
  Admission adm;
  adm.qctx = Arrive(submit);
  adm.governed = options_.admission.enabled;
  if (!adm.governed) return adm;
  AdmissionRequest req;
  req.arrival_ms = adm.qctx.arrival_ms;
  req.priority = submit.priority;
  req.max_wait_ms = submit.max_wait_ms;
  const AdmissionDecision decision = governor_.admission().Admit(req);
  if (!decision.admitted) {
    metrics_.Add("admission.shed", 1);
    // Shed queries still land in gis.queries (with their reason and
    // zero traffic) so operators can see *what* was refused — and in
    // the tenant ledger, so noisy neighbors show up in their sheds.
    RecordShed(sql, adm.qctx, adm.qctx.arrival_ms,
               ShedReasonName(decision.reason));
    if (decision.reason == ShedReason::kDeadline) {
      return Status::Overloaded(
          "query shed: the admission queue would hold it for ",
          decision.wait_ms, " ms, past its ", "deadline (",
          decision.queued_ahead, " queries ahead)");
    }
    return Status::Overloaded(
        "query shed: the admission wait queue is full (",
        decision.queued_ahead, " queued, limit ",
        governor_.admission().config().queue_limit, ")");
  }
  metrics_.Add("admission.admitted", 1);
  metrics_.Observe("admission.wait_ms", decision.wait_ms);
  adm.ticket = decision.ticket;
  adm.qctx.start_ms = decision.start_ms;
  adm.qctx.admission_wait_ms = decision.wait_ms;
  return adm;
}

Status GlobalSystem::Release(const std::string& sql, const Admission& adm,
                             const Status& st, double elapsed_ms) {
  if (adm.governed) {
    const double end_ms = adm.qctx.start_ms + elapsed_ms;
    governor_.admission().Release(adm.ticket, end_ms);
    governor_.AdvanceTo(end_ms);
  }
  if (st.IsOverloaded()) {
    // A memory-budget abort is a shed too: one count per query (charge
    // denials within a query are schedule-dependent; the query-level
    // outcome is not). It aborted mid-execution: zero width.
    governor_.RecordMemoryShed();
    metrics_.Add("admission.shed", 1);
    RecordShed(sql, adm.qctx, adm.qctx.start_ms,
               ShedReasonName(ShedReason::kMemoryBudget));
  }
  return st;
}

Result<QueryResult> GlobalSystem::Submit(const std::string& sql,
                                         const SubmitOptions& submit) {
  GISQL_ASSIGN_OR_RETURN(Admission adm, Admit(sql, submit));
  MemoryGrant grant = governor_.memory().NewGrant();
  Result<QueryResult> result = RunStatement(sql, &grant, adm.qctx);
  Release(sql, adm, result.status(),
          result.ok() ? result->metrics.elapsed_ms : 0.0);
  // The advisor rides the statement clock: by this point the governor
  // has advanced past this statement's completion, so tick times — and
  // therefore decisions — replay identically for the same seed.
  advisor_->Tick(governor_.now_ms());
  return result;
}

Result<QueryResult> GlobalSystem::RunStatement(const std::string& sql,
                                               MemoryGrant* grant,
                                               const QueryContext& qctx,
                                               uint64_t snapshot_ts,
                                               uint64_t txn_id) {
  // Each query owns the collector for its duration; the spans stay
  // readable until the next query (or DisableTracing) replaces them.
  TraceCollector* tr = trace_.get();
  if (tr != nullptr) tr->Clear();
  const uint64_t root =
      tr != nullptr ? tr->Begin("query", "lifecycle", 0, 0.0) : 0;
  if (tr != nullptr) {
    tr->SetNote(root, sql);
    tr->Begin("parse", "lifecycle", root, 0.0);
  }

  GISQL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  using Kind = sql::Statement::Kind;
  if (stmt.kind != Kind::kSelect && stmt.kind != Kind::kExplain &&
      stmt.kind != Kind::kExplainAnalyze) {
    return Status::InvalidArgument(
        "the mediator accepts SELECT/EXPLAIN; DDL and DML run at the "
        "component sources");
  }
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanQuery(*stmt.select, tr, root));
  if (stmt.kind == Kind::kExplain) return PlanTextResult(plan->Explain());
  const bool analyze = stmt.kind == Kind::kExplainAnalyze;

  // gis.* snapshots change between executions by design, so any plan
  // touching one must bypass the result cache entirely.
  bool has_system_scan = false;
  VisitPlan(plan, [&](const PlanNodePtr& node) {
    if (node->kind == PlanKind::kVirtualScan) has_system_scan = true;
  });
  // A transactional read is pinned to its snapshot: neither served
  // from nor inserted into the (latest-committed) result cache, and
  // EXPLAIN ANALYZE must really execute.
  const bool use_cache = cache_ != nullptr && !analyze && !has_system_scan &&
                         snapshot_ts == 0 && txn_id == 0;

  // Result cache: the decomposed plan's canonical text identifies the
  // computation (fragments, strategies, planner options all shape it).
  const std::string cache_key = use_cache ? plan->Explain() : std::string();
  QueryLogEntry entry(qctx, Usage(), sql);
  entry.fingerprint = std::move(stmt.fingerprint);
  entry.trace_root = root;
  if (use_cache) {
    const uint64_t lookup =
        tr != nullptr ? tr->Begin("cache.lookup", "lifecycle", root, 0.0) : 0;
    auto cached = cache_->Lookup(cache_key);
    if (tr != nullptr) tr->SetNote(lookup, cached ? "hit" : "miss");
    if (cached) {
      // Served from mediator memory: zero simulated latency and zero
      // traffic (real zeros, not unknowns).
      QueryResult result;
      result.batch = std::move(cached->batch);
      result.metrics.cache_hit = true;
      result.metrics.plan_text = cache_key + "(cache hit)\n";
      entry.rows = static_cast<int64_t>(result.batch.num_rows());
      return CompleteStatement(std::move(entry), std::move(result));
    }
  }

  UsageMeter meter(network_, sources_);
  ExecContext ctx = MakeExecContext(grant);
  ctx.snapshot_ts = snapshot_ts;
  ctx.txn_id = txn_id;
  ctx.record_actuals = analyze;
  uint64_t exec_span = 0;
  if (tr != nullptr) {
    exec_span = tr->Begin("execute", "lifecycle", root, 0.0);
    ctx.trace = tr;
    ctx.trace_parent = exec_span;
  }
  Executor executor(ctx);
  GISQL_ASSIGN_OR_RETURN(ExecOutput out, executor.Execute(plan));
  static_cast<Usage&>(entry) = meter.Delta();
  entry.elapsed_ms = out.elapsed_ms;
  entry.mem_bytes = grant != nullptr ? grant->used() : 0;
  if (tr != nullptr) tr->End(exec_span, out.elapsed_ms);
  entry.rows = static_cast<int64_t>(out.batch.num_rows());

  if (analyze) {
    std::string text =
        plan->Explain() + "Total: " + std::to_string(entry.rows) +
        " row(s) in " + std::to_string(out.elapsed_ms) +
        " simulated ms\nNetwork: " + std::to_string(entry.bytes_sent) +
        " bytes sent, " + std::to_string(entry.bytes_received) +
        " bytes received, " + std::to_string(entry.messages) +
        " message(s), " + std::to_string(entry.retries) + " retrie(s)\n";
    return CompleteStatement(std::move(entry),
                             PlanTextResult(std::move(text)));
  }
  QueryResult result;
  result.batch = std::move(out.batch);
  result.metrics.plan_text = plan->Explain();
  if (use_cache) {
    if (tr != nullptr) {
      tr->Begin("cache.insert", "lifecycle", root, out.elapsed_ms);
    }
    std::set<std::string> sources;
    std::set<std::string> tables;
    VisitPlan(plan, [&](const PlanNodePtr& node) {
      if (node->kind == PlanKind::kRemoteFragment) {
        sources.insert(node->fragment_source);
        if (!node->scan_global_name.empty()) {
          tables.insert(node->scan_global_name);
        }
        for (const auto& alt : node->scan_alternates) {
          sources.insert(alt.source);
          if (!alt.global_name.empty()) tables.insert(alt.global_name);
        }
      }
    });
    cache_->Insert(cache_key, result.batch, out.elapsed_ms,
                   std::move(sources), std::move(tables));
  }
  return CompleteStatement(std::move(entry), std::move(result));
}

QueryResult GlobalSystem::CompleteStatement(QueryLogEntry entry,
                                            QueryResult result) {
  metrics_.Add("query.count", 1);
  metrics_.Observe("query.ms", entry.elapsed_ms);
  metrics_.Observe("query.bytes", static_cast<double>(entry.bytes_received));
  if (trace_ != nullptr) {
    trace_->SetRows(entry.trace_root, entry.rows);
    trace_->End(entry.trace_root, entry.elapsed_ms);
  }
  entry.finish_ms = entry.start_ms + entry.elapsed_ms;
  entry.cache_hit = result.metrics.cache_hit;
  static_cast<Usage&>(result.metrics) = entry;
  result.metrics.admission_wait_ms = entry.admission_wait_ms;
  // The entry is appended only after execution, so a gis.queries scan
  // never observes the query currently running it (deterministic
  // snapshots regardless of when mid-plan operators fire).
  RecordQueryOutcome(std::move(entry));
  return result;
}

Result<uint64_t> GlobalSystem::OpenCursor(const std::string& sql,
                                          const CursorOptions& opts) {
  SweepExpiredCursors(governor_.now_ms());

  const int64_t chunk_rows =
      opts.chunk_rows > 0 ? opts.chunk_rows : options_.cursor_chunk_rows;
  if (chunk_rows <= 0) {
    return Status::InvalidArgument("cursor chunk_rows must be positive, got ",
                                   chunk_rows);
  }
  const double lease_ms =
      opts.lease_ms >= 0.0 ? opts.lease_ms : options_.cursor_lease_ms;

  // The open-cursor cap is checked before admission so a refused open
  // allocates nothing — no cursor, no grant, no admission ticket.
  if (cursors_.OpenCount() >=
      static_cast<size_t>(options_.cursor_max_open)) {
    metrics_.Add("cursor.shed", 1);
    const QueryContext qctx = Arrive(opts.submit);
    RecordShed(sql, qctx, qctx.arrival_ms, "cursor_limit");
    return Status::Overloaded("cursor shed: ", cursors_.OpenCount(),
                              " cursors already open (limit ",
                              options_.cursor_max_open, ")");
  }
  GISQL_ASSIGN_OR_RETURN(Admission adm, Admit(sql, opts.submit));

  // The admission slot covers only the open (which runs the whole plan
  // when it must spool); fetches happen outside it, so cursor_max_open
  // — not admission.max_concurrent — bounds concurrently open cursors.
  // Spooling past the query budget is the same query-level shed Submit
  // records.
  auto fail = [&](const Status& st) { return Release(sql, adm, st, 0.0); };

  auto stmt_or = sql::ParseStatement(sql);
  if (!stmt_or.ok()) return fail(stmt_or.status());
  if (stmt_or->kind != sql::Statement::Kind::kSelect) {
    return fail(Status::InvalidArgument(
        "cursors serve SELECT statements; EXPLAIN and DDL/DML go "
        "through Query()/ExecuteAt()"));
  }
  auto plan_or = PlanQuery(*stmt_or->select);
  if (!plan_or.ok()) return fail(plan_or.status());
  PlanNodePtr plan = std::move(plan_or).ValueUnsafe();
  const bool streaming = IsStreamablePlan(plan);

  // Cursors bypass the result cache entirely: a chunked delivery has
  // nothing to insert (the whole point is never holding the full
  // result), and serving chunks from a cached batch would dodge the
  // memory accounting this path exists to enforce.
  UsageMeter meter(network_, sources_);
  MemoryGrant grant = governor_.memory().NewGrant();
  std::unique_ptr<RowStream> stream;
  double open_elapsed = 0.0;
  if (streaming) {
    auto stream_or = OpenPlanStream(MakeExecContext(nullptr), plan,
                                    chunk_rows, cursors_.token_counter());
    if (!stream_or.ok()) return fail(stream_or.status());
    stream = std::move(stream_or).ValueUnsafe();
  } else {
    // Blocking plan: run it to completion now, charged to the query
    // grant like Submit would, and serve the spool chunk by chunk. The
    // grant keeps the full charge until the cursor dies — the spool
    // really is resident.
    ExecContext ctx = MakeExecContext(&grant);
    Executor executor(ctx);
    auto out_or = executor.Execute(plan);
    if (!out_or.ok()) return fail(out_or.status());
    open_elapsed = out_or->elapsed_ms;
    stream = MakeSpoolStream(std::move(out_or->batch), chunk_rows);
  }
  Release(sql, adm, Status::OK(), open_elapsed);

  // Usage and attribution accumulate in the cursor's record until
  // FinalizeCursor writes the one gis.queries entry covering its life.
  Usage opened = meter.Delta();
  opened.elapsed_ms = open_elapsed;
  opened.mem_bytes = grant.used();
  const double opened_at =
      adm.governed ? adm.qctx.start_ms + open_elapsed : governor_.now_ms();
  QueryLogEntry record(adm.qctx, opened, sql);
  record.fingerprint = std::move(stmt_or->fingerprint);
  CursorManager::Entry& e = cursors_.Create(std::move(record), streaming,
                                            chunk_rows, opened_at, lease_ms);
  e.stream = std::move(stream);
  e.plan = std::move(plan);
  e.grant = std::move(grant);
  // Pin the current snapshot for the cursor's lifetime: the GC
  // watermark cannot pass it, so version chains its scan could still
  // reference survive until the cursor finalizes (drain, close, or
  // lease expiry alike).
  e.snapshot_pin = txns_.PinSnapshot();
  metrics_.Add("cursor.opened", 1);
  advisor_->Tick(governor_.now_ms());
  return e.id;
}

Result<GlobalSystem::CursorChunkResult> GlobalSystem::FetchChunk(
    uint64_t cursor_id) {
  const double now = governor_.now_ms();
  SweepExpiredCursors(now);
  CursorManager::Entry* e = cursors_.Find(cursor_id);
  if (e == nullptr) {
    return Status::NotFound("cursor ", cursor_id, " does not exist");
  }
  if (e->state != CursorManager::State::kOpen) {
    return Status::NotFound("cursor ", cursor_id, " is ",
                            CursorManager::StateName(e->state));
  }

  UsageMeter meter(network_, sources_);
  Result<StreamChunk> chunk_or = e->stream->Next();
  if (!chunk_or.ok()) {
    // A transport error leaves the cursor open: the stream did not
    // advance, so a retried FetchChunk re-requests the same chunk and
    // the source's one-chunk re-serve window absorbs the duplicate.
    // Anything else is fatal to the cursor.
    if (!IsRetryableTransport(chunk_or.status())) {
      FinalizeCursor(*e, CursorManager::State::kClosed);
    }
    return chunk_or.status();
  }
  StreamChunk chunk = std::move(chunk_or).ValueUnsafe();

  if (e->streaming) {
    // Re-grant per chunk: a fresh grant charged for just this chunk
    // replaces the previous chunk's (move-assign releases the old
    // charge first), keeping the cursor's booked footprint O(chunk).
    // The swap happens even when the charge is denied — a failed
    // Charge still books the bytes, and only release-through-the-grant
    // keeps the global budget consistent.
    const int64_t width =
        chunk.rows.schema() != nullptr
            ? static_cast<int64_t>(chunk.rows.schema()->fields().size())
            : 0;
    MemoryGrant next = governor_.memory().NewGrant();
    const Status charged = next.Charge(
        EstimateRowBytes(static_cast<int64_t>(chunk.rows.num_rows()), width),
        "a cursor chunk");
    e->grant = std::move(next);
    e->record.mem_bytes = std::max(e->record.mem_bytes, e->grant.used());
    if (!charged.ok()) {
      governor_.RecordMemoryShed();
      metrics_.Add("admission.shed", 1);
      FinalizeCursor(*e, CursorManager::State::kClosed,
                     ShedReasonName(ShedReason::kMemoryBudget));
      return charged;
    }
  }

  Usage fetched = meter.Delta();
  fetched.elapsed_ms = chunk.elapsed_ms;
  e->chunks += 1;
  e->record.rows += static_cast<int64_t>(chunk.rows.num_rows());
  e->record += fetched;

  governor_.AdvanceTo(now + chunk.elapsed_ms);
  // Each successful fetch renews the lease from the advanced clock.
  e->lease_deadline_ms = governor_.now_ms() + e->lease_ms;
  metrics_.Add("cursor.chunks", 1);

  CursorChunkResult res;
  res.batch = std::move(chunk.rows);
  res.done = chunk.done;
  res.seq = static_cast<uint64_t>(e->chunks - 1);
  static_cast<Usage&>(res.metrics) = fetched;
  if (chunk.done) FinalizeCursor(*e, CursorManager::State::kDrained);
  return res;
}

Status GlobalSystem::CloseCursor(uint64_t cursor_id) {
  SweepExpiredCursors(governor_.now_ms());
  CursorManager::Entry* e = cursors_.Find(cursor_id);
  // Idempotent end-to-end: unknown (pruned) and already-finished
  // cursors close successfully, mirroring the source-side contract.
  if (e == nullptr || e->state != CursorManager::State::kOpen) {
    return Status::OK();
  }
  FinalizeCursor(*e, CursorManager::State::kClosed);
  return Status::OK();
}

void GlobalSystem::SweepExpiredCursors(double now_ms) {
  for (uint64_t id : cursors_.ExpiredBefore(now_ms)) {
    CursorManager::Entry* e = cursors_.Find(id);
    if (e != nullptr) FinalizeCursor(*e, CursorManager::State::kExpired);
  }
}

void GlobalSystem::FinalizeCursor(CursorManager::Entry& entry,
                                  CursorManager::State state,
                                  const char* shed_reason) {
  if (entry.state != CursorManager::State::kOpen) return;
  if (entry.stream != nullptr) {
    // Best-effort remote close; its traffic and time belong to the
    // cursor like any fetch's.
    UsageMeter meter(network_, sources_);
    const double close_ms = entry.stream->Close();
    Usage closed = meter.Delta();
    closed.elapsed_ms = close_ms;
    entry.record += closed;
    governor_.AdvanceTo(governor_.now_ms() + close_ms);
  }
  // One gis.queries entry per cursor, written at end of life so it
  // carries the cursor's whole story (rows served, total traffic). It
  // finishes on the advanced clock (the close above already moved it);
  // drained/closed/expired all finish "now".
  entry.record.finish_ms = governor_.now_ms();
  entry.record.shed_reason = shed_reason;
  RecordQueryOutcome(entry.record);
  // cursor.drained / cursor.closed / cursor.expired.
  metrics_.Add(std::string("cursor.") + CursorManager::StateName(state), 1);
  // A shed cursor is already counted in admission.shed, and a statement
  // is either executed or shed.
  if (!entry.record.shed()) {
    metrics_.Add("query.count", 1);
    metrics_.Observe("query.ms", entry.record.elapsed_ms);
    metrics_.Observe("query.bytes",
                     static_cast<double>(entry.record.bytes_received));
  }
  // The snapshot pin releases together with the grant below — an
  // expired lease frees its spool memory and its version-chain hold
  // on the GC watermark in the same step.
  if (entry.snapshot_pin != 0) {
    txns_.UnpinSnapshot(entry.snapshot_pin);
    entry.snapshot_pin = 0;
  }
  // Releases the grant and may prune entries: the reference (and any
  // other finished entry's) is dead after this line.
  cursors_.Finalize(entry.id, state);
}

}  // namespace gisql
