/// \file component_source.h
/// \brief An autonomous component information system (wrapper + engine).
///
/// Each ComponentSource owns a private StorageEngine, advertises a
/// dialect-derived capability set, and serves the mediator↔wrapper
/// protocol over the simulated network: schema/statistics export and
/// fragment execution. It is deliberately *autonomous*: the mediator
/// never touches its storage directly, only the protocol.

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "net/sim_network.h"
#include "source/capabilities.h"
#include "source/fragment.h"
#include "storage/table.h"
#include "txn/lock_manager.h"
#include "types/row.h"

namespace gisql {

namespace wire {
struct FragmentPageStats;
}  // namespace wire

/// \brief A component information system participating in the GIS.
class ComponentSource : public RpcHandler {
 public:
  /// \param name network host name (unique within a SimNetwork)
  /// \param dialect heterogeneity class; fixes the capability set
  /// \param cpu_us_per_row simulated per-row processing cost reported as
  ///        server time on fragment execution
  /// \param storage_config page/pool/disk geometry of this source's
  ///        storage engine
  /// \param memory_budget global budget buffer-pool frames are charged
  ///        against (nullptr = uncharged)
  ComponentSource(std::string name, SourceDialect dialect,
                  double cpu_us_per_row = 0.05,
                  StorageConfig storage_config = StorageConfig::FromEnv(),
                  MemoryBudget* memory_budget = nullptr);

  const std::string& name() const { return name_; }
  SourceDialect dialect() const { return dialect_; }
  const SourceCapabilities& capabilities() const { return caps_; }
  StorageEngine& engine() { return engine_; }

  /// \brief Executes source-local DDL/DML SQL (CREATE TABLE / INSERT /
  /// DELETE). This is how an administrator populates an autonomous
  /// source; SELECT goes through the mediator.
  Status ExecuteLocalSql(const std::string& sql);

  /// \brief Executes a fragment locally, enforcing capabilities.
  ///
  /// Anything the fragment requests beyond this source's capability set
  /// is a CapabilityError — the planner must not have shipped it.
  /// `rows_scanned` (optional out) reports base rows touched, used for
  /// the simulated processing-time model.
  Result<RowBatch> ExecuteFragment(const FragmentPlan& frag,
                                   int64_t* rows_scanned = nullptr);

  /// \brief RpcHandler entry point: decodes protocol requests, executes,
  /// and encodes responses. `processing_ms` reflects rows touched.
  Result<std::vector<uint8_t>> Handle(uint8_t opcode,
                                      const std::vector<uint8_t>& request,
                                      double* processing_ms) override;

  /// \name Global-transaction participant (2PC + snapshot isolation)
  ///
  /// The mediator coordinates atomic multi-source updates: PREPARE
  /// parses and fully validates an INSERT or DELETE, staging its
  /// effects in memory; COMMIT applies every staged write of the
  /// transaction (stamping row versions with the mediator's commit
  /// timestamp); ABORT drops them. Transactions carrying a numeric id
  /// additionally take IX table + X row-key locks at prepare, held
  /// until commit/abort — conflicts are *reported*, never waited on
  /// (the mediator owns the waits-for graph; see
  /// txn/transaction_manager.h). Legacy numeric id 0 preserves the
  /// PR 1 semantics exactly: INSERT only, no locks, rows born at
  /// timestamp 0.
  ///
  /// The faulty WAN delivers at-least-once, so the participant side is
  /// idempotent: PREPARE dedups statements by `stmt_seq` within a
  /// transaction (a redelivered statement is a no-op; the same seq with
  /// different SQL is rejected), and COMMIT of an already-committed
  /// transaction returns OK instead of NotFound so a retried commit
  /// whose first ack was lost converges. ABORT was always idempotent.
  /// @{

  /// \brief Outcome of a prepare: granted, or the lock conflict's
  /// holder transaction ids for the mediator's waits-for graph.
  struct TxnPrepareResult {
    bool granted = true;
    std::vector<uint64_t> holders;
  };

  Status PrepareTxn(const std::string& txn_id, const std::string& sql,
                    uint64_t stmt_seq = 0);

  /// \brief Prepare with the MVCC read/lock context: `numeric_txn_id`
  /// keys the lock table (0 = legacy, lockless), `snapshot_ts` is the
  /// snapshot DELETE predicates evaluate against.
  Result<TxnPrepareResult> PrepareTxnAt(const std::string& txn_id,
                                        const std::string& sql,
                                        uint64_t stmt_seq,
                                        uint64_t numeric_txn_id,
                                        uint64_t snapshot_ts);

  /// \brief Applies staged writes: inserts born at `commit_ts`,
  /// deletes ending their rows at `commit_ts` (0 = legacy bootstrap
  /// stamp). A positive `watermark` then garbage-collects versions no
  /// snapshot can reach.
  Status CommitTxn(const std::string& txn_id, uint64_t commit_ts = 0,
                   uint64_t watermark = 0);
  Status AbortTxn(const std::string& txn_id);

  /// \brief Physically reclaims versions dead at or before `watermark`
  /// across every table; returns rows removed.
  int64_t GcToWatermark(uint64_t watermark);

  /// \brief This source's lock table (tests/monitoring).
  const LockManager& locks() const { return locks_; }
  /// \brief Number of transactions currently staged (tests/monitoring).
  size_t pending_txns() const { return staged_.size(); }
  /// \brief Ids of staged transactions (sorted) — what an operator
  /// resolving an in-doubt global transaction would inspect.
  std::vector<std::string> staged_txn_ids() const {
    std::vector<std::string> ids;
    ids.reserve(staged_.size());
    for (const auto& [id, txn] : staged_) ids.push_back(id);
    return ids;
  }
  /// \brief Heap row ids `txn_id` has staged for deletion, in statement
  /// order (tests/monitoring).
  std::vector<size_t> staged_delete_rids(const std::string& txn_id) const {
    std::vector<size_t> rids;
    auto it = staged_.find(txn_id);
    if (it == staged_.end()) return rids;
    for (const auto& w : it->second.writes) {
      rids.insert(rids.end(), w.delete_rids.begin(), w.delete_rids.end());
    }
    return rids;
  }
  /// @}

  /// \name Snapshot persistence
  ///
  /// A component system's tables serialize to a single file in the wire
  /// format (schemas + batches). Load requires an empty engine so a
  /// snapshot never silently merges into existing state.
  /// @{
  Status SaveSnapshot(const std::string& path) const;
  Status LoadSnapshot(const std::string& path);
  /// @}

  /// \brief Cursors currently staged at this source (tests/monitoring).
  ///
  /// A cursor holds a fragment's materialized result while the mediator
  /// pulls it chunk by chunk (kOpenCursor/kFetchChunk/kCloseCursor); the
  /// count drops back to zero when the mediator closes or abandons them
  /// (the mediator's lease sweep sends the close).
  size_t open_cursors() const { return cursors_.size(); }

 private:
  Status CheckCapabilities(const FragmentPlan& frag) const;

  std::string name_;
  SourceDialect dialect_;
  SourceCapabilities caps_;
  double cpu_us_per_row_;
  StorageEngine engine_;

  /// \brief ExecuteFragment plus what it cost: the buffer-pool deltas
  /// into `*pages`, and into `*processing_ms` (when non-null) the
  /// simulated time of the rows touched and the disk reads.
  Result<RowBatch> ExecuteMetered(const FragmentPlan& frag,
                                  double* processing_ms,
                                  wire::FragmentPageStats* pages);

  struct StagedWrite {
    TablePtr table;
    std::vector<Row> rows;          ///< staged inserts
    std::vector<size_t> delete_rids;  ///< staged deletes (heap row ids)
  };
  struct StagedTxn {
    std::vector<StagedWrite> writes;
    /// stmt_seq -> SQL text, for at-least-once prepare deduplication.
    std::map<uint64_t, std::string> seen;
    uint64_t numeric_id = 0;   ///< lock-table key; 0 = legacy, lockless
    uint64_t snapshot_ts = 0;  ///< snapshot DELETEs evaluated against
  };
  std::map<std::string, StagedTxn> staged_;

  /// \brief The staged transaction carrying `numeric_id`, for
  /// read-your-writes overlays; nullptr when none.
  const StagedTxn* FindStagedByNumericId(uint64_t numeric_id) const;
  /// Ids of transactions this participant has applied (presumed-commit
  /// memory): a redelivered COMMIT answers OK instead of NotFound.
  std::set<std::string> committed_;

  /// Row/table lock table for numeric-id global transactions.
  LockManager locks_;

  /// \brief One staged streaming result (kOpenCursor..kCloseCursor).
  ///
  /// The at-least-once WAN shapes this state: `token` makes open
  /// idempotent (a redelivered open finds its cursor instead of staging
  /// a second copy), and `last_chunk` keeps the previously served
  /// chunk's encoded payload so a retried fetch of `next_seq - 1`
  /// re-serves it verbatim — the one-chunk idempotency window.
  struct SourceCursor {
    uint64_t token = 0;
    RowBatch result;
    int64_t next_row = 0;
    uint64_t next_seq = 0;
    int64_t chunk_rows = 1024;
    std::vector<uint8_t> last_chunk;
  };
  std::map<uint64_t, SourceCursor> cursors_;
  /// Open-idempotency map: token -> cursor id.
  std::map<uint64_t, uint64_t> cursor_tokens_;
  uint64_t next_cursor_id_ = 1;

  /// One request at a time per source: the mediator may dispatch
  /// fragments to different sources from worker threads, and a source's
  /// engine (lazy index builds, stats caches) is single-threaded state.
  std::mutex request_mu_;
};

using ComponentSourcePtr = std::shared_ptr<ComponentSource>;

}  // namespace gisql
