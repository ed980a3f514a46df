/// \file cursor_manager.h
/// \brief Mediator-side cursor state: one entry per streaming query,
/// from OpenCursor to drain/close/expiry.
///
/// GlobalSystem owns one CursorManager and orchestrates the protocol
/// (admission, execution, lease sweeps, clock advancement); the
/// manager is the bookkeeping — entries and their lifecycle states,
/// which `gis.cursors` shows. An entry holds the pull pipeline
/// (exec/streaming.h) or the spool of a blocking plan, plus the
/// query's MemoryGrant: streaming entries re-grant per chunk so the
/// charged footprint is O(chunk); spool entries keep the full charge
/// until the cursor dies, because the spool really is resident.
///
/// Leases: every cursor carries a deadline on the simulated clock,
/// renewed by each fetch. GlobalSystem sweeps expired cursors lazily
/// inside each cursor call — there is no background thread, so expiry
/// is a pure function of the call sequence and replays exactly.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "exec/streaming.h"
#include "obs/query_context.h"
#include "sched/memory_budget.h"

namespace gisql {

class CursorManager {
 public:
  enum class State : uint8_t {
    kOpen,     ///< fetchable
    kDrained,  ///< final chunk served; kept for observability
    kClosed,   ///< client closed (or a fatal fetch error ended it)
    kExpired,  ///< lease deadline passed before the client came back
  };
  static const char* StateName(State s);

  struct Entry {
    uint64_t id = 0;
    State state = State::kOpen;
    /// True: incremental pull pipeline. False: blocking plan drained
    /// into a spool at open.
    bool streaming = false;
    int64_t chunk_rows = 0;
    int64_t chunks = 0;  ///< chunks served so far
    double opened_ms = 0.0;
    /// Lease duration; each fetch renews the deadline by this much.
    double lease_ms = 0.0;
    double lease_deadline_ms = 0.0;
    /// The cursor's query-log record in progress: its SQL and
    /// attribution from OpenCursor, the rows served so far, and what
    /// it consumed so far (open + fetches + close). Each operation is
    /// metered on its own — cursor lifetimes interleave with other
    /// queries — and added here; mem_bytes is the peak booked grant
    /// (streaming re-grants per chunk, so end-of-life used() would
    /// understate). FinalizeCursor records it.
    QueryLogEntry record;

    std::unique_ptr<RowStream> stream;
    /// Keeps the plan nodes the stream references alive.
    PlanNodePtr plan;
    MemoryGrant grant;
    /// MVCC snapshot pinned for this cursor's lifetime: holds the GC
    /// watermark back so version chains its scan references survive
    /// until the cursor finalizes (TransactionManager::PinSnapshot).
    /// 0 = no pin. Released together with the grant in FinalizeCursor
    /// — including on lease expiry.
    uint64_t snapshot_pin = 0;
  };

  /// \brief Registers a new open cursor and returns it. The reference
  /// stays valid until Finalize() retires enough finished entries —
  /// i.e. for the duration of the current cursor call.
  Entry& Create(QueryLogEntry record, bool streaming, int64_t chunk_rows,
                double opened_ms, double lease_ms);

  /// \brief The entry for `id` (any state), or null.
  Entry* Find(uint64_t id);
  const Entry* Find(uint64_t id) const;

  /// \brief Open entries only.
  size_t OpenCount() const;

  /// \brief Ids of open entries whose lease deadline lies strictly
  /// before `now_ms`, ascending.
  std::vector<uint64_t> ExpiredBefore(double now_ms) const;

  /// \brief Ends an entry's life: sets the state, drops the stream and
  /// the plan, releases the memory grant, and prunes the oldest
  /// finished entries beyond the retention bound. The entry reference
  /// (and any other finished entry's) is invalid afterwards.
  void Finalize(uint64_t id, State state);

  /// \brief Live and retained finished entries, ascending by id (the
  /// rows of `gis.cursors`).
  const std::map<uint64_t, Entry>& entries() const { return entries_; }

  /// \brief Monotone idempotency-token counter for source-side opens
  /// (exec/streaming.h consumes it). Never reused, so a retried open
  /// can always be told from a new one.
  uint64_t* token_counter() { return &next_token_; }

 private:
  /// Finished entries retained for gis.cursors, oldest pruned first.
  static constexpr size_t kMaxFinishedRetained = 256;

  std::map<uint64_t, Entry> entries_;
  uint64_t next_id_ = 1;
  uint64_t next_token_ = 1;
};

}  // namespace gisql
