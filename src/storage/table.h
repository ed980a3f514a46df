/// \file table.h
/// \brief Page-backed heap table with optional hash / ordered secondary
/// indexes — the storage layer each autonomous component system runs.
///
/// Rows live in buffer-pool pages (storage/paged_heap.h), so every
/// access — point read, scan, index build — charges page hits/misses
/// and virtual disk time. Row ids are positions in the heap file.
/// Indexes map values to row ids. Each is built from a full scan on
/// first use and from then on maintained incrementally: appends add
/// their rows, and a compaction (GC or DELETE) re-keys only the rows on
/// the pages it rewrites. A delete that only ends a version leaves them
/// alone; readers re-check visibility.

#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/paged_heap.h"
#include "storage/statistics.h"
#include "storage/storage_config.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

/// Rows per scan batch.
inline constexpr size_t kBatchSize = 1024;

/// \brief "Never dies" end timestamp of a live row version.
inline constexpr uint64_t kMaxTimestamp = UINT64_MAX;

/// \brief MVCC lifetime of one row version: visible to snapshot S when
/// begin_ts <= S < end_ts. Bootstrap rows (local DDL/DML, legacy 2PC)
/// are born at 0 — visible to every snapshot.
struct RowVersion {
  uint64_t begin_ts = 0;
  uint64_t end_ts = kMaxTimestamp;
};

/// \brief Equality index: value → row ids, ascending per value.
class HashIndex {
 public:
  explicit HashIndex(size_t column) : column_(column) {}

  size_t column() const { return column_; }

  void Build(const std::vector<Row>& rows);

  /// \brief Indexes heap row `rid` (rids arrive in ascending order).
  void Add(const Row& row, size_t rid);

  /// \brief Drops heap row `rid`'s entry.
  void Remove(const Row& row, size_t rid);

  /// \brief Row ids whose indexed column equals `key` (never NULL rows).
  const std::vector<size_t>& Lookup(const Value& key) const;

  /// \brief Heap rows the index covers.
  size_t built_row_count() const { return built_row_count_; }

  /// \brief False until the first Build.
  bool built() const { return built_; }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) == 0;
    }
  };
  size_t column_;
  size_t built_row_count_ = 0;
  bool built_ = false;
  std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq> map_;
};

/// \brief Range index: B+tree over column values → row ids.
class OrderedIndex {
 public:
  explicit OrderedIndex(size_t column) : column_(column) {}

  size_t column() const { return column_; }

  void Build(const std::vector<Row>& rows);

  /// \brief Indexes heap row `rid` (rids arrive in ascending order).
  void Add(const Row& row, size_t rid);

  /// \brief Drops heap row `rid`'s entry.
  void Remove(const Row& row, size_t rid);

  /// \brief Row ids with lo <= col <= hi (either bound may be NULL =
  /// unbounded); `lo_inclusive` / `hi_inclusive` control openness.
  std::vector<size_t> Range(const Value& lo, bool lo_inclusive,
                            const Value& hi, bool hi_inclusive) const;

  /// \brief Heap rows the index covers.
  size_t built_row_count() const { return built_row_count_; }

  /// \brief False until the first Build.
  bool built() const { return built_; }

  /// \brief The underlying tree (exposed for invariant checks in tests).
  const BPlusTree& tree() const { return tree_; }

 private:
  size_t column_;
  size_t built_row_count_ = 0;
  bool built_ = false;
  BPlusTree tree_;
};

/// \brief An append-oriented page-backed heap table.
class Table {
 public:
  /// \param pool buffer pool the heap pages live in; when null, the
  ///        table creates a private pool from StorageConfig::FromEnv()
  ///        (standalone tables in tests and benches).
  Table(std::string name, SchemaPtr schema, BufferPoolPtr pool = nullptr);

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  int64_t num_rows() const { return heap_.num_rows(); }
  int64_t num_pages() const { return heap_.num_pages(); }
  /// \brief The heap file (tests: page layout).
  const PagedHeap& heap() const { return heap_; }

  /// \brief Materializes every row through the buffer pool (charging
  /// page accesses). Best-effort: an out-of-budget pool yields the
  /// prefix that fit — engine paths use Scan()/GetRow() instead, which
  /// surface the error.
  std::vector<Row> rows();

  /// \brief Point read of row `rid` through the buffer pool.
  Result<Row> GetRow(size_t rid) { return heap_.Get(rid); }

  /// \brief Full scan in row-id order, one page pin per page.
  Status Scan(const std::function<Status(size_t, const Row&)>& fn) {
    return heap_.Scan(fn);
  }

  /// \brief Validates arity and types against the schema, applying
  /// implicit casts; returns the coerced row without storing it.
  Result<Row> ValidateRow(Row row) const;

  /// \brief Validates arity and types (applying implicit casts), then
  /// appends. Built indexes take the new row; cached statistics go
  /// stale.
  Status Insert(Row row);

  /// \brief Bulk append without per-row type validation (trusted loader
  /// path used by the workload generator). Fails only when the buffer
  /// pool cannot grow.
  Status InsertUnchecked(std::vector<Row> rows);

  /// \brief Deletes rows matching `predicate`; returns count removed.
  /// Evaluates the predicate on every row, then compacts like
  /// GcToWatermark.
  Result<int64_t> Delete(const Expr& predicate);

  /// \name MVCC version metadata
  ///
  /// Every heap row carries a [begin_ts, end_ts) lifetime in a
  /// heap-parallel in-memory vector (timestamps are rebuilt state, not
  /// page payload — the on-page row encoding is unchanged). Writes via
  /// Insert/InsertUnchecked are born at 0 (visible everywhere);
  /// committed transactional writes arrive through InsertVersioned /
  /// MarkDeleted stamped with the mediator's commit timestamp.
  /// @{

  /// \brief Bulk append stamped with begin_ts (commit path of a global
  /// transaction).
  Status InsertVersioned(std::vector<Row> rows, uint64_t begin_ts);

  /// \brief Ends row `rid`'s lifetime at `end_ts` (a committed
  /// transactional DELETE). The row and its index entries stay until
  /// watermark GC compacts it away, so index readers re-check
  /// visibility. First committer wins: an already-dead row is left
  /// untouched.
  void MarkDeleted(size_t rid, uint64_t end_ts);

  /// \brief True when row `rid` is visible at `snapshot_ts`.
  /// snapshot_ts 0 means "latest committed": only live rows
  /// (end_ts == kMaxTimestamp) qualify.
  bool VisibleAt(size_t rid, uint64_t snapshot_ts) const;

  /// \brief The version pair of row `rid` (tests/monitoring).
  RowVersion VersionOf(size_t rid) const;

  /// \brief Physically removes versions dead at or before `watermark`
  /// (no present or future snapshot can see them); returns the count
  /// reclaimed. A table with no such version returns 0 in O(1),
  /// without touching any page.
  Result<int64_t> GcToWatermark(uint64_t watermark);
  /// @}

  /// \brief Declares a hash index on `column` (built lazily).
  Status CreateHashIndex(size_t column);

  /// \brief Declares an ordered index on `column` (built lazily).
  Status CreateOrderedIndex(size_t column);

  /// \brief The hash index on `column`, or nullptr when none is
  /// declared. An index never built is built from a full scan; nullptr
  /// when the pool cannot read every page (the index stays unbuilt and
  /// the next call retries), or when `build` is false.
  HashIndex* GetHashIndex(size_t column, bool build = true);

  /// \brief The ordered index on `column`; `build` as for GetHashIndex.
  OrderedIndex* GetOrderedIndex(size_t column, bool build = true);

  /// \brief Columns with a declared hash / ordered index (sorted).
  std::vector<int64_t> HashIndexedColumns() const;
  std::vector<int64_t> OrderedIndexedColumns() const;

  /// \brief Exact statistics; cached until the next write.
  const TableStats& Stats();

  /// \brief The pool this table's pages live in.
  BufferPoolManager& pool() { return *pool_; }

 private:
  /// Appends `rows` stamped with begin_ts: heap, versions and every
  /// built index.
  Status Append(const std::vector<Row>& rows, uint64_t begin_ts);

  /// Calls `fn` on every built hash and ordered index.
  template <typename Fn>
  void ForEachBuiltIndex(Fn&& fn);

  /// Adds / drops heap rows first_rid.. (`rows`, in rid order) in every
  /// built index.
  void IndexRows(std::span<const Row> rows, size_t first_rid);
  void UnindexRows(std::span<const Row> rows, size_t first_rid);

  /// Physically removes the rows `doomed` lists (ascending). Greedy
  /// page packing is prefix-stable, so only the pages from the first
  /// doomed row's page on are rewritten: rows before them keep their
  /// ids and index entries, and the file ends up page for page as a
  /// rebuild of the whole heap would leave it.
  Result<int64_t> Compact(const std::vector<size_t>& doomed);

  /// Recomputes first_dead_rid_ and min_dead_end_ts_ from rid `from`
  /// on (every row before it is live).
  void RescanDead(size_t from);

  std::string name_;
  SchemaPtr schema_;
  BufferPoolPtr pool_;
  PagedHeap heap_;
  /// Heap-parallel MVCC lifetimes: versions_[rid] belongs to heap row
  /// rid. Compaction shifts them in lockstep with the heap.
  std::vector<RowVersion> versions_;
  /// Every row below first_dead_rid_ is live; min_dead_end_ts_ is the
  /// earliest end_ts among ended versions (kMaxTimestamp if none). GC
  /// reads versions, from first_dead_rid_ on, only once the watermark
  /// has reached min_dead_end_ts_.
  size_t first_dead_rid_ = 0;
  uint64_t min_dead_end_ts_ = kMaxTimestamp;
  std::vector<std::unique_ptr<HashIndex>> hash_indexes_;
  std::vector<std::unique_ptr<OrderedIndex>> ordered_indexes_;
  TableStats stats_;
  bool stats_valid_ = false;
};

using TablePtr = std::shared_ptr<Table>;

/// \brief Named-table container — one per component information system.
/// Owns the buffer pool all of its tables share.
class StorageEngine {
 public:
  explicit StorageEngine(StorageConfig config = StorageConfig::FromEnv(),
                         MemoryBudget* budget = nullptr)
      : pool_(std::make_shared<BufferPoolManager>(config, budget)) {}

  /// \brief Creates an empty table; AlreadyExists if the name is taken.
  Result<TablePtr> CreateTable(const std::string& name, SchemaPtr schema);

  Result<TablePtr> GetTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  /// \brief Table names, sorted.
  std::vector<std::string> TableNames() const;

  /// \brief Calls `fn` on every table, in order of lower-cased name.
  void ForEachTable(const std::function<void(Table&)>& fn) const {
    for (const auto& [key, table] : tables_) fn(*table);
  }

  BufferPoolManager& pool() { return *pool_; }
  const BufferPoolManager& pool() const { return *pool_; }

 private:
  BufferPoolPtr pool_;
  std::map<std::string, TablePtr> tables_;  ///< by lower-cased name
};

}  // namespace gisql
