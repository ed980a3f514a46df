#include "storage/table.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"
#include "expr/eval.h"

namespace gisql {

void HashIndex::Build(const std::vector<Row>& rows) {
  map_.clear();
  built_row_count_ = 0;
  for (size_t i = 0; i < rows.size(); ++i) Add(rows[i], i);
  built_ = true;
}

void HashIndex::Add(const Row& row, size_t rid) {
  ++built_row_count_;
  const Value& v = row[column_];
  if (!v.is_null()) map_[v].push_back(rid);
}

void HashIndex::Remove(const Row& row, size_t rid) {
  --built_row_count_;
  const Value& v = row[column_];
  if (v.is_null()) return;
  auto it = map_.find(v);
  if (it == map_.end()) return;
  // Compaction removes the highest rids: search from the back.
  std::vector<size_t>& rids = it->second;
  auto pos = std::find(rids.rbegin(), rids.rend(), rid);
  if (pos != rids.rend()) rids.erase(std::next(pos).base());
  if (rids.empty()) map_.erase(it);
}

const std::vector<size_t>& HashIndex::Lookup(const Value& key) const {
  static const std::vector<size_t> kEmpty;
  if (key.is_null()) return kEmpty;
  auto it = map_.find(key);
  return it == map_.end() ? kEmpty : it->second;
}

void OrderedIndex::Build(const std::vector<Row>& rows) {
  tree_.Clear();
  built_row_count_ = 0;
  for (size_t i = 0; i < rows.size(); ++i) Add(rows[i], i);
  built_ = true;
}

void OrderedIndex::Add(const Row& row, size_t rid) {
  ++built_row_count_;
  const Value& v = row[column_];
  // Insert cannot fail for non-NULL keys.
  if (!v.is_null()) (void)tree_.Insert(v, rid);
}

void OrderedIndex::Remove(const Row& row, size_t rid) {
  --built_row_count_;
  const Value& v = row[column_];
  if (!v.is_null()) (void)tree_.Erase(v, rid);
}

std::vector<size_t> OrderedIndex::Range(const Value& lo, bool lo_inclusive,
                                        const Value& hi,
                                        bool hi_inclusive) const {
  return tree_.Range(lo, lo_inclusive, hi, hi_inclusive);
}

Table::Table(std::string name, SchemaPtr schema, BufferPoolPtr pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool != nullptr
                ? std::move(pool)
                : std::make_shared<BufferPoolManager>(StorageConfig::FromEnv())),
      heap_(pool_, schema_) {}

std::vector<Row> Table::rows() {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(heap_.num_rows()));
  (void)heap_.Scan([&](size_t, const Row& row) {
    out.push_back(row);
    return Status::OK();
  });
  return out;
}

Result<Row> Table::ValidateRow(Row row) const {
  if (row.size() != schema_->num_fields()) {
    return Status::InvalidArgument("row arity ", row.size(),
                                   " does not match table '", name_,
                                   "' schema arity ", schema_->num_fields());
  }
  for (size_t c = 0; c < row.size(); ++c) {
    const Field& f = schema_->field(c);
    if (row[c].is_null()) {
      if (!f.nullable) {
        return Status::InvalidArgument("NULL in non-nullable column '",
                                       f.name, "' of table '", name_, "'");
      }
      row[c] = Value::Null(f.type);
      continue;
    }
    if (row[c].type() != f.type) {
      if (!IsImplicitlyCastable(row[c].type(), f.type)) {
        return Status::InvalidArgument(
            "type mismatch in column '", f.name, "': expected ",
            TypeName(f.type), ", got ", TypeName(row[c].type()));
      }
      GISQL_ASSIGN_OR_RETURN(row[c], row[c].CastTo(f.type));
    }
  }
  return row;
}

Status Table::Append(const std::vector<Row>& rows, uint64_t begin_ts) {
  const size_t first_rid = versions_.size();
  Status st = heap_.AppendBatch(rows);
  // A batch the pool refused partway keeps the rows it took: version
  // and index those.
  const size_t appended = static_cast<size_t>(heap_.num_rows()) - first_rid;
  versions_.resize(first_rid + appended, RowVersion{begin_ts, kMaxTimestamp});
  IndexRows(std::span<const Row>(rows).first(appended), first_rid);
  stats_valid_ = false;
  return st;
}

template <typename Fn>
void Table::ForEachBuiltIndex(Fn&& fn) {
  for (auto& idx : hash_indexes_) {
    if (idx->built()) fn(*idx);
  }
  for (auto& idx : ordered_indexes_) {
    if (idx->built()) fn(*idx);
  }
}

void Table::IndexRows(std::span<const Row> rows, size_t first_rid) {
  ForEachBuiltIndex([&](auto& idx) {
    for (size_t i = 0; i < rows.size(); ++i) idx.Add(rows[i], first_rid + i);
  });
}

void Table::UnindexRows(std::span<const Row> rows, size_t first_rid) {
  ForEachBuiltIndex([&](auto& idx) {
    for (size_t i = 0; i < rows.size(); ++i) {
      idx.Remove(rows[i], first_rid + i);
    }
  });
}

Status Table::Insert(Row row) {
  GISQL_ASSIGN_OR_RETURN(Row validated, ValidateRow(std::move(row)));
  return Append({std::move(validated)}, 0);
}

Status Table::InsertUnchecked(std::vector<Row> rows) {
  return Append(rows, 0);
}

Status Table::InsertVersioned(std::vector<Row> rows, uint64_t begin_ts) {
  return Append(rows, begin_ts);
}

void Table::MarkDeleted(size_t rid, uint64_t end_ts) {
  if (rid >= versions_.size() || end_ts == kMaxTimestamp) return;
  if (versions_[rid].end_ts != kMaxTimestamp) return;  // already dead
  versions_[rid].end_ts = end_ts;
  if (min_dead_end_ts_ == kMaxTimestamp || rid < first_dead_rid_) {
    first_dead_rid_ = rid;
  }
  min_dead_end_ts_ = std::min(min_dead_end_ts_, end_ts);
  // The heap and the indexes are untouched (the row is still
  // physically present); only statistics go stale.
  stats_valid_ = false;
}

bool Table::VisibleAt(size_t rid, uint64_t snapshot_ts) const {
  if (rid >= versions_.size()) return true;
  const RowVersion& v = versions_[rid];
  if (snapshot_ts == 0) return v.end_ts == kMaxTimestamp;
  return v.begin_ts <= snapshot_ts && snapshot_ts < v.end_ts;
}

RowVersion Table::VersionOf(size_t rid) const {
  return rid < versions_.size() ? versions_[rid] : RowVersion{};
}

void Table::RescanDead(size_t from) {
  first_dead_rid_ = versions_.size();
  min_dead_end_ts_ = kMaxTimestamp;
  for (size_t rid = from; rid < versions_.size(); ++rid) {
    const uint64_t end = versions_[rid].end_ts;
    if (end == kMaxTimestamp) continue;
    first_dead_rid_ = std::min(first_dead_rid_, rid);
    min_dead_end_ts_ = std::min(min_dead_end_ts_, end);
  }
}

Result<int64_t> Table::Compact(const std::vector<size_t>& doomed) {
  if (doomed.empty()) return 0;
  // Greedy packing is prefix-stable: the pages before the first doomed
  // row's page keep their rows. The re-appended survivors first fill
  // what is left of the page before, as a rebuild would.
  const size_t first_page = heap_.PageOf(doomed.front());
  const size_t first_rid = heap_.page_first_rid(first_page);
  std::vector<Row> suffix;
  suffix.reserve(versions_.size() - first_rid);
  GISQL_RETURN_NOT_OK(heap_.Scan(
      [&](size_t, const Row& row) {
        suffix.push_back(row);
        return Status::OK();
      },
      first_page));
  UnindexRows(suffix, first_rid);
  // Drop the doomed rows and their versions; the survivors slide down
  // to ids first_rid.. in their old order.
  size_t kept = 0;
  size_t d = 0;
  for (size_t i = 0; i < suffix.size(); ++i) {
    const size_t rid = first_rid + i;
    if (d < doomed.size() && doomed[d] == rid) {
      ++d;
      continue;
    }
    if (kept != i) {
      versions_[first_rid + kept] = versions_[rid];
      suffix[kept] = std::move(suffix[i]);
    }
    ++kept;
  }
  suffix.resize(kept);
  heap_.DropPagesFrom(first_page);
  Status st = heap_.AppendBatch(suffix);
  // A pool that refused a page mid-rewrite leaves the heap short of
  // survivors: versions and indexes follow the rows it holds.
  const size_t rewritten = static_cast<size_t>(heap_.num_rows()) - first_rid;
  versions_.resize(first_rid + rewritten);
  IndexRows(std::span<const Row>(suffix).first(rewritten), first_rid);
  RescanDead(std::min(first_dead_rid_, first_rid));
  stats_valid_ = false;
  GISQL_RETURN_NOT_OK(st);
  return static_cast<int64_t>(doomed.size());
}

Result<int64_t> Table::GcToWatermark(uint64_t watermark) {
  // No ended version has reached the watermark: nothing to read.
  if (watermark < min_dead_end_ts_) return 0;
  std::vector<size_t> doomed;
  for (size_t rid = first_dead_rid_; rid < versions_.size(); ++rid) {
    const uint64_t end = versions_[rid].end_ts;
    if (end != kMaxTimestamp && end <= watermark) doomed.push_back(rid);
  }
  return Compact(doomed);
}

Result<int64_t> Table::Delete(const Expr& predicate) {
  std::vector<size_t> doomed;
  GISQL_RETURN_NOT_OK(heap_.Scan([&](size_t rid, const Row& row) {
    GISQL_ASSIGN_OR_RETURN(bool match, EvalPredicate(predicate, row));
    if (match) doomed.push_back(rid);
    return Status::OK();
  }));
  return Compact(doomed);
}

Status Table::CreateHashIndex(size_t column) {
  if (column >= schema_->num_fields()) {
    return Status::InvalidArgument("index column ", column,
                                   " out of range for table '", name_, "'");
  }
  for (const auto& idx : hash_indexes_) {
    if (idx->column() == column) {
      return Status::AlreadyExists("hash index on column ", column,
                                   " already exists");
    }
  }
  hash_indexes_.push_back(std::make_unique<HashIndex>(column));
  return Status::OK();
}

Status Table::CreateOrderedIndex(size_t column) {
  if (column >= schema_->num_fields()) {
    return Status::InvalidArgument("index column ", column,
                                   " out of range for table '", name_, "'");
  }
  for (const auto& idx : ordered_indexes_) {
    if (idx->column() == column) {
      return Status::AlreadyExists("ordered index on column ", column,
                                   " already exists");
    }
  }
  ordered_indexes_.push_back(std::make_unique<OrderedIndex>(column));
  return Status::OK();
}

namespace {

/// The index on `column` among `indexes`, built from a full scan
/// through the pool on first use. Appends only add rids past the
/// built ones, so a build must cover every row: a scan the pool cuts
/// short leaves the index unbuilt, to be retried on next use.
template <typename Index>
Index* FindIndex(const std::vector<std::unique_ptr<Index>>& indexes,
                 size_t column, bool build, Table* table) {
  for (const auto& idx : indexes) {
    if (idx->column() != column) continue;
    if (!idx->built()) {
      if (!build) return nullptr;
      std::vector<Row> rows;
      rows.reserve(static_cast<size_t>(table->num_rows()));
      const Status st = table->Scan([&](size_t, const Row& row) {
        rows.push_back(row);
        return Status::OK();
      });
      if (!st.ok()) return nullptr;
      idx->Build(rows);
    }
    return idx.get();
  }
  return nullptr;
}

}  // namespace

HashIndex* Table::GetHashIndex(size_t column, bool build) {
  return FindIndex(hash_indexes_, column, build, this);
}

OrderedIndex* Table::GetOrderedIndex(size_t column, bool build) {
  return FindIndex(ordered_indexes_, column, build, this);
}

std::vector<int64_t> Table::HashIndexedColumns() const {
  std::vector<int64_t> cols;
  cols.reserve(hash_indexes_.size());
  for (const auto& idx : hash_indexes_) {
    cols.push_back(static_cast<int64_t>(idx->column()));
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

std::vector<int64_t> Table::OrderedIndexedColumns() const {
  std::vector<int64_t> cols;
  cols.reserve(ordered_indexes_.size());
  for (const auto& idx : ordered_indexes_) {
    cols.push_back(static_cast<int64_t>(idx->column()));
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

const TableStats& Table::Stats() {
  if (!stats_valid_) {
    stats_ = CollectStats(*schema_, rows());
    stats_.hash_indexed_columns = HashIndexedColumns();
    stats_.ordered_indexed_columns = OrderedIndexedColumns();
    stats_valid_ = true;
  }
  return stats_;
}

Result<TablePtr> StorageEngine::CreateTable(const std::string& name,
                                            SchemaPtr schema) {
  const std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table '", name, "' already exists");
  }
  auto table = std::make_shared<Table>(name, std::move(schema), pool_);
  tables_[key] = table;
  return table;
}

Result<TablePtr> StorageEngine::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  return it->second;
}

Status StorageEngine::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  return Status::OK();
}

std::vector<std::string> StorageEngine::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace gisql
