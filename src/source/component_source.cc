#include "source/component_source.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "exec/operators.h"
#include "expr/binder.h"
#include "expr/eval.h"
#include "sql/parser.h"
#include "wire/cursor.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

namespace {
/// A source stages at most this many concurrent cursors; past it, opens
/// answer Overloaded — backpressure instead of unbounded staging memory.
constexpr size_t kMaxOpenCursorsPerSource = 256;
}  // namespace

ComponentSource::ComponentSource(std::string name, SourceDialect dialect,
                                 double cpu_us_per_row,
                                 StorageConfig storage_config,
                                 MemoryBudget* memory_budget)
    : name_(std::move(name)),
      dialect_(dialect),
      caps_(SourceCapabilities::For(dialect)),
      cpu_us_per_row_(cpu_us_per_row),
      engine_(storage_config, memory_budget) {}

Status ComponentSource::ExecuteLocalSql(const std::string& sql) {
  GISQL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable: {
      std::vector<Field> fields;
      for (const auto& [col, type_name] : stmt.create_table->columns) {
        GISQL_ASSIGN_OR_RETURN(TypeId type, ParseTypeName(type_name));
        fields.emplace_back(col, type, /*nullable=*/true,
                            stmt.create_table->table_name);
      }
      // First column is conventionally the key: non-nullable.
      if (!fields.empty()) fields[0].nullable = false;
      GISQL_ASSIGN_OR_RETURN(
          TablePtr table,
          engine_.CreateTable(stmt.create_table->table_name,
                              std::make_shared<Schema>(std::move(fields))));
      // Key column gets a hash index so KV-style lookups are realistic;
      // relational sources also get an ordered index there, the access
      // path behind index range scans and index-nested-loop joins.
      GISQL_RETURN_NOT_OK(table->CreateHashIndex(0));
      if (dialect_ == SourceDialect::kRelational) {
        GISQL_RETURN_NOT_OK(table->CreateOrderedIndex(0));
      }
      return Status::OK();
    }
    case sql::Statement::Kind::kInsert: {
      GISQL_ASSIGN_OR_RETURN(TablePtr table,
                             engine_.GetTable(stmt.insert->table_name));
      static const Schema kEmptySchema;
      Binder binder(kEmptySchema);
      static const Row kEmptyRow;
      for (const auto& ast_row : stmt.insert->rows) {
        Row row;
        row.reserve(ast_row.size());
        for (const auto& ast_val : ast_row) {
          GISQL_ASSIGN_OR_RETURN(ExprPtr e, binder.BindScalar(*ast_val));
          GISQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, kEmptyRow));
          row.push_back(std::move(v));
        }
        GISQL_RETURN_NOT_OK(table->Insert(std::move(row)));
      }
      return Status::OK();
    }
    case sql::Statement::Kind::kDelete: {
      GISQL_ASSIGN_OR_RETURN(TablePtr table,
                             engine_.GetTable(stmt.del->table_name));
      // Administrative (non-transactional) delete: physically removes
      // the rows, like the other local DML runs outside MVCC.
      if (stmt.del->where == nullptr) {
        static const ExprPtr kTrue = MakeLiteral(Value::Bool(true));
        return table->Delete(*kTrue).status();
      }
      Binder binder(*table->schema());
      GISQL_ASSIGN_OR_RETURN(ExprPtr pred, binder.BindScalar(*stmt.del->where));
      return table->Delete(*pred).status();
    }
    case sql::Statement::Kind::kDropTable:
      return engine_.DropTable(stmt.drop_table->table_name);
    default:
      return Status::InvalidArgument(
          "component sources accept only CREATE TABLE / INSERT / DELETE / "
          "DROP TABLE locally; route queries through the mediator");
  }
}

Status ComponentSource::CheckCapabilities(const FragmentPlan& frag) const {
  if (frag.filter && !caps_.filter_pushdown) {
    return Status::CapabilityError(SourceDialectName(dialect_), " source '",
                                   name_, "' cannot evaluate filters");
  }
  if (!frag.projections.empty() && !caps_.projection_pushdown) {
    return Status::CapabilityError(SourceDialectName(dialect_), " source '",
                                   name_, "' cannot project");
  }
  if (frag.has_aggregate && !caps_.aggregate_pushdown) {
    return Status::CapabilityError(SourceDialectName(dialect_), " source '",
                                   name_, "' cannot aggregate");
  }
  if (frag.limit >= 0 && !caps_.limit_pushdown) {
    return Status::CapabilityError(SourceDialectName(dialect_), " source '",
                                   name_, "' cannot apply LIMIT");
  }
  if (!frag.order_by.empty() && !caps_.sort_pushdown) {
    return Status::CapabilityError(SourceDialectName(dialect_), " source '",
                                   name_, "' cannot apply ORDER BY");
  }
  if (frag.semijoin_column >= 0) {
    if (!caps_.semijoin_pushdown) {
      return Status::CapabilityError(SourceDialectName(dialect_),
                                     " source '", name_,
                                     "' cannot apply semijoin reduction");
    }
    if (caps_.semijoin_key_only && frag.semijoin_column != 0) {
      return Status::CapabilityError(
          SourceDialectName(dialect_), " source '", name_,
          "' supports semijoin lookup only on the key column");
    }
  }
  if (frag.index_column >= 0) {
    if (!caps_.index_range_scan) {
      return Status::CapabilityError(SourceDialectName(dialect_),
                                     " source '", name_,
                                     "' cannot execute index range scans");
    }
    if (frag.semijoin_column >= 0) {
      return Status::InvalidArgument(
          "fragment cannot combine semijoin reduction with an index range "
          "scan: they are alternative access paths");
    }
  }
  if (!frag.join_table.empty() && !caps_.index_join) {
    return Status::CapabilityError(
        SourceDialectName(dialect_), " source '", name_,
        "' cannot execute index-nested-loop joins");
  }
  if (frag.has_aggregate && !frag.projections.empty()) {
    return Status::InvalidArgument(
        "fragment cannot carry both projections and aggregation");
  }
  for (const auto& agg : frag.aggregates) {
    if (agg.distinct && agg.kind != AggKind::kMin &&
        agg.kind != AggKind::kMax) {
      return Status::InvalidArgument(
          "DISTINCT aggregates are not decomposable; the mediator must "
          "evaluate them centrally");
    }
  }
  return Status::OK();
}

namespace {

/// True when `row` would have been produced by the fragment's access
/// path — membership test for read-your-writes overlays (a staged row
/// has no heap rid, so it cannot come from an index).
bool RowInAccessPath(const FragmentPlan& frag, const Row& row) {
  if (frag.semijoin_column >= 0) {
    const size_t col = static_cast<size_t>(frag.semijoin_column);
    if (col >= row.size() || row[col].is_null()) return false;
    for (const auto& key : frag.semijoin_values) {
      if (row[col].Compare(key) == 0) return true;
    }
    return false;
  }
  if (frag.index_column >= 0) {
    const size_t col = static_cast<size_t>(frag.index_column);
    if (col >= row.size() || row[col].is_null()) return false;
    if (!frag.range_lo.is_null()) {
      const int c = row[col].Compare(frag.range_lo);
      if (frag.range_lo_inclusive ? c < 0 : c <= 0) return false;
    }
    if (!frag.range_hi.is_null()) {
      const int c = row[col].Compare(frag.range_hi);
      if (frag.range_hi_inclusive ? c > 0 : c >= 0) return false;
    }
    return true;
  }
  return true;  // full scan sees everything
}

/// The rows a DELETE predicate can match at `snapshot_ts`, read from an
/// already-built ordered index on a column its sargable conjuncts
/// bound: the visible candidate rids, ascending. nullopt sends the
/// caller to a full scan: no predicate, no usable ordered index (an
/// unbuilt one would cost that scan to build; a hash-only table keeps
/// the scan), or more candidates than the heap has pages (one page
/// read each, so the scan is no dearer).
std::optional<std::vector<size_t>> IndexedDeleteCandidates(
    Table& table, const ExprPtr& pred, uint64_t snapshot_ts) {
  if (pred == nullptr) return std::nullopt;
  const ColumnRange range =
      SargableRange(pred, table.OrderedIndexedColumns());
  if (range.column < 0) return std::nullopt;
  OrderedIndex* ordered = table.GetOrderedIndex(
      static_cast<size_t>(range.column), /*build=*/false);
  if (ordered == nullptr) return std::nullopt;
  std::vector<size_t> rids = ordered->Range(
      range.lo, range.lo_inclusive, range.hi, range.hi_inclusive);
  std::sort(rids.begin(), rids.end());
  std::erase_if(rids,
                [&](size_t rid) { return !table.VisibleAt(rid, snapshot_ts); });
  if (static_cast<int64_t>(rids.size()) > table.num_pages()) {
    return std::nullopt;
  }
  return rids;
}

}  // namespace

const ComponentSource::StagedTxn* ComponentSource::FindStagedByNumericId(
    uint64_t numeric_id) const {
  if (numeric_id == 0) return nullptr;
  for (const auto& [id, txn] : staged_) {
    if (txn.numeric_id == numeric_id) return &txn;
  }
  return nullptr;
}

Result<RowBatch> ComponentSource::ExecuteFragment(const FragmentPlan& frag,
                                                  int64_t* rows_scanned) {
  GISQL_RETURN_NOT_OK(CheckCapabilities(frag));
  GISQL_ASSIGN_OR_RETURN(TablePtr table, engine_.GetTable(frag.table));

  // MVCC read context: every gathered heap row passes the version
  // visibility check for the fragment's snapshot, and the reading
  // transaction's own staged writes overlay the result
  // (read-your-writes): staged deletes hide rows, staged inserts
  // append below.
  const StagedTxn* self = FindStagedByNumericId(frag.txn_id);
  auto own_deleted = [&](const Table* t, size_t rid) {
    if (self == nullptr) return false;
    for (const auto& w : self->writes) {
      if (w.table.get() != t) continue;
      for (size_t d : w.delete_rids) {
        if (d == rid) return true;
      }
    }
    return false;
  };
  auto visible = [&](size_t rid) {
    return table->VisibleAt(rid, frag.snapshot_ts) &&
           !own_deleted(table.get(), rid);
  };

  int64_t scanned = 0;
  // Candidate rows are owned copies: heap rows live in buffer-pool
  // pages, so every fetch below pins a page and charges hits/misses.
  std::vector<Row> owned;

  if (frag.semijoin_column >= 0) {
    const size_t col = static_cast<size_t>(frag.semijoin_column);
    if (col >= table->schema()->num_fields()) {
      return Status::InvalidArgument("semijoin column ", col,
                                     " out of range for table '",
                                     frag.table, "'");
    }
    HashIndex* index = table->GetHashIndex(col);
    if (index != nullptr) {
      // Index lookups: touch only matching rows.
      for (const auto& key : frag.semijoin_values) {
        for (size_t rid : index->Lookup(key)) {
          if (!visible(rid)) continue;
          GISQL_ASSIGN_OR_RETURN(Row row, table->GetRow(rid));
          owned.push_back(std::move(row));
          ++scanned;
        }
      }
    } else {
      std::unordered_set<uint64_t> keys;
      keys.reserve(frag.semijoin_values.size());
      for (const auto& v : frag.semijoin_values) keys.insert(v.Hash());
      GISQL_RETURN_NOT_OK(table->Scan([&](size_t rid, const Row& row) {
        ++scanned;
        if (!visible(rid)) return Status::OK();
        const Value& v = row[col];
        if (v.is_null() || !keys.count(v.Hash())) return Status::OK();
        // Hash hit: confirm by value to rule out collisions.
        for (const auto& key : frag.semijoin_values) {
          if (v.Compare(key) == 0) {
            owned.push_back(row);
            break;
          }
        }
        return Status::OK();
      }));
    }
  } else if (frag.index_column >= 0) {
    // Index range scan: walk the B+tree for the qualifying row ids and
    // fetch just those rows' pages.
    const size_t col = static_cast<size_t>(frag.index_column);
    if (col >= table->schema()->num_fields()) {
      return Status::InvalidArgument("index column ", col,
                                     " out of range for table '",
                                     frag.table, "'");
    }
    OrderedIndex* index = table->GetOrderedIndex(col);
    if (index == nullptr) {
      return Status::InvalidArgument(
          "fragment requests an index range scan on column ", col,
          " of table '", frag.table,
          "', which has no ordered index, or whose pool could not read "
          "every page to build it");
    }
    const std::vector<size_t> rids =
        index->Range(frag.range_lo, frag.range_lo_inclusive, frag.range_hi,
                     frag.range_hi_inclusive);
    owned.reserve(rids.size());
    for (size_t rid : rids) {
      if (!visible(rid)) continue;
      GISQL_ASSIGN_OR_RETURN(Row row, table->GetRow(rid));
      owned.push_back(std::move(row));
      ++scanned;
    }
  } else {
    owned.reserve(static_cast<size_t>(table->num_rows()));
    GISQL_RETURN_NOT_OK(table->Scan([&](size_t rid, const Row& row) {
      ++scanned;
      if (!visible(rid)) return Status::OK();
      owned.push_back(row);
      return Status::OK();
    }));
  }

  // Read-your-writes: append this transaction's staged inserts for the
  // scanned table, filtered through the same access-path membership the
  // heap rows went through.
  if (self != nullptr) {
    for (const auto& w : self->writes) {
      if (w.table.get() != table.get()) continue;
      for (const Row& staged_row : w.rows) {
        if (!RowInAccessPath(frag, staged_row)) continue;
        owned.push_back(staged_row);
        ++scanned;
      }
    }
  }

  // With a join, only a filter confined to outer columns may run before
  // probing (it prunes probes); anything wider waits for the
  // concatenated row.
  const size_t outer_width = table->schema()->num_fields();
  const bool filter_after_join = !frag.join_table.empty() && frag.filter &&
                                 !frag.filter->ColumnsWithin(0, outer_width);
  RowBatch rows(table->schema(), std::move(owned));
  if (frag.filter && !filter_after_join) {
    GISQL_ASSIGN_OR_RETURN(rows,
                           FilterRows(*frag.filter, std::move(rows), nullptr));
  }

  // Index-nested-loop join: probe the co-located inner table's index
  // with each outer row's key and concatenate matches.
  if (!frag.join_table.empty()) {
    GISQL_ASSIGN_OR_RETURN(TablePtr inner,
                           engine_.GetTable(frag.join_table));
    const size_t inner_width = inner->schema()->num_fields();
    if (frag.join_outer_column < 0 ||
        static_cast<size_t>(frag.join_outer_column) >= outer_width) {
      return Status::InvalidArgument(
          "join outer column ", frag.join_outer_column,
          " out of range for table '", frag.table, "'");
    }
    if (frag.join_inner_column < 0 ||
        static_cast<size_t>(frag.join_inner_column) >= inner_width) {
      return Status::InvalidArgument(
          "join inner column ", frag.join_inner_column,
          " out of range for table '", frag.join_table, "'");
    }
    const size_t inner_col = static_cast<size_t>(frag.join_inner_column);
    HashIndex* hash_index = inner->GetHashIndex(inner_col);
    OrderedIndex* ordered_index =
        hash_index == nullptr ? inner->GetOrderedIndex(inner_col) : nullptr;
    if (hash_index == nullptr && ordered_index == nullptr) {
      return Status::InvalidArgument(
          "fragment requests an index-nested-loop join probing column ",
          frag.join_inner_column, " of table '", frag.join_table,
          "', which has no index, or whose pool could not read every page "
          "to build one");
    }
    std::vector<Row> joined;
    for (const Row& outer_row : rows.rows()) {
      const Value& key = outer_row[static_cast<size_t>(
          frag.join_outer_column)];
      if (key.is_null()) continue;
      const std::vector<size_t> rids =
          hash_index != nullptr ? hash_index->Lookup(key)
                                : ordered_index->tree().Lookup(key);
      for (size_t rid : rids) {
        if (!inner->VisibleAt(rid, frag.snapshot_ts) ||
            own_deleted(inner.get(), rid)) {
          continue;
        }
        GISQL_ASSIGN_OR_RETURN(Row inner_row, inner->GetRow(rid));
        ++scanned;
        if (frag.join_inner_filter) {
          GISQL_ASSIGN_OR_RETURN(
              bool keep, EvalPredicate(*frag.join_inner_filter, inner_row));
          if (!keep) continue;
        }
        Row combined;
        combined.reserve(outer_width + inner_width);
        for (const Value& v : outer_row) combined.push_back(v);
        for (Value& v : inner_row) combined.push_back(std::move(v));
        joined.push_back(std::move(combined));
      }
    }
    rows = RowBatch(std::make_shared<Schema>(
                        table->schema()->Concat(*inner->schema())),
                    std::move(joined));
    if (filter_after_join) {
      GISQL_ASSIGN_OR_RETURN(
          rows, FilterRows(*frag.filter, std::move(rows), nullptr));
    }
  }
  if (rows_scanned != nullptr) *rows_scanned = scanned;

  // The shared operator bodies; a LIMIT without ORDER BY stops the
  // aggregate or projection early, and applies again after the sort.
  const int64_t early_limit = frag.order_by.empty() ? frag.limit : -1;
  if (frag.has_aggregate) {
    std::vector<Field> fields;
    for (const auto& g : frag.group_by) {
      fields.emplace_back(g->ToString(), g->type);
    }
    for (const auto& a : frag.aggregates) {
      fields.emplace_back(a.display, a.result_type);
    }
    GISQL_ASSIGN_OR_RETURN(
        rows, AggregateRows(rows, nullptr, frag.group_by, frag.aggregates,
                            std::make_shared<Schema>(std::move(fields)),
                            early_limit));
  } else if (!frag.projections.empty()) {
    std::vector<Field> fields;
    for (size_t i = 0; i < frag.projections.size(); ++i) {
      const std::string name = i < frag.projection_names.size() &&
                                       !frag.projection_names[i].empty()
                                   ? frag.projection_names[i]
                                   : frag.projections[i]->ToString();
      fields.emplace_back(name, frag.projections[i]->type);
    }
    GISQL_ASSIGN_OR_RETURN(
        rows, ProjectRows(frag.projections,
                          std::make_shared<Schema>(std::move(fields)), rows,
                          early_limit));
  }
  GISQL_RETURN_NOT_OK(SortRows(frag.order_by, frag.order_ascending, &rows));
  SliceRows(0, frag.limit, &rows);
  return rows;
}

Status ComponentSource::PrepareTxn(const std::string& txn_id,
                                   const std::string& sql,
                                   uint64_t stmt_seq) {
  // Legacy entry point: numeric id 0 takes no locks, so the result is
  // always granted and only the status matters.
  return PrepareTxnAt(txn_id, sql, stmt_seq, 0, 0).status();
}

Result<ComponentSource::TxnPrepareResult> ComponentSource::PrepareTxnAt(
    const std::string& txn_id, const std::string& sql, uint64_t stmt_seq,
    uint64_t numeric_txn_id, uint64_t snapshot_ts) {
  TxnPrepareResult granted;
  auto txn_it = staged_.find(txn_id);
  if (txn_it != staged_.end()) {
    auto seen = txn_it->second.seen.find(stmt_seq);
    if (seen != txn_it->second.seen.end()) {
      if (seen->second == sql) return granted;  // redelivery
      return Status::InvalidArgument(
          "transaction '", txn_id, "' statement ", stmt_seq,
          " redelivered with different SQL");
    }
  }
  GISQL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (numeric_txn_id == 0 && stmt.kind != sql::Statement::Kind::kInsert) {
    return Status::InvalidArgument(
        "global transactions support INSERT statements only");
  }
  if (stmt.kind != sql::Statement::Kind::kInsert &&
      stmt.kind != sql::Statement::Kind::kDelete) {
    return Status::InvalidArgument(
        "global transactions support INSERT and DELETE statements only");
  }

  // A rejected prepare at a source holding none of this transaction's
  // staged writes must not retain the partial locks it just took: the
  // source never becomes a participant, so no later COMMIT/ABORT would
  // release them. With prior staged writes the partial locks stay held
  // (strict 2PL) — the eventual commit/abort reaches this source.
  auto reject = [&](LockAcquisition a) {
    if (staged_.find(txn_id) == staged_.end()) {
      locks_.ReleaseAll(numeric_txn_id);
    }
    TxnPrepareResult r;
    r.granted = false;
    r.holders = std::move(a.holders);
    return r;
  };

  StagedWrite staged;
  if (stmt.kind == sql::Statement::Kind::kInsert) {
    GISQL_ASSIGN_OR_RETURN(TablePtr table,
                           engine_.GetTable(stmt.insert->table_name));
    static const Schema kEmptySchema;
    Binder binder(kEmptySchema);
    static const Row kEmptyRow;
    staged.table = table;
    for (const auto& ast_row : stmt.insert->rows) {
      Row row;
      row.reserve(ast_row.size());
      for (const auto& ast_val : ast_row) {
        GISQL_ASSIGN_OR_RETURN(ExprPtr e, binder.BindScalar(*ast_val));
        GISQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, kEmptyRow));
        row.push_back(std::move(v));
      }
      // Full validation now so COMMIT cannot fail on data errors.
      GISQL_ASSIGN_OR_RETURN(Row validated,
                             table->ValidateRow(std::move(row)));
      staged.rows.push_back(std::move(validated));
    }
    if (numeric_txn_id != 0) {
      LockAcquisition t = locks_.LockTable(numeric_txn_id, table->name(),
                                           LockMode::kIntentExclusive);
      if (!t.granted) return reject(std::move(t));
      for (const Row& row : staged.rows) {
        const uint64_t key_hash = row.empty() ? 0 : row[0].Hash();
        LockAcquisition a = locks_.LockRow(numeric_txn_id, table->name(),
                                           key_hash, LockMode::kExclusive);
        // Locks granted so far stay held when this source is already a
        // participant: the transaction either retries this statement
        // (re-acquire is idempotent) or ends, and ReleaseAll reclaims
        // everything.
        if (!a.granted) return reject(std::move(a));
      }
    }
  } else {
    // Transactional DELETE (numeric-id path only, checked above): the
    // predicate evaluates against rows visible at the transaction's
    // snapshot; matched rows are X-locked by key and their heap rids
    // staged. Commit ends their versions at the commit timestamp.
    GISQL_ASSIGN_OR_RETURN(TablePtr table,
                           engine_.GetTable(stmt.del->table_name));
    ExprPtr pred;
    if (stmt.del->where != nullptr) {
      Binder binder(*table->schema());
      GISQL_ASSIGN_OR_RETURN(pred, binder.BindScalar(*stmt.del->where));
    }
    staged.table = table;
    std::vector<Value> keys;
    auto stage_if_match = [&](size_t rid, const Row& row) -> Status {
      bool match = true;
      if (pred != nullptr) {
        GISQL_ASSIGN_OR_RETURN(match, EvalPredicate(*pred, row));
      }
      if (match) {
        staged.delete_rids.push_back(rid);
        keys.push_back(row.empty() ? Value::Int(0) : row[0]);
      }
      return Status::OK();
    };
    // Either access path stages the same rids in the same ascending
    // order: the index only narrows which visible rows the whole
    // predicate is evaluated on.
    const std::optional<std::vector<size_t>> candidates =
        IndexedDeleteCandidates(*table, pred, snapshot_ts);
    if (candidates.has_value()) {
      for (size_t rid : *candidates) {
        GISQL_ASSIGN_OR_RETURN(Row row, table->GetRow(rid));
        GISQL_RETURN_NOT_OK(stage_if_match(rid, row));
      }
    } else {
      GISQL_RETURN_NOT_OK(table->Scan([&](size_t rid, const Row& row) {
        if (!table->VisibleAt(rid, snapshot_ts)) return Status::OK();
        return stage_if_match(rid, row);
      }));
    }
    // First committer wins: a row visible in our snapshot but already
    // ended at latest was deleted by a transaction that committed after
    // we began — retrying cannot help, the transaction must abort.
    for (size_t rid : staged.delete_rids) {
      if (!table->VisibleAt(rid, 0)) {
        return Status::ExecutionError(
            "write-write conflict: a row matched by DELETE in transaction '",
            txn_id, "' was already deleted by a newer committed transaction");
      }
    }
    LockAcquisition t = locks_.LockTable(numeric_txn_id, table->name(),
                                         LockMode::kIntentExclusive);
    if (!t.granted) return reject(std::move(t));
    for (const Value& key : keys) {
      LockAcquisition a = locks_.LockRow(numeric_txn_id, table->name(),
                                         key.Hash(), LockMode::kExclusive);
      if (!a.granted) return reject(std::move(a));
    }
  }

  auto& txn = staged_[txn_id];
  txn.numeric_id = numeric_txn_id;
  txn.snapshot_ts = snapshot_ts;
  txn.seen.emplace(stmt_seq, sql);
  txn.writes.push_back(std::move(staged));
  return granted;
}

Status ComponentSource::CommitTxn(const std::string& txn_id,
                                  uint64_t commit_ts, uint64_t watermark) {
  auto it = staged_.find(txn_id);
  if (it == staged_.end()) {
    // A commit whose ack was lost gets retried: converge instead of
    // reporting the (already satisfied) request as an error.
    if (committed_.count(txn_id) > 0) return Status::OK();
    return Status::NotFound("transaction '", txn_id, "' is not prepared at '",
                            name_, "'");
  }
  for (auto& write : it->second.writes) {
    for (size_t rid : write.delete_rids) {
      write.table->MarkDeleted(rid, commit_ts);
    }
    if (!write.rows.empty()) {
      GISQL_RETURN_NOT_OK(
          write.table->InsertVersioned(std::move(write.rows), commit_ts));
    }
  }
  const uint64_t numeric_id = it->second.numeric_id;
  staged_.erase(it);
  committed_.insert(txn_id);
  if (numeric_id != 0) locks_.ReleaseAll(numeric_id);
  if (watermark > 0) GcToWatermark(watermark);
  return Status::OK();
}

Status ComponentSource::AbortTxn(const std::string& txn_id) {
  // Aborting an unknown transaction is a no-op (idempotent rollback).
  auto it = staged_.find(txn_id);
  if (it == staged_.end()) return Status::OK();
  const uint64_t numeric_id = it->second.numeric_id;
  staged_.erase(it);
  if (numeric_id != 0) locks_.ReleaseAll(numeric_id);
  return Status::OK();
}

int64_t ComponentSource::GcToWatermark(uint64_t watermark) {
  // A staged DELETE holds heap rids; compacting its table would shift
  // them under the staged transaction. Such tables wait for the next
  // watermark after that transaction resolves.
  std::set<const Table*> pinned;
  for (const auto& [id, txn] : staged_) {
    for (const auto& w : txn.writes) {
      if (!w.delete_rids.empty()) pinned.insert(w.table.get());
    }
  }
  int64_t total = 0;
  engine_.ForEachTable([&](Table& table) {
    if (pinned.count(&table)) return;
    Result<int64_t> removed = table.GcToWatermark(watermark);
    if (removed.ok()) total += *removed;
  });
  return total;
}

namespace {
constexpr uint32_t kSnapshotMagic = 0x47495351;  // "GISQ"
constexpr uint8_t kSnapshotVersion = 1;
}  // namespace

Status ComponentSource::SaveSnapshot(const std::string& path) const {
  ByteWriter writer;
  writer.PutU32(kSnapshotMagic);
  writer.PutU8(kSnapshotVersion);
  // Engine access is const-friendly here: TableNames/GetTable only read.
  auto& engine = const_cast<ComponentSource*>(this)->engine_;
  const auto names = engine.TableNames();
  writer.PutVarint(names.size());
  for (const auto& name : names) {
    GISQL_ASSIGN_OR_RETURN(TablePtr table, engine.GetTable(name));
    writer.PutString(table->name());
    RowBatch batch(table->schema(), table->rows());
    wire::WriteBatch(&writer, batch);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '", path, "' for writing");
  }
  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) {
    return Status::IOError("short write to '", path, "'");
  }
  return Status::OK();
}

Status ComponentSource::LoadSnapshot(const std::string& path) {
  if (!engine_.TableNames().empty()) {
    return Status::InvalidArgument(
        "LoadSnapshot requires an empty source; '", name_,
        "' already has tables");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open snapshot '", path, "'");
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ByteReader reader(bytes);
  GISQL_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kSnapshotMagic) {
    return Status::SerializationError("'", path,
                                      "' is not a gisql snapshot");
  }
  GISQL_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kSnapshotVersion) {
    return Status::SerializationError("unsupported snapshot version ",
                                      int(version));
  }
  GISQL_ASSIGN_OR_RETURN(uint64_t ntables, reader.GetVarint());
  for (uint64_t i = 0; i < ntables; ++i) {
    GISQL_ASSIGN_OR_RETURN(std::string table_name, reader.GetString());
    GISQL_ASSIGN_OR_RETURN(RowBatch batch, wire::ReadBatch(&reader));
    GISQL_ASSIGN_OR_RETURN(
        TablePtr table, engine_.CreateTable(table_name, batch.schema()));
    GISQL_RETURN_NOT_OK(table->CreateHashIndex(0));
    if (dialect_ == SourceDialect::kRelational) {
      GISQL_RETURN_NOT_OK(table->CreateOrderedIndex(0));
    }
    GISQL_RETURN_NOT_OK(table->InsertUnchecked(std::move(batch.rows())));
  }
  if (!reader.AtEnd()) {
    return Status::SerializationError("trailing bytes in snapshot '", path,
                                      "'");
  }
  return Status::OK();
}

Result<RowBatch> ComponentSource::ExecuteMetered(
    const FragmentPlan& frag, double* processing_ms,
    wire::FragmentPageStats* pages) {
  const BufferPoolStats before = engine_.pool().Snapshot();
  int64_t rows_scanned = 0;
  GISQL_ASSIGN_OR_RETURN(RowBatch batch, ExecuteFragment(frag, &rows_scanned));
  const BufferPoolStats after = engine_.pool().Snapshot();
  pages->page_hits = after.hits - before.hits;
  pages->page_misses = after.misses - before.misses;
  pages->evictions = after.evictions - before.evictions;
  pages->disk_us = after.disk_us - before.disk_us;
  if (processing_ms != nullptr) {
    *processing_ms = static_cast<double>(rows_scanned) * cpu_us_per_row_ / 1e3 +
                     pages->disk_us / 1e3;
  }
  return batch;
}

Result<std::vector<uint8_t>> ComponentSource::Handle(
    uint8_t opcode, const std::vector<uint8_t>& request,
    double* processing_ms) {
  std::lock_guard<std::mutex> lock(request_mu_);
  if (processing_ms != nullptr) *processing_ms = 0.0;
  ByteReader reader(request);
  ByteWriter writer;
  switch (static_cast<wire::Opcode>(opcode)) {
    case wire::Opcode::kPing:
      writer.PutString(name_);
      return writer.Release();

    case wire::Opcode::kListTables: {
      auto names = engine_.TableNames();
      writer.PutVarint(names.size());
      for (const auto& n : names) writer.PutString(n);
      return writer.Release();
    }

    case wire::Opcode::kGetSchema: {
      GISQL_ASSIGN_OR_RETURN(std::string table_name, reader.GetString());
      GISQL_ASSIGN_OR_RETURN(TablePtr table, engine_.GetTable(table_name));
      wire::WriteSchema(&writer, *table->schema());
      return writer.Release();
    }

    case wire::Opcode::kGetStats: {
      GISQL_ASSIGN_OR_RETURN(std::string table_name, reader.GetString());
      GISQL_ASSIGN_OR_RETURN(TablePtr table, engine_.GetTable(table_name));
      const double disk_us_before = engine_.pool().Snapshot().disk_us;
      wire::WriteTableStats(&writer, table->Stats());
      if (processing_ms != nullptr) {
        *processing_ms =
            static_cast<double>(table->num_rows()) * cpu_us_per_row_ / 1e3 +
            (engine_.pool().Snapshot().disk_us - disk_us_before) / 1e3;
      }
      return writer.Release();
    }

    case wire::Opcode::kAdminSql: {
      GISQL_ASSIGN_OR_RETURN(std::string sql, reader.GetString());
      GISQL_RETURN_NOT_OK(ExecuteLocalSql(sql));
      return writer.Release();
    }

    case wire::Opcode::kBulkLoad: {
      // Replica seeding: one RPC carries the table name plus every row,
      // so the simulated WAN prices the copy as a single bulk transfer.
      // The schema is re-qualified under the new table name and follows
      // the CREATE TABLE conventions (key column non-nullable + indexed).
      GISQL_ASSIGN_OR_RETURN(std::string table_name, reader.GetString());
      GISQL_ASSIGN_OR_RETURN(RowBatch batch, wire::ReadBatch(&reader));
      std::vector<Field> fields;
      fields.reserve(batch.schema()->num_fields());
      for (const auto& f : batch.schema()->fields()) {
        fields.emplace_back(f.name, f.type, f.nullable, table_name);
      }
      if (!fields.empty()) fields[0].nullable = false;
      GISQL_ASSIGN_OR_RETURN(
          TablePtr table,
          engine_.CreateTable(table_name,
                              std::make_shared<Schema>(std::move(fields))));
      GISQL_RETURN_NOT_OK(table->CreateHashIndex(0));
      if (dialect_ == SourceDialect::kRelational) {
        GISQL_RETURN_NOT_OK(table->CreateOrderedIndex(0));
      }
      const size_t loaded_rows = batch.num_rows();
      GISQL_RETURN_NOT_OK(table->InsertUnchecked(std::move(batch.rows())));
      if (processing_ms != nullptr) {
        *processing_ms =
            static_cast<double>(loaded_rows) * cpu_us_per_row_ / 1e3;
      }
      return writer.Release();
    }

    case wire::Opcode::kTxnPrepare: {
      GISQL_ASSIGN_OR_RETURN(std::string txn_id, reader.GetString());
      GISQL_ASSIGN_OR_RETURN(uint64_t stmt_seq, reader.GetVarint());
      GISQL_ASSIGN_OR_RETURN(std::string sql, reader.GetString());
      // Trailing MVCC context, absent on legacy (PR 1) requests.
      uint64_t numeric_txn_id = 0;
      uint64_t snapshot_ts = 0;
      if (!reader.AtEnd()) {
        GISQL_ASSIGN_OR_RETURN(numeric_txn_id, reader.GetVarint());
        GISQL_ASSIGN_OR_RETURN(snapshot_ts, reader.GetVarint());
      }
      GISQL_ASSIGN_OR_RETURN(
          TxnPrepareResult result,
          PrepareTxnAt(txn_id, sql, stmt_seq, numeric_txn_id, snapshot_ts));
      // Response payload: grant/conflict byte + conflicting holders.
      // Legacy callers never read the payload, so this is additive.
      writer.PutU8(result.granted ? 0 : 1);
      writer.PutVarint(result.holders.size());
      for (uint64_t h : result.holders) writer.PutVarint(h);
      return writer.Release();
    }

    case wire::Opcode::kTxnCommit: {
      GISQL_ASSIGN_OR_RETURN(std::string txn_id, reader.GetString());
      // Trailing commit timestamp + GC watermark, absent on legacy
      // requests (both default to 0: bootstrap stamp, no GC).
      uint64_t commit_ts = 0;
      uint64_t watermark = 0;
      if (!reader.AtEnd()) {
        GISQL_ASSIGN_OR_RETURN(commit_ts, reader.GetVarint());
        GISQL_ASSIGN_OR_RETURN(watermark, reader.GetVarint());
      }
      GISQL_RETURN_NOT_OK(CommitTxn(txn_id, commit_ts, watermark));
      return writer.Release();
    }

    case wire::Opcode::kTxnAbort: {
      GISQL_ASSIGN_OR_RETURN(std::string txn_id, reader.GetString());
      GISQL_RETURN_NOT_OK(AbortTxn(txn_id));
      return writer.Release();
    }

    case wire::Opcode::kExecuteFragmentColumnar: {
      GISQL_ASSIGN_OR_RETURN(FragmentPlan frag, wire::ReadFragment(&reader));
      wire::FragmentPageStats pages;
      GISQL_ASSIGN_OR_RETURN(RowBatch batch,
                             ExecuteMetered(frag, processing_ms, &pages));
      wire::WriteFragmentResponse(&writer, batch, pages);
      return writer.Release();
    }

    case wire::Opcode::kOpenCursor: {
      GISQL_ASSIGN_OR_RETURN(wire::OpenCursorRequest req,
                             wire::ReadOpenCursorRequest(&reader));
      // Idempotent by token: a retried (or duplicate-delivered) open
      // finds the cursor its first delivery staged.
      if (auto it = cursor_tokens_.find(req.token);
          it != cursor_tokens_.end()) {
        wire::WriteOpenCursorResponse(&writer, {it->second});
        return writer.Release();
      }
      if (cursors_.size() >= kMaxOpenCursorsPerSource) {
        return Status::Overloaded("source '", name_, "' has ",
                                  cursors_.size(),
                                  " open cursors (limit ",
                                  kMaxOpenCursorsPerSource, ")");
      }
      // The scan (CPU and disk) is paid here, at open; fetches only
      // slice and ship.
      wire::FragmentPageStats pages;
      GISQL_ASSIGN_OR_RETURN(
          RowBatch batch, ExecuteMetered(req.fragment, processing_ms, &pages));
      const uint64_t id = next_cursor_id_++;
      SourceCursor& cur = cursors_[id];
      cur.token = req.token;
      cur.result = std::move(batch);
      cur.chunk_rows = req.chunk_rows;
      cursor_tokens_[req.token] = id;
      wire::WriteOpenCursorResponse(&writer, {id});
      return writer.Release();
    }

    case wire::Opcode::kFetchChunk: {
      GISQL_ASSIGN_OR_RETURN(wire::FetchChunkRequest req,
                             wire::ReadFetchChunkRequest(&reader));
      auto it = cursors_.find(req.cursor_id);
      if (it == cursors_.end()) {
        return Status::NotFound("cursor ", req.cursor_id,
                                " is not open at source '", name_, "'");
      }
      SourceCursor& cur = it->second;
      if (req.seq + 1 == cur.next_seq) {
        // One-chunk idempotency window: a retried fetch whose first
        // response was lost gets the identical payload again.
        return cur.last_chunk;
      }
      if (req.seq != cur.next_seq) {
        return Status::InvalidArgument(
            "cursor ", req.cursor_id, " fetch seq ", req.seq,
            " outside window (next ", cur.next_seq, ")");
      }
      const int64_t total = cur.result.num_rows();
      const int64_t take =
          std::min(cur.chunk_rows, total - cur.next_row);
      std::vector<Row> rows(
          cur.result.rows().begin() + cur.next_row,
          cur.result.rows().begin() + cur.next_row + take);
      RowBatch chunk(cur.result.schema(), std::move(rows));
      const bool done = cur.next_row + take >= total;
      wire::WriteCursorChunk(&writer, req.cursor_id, req.seq, done, chunk);
      cur.next_row += take;
      cur.next_seq = req.seq + 1;
      cur.last_chunk = writer.Release();
      return cur.last_chunk;
    }

    case wire::Opcode::kCloseCursor: {
      GISQL_ASSIGN_OR_RETURN(wire::CloseCursorRequest req,
                             wire::ReadCloseCursorRequest(&reader));
      // Idempotent: closing an unknown (already-closed) cursor is OK.
      if (auto it = cursors_.find(req.cursor_id); it != cursors_.end()) {
        cursor_tokens_.erase(it->second.token);
        cursors_.erase(it);
      }
      return writer.Release();
    }
  }
  return Status::InvalidArgument("unknown opcode ", int(opcode),
                                 " at source '", name_, "'");
}

}  // namespace gisql
