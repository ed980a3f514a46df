/// Equivalence tests for the transactional DELETE access paths. A
/// source whose key index is built answers a sargable DELETE predicate
/// from the index; an identical source whose index was never built
/// scans the heap. Both must stage the same heap row ids in the same
/// order, for every predicate shape and snapshot, and the index path
/// must read fewer pages exactly when it applies. The write-write
/// conflict check must fire on both.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "source/component_source.h"

namespace gisql {
namespace {

/// Small pages: the table spans many, so one candidate row is visibly
/// cheaper than the scan.
StorageConfig SmallPages() {
  StorageConfig config;
  config.page_size = 128;
  config.pool_frames = 1024;
  return config;
}

/// A source holding `sales`, with sid 7 three times, then a committed
/// history that ends versions and appends new ones. With
/// `build_indexes` the key indexes are built before the history, so
/// the history maintains them.
std::unique_ptr<ComponentSource> MakeSource(bool build_indexes) {
  auto src = std::make_unique<ComponentSource>(
      "s", SourceDialect::kRelational, 0.05, SmallPages());
  EXPECT_TRUE(src->ExecuteLocalSql(
                     "CREATE TABLE sales (sid BIGINT, amount DOUBLE, "
                     "note VARCHAR)")
                  .ok());
  for (int i = 0; i < 60; ++i) {
    const int sid = (i == 20 || i == 40) ? 7 : i;
    EXPECT_TRUE(src->ExecuteLocalSql(
                       "INSERT INTO sales VALUES (" + std::to_string(sid) +
                       ", " + std::to_string(i % 5) + ".5, 'row " +
                       std::to_string(i) + "')")
                    .ok());
  }
  if (build_indexes) {
    TablePtr t = *src->engine().GetTable("sales");
    EXPECT_NE(t->GetHashIndex(0), nullptr);
    EXPECT_NE(t->GetOrderedIndex(0), nullptr);
  }
  // History: at ts 10 one sid-7 row and sid 12 are replaced; at ts 20
  // sid 30 is deleted. No watermark, so every version stays.
  auto run = [&](const std::string& id, uint64_t numeric, uint64_t snapshot,
                 uint64_t commit_ts, const std::vector<std::string>& sqls) {
    uint64_t seq = 1;
    for (const auto& sql : sqls) {
      Result<ComponentSource::TxnPrepareResult> r =
          src->PrepareTxnAt(id, sql, seq++, numeric, snapshot);
      EXPECT_TRUE(r.ok() && r->granted) << sql;
    }
    EXPECT_TRUE(src->CommitTxn(id, commit_ts).ok());
  };
  run("h1", 1, 5, 10,
      {"DELETE FROM sales WHERE sid = 12",
       "INSERT INTO sales VALUES (12, 99.5, 'new 12'), (7, 0.5, 'new 7')"});
  run("h2", 2, 15, 20, {"DELETE FROM sales WHERE sid = 30"});
  return src;
}

struct Staged {
  bool ok = false;
  std::vector<size_t> rids;
  int64_t page_hits = 0;
};

Staged PrepareDelete(ComponentSource& src, const std::string& where,
                     uint64_t snapshot) {
  Staged out;
  const int64_t before = src.engine().pool().Snapshot().hits;
  Result<ComponentSource::TxnPrepareResult> r = src.PrepareTxnAt(
      "q", "DELETE FROM sales WHERE " + where, 1, /*numeric_txn_id=*/50,
      snapshot);
  out.page_hits = src.engine().pool().Snapshot().hits - before;
  out.ok = r.ok() && r->granted;
  out.rids = src.staged_delete_rids("q");
  EXPECT_TRUE(src.AbortTxn("q").ok());
  return out;
}

struct Case {
  const char* where;
  bool index_path;  ///< the built index must read fewer pages
};

void ExpectSameStaging(const std::vector<Case>& cases) {
  auto indexed = MakeSource(/*build_indexes=*/true);
  auto scanned = MakeSource(/*build_indexes=*/false);
  const int64_t pages = (*indexed->engine().GetTable("sales"))->num_pages();
  ASSERT_GT(pages, 8);
  for (const Case& c : cases) {
    for (uint64_t snapshot : {0u, 5u, 12u, 25u}) {
      const Staged a = PrepareDelete(*indexed, c.where, snapshot);
      const Staged b = PrepareDelete(*scanned, c.where, snapshot);
      SCOPED_TRACE(std::string(c.where) + " @" + std::to_string(snapshot));
      EXPECT_EQ(a.ok, b.ok);
      EXPECT_EQ(a.rids, b.rids);
      EXPECT_EQ(b.page_hits, pages);  // the scan reads every page once
      if (c.index_path) {
        EXPECT_LT(a.page_hits, pages);
      } else {
        EXPECT_EQ(a.page_hits, pages);
      }
    }
  }
  // Spot checks of the staged rows themselves (snapshot 25, latest
  // history): sid 7's three live versions, ascending.
  const Staged sevens = PrepareDelete(*indexed, "sid = 7", 25);
  EXPECT_EQ(sevens.rids, (std::vector<size_t>{7, 20, 40, 61}));
  EXPECT_TRUE(PrepareDelete(*indexed, "sid = NULL", 25).rids.empty());
}

TEST(IndexedDeleteTest, OrderedIndexPathStagesWhatTheScanStages) {
  ExpectSameStaging({{"sid = 7", true},
                     {"7 = sid", true},
                     {"sid = 12", true},
                     {"sid = 30", true},
                     {"sid = 9999", true},
                     {"sid = 7 AND amount > 1.0", true},
                     {"amount > 1.0 AND sid = 7", true},
                     {"sid >= 10 AND sid < 14", true},
                     {"sid = NULL", false},
                     // The binder widens the column: CAST(sid AS DOUBLE)
                     // = 5.0 is no column-literal comparison.
                     {"sid = 5.0", false},
                     {"sid = 7 OR sid = 9", false},
                     {"amount > 3.0", false},
                     {"sid >= 0", false}});  // more candidates than pages
}

TEST(IndexedDeleteTest, WriteWriteConflictFiresOnBothPaths) {
  for (const bool build : {true, false}) {
    auto src = MakeSource(build);
    // sid 30 ended at ts 20: a snapshot at 15 still sees it, so its
    // DELETE must abort rather than stage an already-deleted row.
    Result<ComponentSource::TxnPrepareResult> r = src->PrepareTxnAt(
        "late", "DELETE FROM sales WHERE sid = 30", 1, 60, 15);
    ASSERT_FALSE(r.ok()) << "build=" << build;
    EXPECT_NE(r.status().message().find("write-write conflict"),
              std::string::npos);
    EXPECT_EQ(src->pending_txns(), 0u);
  }
}

}  // namespace
}  // namespace gisql
