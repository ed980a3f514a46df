/// Property test: a table's incrementally maintained indexes against a
/// full-scan oracle. Seeded random interleavings of Insert,
/// InsertVersioned, MarkDeleted, GcToWatermark and Delete — with NULL
/// keys, duplicate keys and rows larger than a page — run against a
/// model of the heap (rows in rid order plus their versions). After
/// every step:
///   - hash Lookup and ordered Lookup/Range, filtered by VisibleAt at
///     several snapshots, equal the oracle's answer;
///   - the B+tree passes Validate();
///   - the heap holds the model's rows in order, on the same pages
///     (count and first row of each) as a fresh table loaded with the
///     same rows: a full repack.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace gisql {
namespace {

constexpr size_t kPageSize = 512;

SchemaPtr KvSchema() {
  return std::make_shared<Schema>(
      std::vector<Field>{{"k", TypeId::kInt64, true, "t"},
                         {"pad", TypeId::kString, true, "t"}});
}

BufferPoolPtr SmallPagePool() {
  StorageConfig config;
  config.page_size = kPageSize;
  config.pool_frames = 4096;
  return std::make_shared<BufferPoolManager>(config);
}

struct ModelRow {
  Row row;
  RowVersion version;
};

bool VisibleIn(const RowVersion& v, uint64_t snapshot_ts) {
  if (snapshot_ts == 0) return v.end_ts == kMaxTimestamp;
  return v.begin_ts <= snapshot_ts && snapshot_ts < v.end_ts;
}

class IndexOracle {
 public:
  explicit IndexOracle(uint64_t seed)
      : rng_(seed), table_("t", KvSchema(), SmallPagePool()) {
    EXPECT_TRUE(table_.CreateHashIndex(0).ok());
    EXPECT_TRUE(table_.CreateOrderedIndex(0).ok());
  }

  /// A random row: keys from a narrow domain (duplicates), one in ten
  /// NULL, and a pad that is sometimes larger than a page.
  Row RandomRow() {
    Value key = rng_.Bernoulli(0.1) ? Value::Null(TypeId::kInt64)
                                    : Value::Int(rng_.Uniform(0, kDomain));
    const size_t pad = rng_.Bernoulli(0.05)
                           ? static_cast<size_t>(rng_.Uniform(600, 1500))
                           : static_cast<size_t>(rng_.Uniform(0, 120));
    return {std::move(key), Value::String(std::string(pad, 'x'))};
  }

  void Step(int step) {
    const int64_t op = rng_.Uniform(0, 99);
    if (op < 30) {
      Row row = RandomRow();
      ASSERT_TRUE(table_.Insert(row).ok());
      model_.push_back({std::move(row), RowVersion{}});
    } else if (op < 50) {
      const uint64_t ts = ++clock_;
      std::vector<Row> rows;
      for (int64_t i = rng_.Uniform(1, 4); i > 0; --i) {
        rows.push_back(RandomRow());
      }
      for (const Row& r : rows) model_.push_back({r, RowVersion{ts, kMaxTimestamp}});
      ASSERT_TRUE(table_.InsertVersioned(std::move(rows), ts).ok());
    } else if (op < 75) {
      if (model_.empty()) return;
      const uint64_t ts = ++clock_;
      // Several deletes in one commit, like a multi-row DELETE.
      for (int64_t i = rng_.Uniform(1, 3); i > 0; --i) {
        const size_t rid =
            static_cast<size_t>(rng_.Uniform(0, model_.size() - 1));
        table_.MarkDeleted(rid, ts);
        if (model_[rid].version.end_ts == kMaxTimestamp) {
          model_[rid].version.end_ts = ts;
        }
      }
    } else if (op < 93) {
      const uint64_t watermark =
          static_cast<uint64_t>(rng_.Uniform(0, static_cast<int64_t>(clock_)));
      int64_t expected = 0;
      std::vector<ModelRow> kept;
      for (ModelRow& m : model_) {
        if (m.version.end_ts != kMaxTimestamp &&
            m.version.end_ts <= watermark) {
          ++expected;
        } else {
          kept.push_back(std::move(m));
        }
      }
      model_ = std::move(kept);
      Result<int64_t> removed = table_.GcToWatermark(watermark);
      ASSERT_TRUE(removed.ok()) << removed.status().ToString();
      ASSERT_EQ(*removed, expected) << "step " << step;
    } else {
      // Non-transactional DELETE of a key range.
      const int64_t lo = rng_.Uniform(0, kDomain);
      const int64_t hi = lo + rng_.Uniform(0, 2);
      ExprPtr pred = MakeLogic(
          LogicOp::kAnd,
          MakeCompare(CompareOp::kGe, MakeColumn(0, TypeId::kInt64, "k"),
                      MakeLiteral(Value::Int(lo))),
          MakeCompare(CompareOp::kLe, MakeColumn(0, TypeId::kInt64, "k"),
                      MakeLiteral(Value::Int(hi))));
      int64_t expected = 0;
      std::vector<ModelRow> kept;
      for (ModelRow& m : model_) {
        const Value& k = m.row[0];
        if (!k.is_null() && k.AsInt() >= lo && k.AsInt() <= hi) {
          ++expected;
        } else {
          kept.push_back(std::move(m));
        }
      }
      model_ = std::move(kept);
      Result<int64_t> removed = table_.Delete(*pred);
      ASSERT_TRUE(removed.ok()) << removed.status().ToString();
      ASSERT_EQ(*removed, expected) << "step " << step;
    }
  }

  void Check(int step, bool use_indexes) {
    // Heap and versions.
    ASSERT_EQ(table_.num_rows(), static_cast<int64_t>(model_.size()));
    std::vector<Row> want_rows;
    for (size_t rid = 0; rid < model_.size(); ++rid) {
      const RowVersion v = table_.VersionOf(rid);
      ASSERT_EQ(v.begin_ts, model_[rid].version.begin_ts) << "rid " << rid;
      ASSERT_EQ(v.end_ts, model_[rid].version.end_ts) << "rid " << rid;
      want_rows.push_back(model_[rid].row);
    }
    ASSERT_EQ(table_.rows(), want_rows) << "step " << step;
    Table repacked("t", KvSchema(), SmallPagePool());
    ASSERT_TRUE(repacked.InsertUnchecked(want_rows).ok());
    ASSERT_EQ(table_.num_pages(), repacked.num_pages()) << "step " << step;
    for (int64_t p = 0; p < repacked.num_pages(); ++p) {
      ASSERT_EQ(table_.heap().page_first_rid(static_cast<size_t>(p)),
                repacked.heap().page_first_rid(static_cast<size_t>(p)))
          << "page " << p << " step " << step;
    }

    if (!use_indexes) return;  // indexes stay unbuilt until first use
    HashIndex* hash = table_.GetHashIndex(0);
    OrderedIndex* ordered = table_.GetOrderedIndex(0);
    ASSERT_NE(hash, nullptr);
    ASSERT_NE(ordered, nullptr);
    ASSERT_TRUE(ordered->tree().Validate().ok())
        << "step " << step << ": " << ordered->tree().Validate().ToString();
    ASSERT_EQ(hash->built_row_count(), model_.size());
    ASSERT_EQ(ordered->built_row_count(), model_.size());

    std::vector<uint64_t> snapshots = {0, clock_, clock_ + 1};
    for (int i = 0; i < 3; ++i) {
      snapshots.push_back(static_cast<uint64_t>(
          rng_.Uniform(1, static_cast<int64_t>(clock_) + 1)));
    }
    auto visible = [&](std::vector<size_t> rids, uint64_t snap) {
      std::erase_if(rids,
                    [&](size_t rid) { return !table_.VisibleAt(rid, snap); });
      return rids;
    };
    // The oracle: a full scan of the model, in (key, rid) order.
    auto oracle = [&](int64_t lo, bool lo_inc, int64_t hi, bool hi_inc,
                      uint64_t snap) {
      std::vector<std::pair<int64_t, size_t>> hits;
      for (size_t rid = 0; rid < model_.size(); ++rid) {
        const Value& k = model_[rid].row[0];
        if (k.is_null() || !VisibleIn(model_[rid].version, snap)) continue;
        const int64_t v = k.AsInt();
        if (lo_inc ? v < lo : v <= lo) continue;
        if (hi_inc ? v > hi : v >= hi) continue;
        hits.emplace_back(v, rid);
      }
      std::sort(hits.begin(), hits.end());
      std::vector<size_t> rids;
      for (const auto& h : hits) rids.push_back(h.second);
      return rids;
    };
    for (uint64_t snap : snapshots) {
      for (int64_t key = -1; key <= kDomain + 1; ++key) {
        const std::vector<size_t> want = oracle(key, true, key, true, snap);
        ASSERT_EQ(visible(hash->Lookup(Value::Int(key)), snap), want)
            << "hash key " << key << " snapshot " << snap << " step " << step;
        ASSERT_EQ(visible(ordered->tree().Lookup(Value::Int(key)), snap), want)
            << "tree key " << key << " snapshot " << snap << " step " << step;
      }
      EXPECT_TRUE(hash->Lookup(Value::Null(TypeId::kInt64)).empty());
      const int64_t lo = rng_.Uniform(-1, kDomain);
      const int64_t hi = lo + rng_.Uniform(0, 4);
      const bool lo_inc = rng_.Bernoulli(0.5);
      const bool hi_inc = rng_.Bernoulli(0.5);
      ASSERT_EQ(visible(ordered->Range(Value::Int(lo), lo_inc, Value::Int(hi),
                                       hi_inc),
                        snap),
                oracle(lo, lo_inc, hi, hi_inc, snap))
          << "range " << lo << ".." << hi << " snapshot " << snap << " step "
          << step;
    }
  }

 private:
  static constexpr int64_t kDomain = 12;
  Rng rng_;
  Table table_;
  std::vector<ModelRow> model_;
  uint64_t clock_ = 0;
};

class IndexOracleSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexOracleSeeds, IndexesMatchFullScanAfterEveryStep) {
  IndexOracle oracle(GetParam());
  for (int step = 0; step < 400; ++step) {
    ASSERT_NO_FATAL_FAILURE(oracle.Step(step));
    // The first 40 steps run with the indexes never built: their first
    // use then builds them from a scan, and maintenance takes over.
    ASSERT_NO_FATAL_FAILURE(oracle.Check(step, /*use_indexes=*/step >= 40));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexOracleSeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(IndexMaintenanceTest, GcWithNothingReclaimableTouchesNoPage) {
  Table table("t", KvSchema(), SmallPagePool());
  ASSERT_TRUE(table.CreateOrderedIndex(0).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(i), Value::String("row")}).ok());
  }
  ASSERT_NE(table.GetOrderedIndex(0), nullptr);
  table.MarkDeleted(30, 10);
  const int64_t hits_before = table.pool().Snapshot().hits;
  // The only dead version ends at 10: watermarks below it reclaim
  // nothing and read no page.
  for (uint64_t w = 0; w < 10; ++w) {
    ASSERT_EQ(*table.GcToWatermark(w), 0);
  }
  EXPECT_EQ(table.pool().Snapshot().hits, hits_before);
  ASSERT_EQ(*table.GcToWatermark(10), 1);
  EXPECT_GT(table.pool().Snapshot().hits, hits_before);
  EXPECT_EQ(table.num_rows(), 49);
  EXPECT_EQ(table.GetOrderedIndex(0)->tree().Lookup(Value::Int(31)),
            std::vector<size_t>{30});
}

TEST(IndexMaintenanceTest, AppendsReachBuiltIndexesWithoutARebuildScan) {
  Table table("t", KvSchema(), SmallPagePool());
  ASSERT_TRUE(table.CreateHashIndex(0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(i), Value::String("row")}).ok());
  }
  ASSERT_NE(table.GetHashIndex(0), nullptr);  // built by one full scan
  ASSERT_TRUE(table.InsertVersioned({{Value::Int(500), Value::String("v")}}, 3)
                  .ok());
  const int64_t hits_before = table.pool().Snapshot().hits;
  EXPECT_EQ(table.GetHashIndex(0)->Lookup(Value::Int(500)),
            std::vector<size_t>{200});
  EXPECT_EQ(table.pool().Snapshot().hits, hits_before);
}

TEST(IndexMaintenanceTest, UnbuiltIndexIsNotBuiltOnRequest) {
  Table table("t", KvSchema(), SmallPagePool());
  ASSERT_TRUE(table.CreateOrderedIndex(0).ok());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("row")}).ok());
  EXPECT_EQ(table.GetOrderedIndex(0, /*build=*/false), nullptr);
  EXPECT_EQ(table.GetHashIndex(0, /*build=*/false), nullptr);  // undeclared
  ASSERT_NE(table.GetOrderedIndex(0), nullptr);
  EXPECT_NE(table.GetOrderedIndex(0, /*build=*/false), nullptr);
}

TEST(IndexMaintenanceTest, BuildThePoolCutsShortStaysUnbuilt) {
  StorageConfig config;
  config.page_size = kPageSize;
  config.pool_frames = 4;
  Table table("t", KvSchema(), std::make_shared<BufferPoolManager>(config));
  ASSERT_TRUE(table.CreateHashIndex(0).ok());
  ASSERT_TRUE(table.CreateOrderedIndex(0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Int(i), Value::String(std::string(100, 'x'))})
            .ok());
  }
  ASSERT_GT(table.num_pages(), 4);
  // Pin every frame: the build's scan cannot read a page.
  std::vector<uint64_t> pinned;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> page = table.pool().NewPage(nullptr);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  EXPECT_EQ(table.GetOrderedIndex(0), nullptr);
  EXPECT_EQ(table.GetHashIndex(0), nullptr);
  EXPECT_EQ(table.GetOrderedIndex(0, /*build=*/false), nullptr);
  for (uint64_t page : pinned) {
    table.pool().UnpinPage(page, /*dirty=*/false);
    table.pool().DeletePage(page);
  }
  // Rows appended after the failed build, then a build that covers
  // every row: each key, old or new, is found at its rid.
  for (int i = 100; i < 110; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(i), Value::String("row")}).ok());
  }
  OrderedIndex* ordered = table.GetOrderedIndex(0);
  HashIndex* hash = table.GetHashIndex(0);
  ASSERT_NE(ordered, nullptr);
  ASSERT_NE(hash, nullptr);
  for (int i = 0; i < 110; ++i) {
    const std::vector<size_t> expect{static_cast<size_t>(i)};
    EXPECT_EQ(ordered->tree().Lookup(Value::Int(i)), expect) << i;
    EXPECT_EQ(hash->Lookup(Value::Int(i)), expect) << i;
  }
  EXPECT_EQ(ordered->built_row_count(), 110u);
}

}  // namespace
}  // namespace gisql
