/// Property test: BPlusTree::Erase against a sorted (key, row id)
/// oracle. Seeded interleavings of inserts and erases (duplicate-heavy
/// keys, absent pairs, full drains, and the compaction pattern: erase
/// the highest row ids, re-insert them renumbered) across fanouts must
/// keep Validate() green after every operation and Range/Lookup equal
/// to the oracle. Also pins insert-only splits inside duplicate runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"

namespace gisql {
namespace {

struct Entry {
  int64_t key;
  size_t rid;
};

/// The tree's order: by key, then insertion order among duplicates —
/// ascending row id here, because every test inserts ids in increasing
/// order.
std::vector<size_t> OracleRange(std::vector<Entry> entries, int64_t lo,
                                int64_t hi) {
  std::erase_if(entries,
                [&](const Entry& e) { return e.key < lo || e.key > hi; });
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key : a.rid < b.rid;
            });
  std::vector<size_t> rids;
  for (const Entry& e : entries) rids.push_back(e.rid);
  return rids;
}

void CheckAgainstOracle(const BPlusTree& tree,
                        const std::vector<Entry>& entries, int64_t domain) {
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  ASSERT_EQ(tree.size(), entries.size());
  ASSERT_EQ(tree.Range(Value::Null(TypeId::kInt64), true,
                       Value::Null(TypeId::kInt64), true),
            OracleRange(entries, INT64_MIN, INT64_MAX));
  for (int64_t k = -1; k <= domain + 1; ++k) {
    ASSERT_EQ(tree.Lookup(Value::Int(k)), OracleRange(entries, k, k))
        << "key " << k;
  }
}

class BtreeEraseProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BtreeEraseProperty, RandomInsertEraseMatchesOracle) {
  const int fanout = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  BPlusTree tree(fanout);
  std::vector<Entry> entries;
  size_t next_rid = 0;
  const int64_t domain = rng.Uniform(3, 60);  // narrow: long duplicate runs
  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.NextDouble();
    if (entries.empty() || dice < 0.55) {
      const int64_t key = rng.Uniform(0, domain);
      ASSERT_TRUE(tree.Insert(Value::Int(key), next_rid).ok());
      entries.push_back({key, next_rid++});
    } else if (dice < 0.95) {
      const size_t i =
          static_cast<size_t>(rng.Uniform(0, entries.size() - 1));
      ASSERT_TRUE(tree.Erase(Value::Int(entries[i].key), entries[i].rid).ok())
          << "step " << step;
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      // Absent pairs: a present key with a foreign id, and a key
      // outside the domain.
      EXPECT_TRUE(tree.Erase(Value::Int(rng.Uniform(0, domain)), next_rid + 7)
                      .IsNotFound());
      EXPECT_TRUE(tree.Erase(Value::Int(domain + 5), 0).IsNotFound());
    }
    ASSERT_TRUE(tree.Validate().ok())
        << "step " << step << ": " << tree.Validate().ToString();
    if (step % 100 == 0) CheckAgainstOracle(tree, entries, domain);
  }
  CheckAgainstOracle(tree, entries, domain);

  // Drain to empty in random order: the root collapses level by level.
  while (!entries.empty()) {
    const size_t i = static_cast<size_t>(rng.Uniform(0, entries.size() - 1));
    ASSERT_TRUE(tree.Erase(Value::Int(entries[i].key), entries[i].rid).ok());
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.Range(Value::Null(TypeId::kInt64), true,
                         Value::Null(TypeId::kInt64), true)
                  .empty());
  // The emptied tree is usable again.
  ASSERT_TRUE(tree.Insert(Value::Int(1), 0).ok());
  EXPECT_EQ(tree.Lookup(Value::Int(1)), std::vector<size_t>{0});
}

TEST_P(BtreeEraseProperty, SuffixRenumberingKeepsInsertionOrder) {
  // Heap compaction's pattern: drop the entries of every row id at or
  // past a cut, then re-insert the survivors under ids starting at the
  // cut. Duplicates must stay in ascending id order.
  const int fanout = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()) + 100);
  BPlusTree tree(fanout);
  std::vector<Entry> entries;  // entries[i].rid == i
  const int64_t domain = 20;
  for (size_t i = 0; i < 600; ++i) {
    const int64_t key = rng.Uniform(0, domain);
    ASSERT_TRUE(tree.Insert(Value::Int(key), i).ok());
    entries.push_back({key, i});
  }
  for (int round = 0; round < 40; ++round) {
    const size_t cut =
        static_cast<size_t>(rng.Uniform(0, entries.size() - 1));
    std::vector<int64_t> survivors;
    for (size_t i = cut; i < entries.size(); ++i) {
      ASSERT_TRUE(tree.Erase(Value::Int(entries[i].key), i).ok());
      if (!rng.Bernoulli(0.2)) survivors.push_back(entries[i].key);
    }
    entries.resize(cut);
    ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    // New rows arrive after the survivors, as appends would.
    for (int i = 0; i < 10; ++i) survivors.push_back(rng.Uniform(0, domain));
    for (int64_t key : survivors) {
      ASSERT_TRUE(tree.Insert(Value::Int(key), entries.size()).ok());
      entries.push_back({key, entries.size()});
    }
    CheckAgainstOracle(tree, entries, domain);
  }
}

TEST(BtreeDuplicateInsert, SplitSiblingLandsNextToItsNode) {
  // A split whose separator equals the separator to the node's right
  // (a duplicate run spanning both) must still put the new sibling
  // right after the node. Placing it by separator value put it one
  // slot too far right, out of its bounds, at fanout 5 within a few
  // hundred inserts for several of these seeds.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    BPlusTree tree(5);
    const int64_t domain = rng.Uniform(2, 30);
    for (size_t i = 0; i < 400; ++i) {
      ASSERT_TRUE(tree.Insert(Value::Int(rng.Uniform(0, domain)), i).ok());
      ASSERT_TRUE(tree.Validate().ok())
          << "seed " << seed << " insert " << i << ": "
          << tree.Validate().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSeeds, BtreeEraseProperty,
    ::testing::Combine(::testing::Values(4, 5, 8, 64),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace gisql
