/// Buffer pool manager tests: hit/miss/eviction accounting, dirty-page
/// writeback, pin refusal, memory-budget growth limits, and same-seed
/// determinism of the simulated I/O counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/memory_budget.h"
#include "storage/buffer_pool.h"

namespace gisql {
namespace {

StorageConfig SmallConfig(size_t frames, size_t k = 2) {
  StorageConfig config;
  config.page_size = 64;
  config.pool_frames = frames;
  config.lruk_k = k;
  config.disk_read_us = 100.0;
  config.disk_write_us = 50.0;
  return config;
}

TEST(BufferPoolTest, NewFetchUnpinAccounting) {
  BufferPoolManager pool(SmallConfig(4));
  std::vector<uint8_t>* data = nullptr;
  auto page_or = pool.NewPage(&data);
  ASSERT_TRUE(page_or.ok());
  data->assign({1, 2, 3});
  pool.UnpinPage(*page_or, /*dirty=*/true);

  // Resident page: a fetch is a hit and costs no disk time.
  auto fetched = pool.FetchPage(*page_or);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((**fetched)[0], 1);
  pool.UnpinPage(*page_or, false);

  const BufferPoolStats s = pool.Snapshot();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.frames_used, 1);
  EXPECT_EQ(s.disk_reads, 0);
  EXPECT_DOUBLE_EQ(s.disk_us, 0.0);
}

TEST(BufferPoolTest, EvictionWritesBackAndReloads) {
  // Two frames, three pages: filling the third evicts, and the dirty
  // victim's bytes must survive the round trip through the disk.
  BufferPoolManager pool(SmallConfig(2));
  std::vector<uint64_t> pages;
  for (uint8_t i = 0; i < 3; ++i) {
    std::vector<uint8_t>* data = nullptr;
    auto page_or = pool.NewPage(&data);
    ASSERT_TRUE(page_or.ok());
    data->assign(4, i + 1);
    pool.UnpinPage(*page_or, /*dirty=*/true);
    pages.push_back(*page_or);
  }
  BufferPoolStats s = pool.Snapshot();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.disk_writes, 1);  // the evicted dirty page

  // Page 0 was the eviction victim; fetching it back is a miss that
  // reads from disk with its bytes intact.
  auto fetched = pool.FetchPage(pages[0]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((**fetched)[0], 1);
  pool.UnpinPage(pages[0], false);
  s = pool.Snapshot();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.disk_reads, 1);
  EXPECT_EQ(s.evictions, 2);
  // 2 evictions wrote dirty pages (50 us each), 1 read (100 us).
  EXPECT_DOUBLE_EQ(s.disk_us, 2 * 50.0 + 100.0);
}

TEST(BufferPoolTest, AllFramesPinnedRefusesLoudly) {
  BufferPoolManager pool(SmallConfig(2));
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  auto third = pool.NewPage(nullptr);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsOverloaded());
  EXPECT_NE(third.status().message().find("pinned"), std::string::npos);
}

TEST(BufferPoolTest, UnpinReleasesFrameForEviction) {
  BufferPoolManager pool(SmallConfig(2));
  auto p1 = pool.NewPage(nullptr);
  auto p2 = pool.NewPage(nullptr);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  pool.UnpinPage(*p1, true);
  // p1 is evictable, p2 still pinned: the next page lands in p1's frame.
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  const BufferPoolStats s = pool.Snapshot();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.pinned_frames, 2);
}

TEST(BufferPoolTest, GrowthChargesMemoryBudget) {
  MemoryBudget budget;
  // Global cap fits exactly two 64-byte frames.
  budget.Configure(/*query_cap_bytes=*/1 << 20, /*global_cap_bytes=*/128);
  BufferPoolManager pool(SmallConfig(8), &budget);
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  auto third = pool.NewPage(nullptr);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsOverloaded());
  // The error must tell the operator which knobs to turn.
  EXPECT_NE(third.status().message().find("global memory budget exhausted"),
            std::string::npos);
  EXPECT_NE(third.status().message().find("GISQL_BUFFER_POOL_FRAMES"),
            std::string::npos);
}

TEST(BufferPoolTest, DeletePageFreesFrameAndDisk) {
  BufferPoolManager pool(SmallConfig(4));
  auto p1 = pool.NewPage(nullptr);
  ASSERT_TRUE(p1.ok());
  pool.UnpinPage(*p1, true);
  pool.FlushAll();
  EXPECT_EQ(pool.Snapshot().pages_on_disk, 1);
  EXPECT_EQ(pool.Snapshot().pages_live, 1);
  pool.DeletePage(*p1);
  const BufferPoolStats s = pool.Snapshot();
  EXPECT_EQ(s.frames_used, 0);
  EXPECT_EQ(s.pages_on_disk, 0);
  EXPECT_EQ(s.pages_live, 0);
  // The freed frame is reused without growing the pool.
  ASSERT_TRUE(pool.NewPage(nullptr).ok());
  EXPECT_EQ(pool.Snapshot().frames_used, 1);
  EXPECT_EQ(pool.Snapshot().pages_live, 1);
}

TEST(BufferPoolTest, FetchOfUnknownPageFails) {
  BufferPoolManager pool(SmallConfig(2));
  EXPECT_FALSE(pool.FetchPage(12345).ok());
}

/// Runs a seeded NewPage/Fetch/Unpin workload and returns the final
/// counter snapshot rendered as a string.
std::string RunWorkload(uint64_t seed) {
  BufferPoolManager pool(SmallConfig(8, 2));
  Rng rng(seed);
  std::vector<uint64_t> pages;
  std::vector<uint64_t> pinned;
  for (int op = 0; op < 2000; ++op) {
    const int64_t dice = rng.Uniform(0, 9);
    if (dice < 2 || pages.empty()) {
      std::vector<uint8_t>* data = nullptr;
      auto page_or = pool.NewPage(&data);
      if (page_or.ok()) {
        data->assign(8, static_cast<uint8_t>(op & 0xff));
        pages.push_back(*page_or);
        pinned.push_back(*page_or);
      }
    } else if (dice < 8) {
      const uint64_t page = pages[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(pages.size()) - 1))];
      if (pool.FetchPage(page).ok()) pinned.push_back(page);
    }
    // Keep at most a few pins outstanding so eviction has victims.
    while (pinned.size() > 3) {
      pool.UnpinPage(pinned.front(), rng.Uniform(0, 1) == 1);
      pinned.erase(pinned.begin());
    }
  }
  const BufferPoolStats s = pool.Snapshot();
  return std::to_string(s.hits) + "/" + std::to_string(s.misses) + "/" +
         std::to_string(s.evictions) + "/" + std::to_string(s.disk_reads) +
         "/" + std::to_string(s.disk_writes) + "/" +
         std::to_string(s.disk_us);
}

TEST(BufferPoolTest, SameSeedWorkloadRepliesByteIdentically) {
  const std::string first = RunWorkload(7);
  const std::string second = RunWorkload(7);
  EXPECT_EQ(first, second);
  // And the workload actually exercised the out-of-core paths.
  EXPECT_NE(first, "0/0/0/0/0/0.000000");
}


TEST(StorageConfigEnvTest, RejectedValuesKeepDefaults) {
  // Sizes must be positive and latencies non-negative; a negative size
  // must not wrap to a huge unsigned value, and an overflowing one
  // must not saturate.
  setenv("GISQL_PAGE_SIZE", "-5", 1);
  setenv("GISQL_BUFFER_POOL_FRAMES", "0", 1);
  setenv("GISQL_LRUK_K", "99999999999999999999", 1);
  setenv("GISQL_DISK_READ_US", "-1", 1);
  setenv("GISQL_DISK_WRITE_US", "250.5", 1);
  const StorageConfig c = StorageConfig::FromEnv();
  for (const char* name : {"GISQL_PAGE_SIZE", "GISQL_BUFFER_POOL_FRAMES",
                           "GISQL_LRUK_K", "GISQL_DISK_READ_US",
                           "GISQL_DISK_WRITE_US"}) {
    unsetenv(name);
  }
  const StorageConfig d;
  EXPECT_EQ(c.page_size, d.page_size);
  EXPECT_EQ(c.pool_frames, d.pool_frames);
  EXPECT_EQ(c.lruk_k, d.lruk_k);
  EXPECT_EQ(c.disk_read_us, d.disk_read_us);
  EXPECT_EQ(c.disk_write_us, 250.5);
}

}  // namespace
}  // namespace gisql
