/// Seeded chaos for the cursor streaming path: streamable and spooled
/// cursors drain the retail corpus under deterministic fault schedules
/// with mediator retry enabled. A drained cursor must return row-for-row
/// the fault-free oracle's answer with a gapless, duplicate-free chunk
/// sequence — the at-least-once transport plus the source's one-chunk
/// re-serve window may never skip or repeat rows. Residual transport
/// errors leave the cursor open so the client can re-fetch; anything
/// else finalizes it. After every outcome the mediator holds zero grant
/// bytes and the sources hold zero staged cursors, and the same seed
/// replays the identical gis.cursors / gis.queries picture.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/global_system.h"
#include "net/retry.h"
#include "workload/generator.h"

namespace gisql {
namespace {

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.seed = 7;
  spec.num_sites = 3;
  spec.num_customers = 60;
  spec.num_products = 25;
  spec.orders_per_site = 120;
  return spec;
}

/// Streamable shapes first (chunked straight off the source cursors),
/// then blocking shapes that drain through the mediator-side spool.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> queries = {
      "SELECT sid, cid, amount FROM sales WHERE amount > 100",
      "SELECT cid, name FROM customers WHERE cid < 30",
      "SELECT sid, pid, qty FROM sales WHERE qty > 5 LIMIT 40",
      "SELECT region, SUM(amount) FROM sales JOIN customers "
      "ON sales.cid = customers.cid GROUP BY region ORDER BY region",
  };
  return queries;
}

/// Serial execution keeps the per-link message sequence — the fault
/// schedule's randomness domain — independent of thread scheduling.
PlannerOptions SerialOptions() {
  PlannerOptions options;
  options.parallel_execution = false;
  return options;
}

std::string Rows(const RowBatch& batch) { return batch.ToString(1 << 20); }

/// Drains cursor `id`, re-fetching through residual transport errors
/// (the cursor stays open across those, and the source re-serves the
/// same chunk). Returns true with the concatenated rows on a full
/// drain; false when retries ran dry or the cursor was finalized by a
/// non-transport error.
bool DrainWithRetry(GlobalSystem* gis, uint64_t id, RowBatch* out,
                    Status* final_error) {
  uint64_t expect_seq = 0;
  int residual_retries = 0;
  while (true) {
    auto chunk = gis->FetchChunk(id);
    if (!chunk.ok()) {
      if (IsRetryableTransport(chunk.status()) && residual_retries < 25) {
        ++residual_retries;
        continue;  // cursor is still open; re-fetch the same chunk
      }
      *final_error = chunk.status();
      return false;
    }
    // The mediator-visible chunk sequence must be gapless and
    // duplicate-free no matter what the transport did underneath.
    EXPECT_EQ(chunk->seq, expect_seq);
    ++expect_seq;
    if (expect_seq == 1) *out = RowBatch(chunk->batch.schema());
    for (const auto& row : chunk->batch.rows()) out->Append(row);
    if (chunk->done) return true;
  }
}

/// Grants and source staging must be empty once no cursor is open —
/// only the sources' resident buffer-pool frames stay charged —
/// whatever mix of drains, failures, and closes got us there.
void ExpectEverythingReleased(GlobalSystem& gis) {
  EXPECT_EQ(gis.cursors().OpenCount(), 0u);
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  for (const std::string& name :
       {std::string("hq"), std::string("catalog"), std::string("site0"),
        std::string("site1"), std::string("site2")}) {
    auto src = gis.GetSource(name);
    ASSERT_TRUE(src.ok()) << name;
    EXPECT_EQ((*src)->open_cursors(), 0u) << name;
  }
}

class CursorChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CursorChaos, DrainedCursorsMatchOracleOrFailTyped) {
  const uint64_t seed = GetParam();

  GlobalSystem oracle(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&oracle, SmallSpec()).ok());

  GlobalSystem chaotic(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&chaotic, SmallSpec()).ok());
  chaotic.set_retry_policy(RetryPolicy::Standard(6, seed));
  chaotic.network().InstallFaults(seed, FaultProfile::Chaos(0.4));

  int drained = 0;
  for (const auto& q : Corpus()) {
    auto want = oracle.Query(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << " for: " << q;

    GlobalSystem::CursorOptions copts;
    copts.chunk_rows = 16;
    auto id = chaotic.OpenCursor(q, copts);
    if (!id.ok()) {
      // Opens that lose to the schedule must fail typed, and a failed
      // open may not leave a cursor or a grant behind.
      EXPECT_TRUE(id.status().IsNetworkError() ||
                  id.status().IsSerializationError())
          << "seed " << seed << ": " << id.status().ToString()
          << " for: " << q;
      continue;
    }

    RowBatch got;
    Status err;
    if (DrainWithRetry(&chaotic, *id, &got, &err)) {
      EXPECT_EQ(Rows(got), Rows(want->batch)) << "seed " << seed << ": " << q;
      ++drained;
    } else {
      EXPECT_TRUE(err.IsNetworkError() || err.IsSerializationError())
          << "seed " << seed << ": " << err.ToString() << " for: " << q;
      EXPECT_TRUE(chaotic.CloseCursor(*id).ok());
    }
    // Close is idempotent whether the drain finalized the cursor or not.
    EXPECT_TRUE(chaotic.CloseCursor(*id).ok());
  }
  // All-transient faults plus 6 transport retries plus client re-fetches:
  // a schedule that drains nothing would be a retry or re-serve bug.
  EXPECT_GT(drained, 0) << "seed " << seed;
  ExpectEverythingReleased(chaotic);
}

TEST_P(CursorChaos, ExpiredLeaseReleasesEverythingUnderFaults) {
  const uint64_t seed = GetParam();
  GlobalSystem gis(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());
  gis.set_retry_policy(RetryPolicy::Standard(6, seed));
  gis.network().InstallFaults(seed, FaultProfile::Chaos(0.3));

  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 8;
  copts.lease_ms = 50.0;
  auto id = gis.OpenCursor("SELECT sid, cid, amount FROM sales", copts);
  if (!id.ok()) {
    // The schedule killed the open outright; nothing may be held.
    ExpectEverythingReleased(gis);
    return;
  }
  // Pull a chunk if the faults allow it — the grant is live either way.
  (void)gis.FetchChunk(*id);

  // Let the lease run out on the simulated clock; the next cursor call
  // sweeps it and the expiry must hand back grant and staging even
  // though the drain never finished.
  gis.governor().AdvanceTo(gis.governor().now_ms() + 1e6);
  auto late = gis.FetchChunk(*id);
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsNotFound()) << late.status().ToString();
  EXPECT_NE(late.status().message().find("expired"), std::string::npos)
      << late.status().ToString();
  ExpectEverythingReleased(gis);
}

TEST_P(CursorChaos, SameSeedReplaysCursorsAndQueriesIdentically) {
  const uint64_t seed = GetParam();
  std::string pictures[2];
  for (int run = 0; run < 2; ++run) {
    GlobalSystem gis(SerialOptions());
    ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());
    gis.set_retry_policy(RetryPolicy::Standard(6, seed));
    gis.network().InstallFaults(seed, FaultProfile::Chaos(0.4));

    for (const auto& q : Corpus()) {
      GlobalSystem::CursorOptions copts;
      copts.chunk_rows = 16;
      auto id = gis.OpenCursor(q, copts);
      if (!id.ok()) continue;
      RowBatch got;
      Status err;
      (void)DrainWithRetry(&gis, *id, &got, &err);
      (void)gis.CloseCursor(*id);
    }

    // The whole observable picture — cursor lifecycle table, query log,
    // and transport accounting — must be a pure function of the seed.
    auto cursors = gis.Query("SELECT * FROM gis.cursors");
    ASSERT_TRUE(cursors.ok()) << cursors.status().ToString();
    std::string picture = Rows(cursors->batch);
    auto log = gis.Query(
        "SELECT sql, shed_reason, rows, retries FROM gis.queries");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    picture += "\n" + Rows(log->batch);
    picture +=
        "\nretries=" +
        std::to_string(gis.network().metrics().Get("net.retries")) +
        " drops=" +
        std::to_string(gis.network().metrics().Get("net.faults.drop")) +
        " chunks=" + std::to_string(gis.metrics().Get("cursor.chunks"));
    pictures[run] = std::move(picture);
  }
  EXPECT_EQ(pictures[0], pictures[1]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorChaos,
                         ::testing::Range<uint64_t>(9100, 9112));

}  // namespace
}  // namespace gisql
