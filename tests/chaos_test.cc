/// Seeded chaos & differential testing: the retail-federation corpus
/// runs under dozens of deterministic fault schedules with mediator
/// retry enabled. Every query must either return row-for-row the
/// fault-free oracle's answer (the faults were recoverable) or fail
/// with a typed transport error — never a wrong answer, never a crash,
/// and identically on every replay of the same seed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/global_system.h"
#include "workload/generator.h"

namespace gisql {
namespace {

/// Small federation so 50 schedules stay fast; data is identical for
/// every system built from the same spec.
WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.seed = 7;
  spec.num_sites = 3;
  spec.num_customers = 60;
  spec.num_products = 25;
  spec.orders_per_site = 120;
  return spec;
}

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> queries = {
      "SELECT COUNT(*), SUM(amount) FROM sales",
      "SELECT region, SUM(amount) FROM sales JOIN customers "
      "ON sales.cid = customers.cid GROUP BY region ORDER BY region",
      "SELECT pname, SUM(qty) FROM sales JOIN products "
      "ON sales.pid = products.pid GROUP BY pname "
      "ORDER BY SUM(qty) DESC, pname LIMIT 5",
      "SELECT cid, name FROM customers WHERE cid < 10 ORDER BY cid",
      "SELECT day, COUNT(*) FROM sales WHERE qty > 2 GROUP BY day "
      "ORDER BY day",
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

std::string Rows(const QueryResult& r) {
  return r.batch.ToString(1 << 20);
}

class ChaosDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosDifferential, MatchesOracleOrFailsTyped) {
  const uint64_t seed = GetParam();

  GlobalSystem oracle(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&oracle, SmallSpec()).ok());

  GlobalSystem chaotic(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&chaotic, SmallSpec()).ok());
  chaotic.set_retry_policy(RetryPolicy::Standard(6, seed));
  chaotic.network().InstallFaults(seed, FaultProfile::Chaos(0.5));

  int recovered = 0;
  for (const auto& q : Corpus()) {
    auto want = oracle.Query(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << " for: " << q;

    auto got = chaotic.Query(q);
    if (got.ok()) {
      EXPECT_EQ(Rows(*got), Rows(*want)) << "seed " << seed << ": " << q;
      ++recovered;
    } else {
      // Retry exhaustion must surface as a typed transport error, never
      // a wrong answer or an untyped Internal.
      EXPECT_TRUE(got.status().IsNetworkError() ||
                  got.status().IsSerializationError())
          << "seed " << seed << ": " << got.status().ToString()
          << " for: " << q;
    }
  }
  // The profile is all-transient faults and the policy retries 6 times,
  // so a schedule that kills the whole corpus would be a retry bug.
  EXPECT_GT(recovered, 0) << "seed " << seed;
}

TEST_P(ChaosDifferential, SameSeedReplaysIdentically) {
  const uint64_t seed = GetParam();
  std::vector<std::string> transcripts[2];
  for (int run = 0; run < 2; ++run) {
    GlobalSystem gis(SerialOptions());
    ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());
    gis.set_retry_policy(RetryPolicy::Standard(6, seed));
    gis.network().InstallFaults(seed, FaultProfile::Chaos(0.5));
    for (const auto& q : Corpus()) {
      auto r = gis.Query(q);
      if (r.ok()) {
        transcripts[run].push_back(
            "ok " + std::to_string(r->metrics.elapsed_ms) + " " +
            std::to_string(r->metrics.messages) + "\n" + Rows(*r));
      } else {
        transcripts[run].push_back("err " + r.status().ToString());
      }
    }
    // The replay must agree on accounting too, not just rows.
    transcripts[run].push_back(
        "retries=" +
        std::to_string(gis.network().metrics().Get("net.retries")) +
        " drops=" +
        std::to_string(gis.network().metrics().Get("net.faults.drop")));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]) << "seed " << seed;
}

// 50 schedules: seeds 9000..9049 (both tests share the range, so the
// differential and replay properties are checked for every schedule).
INSTANTIATE_TEST_SUITE_P(ChaosSchedules, ChaosDifferential,
                         ::testing::Range<uint64_t>(9000, 9050));

/// Fault-free differential over the executor's A/B switches: serial vs
/// pool of 1 vs pool of N must agree on rows AND on the simulated-time
/// accounting (parallelism is wall-clock only), and turning the
/// columnar wire + vectorized kernels off must agree on rows (bytes on
/// the wire legitimately differ between encodings).
TEST(PoolDifferential, PoolConfigsMatchSerialExactly) {
  struct Config {
    const char* name;
    bool parallel;
    int threads;
  };
  const Config configs[] = {
      {"serial", false, 0},
      {"pool1", true, 1},
      {"pool4", true, 4},
  };
  std::vector<std::vector<std::string>> transcripts;
  for (const auto& config : configs) {
    PlannerOptions options;
    options.parallel_execution = config.parallel;
    options.worker_threads = config.threads;
    GlobalSystem gis(options);
    ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());
    std::vector<std::string> transcript;
    for (const auto& q : Corpus()) {
      auto r = gis.Query(q);
      ASSERT_TRUE(r.ok()) << config.name << ": " << r.status().ToString();
      transcript.push_back(std::to_string(r->metrics.elapsed_ms) + " " +
                           std::to_string(r->metrics.bytes_sent) + " " +
                           std::to_string(r->metrics.bytes_received) + " " +
                           std::to_string(r->metrics.messages) + "\n" +
                           Rows(*r));
    }
    transcripts.push_back(std::move(transcript));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]) << "serial vs pool1";
  EXPECT_EQ(transcripts[0], transcripts[2]) << "serial vs pool4";
}

/// The chaos differential with the pool on: thread scheduling may
/// reorder messages between links, so replay identity is a serial-only
/// property — but no schedule may ever produce a wrong answer or an
/// untyped error, pooled or not.
class ChaosPoolDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosPoolDifferential, PooledChaosMatchesOracleOrFailsTyped) {
  const uint64_t seed = GetParam();

  GlobalSystem oracle(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&oracle, SmallSpec()).ok());

  PlannerOptions pooled;
  pooled.worker_threads = 4;
  GlobalSystem chaotic(pooled);
  ASSERT_TRUE(BuildRetailFederation(&chaotic, SmallSpec()).ok());
  chaotic.set_retry_policy(RetryPolicy::Standard(6, seed));
  chaotic.network().InstallFaults(seed, FaultProfile::Chaos(0.5));

  for (const auto& q : Corpus()) {
    auto want = oracle.Query(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << " for: " << q;
    auto got = chaotic.Query(q);
    if (got.ok()) {
      EXPECT_EQ(Rows(*got), Rows(*want)) << "seed " << seed << ": " << q;
    } else {
      EXPECT_TRUE(got.status().IsNetworkError() ||
                  got.status().IsSerializationError())
          << "seed " << seed << ": " << got.status().ToString()
          << " for: " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChaosSchedules, ChaosPoolDifferential,
                         ::testing::Range<uint64_t>(9100, 9110));

TEST(ChaosPermanentFailure, DeadSourceIsNamedAndTyped) {
  GlobalSystem gis(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());
  gis.set_retry_policy(RetryPolicy::Standard(4, 1));
  gis.network().InstallFaults(11, FaultProfile{});  // targeted only
  // Permanently partition site1: every message to it is swallowed.
  gis.network().faults()->InjectOn("site1", /*opcode=*/-1,
                                   FaultKind::kOutage, 1 << 30);

  // The "sales" union view reads every site; site1 is unrecoverable.
  auto result = gis.Query("SELECT COUNT(*) FROM sales");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNetworkError())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("site1"), std::string::npos)
      << result.status().ToString();

  // Queries that never touch site1 still work.
  auto ok = gis.Query("SELECT COUNT(*) FROM customers");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ChaosPermanentFailure, TransientOutageRecoversWithRetry) {
  GlobalSystem gis(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&gis, SmallSpec()).ok());

  GlobalSystem oracle(SerialOptions());
  ASSERT_TRUE(BuildRetailFederation(&oracle, SmallSpec()).ok());

  gis.set_retry_policy(RetryPolicy::Standard(5, 2));
  FaultProfile profile;
  profile.outage_messages = 2;
  gis.network().InstallFaults(12, profile);
  // One transient outage at hq: the first attempt and the next two
  // messages on the link die; retry #4 gets through.
  gis.network().faults()->InjectOn("hq", /*opcode=*/-1, FaultKind::kOutage,
                                   1);

  const std::string q = "SELECT COUNT(*) FROM customers";
  auto got = gis.Query(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = oracle.Query(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(Rows(*got), Rows(*want));
  // The recovery was paid for in simulated time: strictly slower than
  // the clean run.
  EXPECT_GT(got->metrics.elapsed_ms, want->metrics.elapsed_ms);
  EXPECT_GT(gis.network().metrics().Get("net.retries"), 0);
}

}  // namespace
}  // namespace gisql
