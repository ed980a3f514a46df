/// 2PC fault matrix (chaos): crash/drop each participant at every
/// protocol step — prepare and commit, transiently and permanently —
/// and verify the invariants: transient faults are absorbed by retry
/// with rows applied exactly once; a permanently dead participant at
/// prepare aborts everything (abort stays idempotent); a permanently
/// dead participant at commit surfaces the in-doubt state by name with
/// no partial commit hidden. Every scenario is a seeded, targeted
/// injection, so the matrix replays identically.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/global_system.h"
#include "wire/protocol.h"

namespace gisql {
namespace {

/// Which protocol step the fault hits and whether retry can outlast it.
struct FaultCase {
  const char* name;
  wire::Opcode step;
  FaultKind kind;
  int count;        ///< injection count; large = permanent
  int participant;  ///< index into the ledgers
};

// Without this, gtest prints the case as raw bytes, `name` pointer
// included, and ASLR would make the listed test names differ per run.
void PrintTo(const FaultCase& fc, std::ostream* os) {
  *os << fc.name << "@" << fc.participant;
}

constexpr int kPermanent = 1 << 30;

std::vector<FaultCase> Matrix() {
  std::vector<FaultCase> cases;
  for (int p = 0; p < 3; ++p) {
    cases.push_back({"prepare_drop", wire::Opcode::kTxnPrepare,
                     FaultKind::kDrop, 1, p});
    cases.push_back({"prepare_crash", wire::Opcode::kTxnPrepare,
                     FaultKind::kCrash, 1, p});
    cases.push_back({"prepare_dup", wire::Opcode::kTxnPrepare,
                     FaultKind::kDuplicate, 1, p});
    cases.push_back({"prepare_dead", wire::Opcode::kTxnPrepare,
                     FaultKind::kOutage, kPermanent, p});
    cases.push_back({"commit_drop", wire::Opcode::kTxnCommit,
                     FaultKind::kDrop, 1, p});
    cases.push_back({"commit_crash", wire::Opcode::kTxnCommit,
                     FaultKind::kCrash, 1, p});
    cases.push_back({"commit_dup", wire::Opcode::kTxnCommit,
                     FaultKind::kDuplicate, 1, p});
    cases.push_back({"commit_dead", wire::Opcode::kTxnCommit,
                     FaultKind::kOutage, kPermanent, p});
  }
  return cases;
}

class TwoPcFaultMatrix : public ::testing::TestWithParam<FaultCase> {
 protected:
  void SetUp() override {
    for (const char* name : kLedgers) {
      ASSERT_TRUE(gis_.CreateSource(name, SourceDialect::kRelational).ok());
      ASSERT_TRUE(gis_.ExecuteAt(name,
                                 "CREATE TABLE entries (id bigint, "
                                 "amount double)")
                      .ok());
    }
    ASSERT_TRUE(gis_.ImportTable("ledger_a", "entries", "entries_a").ok());
    ASSERT_TRUE(gis_.ImportTable("ledger_b", "entries", "entries_b").ok());
    ASSERT_TRUE(gis_.ImportTable("ledger_c", "entries", "entries_c").ok());
    // Retry deep enough to outlast a crash's restart window (the crash
    // plus outage_messages follow-on losses) but finite, so permanent
    // injections exhaust deterministically.
    gis_.set_retry_policy(RetryPolicy::Standard(6, 3));
    gis_.network().InstallFaults(3, FaultProfile{});  // targeted only
  }

  static constexpr const char* kLedgers[3] = {"ledger_a", "ledger_b",
                                              "ledger_c"};
  GlobalSystem gis_;
};

TEST_P(TwoPcFaultMatrix, InvariantsHold) {
  const FaultCase& fc = GetParam();
  const std::string victim = kLedgers[fc.participant];
  gis_.network().faults()->InjectOn(victim,
                                    static_cast<int>(fc.step), fc.kind,
                                    fc.count);

  Status st = gis_.ExecuteAtomically({
      {"ledger_a", "INSERT INTO entries VALUES (1, -100.0)"},
      {"ledger_b", "INSERT INTO entries VALUES (1, 60.0)"},
      {"ledger_c", "INSERT INTO entries VALUES (1, 40.0)"},
  });

  const bool permanent = fc.count == kPermanent;
  if (!permanent) {
    // Transient faults are the retry policy's job: the transaction
    // commits, and idempotent participants applied each row once.
    ASSERT_TRUE(st.ok()) << fc.name << " at " << victim << ": "
                         << st.ToString();
    for (const char* l : kLedgers) {
      // Count directly at the source: CountAt would route through the
      // (possibly still fault-windowed) network.
      auto table = *(*gis_.GetSource(l))->engine().GetTable("entries");
      EXPECT_EQ(table->num_rows(), 1u) << fc.name << " at " << victim;
      EXPECT_EQ((*gis_.GetSource(l))->pending_txns(), 0u) << l;
    }
    return;
  }

  ASSERT_FALSE(st.ok()) << fc.name << " at " << victim;
  EXPECT_NE(st.message().find(victim), std::string::npos)
      << fc.name << ": " << st.ToString();

  if (fc.step == wire::Opcode::kTxnPrepare) {
    // Atomic abort: no participant applied anything; abort of the dead
    // participant could not be delivered, but it had staged nothing.
    EXPECT_TRUE(st.IsNetworkError()) << st.ToString();
    for (const char* l : kLedgers) {
      auto table = *(*gis_.GetSource(l))->engine().GetTable("entries");
      EXPECT_EQ(table->num_rows(), 0u) << fc.name << " at " << victim;
      EXPECT_EQ((*gis_.GetSource(l))->pending_txns(), 0u) << l;
    }
  } else {
    // Classic in-doubt: reached participants committed, the dead one
    // still holds its staged rows, and the error says so.
    EXPECT_TRUE(st.IsInternal()) << st.ToString();
    EXPECT_NE(st.message().find("in doubt"), std::string::npos)
        << st.ToString();
    for (const char* l : kLedgers) {
      auto table = *(*gis_.GetSource(l))->engine().GetTable("entries");
      if (l == victim) {
        EXPECT_EQ(table->num_rows(), 0u) << l;
        EXPECT_EQ((*gis_.GetSource(l))->pending_txns(), 1u) << l;
      } else {
        EXPECT_EQ(table->num_rows(), 1u) << l;
        EXPECT_EQ((*gis_.GetSource(l))->pending_txns(), 0u) << l;
      }
    }
    // Resolution: once the partition heals, re-driving the commit at
    // the participant applies the staged rows exactly once.
    auto src = *gis_.GetSource(victim);
    const auto staged = src->staged_txn_ids();
    ASSERT_EQ(staged.size(), 1u);
    EXPECT_TRUE(src->CommitTxn(staged[0]).ok());
    EXPECT_TRUE(src->CommitTxn(staged[0]).ok());  // idempotent redelivery
    auto table = *src->engine().GetTable("entries");
    EXPECT_EQ(table->num_rows(), 1u) << victim;
    EXPECT_EQ(src->pending_txns(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TwoPcFaultMatrix, ::testing::ValuesIn(Matrix()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.name).append("_at_") +
             std::to_string(info.param.participant);
    });

// ---------------------------------------------------------------------------
// Seeded concurrent-writer chaos over the interactive transaction API:
// lost-update prevention under write-write conflict, deterministic
// deadlock victims, and same-seed replay identity of gis.transactions.
// ---------------------------------------------------------------------------

void BuildBanks(GlobalSystem* gis) {
  for (const char* name : {"bank_a", "bank_b"}) {
    ASSERT_TRUE(gis->CreateSource(name, SourceDialect::kRelational).ok());
    ASSERT_TRUE(gis->ExecuteAt(name,
                               "CREATE TABLE entries (id bigint, "
                               "amount double)")
                    .ok());
    ASSERT_TRUE(
        gis->ExecuteAt(name, "INSERT INTO entries VALUES (1, 0.0)").ok());
  }
  ASSERT_TRUE(gis->ImportTable("bank_a", "entries", "entries_a").ok());
  ASSERT_TRUE(gis->ImportTable("bank_b", "entries", "entries_b").ok());
}

/// Serializes the full gis.transactions table (every column, every
/// row) for byte-identity comparisons across replays.
std::string DumpTransactions(GlobalSystem& gis) {
  auto r = gis.Query("SELECT * FROM gis.transactions");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "<error>";
  std::ostringstream oss;
  for (const auto& row : r->batch.rows()) {
    for (const auto& v : row) oss << v.ToString() << "|";
    oss << "\n";
  }
  return oss.str();
}

/// One seeded round of two transactions racing a read-modify-write
/// increment of the same logical row. Returns 1 when a transaction
/// committed an increment (the loser must have been refused or
/// aborted — never silently overwritten).
int RaceIncrementRound(GlobalSystem& gis, Rng& rng) {
  auto t1 = gis.BeginTransaction();
  auto t2 = gis.BeginTransaction();
  EXPECT_TRUE(t1.ok() && t2.ok());
  // Both read the balance at their (identical) snapshot.
  double bal = 0.0;
  {
    auto r = gis.QueryInTxn(*t1, "SELECT amount FROM entries_a "
                                 "WHERE id = 1");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    bal = r->batch.rows()[0][0].AsDouble();
    auto r2 = gis.QueryInTxn(*t2, "SELECT amount FROM entries_a "
                                  "WHERE id = 1");
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(r2->batch.rows()[0][0].AsDouble(), bal);
  }
  const std::string rewrite =
      "INSERT INTO entries VALUES (1, " + std::to_string(bal + 1.0) + ")";
  // Seeded interleaving: which transaction reaches the row first.
  const uint64_t first = rng.Bernoulli(0.5) ? *t1 : *t2;
  const uint64_t second = first == *t1 ? *t2 : *t1;
  int committed = 0;
  auto attempt = [&](uint64_t txn) {
    Status st = gis.TxnWrite(txn, "bank_a",
                             "DELETE FROM entries WHERE id = 1");
    if (st.ok()) st = gis.TxnWrite(txn, "bank_a", rewrite);
    if (st.ok()) st = gis.CommitTransaction(txn);
    if (st.ok()) {
      ++committed;
      return;
    }
    // The loser lost loudly: lock conflict (still active — abort it)
    // or first-committer-wins (already aborted). Never a quiet commit
    // of a stale write.
    EXPECT_TRUE(st.IsOverloaded() || st.IsExecutionError())
        << st.ToString();
    (void)gis.AbortTransaction(txn);
  };
  attempt(first);
  attempt(second);
  return committed;
}

class TxnRaceSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxnRaceSeeds, LostUpdatesArePrevented) {
  GlobalSystem gis;
  BuildBanks(&gis);
  Rng rng(GetParam());
  int committed = 0;
  for (int round = 0; round < 8; ++round) {
    committed += RaceIncrementRound(gis, rng);
  }
  // Every committed increment is in the balance. A lost update would
  // leave the balance short of the commit count; a dirty write would
  // push it past.
  auto r = gis.Query("SELECT amount FROM entries_a WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->batch.rows()[0][0].AsDouble(),
                   static_cast<double>(committed));
  EXPECT_GE(committed, 1);
  // No transaction leaked staging or locks past its round.
  for (const char* b : {"bank_a", "bank_b"}) {
    EXPECT_EQ((*gis.GetSource(b))->pending_txns(), 0u) << b;
    EXPECT_EQ((*gis.GetSource(b))->locks().LockedResources(), 0u) << b;
  }
}

/// One seeded deadlock round: t1 and t2 lock one row each on opposite
/// banks, then cross. Whichever side reports the closing conflict, the
/// victim must be the younger transaction (t2). Appends a replay log
/// line describing the outcome.
void DeadlockRound(GlobalSystem& gis, Rng& rng, int round,
                   std::ostringstream* log) {
  auto t1 = gis.BeginTransaction();
  auto t2 = gis.BeginTransaction();
  ASSERT_TRUE(t1.ok() && t2.ok());
  const std::string key_a =
      "INSERT INTO entries VALUES (" + std::to_string(1000 + round) + ", 1.0)";
  const std::string key_b =
      "INSERT INTO entries VALUES (" + std::to_string(2000 + round) + ", 1.0)";
  ASSERT_TRUE(gis.TxnWrite(*t1, "bank_a", key_a).ok());
  ASSERT_TRUE(gis.TxnWrite(*t2, "bank_b", key_b).ok());
  // Seeded crossing order; the second crossing closes the cycle.
  const bool t1_crosses_first = rng.Bernoulli(0.5);
  Status first = t1_crosses_first ? gis.TxnWrite(*t1, "bank_b", key_b)
                                  : gis.TxnWrite(*t2, "bank_a", key_a);
  EXPECT_TRUE(first.IsOverloaded()) << first.ToString();
  Status second = t1_crosses_first ? gis.TxnWrite(*t2, "bank_a", key_a)
                                   : gis.TxnWrite(*t1, "bank_b", key_b);
  // The victim is always the youngest on the cycle — t2 — regardless
  // of which side's request detected it. When t1 detected, t2 was
  // aborted for it and t1's retry went through.
  if (t1_crosses_first) {
    EXPECT_TRUE(second.IsExecutionError()) << second.ToString();
    EXPECT_NE(second.message().find("deadlock"), std::string::npos);
  } else {
    EXPECT_TRUE(second.ok()) << second.ToString();
  }
  EXPECT_FALSE(gis.QueryInTxn(*t2, "SELECT id FROM entries_a").ok());
  EXPECT_TRUE(gis.CommitTransaction(*t1).ok());
  *log << "round " << round << ": cross=" << (t1_crosses_first ? 1 : 2)
       << " first=" << first.ToString() << " second=" << second.ToString()
       << " victim=" << *t2 << "\n";
}

TEST_P(TxnRaceSeeds, DeadlockVictimsAreDeterministicAcrossReplays) {
  std::string logs[2];
  for (int replay = 0; replay < 2; ++replay) {
    GlobalSystem gis;
    BuildBanks(&gis);
    Rng rng(GetParam());
    std::ostringstream log;
    for (int round = 0; round < 6; ++round) {
      DeadlockRound(gis, rng, round, &log);
    }
    EXPECT_EQ(gis.transactions().counters().deadlocks, 6);
    logs[replay] = log.str();
  }
  // Same seed → byte-identical victim/outcome log.
  EXPECT_EQ(logs[0], logs[1]);
}

TEST_P(TxnRaceSeeds, TransactionsSnapshotIdenticalSerialVsPooled) {
  // The worker pool changes wall-clock scheduling only; simulated
  // time, transaction ids, and every gis.transactions column must be
  // byte-identical between a serial and a pooled run of the same
  // seeded workload.
  std::string dumps[2];
  for (int mode = 0; mode < 2; ++mode) {
    PlannerOptions options;
    options.parallel_execution = mode == 1;
    options.worker_threads = mode == 1 ? 4 : 0;
    GlobalSystem gis(options);
    BuildBanks(&gis);
    Rng rng(GetParam());
    std::ostringstream log;
    for (int round = 0; round < 4; ++round) {
      RaceIncrementRound(gis, rng);
      DeadlockRound(gis, rng, round, &log);
    }
    dumps[mode] = DumpTransactions(gis);
  }
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnRaceSeeds,
                         ::testing::Values(1, 17, 1989, 424242));

}  // namespace
}  // namespace gisql
