/// Robustness fuzzing (seeded, deterministic): random byte strings and
/// mutated-valid SQL through the parser, random token recombination
/// through the full mediator, and bit-flipped/truncated transport
/// frames through the checksum layer — nothing may crash; errors must
/// be typed.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/global_system.h"
#include "sql/parser.h"
#include "types/column_batch.h"
#include "wire/cursor.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {
namespace {

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  const char charset[] =
      " \t\nabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789.,*()'\"<>=!+-/%;_";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.Uniform(0, 120));
    for (int i = 0; i < len; ++i) {
      input += charset[rng.Uniform(0, sizeof(charset) - 2)];
    }
    auto result = sql::ParseStatement(input);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsParseError() ||
                  result.status().IsInvalidArgument())
          << result.status().ToString() << " for: " << input;
    }
  }
}

TEST_P(ParserFuzz, MutatedValidSqlNeverCrashes) {
  Rng rng(GetParam() + 1000);
  const std::string base =
      "SELECT a, SUM(b) FROM t JOIN u ON t.k = u.k WHERE c > 5 AND "
      "d LIKE 'x%' GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC "
      "LIMIT 10 OFFSET 2";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const int edits = static_cast<int>(rng.Uniform(1, 6));
    for (int e = 0; e < edits; ++e) {
      const size_t pos =
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(32, 126)));
          break;
        default:
          mutated[pos] = static_cast<char>(rng.Uniform(32, 126));
          break;
      }
      if (mutated.empty()) mutated = "S";
    }
    (void)sql::ParseStatement(mutated);  // must not crash
  }
}

class MediatorFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MediatorFuzz, RandomTokenQueriesFailCleanly) {
  GlobalSystem gis;
  auto src = *gis.CreateSource("s1", SourceDialect::kRelational);
  ASSERT_TRUE(src->ExecuteLocalSql(
                    "CREATE TABLE t (a bigint, b double, c varchar)")
                  .ok());
  ASSERT_TRUE(
      src->ExecuteLocalSql("INSERT INTO t VALUES (1, 2.0, 'x')").ok());
  ASSERT_TRUE(gis.ImportSource("s1").ok());

  Rng rng(GetParam());
  const char* tokens[] = {
      "SELECT", "FROM",  "WHERE", "GROUP",  "BY",    "ORDER", "LIMIT",
      "t",      "a",     "b",     "c",      "nope",  "*",     ",",
      "(",      ")",     "=",     ">",      "AND",   "OR",    "NOT",
      "COUNT",  "SUM",   "1",     "2.5",    "'s'",   "NULL",  "JOIN",
      "ON",     "AS",    "IN",    "LIKE",   "UNION", "ALL",   "DISTINCT",
      "HAVING", "CASE",  "WHEN",  "THEN",   "END",   "CAST",  "DATE",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string q = "SELECT";
    const int len = static_cast<int>(rng.Uniform(1, 18));
    for (int i = 0; i < len; ++i) {
      q += " ";
      q += tokens[rng.Uniform(0, std::size(tokens) - 1)];
    }
    auto result = gis.Query(q);
    if (!result.ok()) {
      // Whatever happened, it must be a typed front-end/planner error,
      // never Internal (and never a crash).
      EXPECT_FALSE(result.status().IsInternal())
          << result.status().ToString() << " for: " << q;
    }
  }
}

class FrameFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameFuzz, CorruptedFramesAreRejectedTyped) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> payload(
        static_cast<size_t>(rng.Uniform(0, 2048)));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Uniform(0, 255));
    }
    const std::vector<uint8_t> frame = wire::SealFrame(payload);

    // Clean round trip.
    auto clean = wire::OpenFrame(frame);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(*clean, payload);

    std::vector<uint8_t> mutated = frame;
    const int mode = static_cast<int>(rng.Uniform(0, 2));
    bool must_fail = false;
    if (mode == 0) {
      // 1–3 bit flips: below CRC-32's Hamming-distance-4 length bound
      // (~11 KB), these are *guaranteed* detectable, so the checksum
      // must reject — silently consuming a flipped frame is a bug.
      const int flips = static_cast<int>(rng.Uniform(1, 3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(mutated.size() * 8) - 1));
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      must_fail = mutated != frame;
    } else if (mode == 1) {
      // Truncation anywhere, including inside the 8-byte header.
      mutated.resize(static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(frame.size()) - 1)));
      must_fail = true;
    } else {
      // Trailing garbage (length mismatch).
      const int extra = static_cast<int>(rng.Uniform(1, 16));
      for (int e = 0; e < extra; ++e) {
        mutated.push_back(static_cast<uint8_t>(rng.Uniform(0, 255)));
      }
      must_fail = true;
    }

    auto opened = wire::OpenFrame(mutated);
    if (must_fail) {
      ASSERT_FALSE(opened.ok()) << "undetected corruption, trial " << trial;
    }
    if (!opened.ok()) {
      EXPECT_TRUE(opened.status().IsSerializationError())
          << opened.status().ToString();
    }
  }
}

class ColumnarFuzz : public ::testing::TestWithParam<uint64_t> {};

/// Mutated and random byte strings through the columnar batch decoder:
/// same contract as the row serde — bounds-checked, malformed input is
/// a typed SerializationError, never UB. (Runs under the sanitize
/// preset via the chaos label, which is where the "never UB" half is
/// actually enforced.)
TEST_P(ColumnarFuzz, MutatedColumnarBytesNeverCrash) {
  Rng rng(GetParam());

  // A valid columnar message over every column shape as the seed.
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"b", TypeId::kBool},
      {"i", TypeId::kInt64},
      {"d", TypeId::kDouble},
      {"s", TypeId::kString},
      {"t", TypeId::kDate},
      {"n", TypeId::kNull}});
  RowBatch batch(schema);
  for (int r = 0; r < 50; ++r) {
    batch.Append({rng.Bernoulli(0.2) ? Value::Null(TypeId::kBool)
                                     : Value::Bool(rng.Bernoulli(0.5)),
                  Value::Int(rng.Uniform(-5000, 5000)),
                  Value::Double(rng.NextDouble()),
                  Value::String(rng.NextString(rng.Uniform(0, 16))),
                  Value::Date(rng.Uniform(0, 30000)),
                  Value::Null(TypeId::kNull)});
  }
  const auto valid =
      wire::SerializeColumnBatch(*ColumnBatch::FromRows(batch));

  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bytes;
    const int mode = static_cast<int>(rng.Uniform(0, 2));
    if (mode == 0) {
      // Byte-level mutations of the valid message.
      bytes = valid;
      const int edits = static_cast<int>(rng.Uniform(1, 8));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<uint8_t>(rng.Uniform(0, 255));
      }
    } else if (mode == 1) {
      // Truncation.
      bytes.assign(valid.begin(),
                   valid.begin() + rng.Uniform(
                       0, static_cast<int64_t>(valid.size()) - 1));
    } else {
      // Pure noise.
      bytes.resize(static_cast<size_t>(rng.Uniform(0, 512)));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.Uniform(0, 255));
    }

    ByteReader reader(bytes);
    auto decoded = wire::ReadColumnBatch(&reader);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsSerializationError())
          << decoded.status().ToString() << " trial " << trial;
    } else {
      // Whatever decoded must also materialize without faulting.
      (void)decoded->ToRows();
    }
  }
}

class CursorFuzz : public ::testing::TestWithParam<uint64_t> {};

/// Mutated, truncated, and random byte strings through every cursor
/// payload decoder (open / fetch / close requests and chunk frames):
/// same contract as the rest of the wire layer — bounds-checked, typed
/// SerializationError on malformed input, never UB, and whatever does
/// decode must materialize without faulting.
TEST_P(CursorFuzz, MutatedCursorFramesNeverCrash) {
  Rng rng(GetParam());

  // Valid seeds for the mutators: one of each payload kind.
  std::vector<std::vector<uint8_t>> valid;
  {
    wire::OpenCursorRequest open;
    open.token = 0x9e3779b97f4a7c15ull;
    open.chunk_rows = 512;
    open.fragment.table = "orders";
    open.fragment.limit = 99;
    ByteWriter w;
    wire::WriteOpenCursorRequest(&w, open);
    valid.push_back(w.data());
  }
  {
    wire::FetchChunkRequest fetch;
    fetch.cursor_id = 7;
    fetch.seq = 12345;
    ByteWriter w;
    wire::WriteFetchChunkRequest(&w, fetch);
    valid.push_back(w.data());
  }
  {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"k", TypeId::kInt64}, {"s", TypeId::kString}});
    RowBatch rows(schema);
    for (int r = 0; r < 30; ++r) {
      rows.Append({Value::Int(rng.Uniform(-100, 100)),
                   Value::String(rng.NextString(rng.Uniform(0, 12)))});
    }
    ByteWriter w;
    wire::WriteCursorChunk(&w, /*cursor_id=*/3, /*seq=*/2, /*done=*/false,
                           rows);
    valid.push_back(w.data());
  }

  for (int trial = 0; trial < 400; ++trial) {
    const auto& base = valid[trial % valid.size()];
    std::vector<uint8_t> bytes;
    const int mode = static_cast<int>(rng.Uniform(0, 2));
    if (mode == 0) {
      bytes = base;
      const int edits = static_cast<int>(rng.Uniform(1, 8));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<uint8_t>(rng.Uniform(0, 255));
      }
    } else if (mode == 1) {
      bytes.assign(base.begin(),
                   base.begin() + rng.Uniform(
                       0, static_cast<int64_t>(base.size()) - 1));
    } else {
      bytes.resize(static_cast<size_t>(rng.Uniform(0, 256)));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.Uniform(0, 255));
    }

    // Every decoder sees every mutation; each must fail typed or
    // produce a value that is safe to use.
    {
      ByteReader r(bytes);
      auto open = wire::ReadOpenCursorRequest(&r);
      if (!open.ok()) {
        EXPECT_TRUE(open.status().IsSerializationError())
            << open.status().ToString() << " trial " << trial;
      } else {
        // The decoder enforces the chunk-row bounds, not just syntax.
        EXPECT_GE(open->chunk_rows, 1);
        EXPECT_LE(open->chunk_rows, wire::kMaxCursorChunkRows);
      }
    }
    {
      ByteReader r(bytes);
      auto fetch = wire::ReadFetchChunkRequest(&r);
      if (!fetch.ok()) {
        EXPECT_TRUE(fetch.status().IsSerializationError())
            << fetch.status().ToString() << " trial " << trial;
      }
    }
    {
      ByteReader r(bytes);
      auto close = wire::ReadCloseCursorRequest(&r);
      if (!close.ok()) {
        EXPECT_TRUE(close.status().IsSerializationError())
            << close.status().ToString() << " trial " << trial;
      }
    }
    {
      ByteReader r(bytes);
      auto chunk = wire::ReadCursorChunk(&r);
      if (!chunk.ok()) {
        EXPECT_TRUE(chunk.status().IsSerializationError())
            << chunk.status().ToString() << " trial " << trial;
      } else {
        (void)chunk->batch.rows.ToString(1 << 20);
        if (chunk->batch.columnar) (void)chunk->batch.columnar->ToRows();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<uint64_t>(500, 505));
INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarFuzz,
                         ::testing::Range<uint64_t>(800, 804));
INSTANTIATE_TEST_SUITE_P(Seeds, CursorFuzz,
                         ::testing::Range<uint64_t>(900, 906));
INSTANTIATE_TEST_SUITE_P(Seeds, MediatorFuzz,
                         ::testing::Range<uint64_t>(600, 604));
INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz,
                         ::testing::Range<uint64_t>(700, 706));

}  // namespace
}  // namespace gisql
