/// Cursor streaming tests: wire-frame round-trips over random chunk
/// shapes, decoder guards, the end-to-end cursor lifecycle against
/// GlobalSystem (streamed chunks concatenate to the materialized
/// result), the over-budget-result acceptance case (materialized
/// fails, streamed completes with peak <= budget), the shed-opens-
/// allocate-nothing regression, lease expiry, the open-cursor cap,
/// gis.cursors observability, and the GISQL_CURSOR_* env knobs.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/global_system.h"
#include "wire/cursor.h"

namespace gisql {
namespace {

// ---------------------------------------------------------------------------
// Wire frames: property round-trips and decoder guards
// ---------------------------------------------------------------------------

/// Random batch over a random schema; `type_clean` keeps every value on
/// its declared column type so the frame takes the columnar encoding,
/// otherwise one value violates it and forces the row fallback.
RowBatch RandomBatch(std::mt19937_64& rng, bool type_clean) {
  const TypeId kTypes[] = {TypeId::kInt64, TypeId::kDouble, TypeId::kString,
                           TypeId::kBool};
  const size_t width = 1 + rng() % 5;
  std::vector<Field> fields;
  for (size_t c = 0; c < width; ++c) {
    fields.push_back(
        {"c" + std::to_string(c), kTypes[rng() % 4], /*nullable=*/true});
  }
  auto schema = std::make_shared<Schema>(fields);
  RowBatch batch(schema);
  const size_t rows = rng() % 40;
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (size_t c = 0; c < width; ++c) {
      if (rng() % 8 == 0) {
        row.push_back(Value::Null(fields[c].type));
        continue;
      }
      switch (fields[c].type) {
        case TypeId::kInt64:
          row.push_back(Value::Int(static_cast<int64_t>(rng() % 100000)));
          break;
        case TypeId::kDouble:
          row.push_back(Value::Double((rng() % 1000) * 0.25));
          break;
        case TypeId::kString:
          row.push_back(Value::String("s" + std::to_string(rng() % 500)));
          break;
        default:
          row.push_back(Value::Bool(rng() % 2 == 0));
          break;
      }
    }
    batch.Append(std::move(row));
  }
  if (!type_clean && batch.num_rows() > 0) {
    // One off-type value defeats ColumnBatch::FromRows, exactly the
    // shape the row fallback exists for.
    auto rows_copy = batch.rows();
    rows_copy[rng() % rows_copy.size()][rng() % width] =
        Value::String("off-type");
    batch = RowBatch(schema, std::move(rows_copy));
  }
  return batch;
}

TEST(CursorWireTest, ChunkRoundTripsOverRandomShapes) {
  std::mt19937_64 rng(20260809);
  int columnar_frames = 0, row_frames = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const bool type_clean = iter % 2 == 0;
    const RowBatch batch = RandomBatch(rng, type_clean);
    const uint64_t cursor_id = rng();
    const uint64_t seq = rng() % 1000;
    const bool done = rng() % 2 == 0;

    ByteWriter w;
    wire::WriteCursorChunk(&w, cursor_id, seq, done, batch);
    ByteReader r(w.data());
    auto chunk = wire::ReadCursorChunk(&r);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(chunk->cursor_id, cursor_id);
    EXPECT_EQ(chunk->seq, seq);
    EXPECT_EQ(chunk->done, done);
    ASSERT_EQ(chunk->batch.rows.num_rows(), batch.num_rows());
    EXPECT_EQ(chunk->batch.rows.ToString(1 << 20), batch.ToString(1 << 20));
    if (chunk->batch.columnar != nullptr) {
      ++columnar_frames;
    } else {
      ++row_frames;
      EXPECT_FALSE(type_clean && batch.num_rows() > 0)
          << "type-clean rows must take the columnar encoding";
    }
  }
  EXPECT_GT(columnar_frames, 0);
  EXPECT_GT(row_frames, 0);
}

TEST(CursorWireTest, RequestsRoundTrip) {
  wire::OpenCursorRequest open;
  open.token = 0xfeedbeef;
  open.chunk_rows = 512;
  open.fragment.table = "orders";
  open.fragment.limit = 99;
  ByteWriter w1;
  wire::WriteOpenCursorRequest(&w1, open);
  ByteReader r1(w1.data());
  auto open2 = wire::ReadOpenCursorRequest(&r1);
  ASSERT_TRUE(open2.ok()) << open2.status().ToString();
  EXPECT_EQ(open2->token, open.token);
  EXPECT_EQ(open2->chunk_rows, open.chunk_rows);
  EXPECT_EQ(open2->fragment.table, "orders");
  EXPECT_EQ(open2->fragment.limit, 99);

  wire::FetchChunkRequest fetch{/*cursor_id=*/7, /*seq=*/3};
  ByteWriter w2;
  wire::WriteFetchChunkRequest(&w2, fetch);
  ByteReader r2(w2.data());
  auto fetch2 = wire::ReadFetchChunkRequest(&r2);
  ASSERT_TRUE(fetch2.ok());
  EXPECT_EQ(fetch2->cursor_id, 7u);
  EXPECT_EQ(fetch2->seq, 3u);

  wire::CloseCursorRequest close{/*cursor_id=*/7};
  ByteWriter w3;
  wire::WriteCloseCursorRequest(&w3, close);
  ByteReader r3(w3.data());
  auto close2 = wire::ReadCloseCursorRequest(&r3);
  ASSERT_TRUE(close2.ok());
  EXPECT_EQ(close2->cursor_id, 7u);

  wire::OpenCursorResponse resp{/*cursor_id=*/42};
  ByteWriter w4;
  wire::WriteOpenCursorResponse(&w4, resp);
  ByteReader r4(w4.data());
  auto resp2 = wire::ReadOpenCursorResponse(&r4);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->cursor_id, 42u);
}

TEST(CursorWireTest, OpenRequestRejectsHostileChunkRows) {
  for (const int64_t bad : {int64_t{0}, wire::kMaxCursorChunkRows + 1}) {
    wire::OpenCursorRequest open;
    open.chunk_rows = bad;
    open.fragment.table = "t";
    ByteWriter w;
    wire::WriteOpenCursorRequest(&w, open);
    ByteReader r(w.data());
    auto decoded = wire::ReadOpenCursorRequest(&r);
    ASSERT_FALSE(decoded.ok()) << "chunk_rows=" << bad;
    EXPECT_TRUE(decoded.status().IsSerializationError())
        << decoded.status().ToString();
  }
}

TEST(CursorWireTest, ChunkRejectsUnknownFormatByte) {
  // Documented layout: varint cursor_id, varint seq, bool done, then
  // the format byte — which only admits the two batch encodings.
  ByteWriter w;
  w.PutVarint(1);
  w.PutVarint(0);
  w.PutBool(false);
  w.PutU8(7);
  ByteReader r(w.data());
  auto chunk = wire::ReadCursorChunk(&r);
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(chunk.status().IsSerializationError())
      << chunk.status().ToString();
}

// ---------------------------------------------------------------------------
// GlobalSystem lifecycle
// ---------------------------------------------------------------------------

/// Two-source federation; `big_rows` sizes the hq table.
void Build(GlobalSystem* gis, int big_rows = 40) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE orders (oid bigint, cid bigint, "
                    "total double)")
                  .ok());
  for (int base = 0; base < big_rows; base += 200) {
    std::string insert = "INSERT INTO orders VALUES ";
    const int hi = std::min(base + 200, big_rows);
    for (int i = base; i < hi; ++i) {
      if (i > base) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 8) +
                ", " + std::to_string(i * 2.5) + ")";
    }
    ASSERT_TRUE(hq->ExecuteLocalSql(insert).ok());
  }
  auto branch = *gis->CreateSource("branch", SourceDialect::kDocument);
  ASSERT_TRUE(branch->ExecuteLocalSql(
                    "CREATE TABLE clients (cid bigint, name varchar)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(branch->ExecuteLocalSql(
                      "INSERT INTO clients VALUES (" + std::to_string(i) +
                      ", 'c" + std::to_string(i) + "')")
                    .ok());
  }
  ASSERT_TRUE(gis->ImportSource("hq").ok());
  ASSERT_TRUE(gis->ImportSource("branch").ok());
}

/// Drains a cursor, asserting the chunk-size bound and returning the
/// concatenated rows (schema taken from the first chunk).
RowBatch Drain(GlobalSystem* gis, uint64_t id, int64_t chunk_rows,
               int* chunks_out = nullptr) {
  RowBatch acc;
  bool first = true;
  const auto* entry = gis->cursors().Find(id);
  int chunks = entry != nullptr ? static_cast<int>(entry->chunks) : 0;
  while (true) {
    auto chunk = gis->FetchChunk(id);
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk.ok()) break;
    EXPECT_LE(chunk->batch.num_rows(), static_cast<size_t>(chunk_rows));
    EXPECT_EQ(chunk->seq, static_cast<uint64_t>(chunks));
    ++chunks;
    if (first) {
      acc = RowBatch(chunk->batch.schema());
      first = false;
    }
    for (const auto& row : chunk->batch.rows()) acc.Append(row);
    if (chunk->done) break;
  }
  if (chunks_out != nullptr) *chunks_out = chunks;
  return acc;
}

TEST(CursorSystemTest, StreamedChunksConcatenateToQueryResult) {
  GlobalSystem gis;
  Build(&gis, /*big_rows=*/300);
  const std::string sql =
      "SELECT oid, total FROM orders WHERE cid = 3 AND oid < 250";

  auto full = gis.Query(sql);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->batch.num_rows(), 0u);

  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 7;
  auto id = gis.OpenCursor(sql, copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NE(gis.cursors().Find(*id), nullptr);
  EXPECT_TRUE(gis.cursors().Find(*id)->streaming);

  int chunks = 0;
  const RowBatch acc = Drain(&gis, *id, copts.chunk_rows, &chunks);
  EXPECT_GT(chunks, 1) << "chunk_rows=7 over a multi-row result must "
                          "take several fetches";
  EXPECT_EQ(acc.ToString(1 << 20), full->batch.ToString(1 << 20));

  // Drained: further fetches fail by name, close stays idempotent.
  const auto* entry = gis.cursors().Find(*id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, CursorManager::State::kDrained);
  auto again = gis.FetchChunk(*id);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsNotFound()) << again.status().ToString();
  EXPECT_NE(again.status().message().find("drained"), std::string::npos);
  EXPECT_TRUE(gis.CloseCursor(*id).ok());
  EXPECT_TRUE(gis.CloseCursor(999999).ok());

  // The drained cursor released everything: nothing outstanding
  // beyond the sources' resident buffer-pool frames, no staging.
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  EXPECT_EQ((*gis.GetSource("hq"))->open_cursors(), 0u);
}

TEST(CursorSystemTest, BlockingPlanSpoolsAndChunksIdentically) {
  GlobalSystem gis;
  Build(&gis, /*big_rows=*/300);
  const std::string sql =
      "SELECT cid, SUM(total) AS t FROM orders GROUP BY cid ORDER BY cid";

  auto full = gis.Query(sql);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->batch.num_rows(), 8u);

  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 3;
  auto id = gis.OpenCursor(sql, copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NE(gis.cursors().Find(*id), nullptr);
  EXPECT_FALSE(gis.cursors().Find(*id)->streaming);
  // The spool is resident, so its grant holds the full charge while
  // the cursor is open (over and above the pool-frame residency).
  EXPECT_GT(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());

  int chunks = 0;
  const RowBatch acc = Drain(&gis, *id, copts.chunk_rows, &chunks);
  EXPECT_EQ(chunks, 3);  // ceil(8 / 3)
  EXPECT_EQ(acc.ToString(1 << 20), full->batch.ToString(1 << 20));
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
}

TEST(CursorSystemTest, OpenCursorRejectsNonSelect) {
  GlobalSystem gis;
  Build(&gis);
  auto r = gis.OpenCursor("EXPLAIN SELECT COUNT(*) FROM orders");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_EQ(gis.cursors().OpenCount(), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance case: a result the per-query budget cannot hold
// ---------------------------------------------------------------------------

TEST(CursorSystemTest, OverBudgetResultStreamsWithPeakUnderBudget) {
  PlannerOptions options;
  options.memory.query_bytes = 100 * 1000;
  const std::string sql = "SELECT oid, cid, total FROM orders";

  // Materialized: 3000 rows cost ~3000·(32+24·3) bytes — over budget.
  {
    GlobalSystem gis(options);
    Build(&gis, /*big_rows=*/3000);
    auto r = gis.Query(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  }

  // Streamed on a fresh system (so peak() reflects only this path):
  // the same query completes, never holding more than one chunk.
  GlobalSystem gis(options);
  Build(&gis, /*big_rows=*/3000);
  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 128;
  auto id = gis.OpenCursor(sql, copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const RowBatch acc = Drain(&gis, *id, copts.chunk_rows);
  EXPECT_EQ(acc.num_rows(), 3000u);
  EXPECT_GT(gis.governor().memory().peak(), 0);
  // Pools only grow, so end-of-run residency bounds the pool's share
  // of the high-water mark: the streaming path itself stayed under the
  // per-query budget.
  EXPECT_LE(gis.governor().memory().peak(),
            options.memory.query_bytes + gis.BufferPoolResidentBytes());
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
}

TEST(CursorSystemTest, ChunkOverBudgetFinalizesCursorAndReleases) {
  // A budget smaller than one chunk's estimate: the first fetch's
  // charge is denied, the cursor dies cleanly, nothing leaks.
  PlannerOptions options;
  options.memory.query_bytes = 1000;  // < 128·(32+24·3)
  GlobalSystem gis(options);
  Build(&gis, /*big_rows=*/3000);
  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 128;
  auto id = gis.OpenCursor("SELECT oid, cid, total FROM orders", copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto chunk = gis.FetchChunk(*id);
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(chunk.status().IsOverloaded()) << chunk.status().ToString();
  const auto* entry = gis.cursors().Find(*id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, CursorManager::State::kClosed);
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  EXPECT_EQ((*gis.GetSource("hq"))->open_cursors(), 0u);
  // The statement is shed, not executed: the registry counts it once,
  // like the tenant ledger does.
  EXPECT_EQ(gis.metrics().Get("query.count"), 0);
  EXPECT_EQ(gis.metrics().Get("admission.shed"), 1);
  auto log = gis.Query(
      "SELECT sql FROM gis.queries WHERE shed_reason = 'memory_budget'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->batch.num_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Shed opens allocate nothing
// ---------------------------------------------------------------------------

TEST(CursorSystemTest, ShedOpensAllocateNoCursorAndNoGrant) {
  PlannerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_limit = 4;  // normal-class watermark: 3
  options.admission.max_wait_ms = 1e9;
  GlobalSystem gis(options);
  Build(&gis, /*big_rows=*/300);

  // 8× burst of spool opens (the aggregate holds its admission slot
  // for the whole open): 1 runs + 3 queue, the rest shed at the queue.
  int admitted = 0, shed = 0;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    GlobalSystem::CursorOptions copts;
    copts.submit.arrival_ms = 0.0;
    auto id = gis.OpenCursor(
        "SELECT cid, SUM(total) AS t FROM orders GROUP BY cid "
        "ORDER BY cid LIMIT " + std::to_string(8 - i),
        copts);
    if (id.ok()) {
      ++admitted;
      ids.push_back(*id);
    } else {
      ASSERT_TRUE(id.status().IsOverloaded()) << id.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 4);

  // Exactly the admitted opens exist — a shed open allocated neither a
  // cursor entry nor a byte of budget.
  EXPECT_EQ(gis.cursors().OpenCount(), 4u);
  const int64_t held = gis.governor().memory().in_use();
  EXPECT_GT(held, gis.BufferPoolResidentBytes());  // four live spools
  for (const uint64_t id : ids) EXPECT_TRUE(gis.CloseCursor(id).ok());
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  EXPECT_EQ(gis.cursors().OpenCount(), 0u);

  // The refusals are visible: gis.queries carries one shed row each.
  auto log = gis.Query(
      "SELECT messages FROM gis.queries WHERE shed_reason = 'queue_full'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->batch.num_rows(), 4u);
  for (const auto& row : log->batch.rows()) EXPECT_EQ(row[0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Leases and the open-cursor cap
// ---------------------------------------------------------------------------

TEST(CursorSystemTest, ExpiredLeaseReleasesGrantAndSourceStaging) {
  GlobalSystem gis;
  Build(&gis, /*big_rows=*/300);
  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 16;
  copts.lease_ms = 10.0;
  auto id = gis.OpenCursor("SELECT oid FROM orders", copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto first = gis.FetchChunk(*id);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*gis.GetSource("hq"))->open_cursors(), 1u);
  EXPECT_GT(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());

  // Park the client far past the lease on the simulated clock.
  GlobalSystem::SubmitOptions late;
  late.arrival_ms = 100000.0;
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM clients", late).ok());

  // The next cursor call sweeps: the fetch finds the cursor expired,
  // its grant released, its source staging closed.
  auto r = gis.FetchChunk(*id);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("expired"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());
  EXPECT_EQ((*gis.GetSource("hq"))->open_cursors(), 0u);
  EXPECT_EQ(gis.metrics().Get("cursor.expired"), 1);

  auto snap = gis.Query("SELECT state FROM gis.cursors");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->batch.num_rows(), 1u);
  EXPECT_EQ(snap->batch.rows()[0][0].AsString(), "expired");
}

TEST(CursorSystemTest, ExpiredLeaseReleasesSnapshotPinWithGrant) {
  // Regression: lazy lease expiry must be transactional. An open
  // cursor pins its MVCC snapshot (holding the GC watermark back) in
  // addition to its memory grant and source staging; the sweep used to
  // be specified only over the latter two. Expiring a cursor must
  // release the spool grant and the version-chain pin *together* —
  // otherwise the watermark never advances and dead versions
  // accumulate for the lifetime of the process.
  GlobalSystem gis;
  Build(&gis, /*big_rows=*/300);
  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 16;
  copts.lease_ms = 10.0;
  ASSERT_EQ(gis.transactions().pinned_snapshots(), 0u);
  auto id = gis.OpenCursor("SELECT oid FROM orders", copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(gis.transactions().pinned_snapshots(), 1u);
  const uint64_t pinned = gis.transactions().Watermark();

  // Advance the timestamp domain: the pin holds the watermark still.
  gis.transactions().AllocateCommitTs();
  gis.transactions().AllocateCommitTs();
  EXPECT_EQ(gis.transactions().Watermark(), pinned);

  // Park the client far past the lease, then trip the lazy sweep.
  GlobalSystem::SubmitOptions late;
  late.arrival_ms = 100000.0;
  ASSERT_TRUE(gis.Submit("SELECT COUNT(*) FROM clients", late).ok());
  auto r = gis.FetchChunk(*id);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expired"), std::string::npos)
      << r.status().ToString();

  // Pin and grant went together: watermark freed, memory back to the
  // resident floor.
  EXPECT_EQ(gis.transactions().pinned_snapshots(), 0u);
  EXPECT_GT(gis.transactions().Watermark(), pinned);
  EXPECT_EQ(gis.governor().memory().in_use(), gis.BufferPoolResidentBytes());

  // The explicit-close path unpins identically.
  auto id2 = gis.OpenCursor("SELECT oid FROM orders", copts);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(gis.transactions().pinned_snapshots(), 1u);
  ASSERT_TRUE(gis.CloseCursor(*id2).ok());
  EXPECT_EQ(gis.transactions().pinned_snapshots(), 0u);
}

TEST(CursorSystemTest, OpenCursorCapShedsBeforeAdmission) {
  PlannerOptions options;
  options.cursor_max_open = 2;
  GlobalSystem gis(options);
  Build(&gis, /*big_rows=*/300);
  auto a = gis.OpenCursor("SELECT oid FROM orders");
  auto b = gis.OpenCursor("SELECT cid FROM orders");
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = gis.OpenCursor("SELECT total FROM orders");
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOverloaded()) << c.status().ToString();
  EXPECT_NE(c.status().message().find("cursor"), std::string::npos);
  EXPECT_EQ(gis.metrics().Get("cursor.shed"), 1);

  // Closing one frees a slot.
  ASSERT_TRUE(gis.CloseCursor(*a).ok());
  EXPECT_TRUE(gis.OpenCursor("SELECT total FROM orders").ok());
}

// ---------------------------------------------------------------------------
// gis.cursors observability
// ---------------------------------------------------------------------------

TEST(CursorSystemTest, CursorsTableTracksLifecycle) {
  GlobalSystem gis;
  Build(&gis, /*big_rows=*/300);
  GlobalSystem::CursorOptions copts;
  copts.chunk_rows = 100;
  auto id = gis.OpenCursor("SELECT oid FROM orders", copts);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(gis.FetchChunk(*id).ok());

  auto open_snap = gis.Query(
      "SELECT id, state, streaming, chunk_rows, chunks, rows "
      "FROM gis.cursors");
  ASSERT_TRUE(open_snap.ok()) << open_snap.status().ToString();
  ASSERT_EQ(open_snap->batch.num_rows(), 1u);
  const auto& row = open_snap->batch.rows()[0];
  EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(*id));
  EXPECT_EQ(row[1].AsString(), "open");
  EXPECT_TRUE(row[2].AsBool());
  EXPECT_EQ(row[3].AsInt(), 100);
  EXPECT_EQ(row[4].AsInt(), 1);
  EXPECT_EQ(row[5].AsInt(), 100);

  Drain(&gis, *id, copts.chunk_rows);
  auto done_snap = gis.Query("SELECT state, rows FROM gis.cursors");
  ASSERT_TRUE(done_snap.ok()) << done_snap.status().ToString();
  EXPECT_EQ(done_snap->batch.rows()[0][0].AsString(), "drained");
  EXPECT_EQ(done_snap->batch.rows()[0][1].AsInt(), 300);
  EXPECT_EQ(gis.metrics().Get("cursor.opened"), 1);
  EXPECT_EQ(gis.metrics().Get("cursor.drained"), 1);
}

// ---------------------------------------------------------------------------
// Env knobs
// ---------------------------------------------------------------------------

TEST(CursorEnvTest, CursorKnobsParseFromEnv) {
  setenv("GISQL_CURSOR_CHUNK_ROWS", "2048", 1);
  setenv("GISQL_CURSOR_LEASE_MS", "1500.5", 1);
  setenv("GISQL_CURSOR_MAX_OPEN", "7", 1);
  const PlannerOptions o = PlannerOptions::FromEnv();
  unsetenv("GISQL_CURSOR_CHUNK_ROWS");
  unsetenv("GISQL_CURSOR_LEASE_MS");
  unsetenv("GISQL_CURSOR_MAX_OPEN");
  EXPECT_EQ(o.cursor_chunk_rows, 2048);
  EXPECT_EQ(o.cursor_lease_ms, 1500.5);
  EXPECT_EQ(o.cursor_max_open, 7);
}

}  // namespace
}  // namespace gisql
