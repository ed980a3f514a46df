/// \file protocol.h
/// \brief Request/response framing of the mediator↔wrapper protocol.

#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/statistics.h"

namespace gisql {
namespace wire {

/// \brief Request opcodes a component source understands.
enum class Opcode : uint8_t {
  kPing = 1,             ///< liveness probe, empty payload
  kListTables = 2,       ///< → string list
  kGetSchema = 3,        ///< payload: table name → schema
  kGetStats = 4,         ///< payload: table name → serialized stats
  kAdminSql = 6,         ///< payload: DDL/DML text → empty (admin channel)
  kTxnPrepare = 7,       ///< payload: txn id + stmt seq + INSERT sql → empty
  kTxnCommit = 8,        ///< payload: txn id → empty (apply staged rows)
  kTxnAbort = 9,         ///< payload: txn id → empty (drop staged rows)
  /// payload: FragmentPlan → wire::WriteFragmentResponse (result batch
  /// + page-stats trailer). The only opcode that executes a fragment.
  kExecuteFragmentColumnar = 10,
  /// \name Cursor-based streaming (wire/cursor.h carries the payloads)
  ///
  /// Instead of shipping a fragment's whole result in one response, the
  /// mediator opens a *cursor* at the source and pulls it in bounded
  /// chunks. The trio is retry-safe over the faulty WAN: open is
  /// idempotent by a client-chosen token (a redelivered or retried open
  /// returns the same cursor instead of leaking a second one), fetch is
  /// idempotent within a one-chunk window (the source re-serves the
  /// last chunk when asked for its sequence number again), and close of
  /// an unknown cursor is OK.
  /// @{
  kOpenCursor = 11,   ///< payload: OpenCursorRequest → OpenCursorResponse
  kFetchChunk = 12,   ///< payload: FetchChunkRequest → CursorChunk
  kCloseCursor = 13,  ///< payload: CloseCursorRequest → empty
  /// @}
  /// payload: table name + wire::WriteBatch(rows) → empty. Creates the
  /// table from the batch schema (same index conventions as CREATE
  /// TABLE) and loads every row in one shot — the advisor's replica
  /// copy mechanism, priced as a single bulk transfer on the simulated
  /// WAN instead of a per-row INSERT storm.
  kBulkLoad = 14,
};

/// \brief Encodes a response frame: ok flag, then either an error
/// (code + message) or the payload bytes.
std::vector<uint8_t> EncodeResponse(const Status& status,
                                    const std::vector<uint8_t>& payload);

/// \brief Decodes a response frame back into Status-or-payload.
Result<std::vector<uint8_t>> DecodeResponse(const std::vector<uint8_t>& frame);

/// \name Checksummed transport frames
///
/// Every successful RPC response crosses the simulated network inside a
/// frame carrying a CRC-32 of the payload, so in-flight corruption and
/// mid-transfer truncation are *detected* — the decoder returns a typed
/// SerializationError, never garbage rows and never UB. The 8-byte
/// header is [crc32 u32][payload length u32].
/// @{
constexpr size_t kFrameHeaderBytes = 8;

/// \brief Wraps a payload in a checksummed frame.
std::vector<uint8_t> SealFrame(const std::vector<uint8_t>& payload);

/// \brief Validates a frame's length and checksum; returns the payload
/// or a SerializationError naming the defect (truncation / checksum
/// mismatch / length mismatch).
Result<std::vector<uint8_t>> OpenFrame(const std::vector<uint8_t>& frame);
/// @}

/// \name Table statistics serde (catalog refresh path)
/// @{
void WriteTableStats(ByteWriter* w, const TableStats& stats);
Result<TableStats> ReadTableStats(ByteReader* r);
/// @}

}  // namespace wire
}  // namespace gisql
