/// \file cursor.h
/// \brief Payloads of the cursor-based streaming opcodes
/// (kOpenCursor / kFetchChunk / kCloseCursor).
///
/// A cursor delivers a fragment's result as a sequence of bounded
/// chunks instead of one monolithic batch, so the mediator's resident
/// footprint per in-flight query is O(chunk), not O(result). The
/// payloads are designed for the faulty WAN the rest of the protocol
/// lives on:
///
///   - OpenCursorRequest carries a client-chosen idempotency `token`.
///     A retried or duplicate-delivered open of the same token returns
///     the *same* cursor id instead of allocating a second cursor.
///   - FetchChunkRequest names the chunk it wants by sequence number.
///     The source serves `seq == next` by advancing and `seq == next-1`
///     by re-sending the previous chunk verbatim, so an at-least-once
///     transport cannot duplicate or skip rows.
///   - CursorChunk answers with the cursor id, the chunk's sequence
///     number, a `done` flag (no chunk follows this one), and the rows
///     as a result batch (wire/serde.h), the same encoding a whole
///     fragment result travels in.
///
/// Decoding is fully bounds-checked with the same allocation guards as
/// the batch serde; malformed input yields SerializationError, never UB.

#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "source/fragment.h"
#include "types/row.h"
#include "wire/serde.h"

namespace gisql {
namespace wire {

/// \brief Upper bound a source accepts for one chunk's row count; a
/// request past it is clamped, a decoded frame past the batch guards
/// is rejected.
constexpr int64_t kMaxCursorChunkRows = int64_t{1} << 20;

/// \brief kOpenCursor payload: execute `fragment` at the source and
/// stage its result for chunked fetching.
struct OpenCursorRequest {
  /// Client-chosen idempotency token; re-opening an existing token
  /// returns the same cursor id (at-least-once delivery safe).
  uint64_t token = 0;
  /// Rows per chunk the client will fetch (clamped to
  /// [1, kMaxCursorChunkRows] by the source).
  int64_t chunk_rows = 1024;
  FragmentPlan fragment;
};

/// \brief kOpenCursor response.
struct OpenCursorResponse {
  uint64_t cursor_id = 0;
};

/// \brief kFetchChunk payload.
struct FetchChunkRequest {
  uint64_t cursor_id = 0;
  /// Requested chunk sequence number (0-based). Must be the cursor's
  /// next chunk, or the immediately previous one (idempotent retry).
  uint64_t seq = 0;
};

/// \brief kCloseCursor payload. Closing an unknown cursor is OK.
struct CloseCursorRequest {
  uint64_t cursor_id = 0;
};

/// \brief One fetched chunk: identity, position, and the rows.
struct CursorChunk {
  uint64_t cursor_id = 0;
  uint64_t seq = 0;
  /// True when no chunk follows this one (this chunk may be empty).
  bool done = false;
  ResultBatch batch;
};

/// \name Request serde
/// @{
void WriteOpenCursorRequest(ByteWriter* w, const OpenCursorRequest& req);
Result<OpenCursorRequest> ReadOpenCursorRequest(ByteReader* r);

void WriteFetchChunkRequest(ByteWriter* w, const FetchChunkRequest& req);
Result<FetchChunkRequest> ReadFetchChunkRequest(ByteReader* r);

void WriteCloseCursorRequest(ByteWriter* w, const CloseCursorRequest& req);
Result<CloseCursorRequest> ReadCloseCursorRequest(ByteReader* r);
/// @}

/// \name Response serde
/// @{
void WriteOpenCursorResponse(ByteWriter* w, const OpenCursorResponse& resp);
Result<OpenCursorResponse> ReadOpenCursorResponse(ByteReader* r);

/// \brief Encodes a chunk; the rows travel as a result batch.
void WriteCursorChunk(ByteWriter* w, uint64_t cursor_id, uint64_t seq,
                      bool done, const RowBatch& rows);

Result<CursorChunk> ReadCursorChunk(ByteReader* r);
/// @}

}  // namespace wire
}  // namespace gisql
