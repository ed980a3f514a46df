#include "wire/cursor.h"

#include "wire/serde.h"

namespace gisql {
namespace wire {

void WriteOpenCursorRequest(ByteWriter* w, const OpenCursorRequest& req) {
  w->PutVarint(req.token);
  w->PutVarint(static_cast<uint64_t>(req.chunk_rows));
  WriteFragment(w, req.fragment);
}

Result<OpenCursorRequest> ReadOpenCursorRequest(ByteReader* r) {
  OpenCursorRequest req;
  GISQL_ASSIGN_OR_RETURN(req.token, r->GetVarint());
  GISQL_ASSIGN_OR_RETURN(uint64_t chunk_rows, r->GetVarint());
  if (chunk_rows == 0 ||
      chunk_rows > static_cast<uint64_t>(kMaxCursorChunkRows)) {
    return Status::SerializationError("cursor chunk_rows ", chunk_rows,
                                      " out of range");
  }
  req.chunk_rows = static_cast<int64_t>(chunk_rows);
  GISQL_ASSIGN_OR_RETURN(req.fragment, ReadFragment(r));
  return req;
}

void WriteFetchChunkRequest(ByteWriter* w, const FetchChunkRequest& req) {
  w->PutVarint(req.cursor_id);
  w->PutVarint(req.seq);
}

Result<FetchChunkRequest> ReadFetchChunkRequest(ByteReader* r) {
  FetchChunkRequest req;
  GISQL_ASSIGN_OR_RETURN(req.cursor_id, r->GetVarint());
  GISQL_ASSIGN_OR_RETURN(req.seq, r->GetVarint());
  return req;
}

void WriteCloseCursorRequest(ByteWriter* w, const CloseCursorRequest& req) {
  w->PutVarint(req.cursor_id);
}

Result<CloseCursorRequest> ReadCloseCursorRequest(ByteReader* r) {
  CloseCursorRequest req;
  GISQL_ASSIGN_OR_RETURN(req.cursor_id, r->GetVarint());
  return req;
}

void WriteOpenCursorResponse(ByteWriter* w, const OpenCursorResponse& resp) {
  w->PutVarint(resp.cursor_id);
}

Result<OpenCursorResponse> ReadOpenCursorResponse(ByteReader* r) {
  OpenCursorResponse resp;
  GISQL_ASSIGN_OR_RETURN(resp.cursor_id, r->GetVarint());
  return resp;
}

void WriteCursorChunk(ByteWriter* w, uint64_t cursor_id, uint64_t seq,
                      bool done, const RowBatch& rows) {
  w->PutVarint(cursor_id);
  w->PutVarint(seq);
  w->PutBool(done);
  WriteResultBatch(w, rows);
}

Result<CursorChunk> ReadCursorChunk(ByteReader* r) {
  CursorChunk chunk;
  GISQL_ASSIGN_OR_RETURN(chunk.cursor_id, r->GetVarint());
  GISQL_ASSIGN_OR_RETURN(chunk.seq, r->GetVarint());
  GISQL_ASSIGN_OR_RETURN(chunk.done, r->GetBool());
  GISQL_ASSIGN_OR_RETURN(chunk.batch, ReadResultBatch(r));
  return chunk;
}

}  // namespace wire
}  // namespace gisql
