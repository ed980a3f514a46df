#include "storage/paged_heap.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "wire/serde.h"

namespace gisql {

namespace {

/// Wire-encodes one row (schema arity is implicit: pages store cells
/// back to back; the directory knows how many rows each page holds).
void EncodeRow(ByteWriter* w, const Row& row) {
  for (const Value& v : row) wire::WriteValue(w, v);
}

}  // namespace

PagedHeap::PagedHeap(BufferPoolPtr pool, SchemaPtr schema)
    : pool_(std::move(pool)), schema_(std::move(schema)) {}

PagedHeap::~PagedHeap() { DropPagesFrom(0); }

void PagedHeap::DropPagesFrom(size_t first_page) {
  if (first_page >= page_ids_.size()) return;
  for (size_t p = first_page; p < page_ids_.size(); ++p) {
    pool_->DeletePage(page_ids_[p]);
  }
  total_rows_ = static_cast<int64_t>(page_first_rid_[first_page]);
  page_ids_.resize(first_page);
  page_row_counts_.resize(first_page);
  page_first_rid_.resize(first_page);
  memo_valid_ = false;
  ++epoch_;
}

size_t PagedHeap::PageOf(size_t rid) const {
  // Last page whose first rid is <= rid.
  auto it = std::upper_bound(page_first_rid_.begin(), page_first_rid_.end(),
                             rid);
  return static_cast<size_t>(it - page_first_rid_.begin()) - 1;
}

Result<size_t> PagedHeap::Append(const Row& row) {
  ByteWriter encoded;
  EncodeRow(&encoded, row);
  const size_t row_bytes = encoded.size();

  ++epoch_;
  memo_valid_ = false;
  // Fits in the tail page? (A page always accepts its first row, even
  // oversized — the frame simply grows past page_size for that page.)
  if (!page_ids_.empty()) {
    const uint64_t tail_id = page_ids_.back();
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data,
                           pool_->FetchPage(tail_id));
    if (data->size() + row_bytes <= pool_->page_size()) {
      data->insert(data->end(), encoded.data().begin(), encoded.data().end());
      pool_->UnpinPage(tail_id, /*dirty=*/true);
      ++page_row_counts_.back();
      return static_cast<size_t>(total_rows_++);
    }
    pool_->UnpinPage(tail_id, /*dirty=*/false);
  }
  std::vector<uint8_t>* data = nullptr;
  GISQL_ASSIGN_OR_RETURN(uint64_t page_id, pool_->NewPage(&data));
  data->assign(encoded.data().begin(), encoded.data().end());
  page_ids_.push_back(page_id);
  page_row_counts_.push_back(1);
  page_first_rid_.push_back(static_cast<size_t>(total_rows_));
  pool_->UnpinPage(page_id, /*dirty=*/true);
  return static_cast<size_t>(total_rows_++);
}

Status PagedHeap::AppendBatch(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    GISQL_RETURN_NOT_OK(Append(row).status());
  }
  return Status::OK();
}

Result<std::vector<Row>> PagedHeap::DecodePage(
    size_t page_index, const std::vector<uint8_t>& bytes) const {
  const size_t nrows = page_row_counts_[page_index];
  const size_t width = schema_->num_fields();
  ByteReader reader(bytes);
  std::vector<Row> rows;
  rows.reserve(nrows);
  for (size_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      GISQL_ASSIGN_OR_RETURN(Value v, wire::ReadValue(&reader));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::SerializationError("heap page ", page_ids_[page_index],
                                      " has trailing bytes");
  }
  return rows;
}

Result<const std::vector<Row>*> PagedHeap::PageRows(size_t page_index) {
  const uint64_t page_id = page_ids_[page_index];
  // Always fetch: the pool must see (and charge) every page touch.
  GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data, pool_->FetchPage(page_id));
  if (memo_valid_ && memo_page_ == page_index && memo_epoch_ == epoch_) {
    pool_->UnpinPage(page_id, /*dirty=*/false);
    return &memo_rows_;
  }
  Result<std::vector<Row>> rows = DecodePage(page_index, *data);
  pool_->UnpinPage(page_id, /*dirty=*/false);
  GISQL_RETURN_NOT_OK(rows.status());
  memo_rows_ = std::move(*rows);
  memo_page_ = page_index;
  memo_epoch_ = epoch_;
  memo_valid_ = true;
  return &memo_rows_;
}

Result<Row> PagedHeap::Get(size_t rid) {
  if (rid >= static_cast<size_t>(total_rows_)) {
    return Status::InvalidArgument("row id ", rid, " out of range (",
                                   total_rows_, " rows)");
  }
  const size_t page_index = PageOf(rid);
  GISQL_ASSIGN_OR_RETURN(const std::vector<Row>* rows, PageRows(page_index));
  return (*rows)[rid - page_first_rid_[page_index]];
}

Status PagedHeap::Scan(
    const std::function<Status(size_t rid, const Row& row)>& fn,
    size_t first_page) {
  for (size_t p = first_page; p < page_ids_.size(); ++p) {
    GISQL_ASSIGN_OR_RETURN(const std::vector<Row>* rows, PageRows(p));
    const size_t first = page_first_rid_[p];
    for (size_t i = 0; i < rows->size(); ++i) {
      GISQL_RETURN_NOT_OK(fn(first + i, (*rows)[i]));
    }
  }
  return Status::OK();
}

}  // namespace gisql
