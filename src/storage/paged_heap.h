/// \file paged_heap.h
/// \brief A heap file of row slots over buffer-pool pages.
///
/// Rows are wire-encoded back to back into fixed-size pages; an
/// in-memory page directory (page ids + per-page row counts) maps a
/// row id to its (page, slot). Every access goes through the buffer
/// pool, so point reads and scans charge honest page hits/misses and
/// virtual disk time. The heap is append-oriented: a row goes to the
/// tail page if it fits, else to a new page. That greedy packing is
/// prefix-stable, so a deletion truncates the file at a page boundary
/// (DropPagesFrom) and re-appends the surviving rows after it (the
/// first of them top up the new tail page), and gets exactly the pages
/// a rebuild of the whole file would.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

class PagedHeap {
 public:
  PagedHeap(BufferPoolPtr pool, SchemaPtr schema);
  ~PagedHeap();

  PagedHeap(const PagedHeap&) = delete;
  PagedHeap& operator=(const PagedHeap&) = delete;

  /// \brief Appends one row; returns its row id. Fails when the buffer
  /// pool cannot grow (global memory budget).
  Result<size_t> Append(const Row& row);

  /// \brief Bulk append (page-at-a-time; one pin per filled page).
  Status AppendBatch(const std::vector<Row>& rows);

  /// \brief Point read of row `rid` through the buffer pool.
  Result<Row> Get(size_t rid);

  /// \brief Scan in row-id order from page `first_page` to the end of
  /// the file, one page pin per page. The callback may return a non-OK
  /// status to stop the scan.
  Status Scan(const std::function<Status(size_t rid, const Row& row)>& fn,
              size_t first_page = 0);

  /// \brief Deletes pages `first_page`.. and the rows on them; the rows
  /// before page_first_rid(first_page) keep their ids.
  void DropPagesFrom(size_t first_page);

  /// \brief Index of the page holding row `rid` (< num_rows()).
  size_t PageOf(size_t rid) const;

  /// \brief Row id of the first row on page `page_index`.
  size_t page_first_rid(size_t page_index) const {
    return page_first_rid_[page_index];
  }

  int64_t num_rows() const { return total_rows_; }
  int64_t num_pages() const { return static_cast<int64_t>(page_ids_.size()); }

 private:
  /// Decodes every row of page `page_index` from `bytes`.
  Result<std::vector<Row>> DecodePage(size_t page_index,
                                      const std::vector<uint8_t>& bytes) const;

  /// Rows of page `page_index`, fetched (counting hit/miss) and decoded
  /// — with a one-page decode memo so consecutive probes of the same
  /// page skip the re-decode CPU, never the pool accounting.
  Result<const std::vector<Row>*> PageRows(size_t page_index);

  BufferPoolPtr pool_;
  SchemaPtr schema_;
  std::vector<uint64_t> page_ids_;
  std::vector<uint32_t> page_row_counts_;
  std::vector<size_t> page_first_rid_;  ///< prefix sums over row counts
  int64_t total_rows_ = 0;
  uint64_t epoch_ = 0;  ///< bumped on every mutation (invalidates memo)

  // Decode memo for the most recently read page.
  bool memo_valid_ = false;
  size_t memo_page_ = 0;
  uint64_t memo_epoch_ = 0;
  std::vector<Row> memo_rows_;
};

}  // namespace gisql
