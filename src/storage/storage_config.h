/// \file storage_config.h
/// \brief Tuning knobs for the paged storage engine each component
/// source runs: page geometry, buffer-pool size, LRU-K depth, and the
/// simulated disk's per-I/O latency.
///
/// Latencies are *simulated* microseconds charged on the virtual clock
/// (like every other cost in gisql) so out-of-core runs replay
/// byte-identically: a miss costs the same virtual time on every rerun
/// regardless of the host machine.

#pragma once

#include <cstddef>

namespace gisql {

/// \brief Configuration for one source's pages, pool, and disk.
struct StorageConfig {
  /// Bytes per page (GISQL_PAGE_SIZE). Rows are slotted into pages;
  /// a row larger than a page gets a private oversized page.
  size_t page_size = 8192;

  /// Buffer-pool capacity in frames (GISQL_BUFFER_POOL_FRAMES).
  /// Frames are allocated lazily and charged against the global
  /// MemoryBudget as the working set grows.
  size_t pool_frames = 64;

  /// LRU-K history depth (GISQL_LRUK_K). K=1 degenerates to LRU;
  /// K=2 (the default) resists sequential-scan pollution.
  size_t lruk_k = 2;

  /// Simulated microseconds charged per page read (GISQL_DISK_READ_US).
  double disk_read_us = 100.0;

  /// Simulated microseconds charged per page write (GISQL_DISK_WRITE_US).
  double disk_write_us = 100.0;

  bool operator==(const StorageConfig&) const = default;

  /// \brief Defaults overridden from GISQL_* environment variables
  /// (unset or unparsable values keep the field, mirroring
  /// PlannerOptions::ApplyEnv).
  static StorageConfig FromEnv();
};

}  // namespace gisql
