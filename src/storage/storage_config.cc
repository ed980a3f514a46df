#include "storage/storage_config.h"

#include "common/env.h"

namespace gisql {

StorageConfig StorageConfig::FromEnv() {
  StorageConfig cfg;
  EnvOverridePositive("GISQL_PAGE_SIZE", &cfg.page_size);
  EnvOverridePositive("GISQL_BUFFER_POOL_FRAMES", &cfg.pool_frames);
  EnvOverridePositive("GISQL_LRUK_K", &cfg.lruk_k);
  EnvOverrideNonNegative("GISQL_DISK_READ_US", &cfg.disk_read_us);
  EnvOverrideNonNegative("GISQL_DISK_WRITE_US", &cfg.disk_write_us);
  // Degenerate values would wedge the pool; clamp to workable minima.
  if (cfg.page_size < 64) cfg.page_size = 64;
  if (cfg.pool_frames < 2) cfg.pool_frames = 2;
  if (cfg.lruk_k < 1) cfg.lruk_k = 1;
  return cfg;
}

}  // namespace gisql
