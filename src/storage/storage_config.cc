#include "storage/storage_config.h"

#include "common/env.h"

namespace gisql {

namespace {

/// Sizes must be positive and latencies non-negative; anything else
/// leaves the compiled-in default intact.
void EnvSize(const char* name, size_t* out) {
  if (const auto v = EnvValue<size_t>(name); v && *v > 0) *out = *v;
}

void EnvMicros(const char* name, double* out) {
  if (const auto v = EnvValue<double>(name); v && *v >= 0) *out = *v;
}

}  // namespace

StorageConfig StorageConfig::FromEnv() {
  StorageConfig cfg;
  EnvSize("GISQL_PAGE_SIZE", &cfg.page_size);
  EnvSize("GISQL_BUFFER_POOL_FRAMES", &cfg.pool_frames);
  EnvSize("GISQL_LRUK_K", &cfg.lruk_k);
  EnvMicros("GISQL_DISK_READ_US", &cfg.disk_read_us);
  EnvMicros("GISQL_DISK_WRITE_US", &cfg.disk_write_us);
  // Degenerate values would wedge the pool; clamp to workable minima.
  if (cfg.page_size < 64) cfg.page_size = 64;
  if (cfg.pool_frames < 2) cfg.pool_frames = 2;
  if (cfg.lruk_k < 1) cfg.lruk_k = 1;
  return cfg;
}

}  // namespace gisql
