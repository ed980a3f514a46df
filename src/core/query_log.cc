#include "core/query_log.h"

#include "common/env.h"

namespace gisql {

size_t QueryLog::CapacityFromEnv() {
  const auto parsed = EnvValue<int64_t>("GISQL_QUERY_LOG_CAPACITY");
  if (!parsed || *parsed < 1) return kDefaultCapacity;
  if (*parsed > static_cast<int64_t>(kMaxCapacity)) return kMaxCapacity;
  return static_cast<size_t>(*parsed);
}

int64_t QueryLog::Append(QueryLogEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = entry.id = next_id_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[head_] = std::move(entry);
    head_ = (head_ + 1) % capacity_;
  }
  return id;
}

std::vector<QueryLogEntry> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryLogEntry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

int64_t QueryLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

}  // namespace gisql
