#include "core/cursor_manager.h"

namespace gisql {

const char* CursorManager::StateName(State s) {
  switch (s) {
    case State::kOpen:
      return "open";
    case State::kDrained:
      return "drained";
    case State::kClosed:
      return "closed";
    case State::kExpired:
      return "expired";
  }
  return "unknown";
}

CursorManager::Entry& CursorManager::Create(QueryLogEntry record,
                                            bool streaming,
                                            int64_t chunk_rows,
                                            double opened_ms,
                                            double lease_ms) {
  const uint64_t id = next_id_++;
  Entry& e = entries_[id];
  e.id = id;
  e.record = std::move(record);
  e.streaming = streaming;
  e.chunk_rows = chunk_rows;
  e.opened_ms = opened_ms;
  e.lease_ms = lease_ms;
  e.lease_deadline_ms = opened_ms + lease_ms;
  return e;
}

CursorManager::Entry* CursorManager::Find(uint64_t id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const CursorManager::Entry* CursorManager::Find(uint64_t id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

size_t CursorManager::OpenCount() const {
  size_t n = 0;
  for (const auto& [id, e] : entries_) {
    if (e.state == State::kOpen) ++n;
  }
  return n;
}

std::vector<uint64_t> CursorManager::ExpiredBefore(double now_ms) const {
  std::vector<uint64_t> ids;
  for (const auto& [id, e] : entries_) {
    if (e.state == State::kOpen && e.lease_deadline_ms < now_ms) {
      ids.push_back(id);
    }
  }
  return ids;
}

void CursorManager::Finalize(uint64_t id, State state) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  e.state = state;
  e.stream.reset();
  e.plan.reset();
  e.grant = MemoryGrant();  // releases the charge
  // Retain a bounded tail of finished entries for gis.cursors; the map
  // is id-ordered, so pruning walks oldest-first deterministically.
  size_t finished = 0;
  for (const auto& [eid, entry] : entries_) {
    if (entry.state != State::kOpen) ++finished;
  }
  for (auto prune = entries_.begin();
       finished > kMaxFinishedRetained && prune != entries_.end();) {
    if (prune->second.state != State::kOpen) {
      prune = entries_.erase(prune);
      --finished;
    } else {
      ++prune;
    }
  }
}

}  // namespace gisql
