#include "obs/tenant_accountant.h"

#include <algorithm>

namespace gisql {

void TenantAccountant::Record(const QueryLogEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = QueryContext::NormalizeTenant(entry.tenant);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    // Past the bound, new tenants fold into the overflow bucket (which
    // may itself need creating — one slot beyond the bound, at most).
    if (static_cast<int>(tenants_.size()) >= max_tracked_) {
      name = kOverflowTenant;
      it = tenants_.find(name);
    }
    if (it == tenants_.end()) {
      it = tenants_.emplace(name, TenantUsage{}).first;
      it->second.tenant = name;
    }
  }
  Apply(&it->second, entry);
  Apply(&totals_, entry);
}

void TenantAccountant::Apply(TenantUsage* usage, const QueryLogEntry& e) {
  if (e.shed()) {
    usage->sheds += 1;
  } else {
    usage->queries += 1;
    if (e.cache_hit) usage->cache_hits += 1;
  }
  usage->rows += e.rows;
  usage->elapsed_ms += e.elapsed_ms;
  usage->admission_wait_ms += e.admission_wait_ms;
  usage->bytes_sent += e.bytes_sent;
  usage->bytes_received += e.bytes_received;
  usage->messages += e.messages;
  usage->retries += e.retries;
  usage->mem_peak_bytes = std::max(usage->mem_peak_bytes, e.mem_bytes);
  usage->page_hits += e.page_hits;
  usage->page_misses += e.page_misses;
  usage->disk_ms += e.disk_ms;
}

std::vector<TenantUsage> TenantAccountant::SnapshotTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantUsage> rows;
  rows.reserve(tenants_.size());
  for (const auto& [name, usage] : tenants_) rows.push_back(usage);
  return rows;  // std::map iteration order: already sorted by tenant.
}

TenantUsage TenantAccountant::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  TenantUsage totals = totals_;
  totals.tenant = "*";
  return totals;
}

size_t TenantAccountant::tracked_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size() - tenants_.count(kOverflowTenant);
}

void TenantAccountant::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.clear();
  totals_ = TenantUsage{};
}

}  // namespace gisql
