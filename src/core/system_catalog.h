/// \file system_catalog.h
/// \brief The observability catalogue: every `gis.*` table, every
/// labeled Prometheus family, and the incident snapshot's system JSON,
/// rendered from one column declaration per fact (obs/catalogue.h).

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/system_tables.h"

namespace gisql {

class GlobalSystem;

/// \brief Serves the built-in `gis.*` tables from live mediator state,
/// and renders the same declarations as Prometheus text and JSON.
///
/// Owned by GlobalSystem, which registers it in the Catalog and threads
/// it into ExecContext; it reads the system's state directly (a
/// friend), so it must not outlive it. Snapshots are deterministically
/// ordered: sources, tenants and metric names sort lexicographically,
/// logs ascend by id.
class SystemCatalog : public SystemTableProvider {
 public:
  explicit SystemCatalog(const GlobalSystem& gis);

  Result<SchemaPtr> TableSchema(const std::string& name) const override;
  Result<RowBatch> Snapshot(const std::string& name) const override;
  std::vector<std::string> TableNames() const override;

  /// \brief Prometheus text: the mediator and network registries
  /// (prefix `gisql`; network names start with `net.`, so they render
  /// as `gisql_net_*`), then every catalogued family.
  std::string ExportPrometheus() const;

  /// \brief The deterministic `"system"` object of incident snapshots:
  /// the JSON columns of observed sources, admission, buffer pools,
  /// transactions, and SLOs.
  std::string StateJson(double now_ms) const;

 private:
  struct Table {
    SchemaPtr schema;
    std::function<RowBatch(const SchemaPtr&)> rows;
  };
  const GlobalSystem& gis_;
  std::map<std::string, Table> tables_;
};

}  // namespace gisql
