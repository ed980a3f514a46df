/// \file system_tables.h
/// \brief The `gis.*` virtual system tables: names, schemas, and the
/// provider interface the planner and executor consume.
///
/// The mediator's own state — source health, metrics, histograms, the
/// query log, admission, cursors, storage, transactions, tenants, SLOs,
/// incidents, and advisor decisions — is exposed through the global
/// schema itself, as virtual tables under the reserved `gis.` prefix.
/// Each table is one column list of the observability catalogue
/// (core/system_catalog.cc) applied to one row source; DESIGN.md lists
/// them, and a test keeps that list equal to the catalogue.
///
/// A query over them runs through the ordinary parse → bind → plan →
/// optimize → execute pipeline: the logical planner resolves a `gis.`
/// name against the provider registered in the Catalog and emits a
/// VirtualTableScan leaf; the executor materializes it by snapshotting
/// live state at the mediator — zero network cost, so observing the
/// system never perturbs the experiment being observed.
///
/// This header lives in catalog/ and depends only on types/; the
/// concrete provider wiring mediator internals together is
/// core/system_catalog.h.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

/// \brief Reserved name prefix of the virtual system tables.
inline constexpr const char* kSystemTablePrefix = "gis.";

/// \brief True when `name` (any case) starts with the `gis.` prefix.
bool IsSystemTableName(const std::string& name);

/// \brief Source of virtual-table snapshots, registered in the Catalog
/// and handed to the executor through ExecContext.
///
/// Implementations snapshot live state at call time; two scans of the
/// same table may legitimately differ (which is why query plans
/// containing a virtual scan bypass the result cache). Snapshot rows
/// must match TableSchema positionally and be deterministically
/// ordered.
class SystemTableProvider {
 public:
  virtual ~SystemTableProvider() = default;

  /// \brief Schema for `name` (any case); NotFound, naming the served
  /// tables, when absent. Fields carry no qualifier — the planner
  /// qualifies them with the query's alias (or the table name).
  virtual Result<SchemaPtr> TableSchema(const std::string& name) const = 0;

  /// \brief Materializes the current state of `name`.
  virtual Result<RowBatch> Snapshot(const std::string& name) const = 0;

  /// \brief All served table names (canonical lower-case, sorted).
  virtual std::vector<std::string> TableNames() const = 0;
};

}  // namespace gisql
