/// \file advisor_host.cc
/// \brief GlobalSystem's implementation of the AdvisorHost action
/// surface, plus advisor configuration.
///
/// The advisor decides; this file acts. MaterializeReplica is the one
/// genuinely multi-step action: copy the base table's rows to the
/// target source as a single bulk transfer on the simulated WAN, import
/// the copy into the catalog, then atomically (from the planner's point
/// of view — the catalog is mediator-local) swap the global name from
/// "table" to a replicated view over {table__base, table__<target>}.
/// DemoteReplicatedView reverses every step.

#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/bytes.h"
#include "common/env.h"
#include "core/global_system.h"
#include "net/retry.h"
#include "source/fragment.h"
#include "wire/protocol.h"
#include "wire/serde.h"

namespace gisql {

void GlobalSystem::ConfigureAdvisor() {
  AdvisorConfig c = options_.advisor;
  // The kill switch is honored here, not in options parsing, so it
  // also stops an advisor that embedding code enabled programmatically
  // (never calling ApplyEnv).
  if (EnvValue<bool>("GISQL_ADVISOR_KILL").value_or(false)) c.enabled = false;
  if (advisor_ == nullptr) {
    advisor_ = std::make_unique<Advisor>(c, this, &query_log_, &health_,
                                         &slo_, &governor_, &catalog_);
  } else {
    advisor_->Configure(c);
  }
}

Result<std::string> GlobalSystem::MaterializeReplica(
    const std::string& global_table, const std::string& target_source) {
  GISQL_ASSIGN_OR_RETURN(const TableMapping* mapping,
                         catalog_.GetTable(global_table));
  if (mapping->source_name == target_source) {
    return Status::InvalidArgument("table '", global_table,
                                   "' already lives on '", target_source,
                                   "'");
  }
  if (catalog_.TableInAnyView(global_table)) {
    return Status::InvalidArgument("table '", global_table,
                                   "' is already a view member");
  }
  const std::string owner_source = mapping->source_name;
  const std::string owner_exported = mapping->exported_name;
  const std::string replica_exported = owner_exported + "__r";
  const std::string replica_global = global_table + "__" + target_source;
  const std::string base_alias = global_table + "__base";
  if (catalog_.HasTable(replica_global) || catalog_.HasView(replica_global) ||
      catalog_.HasTable(base_alias) || catalog_.HasView(base_alias)) {
    return Status::AlreadyExists("replica names for '", global_table,
                                 "' are already in use");
  }

  // 1. Pull the base table's rows off the owner: a full-scan fragment
  // (retryable — reads are idempotent).
  FragmentPlan frag;
  frag.table = owner_exported;
  GISQL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> rows_payload,
      RetriedCall(owner_source, wire::Opcode::kExecuteFragmentColumnar,
                  wire::SerializeFragment(frag)));
  GISQL_ASSIGN_OR_RETURN(wire::FragmentResponse rows,
                         wire::ReadFragmentResponse(rows_payload));

  // 2. Push them to the target as one bulk load. Single-attempt: the
  // load creates a table, which is not idempotent under retry.
  ByteWriter load;
  load.PutString(replica_exported);
  wire::WriteBatch(&load, rows.batch.rows);
  GISQL_ASSIGN_OR_RETURN(
      RpcResult rpc,
      network_.Call(kMediatorHost, target_source,
                    static_cast<uint8_t>(wire::Opcode::kBulkLoad),
                    load.data()));
  (void)rpc;

  // 3. Catalog surgery: import the replica, free the original global
  // name by aliasing the base, and promote the name to a replicated
  // view the planner routes by latency hint.
  GISQL_RETURN_NOT_OK(
      ImportTable(target_source, replica_exported, replica_global));
  GISQL_RETURN_NOT_OK(catalog_.RenameTable(global_table, base_alias));
  Status promoted = catalog_.CreateReplicatedView(
      global_table, {base_alias, replica_global});
  if (!promoted.ok()) {
    // Restore the original name; leaving the table reachable matters
    // more than the orphaned replica copy.
    (void)catalog_.RenameTable(base_alias, global_table);
    return promoted;
  }
  if (cache_) {
    cache_->InvalidateTables({global_table, base_alias, replica_global});
    cache_->InvalidateSource(target_source);
  }
  return replica_global;
}

Status GlobalSystem::DemoteReplicatedView(const std::string& view_name) {
  GISQL_ASSIGN_OR_RETURN(const GlobalView* view, catalog_.GetView(view_name));
  if (!view->replicated) {
    return Status::InvalidArgument("view '", view_name,
                                   "' is not a replicated view");
  }
  const std::string base_alias = view_name + "__base";
  // Copy before DropView invalidates the pointer.
  const std::vector<std::string> members = view->members;
  bool has_base = false;
  for (const auto& m : members) {
    if (m == base_alias) has_base = true;
  }
  if (!has_base) {
    return Status::InvalidArgument("view '", view_name,
                                   "' was not advisor-materialized (no '",
                                   base_alias, "' member)");
  }
  GISQL_RETURN_NOT_OK(catalog_.DropView(view_name));
  std::set<std::string> stale = {view_name, base_alias};
  for (const auto& member : members) {
    if (member == base_alias) continue;
    stale.insert(member);
    // Drop the replica at its source (best effort — the source may be
    // partitioned; the catalog drop below is what unroutes it) and in
    // the catalog.
    Result<const TableMapping*> replica = catalog_.GetTable(member);
    if (replica.ok()) {
      (void)ExecuteAt((*replica)->source_name,
                      "DROP TABLE " + (*replica)->exported_name);
    }
    (void)catalog_.DropTable(member);
  }
  GISQL_RETURN_NOT_OK(catalog_.RenameTable(base_alias, view_name));
  if (cache_) cache_->InvalidateTables(stale);
  return Status::OK();
}

}  // namespace gisql
