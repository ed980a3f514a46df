#include "core/system_catalog.h"

#include <algorithm>
#include <array>
#include <ranges>
#include <set>
#include <span>
#include <utility>

#include "common/string_util.h"
#include "core/global_system.h"
#include "obs/catalogue.h"

namespace gisql {

namespace {

/// One gis.sources row: a source's health joined with its breaker.
struct SourceRow : SourceHealthSnapshot, BreakerSnapshot {};

/// One source's buffer pool, keyed by the source's name.
struct PoolRow : BufferPoolStats {
  std::string source;
};

/// The transaction manager's counters plus its point-in-time gauges.
struct TxnRow : TxnCounters {
  int64_t active = 0;
  int64_t watermark = 0;
  int64_t pinned_snapshots = 0;
};

/// One registry entry: a counter or gauge value, or a histogram digest.
struct RegistryRow : HistogramSnapshot {
  std::string registry;
  std::string name;
  std::string kind;
  double value = 0.0;
};

/// Every catalogued column list: one line per observable fact. A list's
/// order is the gis.* column order, the Prometheus family order, and the
/// JSON field order alike.
struct Catalogue {
  using H = SourceHealthSnapshot;
  Columns<H> health = {
      Col("source", &H::source).Label().Json(),
      Col("state", &H::state, SourceHealthStateName)
          .Gauge("source_state").Json(),
      Col("requests", &H::requests).Counter("source_requests_total").Json(),
      Col("errors", &H::errors).Counter("source_errors_total").Json(),
      Col("retries", &H::retries).Counter("source_retries_total").Json(),
      Col("consecutive_failures", &H::consecutive_failures),
      Col("bytes_sent", &H::bytes_sent),
      Col("bytes_received", &H::bytes_received),
      Col("ewma_ms", &H::ewma_ms).Gauge("source_ewma_latency_ms"),
      Col("p95_ms", &H::p95_ms).Gauge("source_p95_latency_ms"),
      Col("last_error", &H::last_error)};

  using B = BreakerSnapshot;
  Columns<B> breakers = {
      Col("source", &B::source).Label(),
      Col("breaker", &B::state, BreakerStateName)
          .Gauge("source_breaker_state").Json(),
      Col("breaker_skips", &B::skips).Counter("source_breaker_skips_total"),
      Col("breaker_probes", &B::probes).Counter("source_breaker_probes_total"),
      Col("breaker_transitions", &B::transitions)};

  // gis.sources: health, then the breaker columns past its own `source`
  // key, which the health row already shows.
  Columns<SourceRow> sources = [this] {
    Columns<SourceRow> columns(health.begin(), health.end());
    columns.insert(columns.end(), breakers.begin() + 1, breakers.end());
    return columns;
  }();

  using G = GovernorSnapshot;
  using AC = AdmissionConfig;
  using AS = AdmissionStats;
  Columns<G> governor = {
      Col("max_concurrent", &G::admission_config, &AC::max_concurrent),
      Col("queue_limit", &G::admission_config, &AC::queue_limit),
      Col("max_wait_ms", &G::admission_config, &AC::max_wait_ms),
      Col("in_flight", &G::admission, &AS::in_flight)
          .Gauge("admission_in_flight").Json(),
      Col("admitted", &G::admission, &AS::admitted).Json(),
      Col("queued", &G::admission, &AS::queued).Json(),
      Col("shed_queue_full", &G::admission, &AS::shed_queue_full)
          .Counter("admission_shed_queue_full_total").Json(),
      Col("shed_deadline", &G::admission, &AS::shed_deadline)
          .Counter("admission_shed_deadline_total").Json(),
      Col("shed_memory_budget", &G::shed_memory_budget)
          .Counter("admission_shed_memory_budget_total").Json(),
      Col("total_wait_ms", &G::admission, &AS::total_wait_ms),
      Col("mem_query_cap", &G::mem_query_cap),
      Col("mem_global_cap", &G::mem_global_cap),
      Col("mem_peak_bytes", &G::mem_peak_bytes)
          .Gauge("memory_peak_bytes").Json(),
      Col("breaker_enabled", &G::breaker_enabled),
      Col("breakers_open", &G::breakers_open).Gauge("breakers_open").Json(),
      Col("breaker_transitions", &G::breaker_transitions)
          .Counter("breaker_transitions_total"),
      Col("breaker_skips", &G::breaker_skips),
      Col("breaker_probes", &G::breaker_probes)};

  using A = AdvisorCounters;
  Columns<A> advisor_counters = {
      Col("ticks", &A::ticks).Counter("advisor_ticks_total"),
      Col("decisions", &A::decisions).Counter("advisor_decisions_total"),
      Col("materializations", &A::materializations)
          .Counter("advisor_materializations_total"),
      Col("evictions", &A::evictions).Counter("advisor_evictions_total"),
      Col("placements", &A::placements).Counter("advisor_placements_total"),
      Col("tunings", &A::tunings).Counter("advisor_tunings_total"),
      Col("failures", &A::failures).Counter("advisor_failures_total")};

  using TR = TxnRow;
  Columns<TR> txn_counters = {
      Col("active", &TR::active).Gauge("txn_active").Json(),
      Col("started", &TR::started).Counter("txn_started_total").Json(),
      Col("committed", &TR::committed).Counter("txn_committed_total").Json(),
      Col("aborted", &TR::aborted).Counter("txn_aborted_total").Json(),
      Col("deadlocks", &TR::deadlocks).Counter("txn_deadlocks_total").Json(),
      Col("lock_waits", &TR::lock_waits).Counter("txn_lock_waits_total"),
      Col("watermark", &TR::watermark).Gauge("txn_watermark"),
      Col("pinned_snapshots", &TR::pinned_snapshots)
          .Gauge("txn_pinned_snapshots")};

  using P = PoolRow;
  Columns<P> pools = {
      Col("source", &P::source).Label().Json(),
      Col("page_size", &P::page_size),
      Col("pool_frames", &P::pool_frames).Gauge("bufferpool_frames"),
      Col("frames_used", &P::frames_used)
          .Gauge("bufferpool_frames_used").Json(),
      Col("pages", &P::pages_live),
      Col("hits", &P::hits).Counter("bufferpool_hits_total").Json(),
      Col("misses", &P::misses).Counter("bufferpool_misses_total").Json(),
      Col("evictions", &P::evictions)
          .Counter("bufferpool_evictions_total").Json(),
      Col("disk_reads", &P::disk_reads).Counter("bufferpool_disk_reads_total"),
      Col("disk_writes", &P::disk_writes)
          .Counter("bufferpool_disk_writes_total"),
      Column<P>("disk_ms", TypeId::kDouble,
                [](const P& p) { return Value::Double(p.disk_us / 1e3); })
          .Counter("bufferpool_disk_ms_total"),
      Column<P>("hit_ratio", TypeId::kDouble, [](const P& p) {
        const double accesses = static_cast<double>(p.hits + p.misses);
        return Value::Double(accesses > 0 ? p.hits / accesses : 0.0);
      })};

  using T = TenantUsage;
  Columns<T> tenants = {
      Col("tenant", &T::tenant).Label(),
      Col("queries", &T::queries).Counter("tenant_queries_total"),
      Col("sheds", &T::sheds).Counter("tenant_sheds_total"),
      Col("cache_hits", &T::cache_hits).Counter("tenant_cache_hits_total"),
      Col("rows", &T::rows).Counter("tenant_rows_total"),
      Col("elapsed_ms", &T::elapsed_ms).Counter("tenant_elapsed_ms_total"),
      Col("admission_wait_ms", &T::admission_wait_ms),
      Col("bytes_sent", &T::bytes_sent).Counter("tenant_bytes_sent_total"),
      Col("bytes_received", &T::bytes_received)
          .Counter("tenant_bytes_received_total"),
      Col("messages", &T::messages), Col("retries", &T::retries),
      Col("mem_peak_bytes", &T::mem_peak_bytes).Gauge("tenant_mem_peak_bytes"),
      Col("page_hits", &T::page_hits),
      Col("page_misses", &T::page_misses).Counter("tenant_page_misses_total"),
      Col("disk_ms", &T::disk_ms)};

  using S = SloStatus;
  Columns<S> slo = {
      Col("objective", &S::name).Label().Json(),
      Col("priority", &S::priority), Col("target_ms", &S::target_ms),
      Col("goal", &S::goal), Col("fast_total", &S::fast_total),
      Col("fast_good", &S::fast_good),
      Col("slow_total", &S::slow_total).Json(),
      Col("slow_good", &S::slow_good).Json(),
      Col("fast_attainment", &S::fast_attainment),
      Col("slow_attainment", &S::slow_attainment).Gauge("slo_slow_attainment"),
      Col("fast_burn", &S::fast_burn).Gauge("slo_fast_burn").Json(),
      Col("slow_burn", &S::slow_burn).Gauge("slo_slow_burn").Json(),
      Col("alerting", &S::alerting).Gauge("slo_alerting").Json(),
      Col("alerts", &S::alerts).Counter("slo_alerts_total"),
      Col("last_alert_ms", &S::last_alert_ms)};

  using F = FlightRecorder;
  Columns<F> flight = {
      Column<F>("incidents", TypeId::kInt64,
                [](const F& f) { return Value::Int(f.incidents_captured()); })
          .Counter("incidents_total")};

  using Q = QueryLogEntry;
  Columns<Q> queries = {
      Col("id", &Q::id), Col("sql", &Q::sql), Col("elapsed_ms", &Q::elapsed_ms),
      Col("bytes_sent", &Q::bytes_sent),
      Col("bytes_received", &Q::bytes_received), Col("messages", &Q::messages),
      Col("retries", &Q::retries), Col("cache_hit", &Q::cache_hit),
      Col("rows", &Q::rows), Col("trace_root", &Q::trace_root),
      Col("admission_wait_ms", &Q::admission_wait_ms),
      Col("shed_reason", &Q::shed_reason), Col("tenant", &Q::tenant),
      Col("priority", &Q::priority), Col("finish_ms", &Q::finish_ms),
      Col("fingerprint", &Q::fingerprint)};

  using E = CursorManager::Entry;
  Columns<E> cursors = {
      Col("id", &E::id), Col("sql", &E::record, &Q::sql),
      Col("state", &E::state, CursorManager::StateName),
      Col("streaming", &E::streaming), Col("chunk_rows", &E::chunk_rows),
      Col("chunks", &E::chunks), Col("rows", &E::record, &Q::rows),
      Col("opened_ms", &E::opened_ms),
      Col("lease_deadline_ms", &E::lease_deadline_ms),
      Col("elapsed_ms", &E::record, &Q::elapsed_ms),
      Column<E>("mem_bytes", TypeId::kInt64,
                [](const E& e) { return Value::Int(e.grant.used()); })};

  using X = TxnInfo;
  Columns<X> transactions = {
      Col("id", &X::id), Col("state", &X::state, TxnStateName),
      Col("snapshot_ts", &X::snapshot_ts), Col("commit_ts", &X::commit_ts),
      Col("statements", &X::statements),
      Column<X>("participants", TypeId::kString,
                [](const X& t) {
                  return Value::String(Join(
                      {t.participants.begin(), t.participants.end()}, ","));
                }),
      Col("lock_waits", &X::lock_waits), Col("abort_reason", &X::abort_reason),
      Col("begin_ms", &X::begin_ms), Col("end_ms", &X::end_ms)};

  using I = IncidentRecord;
  Columns<I> incidents = {Col("id", &I::id), Col("at_ms", &I::at_ms),
                          Col("trigger", &I::trigger),
                          Col("detail", &I::detail),
                          Col("snapshot", &I::json)};

  using D = AdvisorDecision;
  Columns<D> decisions = {
      Col("id", &D::id), Col("at_ms", &D::at_ms), Col("kind", &D::kind),
      Col("target", &D::target), Col("evidence", &D::evidence),
      Col("action", &D::action), Col("outcome", &D::outcome)};

  // gis.metrics holds counters only — monotone values identical under
  // any worker interleaving. Point-in-time gauges, whose captured
  // instant can depend on scheduling, are quarantined in gis.gauges.
  using R = RegistryRow;
  Columns<R> counters = {Col("registry", &R::registry), Col("name", &R::name),
                         Col("kind", &R::kind), Col("value", &R::value)};
  Columns<R> gauges = {Col("registry", &R::registry), Col("name", &R::name),
                       Col("value", &R::value)};
  Columns<R> histograms = {
      Col("registry", &R::registry), Col("name", &R::name),
      Col("count", &R::count), Col("sum", &R::sum), Col("min", &R::min),
      Col("max", &R::max), Col("p50", &R::p50), Col("p95", &R::p95),
      Col("p99", &R::p99), Col("p999", &R::p999)};
};

const Catalogue& TheCatalogue() {
  static const Catalogue* catalogue = new Catalogue();
  return *catalogue;
}

/// Health joined with breaker state for every source that has reported
/// an RPC outcome, plus `also` (in name order).
std::vector<SourceRow> Sources(const SourceHealthTracker& health,
                               const CircuitBreakerRegistry& breakers,
                               const std::vector<std::string>& also = {}) {
  std::set<std::string> names(also.begin(), also.end());
  for (const auto& s : health.Snapshot()) names.insert(s.source);
  std::vector<SourceRow> rows;
  for (const auto& n : names) {
    rows.push_back({health.SnapshotOf(n), breakers.SnapshotOf(n)});
  }
  return rows;
}

/// Every source's buffer pool, in source-name order.
std::vector<PoolRow> Pools(const std::vector<ComponentSourcePtr>& sources) {
  std::vector<PoolRow> rows;
  for (const auto& s : sources) {
    rows.push_back({s->engine().pool().Snapshot(), s->name()});
  }
  std::sort(rows.begin(), rows.end(), [](const PoolRow& a, const PoolRow& b) {
    return a.source < b.source;
  });
  return rows;
}

TxnRow Txn(const TransactionManager& txns) {
  return {txns.counters(), static_cast<int64_t>(txns.active_count()),
          static_cast<int64_t>(txns.Watermark()),
          static_cast<int64_t>(txns.pinned_snapshots())};
}

/// Both registries' entries of one kind ("counter", "gauge", or
/// "histogram"), mediator first, names sorted within each.
std::vector<RegistryRow> Registries(const MetricsRegistry& mediator,
                                    const MetricsRegistry& network,
                                    const std::string& kind) {
  std::vector<RegistryRow> rows;
  for (const auto& [reg, metrics] :
       {std::pair{"mediator", &mediator}, {"network", &network}}) {
    const MetricsSnapshot s = metrics->SnapshotAll();
    for (const auto& [name, v] : s.counters) {
      rows.push_back({{}, reg, name, "counter", static_cast<double>(v)});
    }
    for (const auto& [name, v] : s.gauges) {
      rows.push_back({{}, reg, name, "gauge", v});
    }
    for (const auto& [name, h] : s.histograms) {
      if (kind != "histogram") break;  // digests are not free
      rows.push_back({DigestHistogram(h), reg, name, kind});
    }
  }
  std::erase_if(rows, [&](const RegistryRow& r) { return r.kind != kind; });
  return rows;
}

}  // namespace

SystemCatalog::SystemCatalog(const GlobalSystem& gis) : gis_(gis) {
  const Catalogue& c = TheCatalogue();
  auto add = [this](const char* name, const auto& columns, auto rows) {
    tables_[name] = Table{SchemaOf(columns),
                          [&columns, rows](const SchemaPtr& schema) {
                            return RenderRows(schema, columns, rows());
                          }};
  };
  auto registry = [&gis](const char* kind) {
    return Registries(gis.metrics_, gis.network_.metrics(), kind);
  };
  add("gis.admission", c.governor,
      [&gis] { return std::array{gis.governor_.Snapshot()}; });
  add("gis.advisor", c.decisions, [&gis] { return gis.advisor_->Decisions(); });
  add("gis.cursors", c.cursors,
      [&gis] { return std::views::values(gis.cursors_.entries()); });
  add("gis.gauges", c.gauges, [=] { return registry("gauge"); });
  add("gis.histograms", c.histograms, [=] { return registry("histogram"); });
  add("gis.incidents", c.incidents, [&gis] { return gis.flight_.Incidents(); });
  add("gis.metrics", c.counters, [=] { return registry("counter"); });
  add("gis.queries", c.queries, [&gis] { return gis.query_log_.Snapshot(); });
  add("gis.slo", c.slo, [&gis] { return gis.slo_.Snapshot(); });
  // Every catalog-registered source gets a row even with zero traffic.
  add("gis.sources", c.sources, [&gis] {
    return Sources(gis.health_, gis.governor_.breakers(),
                   gis.catalog_.SourceNames());
  });
  add("gis.storage", c.pools, [&gis] { return Pools(gis.sources_); });
  add("gis.tenants", c.tenants,
      [&gis] { return gis.tenants_.SnapshotTenants(); });
  add("gis.transactions", c.transactions,
      [&gis] { return gis.txns_.Snapshot(); });
}

Result<SchemaPtr> SystemCatalog::TableSchema(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("system table '", name, "' not found (known: ",
                            Join(TableNames(), ", "), ")");
  }
  return it->second.schema;
}

Result<RowBatch> SystemCatalog::Snapshot(const std::string& name) const {
  GISQL_ASSIGN_OR_RETURN(SchemaPtr schema, TableSchema(name));
  return tables_.at(ToLower(name)).rows(schema);
}

std::vector<std::string> SystemCatalog::TableNames() const {
  auto names = std::views::keys(tables_);
  return {names.begin(), names.end()};
}

std::string SystemCatalog::ExportPrometheus() const {
  // Both registries under one prefix: every network metric name starts
  // with `net.` and no mediator metric does, so no family is declared
  // twice. Then the catalogued families. Health series cover observed
  // sources only; breaker series cover the sources the breaker
  // registry has seen.
  std::string out = gis_.metrics_.ExportPrometheus("gisql");
  out += gis_.network_.metrics().ExportPrometheus("gisql");
  const Catalogue& c = TheCatalogue();
  const std::string p = "gisql";
  AppendSeries(&out, p, c.health, gis_.health_.Snapshot());
  AppendSeries(&out, p, c.governor, std::array{gis_.governor_.Snapshot()});
  AppendSeries(&out, p, c.advisor_counters,
               std::array{gis_.advisor_->counters()});
  AppendSeries(&out, p, c.txn_counters, std::array{Txn(gis_.txns_)});
  AppendSeries(&out, p, c.breakers, gis_.governor_.breakers().Snapshot());
  AppendSeries(&out, p, c.pools, Pools(gis_.sources_));
  AppendSeries(&out, p, c.tenants, gis_.tenants_.SnapshotTenants());
  AppendSeries(&out, p, c.slo, gis_.slo_.Snapshot());
  AppendSeries(&out, p, c.flight, std::span(&gis_.flight_, 1));
  return out;
}

std::string SystemCatalog::StateJson(double now_ms) const {
  // Deterministic, simulation-derived fields only: every value below
  // replays byte-identically under the same seed, serial or pooled.
  const Catalogue& c = TheCatalogue();
  std::string out = "{\"now_ms\":" + JsonNum(now_ms) + ",\"sources\":";
  AppendJsonArray(&out, c.sources,
                  Sources(gis_.health_, gis_.governor_.breakers()));
  out += ",\"admission\":";
  AppendJson(&out, c.governor, gis_.governor_.Snapshot());
  out += ",\"buffer_pools\":";
  AppendJsonArray(&out, c.pools, Pools(gis_.sources_));
  out += ",\"transactions\":";
  AppendJson(&out, c.txn_counters, Txn(gis_.txns_));
  out += ",\"slo\":";
  AppendJsonArray(&out, c.slo, gis_.slo_.Snapshot());
  return out + "}";
}

}  // namespace gisql
