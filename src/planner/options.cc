#include "planner/options.h"

#include "common/env.h"

namespace gisql {

void PlannerOptions::ApplyEnv() {
  EnvOverride("GISQL_ADMISSION_CONTROL", &admission.enabled);
  EnvOverridePositive("GISQL_MAX_CONCURRENT", &admission.max_concurrent);
  EnvOverride("GISQL_ADMISSION_QUEUE", &admission.queue_limit);
  EnvOverride("GISQL_ADMISSION_WAIT_MS", &admission.max_wait_ms);
  EnvOverride("GISQL_QUERY_MEM_BYTES", &memory.query_bytes);
  EnvOverride("GISQL_MEDIATOR_MEM_BYTES", &memory.mediator_bytes);
  EnvOverride("GISQL_CIRCUIT_BREAKER", &breaker.enabled);
  EnvOverride("GISQL_BREAKER_FAILURES", &breaker.open_after);
  EnvOverride("GISQL_BREAKER_COOLDOWN", &breaker.cooldown_skips);
  EnvOverride("GISQL_BREAKER_PROBE_RATIO", &breaker.probe_ratio);
  EnvOverride("GISQL_BREAKER_SEED", &breaker.seed);
  EnvOverride("GISQL_HEALTH_ROUTING", &health_aware_routing);
  EnvOverridePositive("GISQL_CURSOR_CHUNK_ROWS", &cursor_chunk_rows);
  EnvOverrideNonNegative("GISQL_CURSOR_LEASE_MS", &cursor_lease_ms);
  EnvOverridePositive("GISQL_CURSOR_MAX_OPEN", &cursor_max_open);
  EnvOverridePositive("GISQL_TXN_MAX_ACTIVE", &txn_max_active);
  EnvOverride("GISQL_TXN_MAX_RETRIES", &txn_max_prepare_retries);
  EnvOverride("GISQL_TXN_GC", &txn_gc);
  EnvOverride("GISQL_INDEX_RANGE_SCAN", &enable_index_range_scan);
  EnvOverride("GISQL_INDEX_JOIN", &enable_index_join);
  EnvOverride("GISQL_SLO_FAST_WINDOW_MS", &slo.fast_window_ms);
  EnvOverride("GISQL_SLO_SLOW_WINDOW_MS", &slo.slow_window_ms);
  EnvOverride("GISQL_SLO_BURN_ALERT", &slo.burn_alert);
  EnvOverride("GISQL_FLIGHT_RECORDER", &flight.enabled);
  EnvOverride("GISQL_FLIGHT_RING", &flight.ring);
  EnvOverride("GISQL_FLIGHT_MAX_INCIDENTS", &flight.max_incidents);
  EnvOverride("GISQL_FLIGHT_COOLDOWN_MS", &flight.cooldown_ms);
  EnvOverride("GISQL_FLIGHT_SHED_SPIKE", &flight.shed_spike);
  EnvOverride("GISQL_FLIGHT_SHED_WINDOW_MS", &flight.shed_window_ms);
  EnvOverride("GISQL_TENANT_MAX_TRACKED", &tenants.max_tracked);
  EnvOverride("GISQL_ADVISOR", &advisor.enabled);
  EnvOverride("GISQL_ADVISOR_INTERVAL_MS", &advisor.interval_ms);
  EnvOverride("GISQL_ADVISOR_WINDOW_MS", &advisor.window_ms);
  EnvOverride("GISQL_ADVISOR_HOT_THRESHOLD", &advisor.hot_threshold);
  EnvOverride("GISQL_ADVISOR_MAX_VIEWS", &advisor.max_views);
  EnvOverride("GISQL_ADVISOR_MIN_GAIN_MS", &advisor.min_gain_ms);
  EnvOverride("GISQL_ADVISOR_COLD_TICKS", &advisor.cold_ticks);
  EnvOverride("GISQL_ADVISOR_LOG", &advisor.log_capacity);
  EnvOverride("GISQL_ADVISOR_MATERIALIZE", &advisor.materialize);
  EnvOverride("GISQL_ADVISOR_PLACEMENT", &advisor.placement);
  EnvOverride("GISQL_ADVISOR_TUNE", &advisor.tune);
}

PlannerOptions PlannerOptions::FromEnv() {
  PlannerOptions o;
  o.ApplyEnv();
  return o;
}

}  // namespace gisql
