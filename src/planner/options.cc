#include "planner/options.h"

#include "common/env.h"

namespace gisql {

void PlannerOptions::ApplyEnv() {
  EnvOverride("GISQL_ADMISSION_CONTROL", &admission_control);
  EnvOverride("GISQL_MAX_CONCURRENT", &max_concurrent_queries);
  EnvOverride("GISQL_ADMISSION_QUEUE", &admission_queue_limit);
  EnvOverride("GISQL_ADMISSION_WAIT_MS", &admission_max_wait_ms);
  EnvOverride("GISQL_QUERY_MEM_BYTES", &query_mem_bytes);
  EnvOverride("GISQL_MEDIATOR_MEM_BYTES", &mediator_mem_bytes);
  EnvOverride("GISQL_CIRCUIT_BREAKER", &circuit_breaker);
  EnvOverride("GISQL_BREAKER_FAILURES", &breaker_open_failures);
  EnvOverride("GISQL_BREAKER_COOLDOWN", &breaker_cooldown_skips);
  EnvOverride("GISQL_BREAKER_PROBE_RATIO", &breaker_probe_ratio);
  EnvOverride("GISQL_BREAKER_SEED", &breaker_seed);
  EnvOverride("GISQL_HEALTH_ROUTING", &health_aware_routing);
  EnvOverride("GISQL_CURSOR_CHUNK_ROWS", &cursor_chunk_rows);
  EnvOverride("GISQL_CURSOR_LEASE_MS", &cursor_lease_ms);
  EnvOverride("GISQL_CURSOR_MAX_OPEN", &cursor_max_open);
  EnvOverride("GISQL_TXN_MAX_ACTIVE", &txn_max_active);
  EnvOverride("GISQL_TXN_MAX_RETRIES", &txn_max_prepare_retries);
  EnvOverride("GISQL_TXN_GC", &txn_gc);
  EnvOverride("GISQL_INDEX_RANGE_SCAN", &enable_index_range_scan);
  EnvOverride("GISQL_INDEX_JOIN", &enable_index_join);
  EnvOverride("GISQL_SLO_ENABLED", &slo_enabled);
  EnvOverride("GISQL_SLO_FAST_WINDOW_MS", &slo_fast_window_ms);
  EnvOverride("GISQL_SLO_SLOW_WINDOW_MS", &slo_slow_window_ms);
  EnvOverride("GISQL_SLO_BURN_ALERT", &slo_burn_alert);
  EnvOverride("GISQL_FLIGHT_RECORDER", &flight_recorder);
  EnvOverride("GISQL_FLIGHT_RING", &flight_ring);
  EnvOverride("GISQL_FLIGHT_MAX_INCIDENTS", &flight_max_incidents);
  EnvOverride("GISQL_FLIGHT_COOLDOWN_MS", &flight_cooldown_ms);
  EnvOverride("GISQL_FLIGHT_SHED_SPIKE", &flight_shed_spike);
  EnvOverride("GISQL_FLIGHT_SHED_WINDOW_MS", &flight_shed_window_ms);
  EnvOverride("GISQL_TENANT_MAX_TRACKED", &tenant_max_tracked);
  EnvOverride("GISQL_ADVISOR", &advisor_enabled);
  EnvOverride("GISQL_ADVISOR_INTERVAL_MS", &advisor_interval_ms);
  EnvOverride("GISQL_ADVISOR_WINDOW_MS", &advisor_window_ms);
  EnvOverride("GISQL_ADVISOR_HOT_THRESHOLD", &advisor_hot_threshold);
  EnvOverride("GISQL_ADVISOR_MAX_VIEWS", &advisor_max_views);
  EnvOverride("GISQL_ADVISOR_MIN_GAIN_MS", &advisor_min_gain_ms);
  EnvOverride("GISQL_ADVISOR_COLD_TICKS", &advisor_cold_ticks);
  EnvOverride("GISQL_ADVISOR_LOG", &advisor_log_capacity);
  EnvOverride("GISQL_ADVISOR_MATERIALIZE", &advisor_materialize);
  EnvOverride("GISQL_ADVISOR_PLACEMENT", &advisor_placement);
  EnvOverride("GISQL_ADVISOR_TUNE", &advisor_tune);
  // The kill switch trumps everything above, including a programmatic
  // advisor_enabled=true: operators flip one variable to stop the
  // advisor from acting, whatever the embedding code asked for.
  if (EnvValue<bool>("GISQL_ADVISOR_KILL").value_or(false)) {
    advisor_enabled = false;
  }
}

PlannerOptions PlannerOptions::FromEnv() {
  PlannerOptions o;
  o.ApplyEnv();
  return o;
}

}  // namespace gisql
