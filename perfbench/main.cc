/// \file main.cc
/// \brief The gisql benchmark binary.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <file.json>]
///
/// Untraced (--trace 0) it sets the federation up three times (median
/// set-up time), runs a fixed op count on the last copy, and prints the
/// end-to-end metrics. Traced (--trace 1) it runs the same ops twice on
/// fresh copies, once untraced (counters, reference throughput) and
/// once with spans around every benchmark call site, and prints the
/// per-layer metrics. The last stdout line is one JSON object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int64_t kMinOps = 1000;      ///< >= 10 samples above the p99
constexpr uint64_t kSpanFileOps = 200;  ///< ops written to the trace file

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Independent seed streams derived from the command-line seed.
uint64_t Stream(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0xd1b54a32d192ed03ULL)).Next();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/// One set-up: a fresh federation, imported and warmed.
struct System {
  std::unique_ptr<GlobalSystem> gis;
  std::unique_ptr<Workload> workload;
  double setup_s = 0.0;      ///< at reference speed
  double raw_setup_s = 0.0;  ///< wall
};

Status SetUp(const Args& args, const PlannerOptions& options, const Data& data,
             System* sys) {
  HostClock build;
  build.Start();
  Status built;
  build.Time([&] {
    sys->workload = MakeWorkload(args.workload);
    sys->gis = std::make_unique<GlobalSystem>(options);
    built = BuildFederation(sys->gis.get(), data);
  });
  build.Stop();
  GISQL_RETURN_NOT_OK(built);
  Tracer off(false, nullptr);
  RunLog warm;
  GISQL_RETURN_NOT_OK(sys->workload->Run(*sys->gis, data, Stream(args.seed, 1),
                                         sys->workload->warmup_ops(), &off,
                                         &warm));
  if (!warm.check_failure.empty()) return Status::Internal(warm.check_failure);
  if (warm.errors != 0) return Status::Internal("warm-up ops failed");
  sys->setup_s = build.wall_s() + warm.clock.wall_s();
  sys->raw_setup_s = build.raw_wall_s() + warm.clock.raw_wall_s();
  return Status::OK();
}

/// Runs the timed ops on `sys`; a failed output check fails the run.
Status TimedPass(const Args& args, int64_t ops, System& sys, const Data& data,
                 Tracer* tracer, RunLog* log) {
  GISQL_RETURN_NOT_OK(sys.workload->Run(*sys.gis, data, Stream(args.seed, 2),
                                        ops, tracer, log));
  if (!log->check_failure.empty()) return Status::Internal(log->check_failure);
  return Status::OK();
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double PerOp(double total, const RunLog& log) {
  return log.attempted > 0 ? total / static_cast<double>(log.attempted) : 0.0;
}

void AddEndToEnd(const RunLog& log, double setup_s, JsonMetrics* m) {
  const Counters& a = log.after;
  const Counters& b = log.before;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double n = static_cast<double>(log.attempted);
  m->Add("setup_s", setup_s, "s");
  m->Add("throughput_ops", n / log.clock.wall_s(), "ops/s");
  m->Add("host_p50_us", Percentile(log.host_us, 0.50), "us");
  m->Add("host_p99_us", Percentile(log.host_us, 0.99), "us");
  m->Add("cpu_us_per_op", PerOp(log.clock.cpu_s() * 1e6, log), "us");
  m->Add("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  m->Add("sim_p50_ms", Percentile(log.sim_ms, 0.50), "ms");
  m->Add("sim_p99_ms", Percentile(log.sim_ms, 0.99), "ms");
  m->Add("wire_bytes_per_op", PerOp(static_cast<double>(a.bytes - b.bytes), log),
         "bytes");
  m->Add("rpcs_per_op", PerOp(static_cast<double>(a.messages - b.messages), log),
         "count");
  m->Add("slo_attainment", static_cast<double>(log.slo_met) / n, "ratio");
  m->Add("ok_ratio", static_cast<double>(log.ok) / n, "ratio");
}

void AddPerLayer(const RunLog& plain, const RunLog& traced, const Tracer& tracer,
                 GlobalSystem& plain_gis, JsonMetrics* m) {
  auto median_of = [&](const char* span) { return Median(tracer.DurationsUs(span)); };
  auto sum_of = [&](const char* span) {
    const std::vector<double> d = tracer.DurationsUs(span);
    return std::accumulate(d.begin(), d.end(), 0.0);
  };
  auto sample = [&](const char* name) {
    auto it = traced.samples.find(name);
    return it == traced.samples.end() ? std::vector<double>() : it->second;
  };
  const Counters& a = plain.after;
  const Counters& b = plain.before;
  const double hits = static_cast<double>(a.page_hits - b.page_hits);
  const double misses = static_cast<double>(a.page_misses - b.page_misses);
  const double mb = traced.wire_bytes / (1024.0 * 1024.0);
  const double n = static_cast<double>(plain.attempted);

  m->Add("sql.parse_us", median_of("sql.parse"), "us");
  m->Add("planner.plan_us", median_of("planner.plan"), "us");
  m->Add("planner.fragments_per_op", Mean(sample("planner.fragments")), "count");
  m->Add("planner.root_qerror", Median(sample("planner.root_qerror")), "ratio");
  m->Add("core.query_us", median_of("core.query"), "us");
  m->Add("core.execute_self_us", Median(sample("core.execute_self_us")), "us");
  m->Add("core.cursor_open_us", median_of("core.cursor_open"), "us");
  m->Add("core.cursor_fetch_us", median_of("core.cursor_fetch"), "us");
  m->Add("source.fragment_us", median_of("source.fragments"), "us");
  m->Add("storage.page_hits_per_op", PerOp(hits, plain), "count");
  m->Add("storage.page_misses_per_op", PerOp(misses, plain), "count");
  m->Add("storage.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "ratio");
  m->Add("storage.evictions_per_op",
         PerOp(static_cast<double>(a.evictions - b.evictions), plain), "count");
  m->Add("storage.disk_ms_per_op", PerOp((a.disk_us - b.disk_us) / 1e3, plain),
         "ms");
  m->Add("wire.encode_us_per_mb", mb > 0 ? sum_of("wire.encode") / mb : 0.0,
         "us/MiB");
  m->Add("wire.decode_us_per_mb", mb > 0 ? sum_of("wire.decode") / mb : 0.0,
         "us/MiB");
  m->Add("wire.bytes_per_row",
         traced.wire_rows > 0 ? traced.wire_bytes / traced.wire_rows : 0.0,
         "bytes");
  m->Add("net.sim_ms_per_op",
         PerOp(static_cast<double>(a.net_sim_us - b.net_sim_us) / 1e3, plain), "ms");
  m->Add("net.retries_per_op",
         PerOp(static_cast<double>(a.retries - b.retries), plain), "count");
  m->Add("sched.admission_wait_ms_p99", Percentile(plain.wait_ms, 0.99), "ms");
  m->Add("sched.shed_ratio", static_cast<double>(plain.shed) / n, "ratio");
  m->Add("sched.mem_grant_peak_bytes",
         static_cast<double>(plain_gis.tenants().Totals().mem_peak_bytes), "bytes");
  const gisql::ThreadPool* pool = plain_gis.worker_pool();
  m->Add("common.pool_peak_tasks",
         pool != nullptr ? static_cast<double>(pool->peak_worker_tasks()) : 0.0,
         "count");
  m->Add("txn.begin_us", median_of("txn.begin"), "us");
  m->Add("txn.read_us", median_of("txn.read"), "us");
  m->Add("txn.read_after_write_us", median_of("txn.read_after_write"), "us");
  m->Add("txn.write_us", median_of("txn.write"), "us");
  m->Add("txn.commit_us", median_of("txn.commit"), "us");
  m->Add("txn.abort_ratio", static_cast<double>(plain.aborted) / n, "ratio");
  const double plain_tput = n / plain.clock.wall_s();
  const double traced_tput =
      static_cast<double>(traced.attempted) / traced.clock.wall_s();
  m->Add("trace.overhead_ratio", plain_tput / traced_tput, "ratio");
}

/// Describes the data as the system stores it: rows, and pages per
/// source against its pool frames.
void PrintData(GlobalSystem& gis, const Data& data) {
  std::printf("data: customers=%d rows_per_site=%d sites=%d (%s KEYVALUE, rest "
              "RELATIONAL)\n",
              data.spec.customers, data.spec.rows_per_site, data.spec.sites,
              SiteName(data.spec.sites - 1).c_str());
  std::vector<std::string> hosts = {"hq"};
  for (int s = 0; s < data.spec.sites; ++s) hosts.push_back(SiteName(s));
  std::printf("pages:");
  for (const std::string& h : hosts) {
    auto src = gis.GetSource(h);
    if (!src.ok()) continue;
    const gisql::BufferPoolStats p = (*src)->engine().pool().Snapshot();
    std::printf(" %s=%lld/%lld", h.c_str(), static_cast<long long>(p.pages_live),
                static_cast<long long>(p.pool_frames));
  }
  std::printf(" (live pages / pool frames)\n");
}

/// Unscaled wall figures and the measured host speed, for the record.
void PrintRaw(const RunLog& log, const std::vector<double>& raw_setups) {
  const std::vector<double>& p = log.clock.probes();
  std::printf("raw: wall_s=%.3f throughput_ops=%.6g setup_s=%.4g "
              "reference_us min=%.1f median=%.1f max=%.1f (scaled to %.0f) "
              "probes clean=%zu skipped=%lld\n",
              log.clock.raw_wall_s(),
              static_cast<double>(log.attempted) / log.clock.raw_wall_s(),
              Median(raw_setups),
              *std::min_element(p.begin(), p.end()), Median(p),
              *std::max_element(p.begin(), p.end()), HostClock::kReferenceUs,
              p.size(), static_cast<long long>(log.clock.skipped()));
}

/// Exact simulated outcome: identical for two runs of one seed.
void PrintSimDigest(const RunLog& log) {
  const Counters& a = log.after;
  const Counters& b = log.before;
  double sim_sum = 0.0;
  for (double v : log.sim_ms) sim_sum += v;
  std::printf("sim: attempted=%lld ok=%lld shed=%lld aborted=%lld slo_met=%lld "
              "sim_sum_ms=%.17g sim_p50_ms=%.17g sim_p99_ms=%.17g messages=%lld "
              "bytes=%lld net_sim_us=%lld page_hits=%lld page_misses=%lld "
              "evictions=%lld disk_us=%.17g\n",
              static_cast<long long>(log.attempted), static_cast<long long>(log.ok),
              static_cast<long long>(log.shed), static_cast<long long>(log.aborted),
              static_cast<long long>(log.slo_met), sim_sum,
              Percentile(log.sim_ms, 0.5), Percentile(log.sim_ms, 0.99),
              static_cast<long long>(a.messages - b.messages),
              static_cast<long long>(a.bytes - b.bytes),
              static_cast<long long>(a.net_sim_us - b.net_sim_us),
              static_cast<long long>(a.page_hits - b.page_hits),
              static_cast<long long>(a.page_misses - b.page_misses),
              static_cast<long long>(a.evictions - b.evictions), a.disk_us - b.disk_us);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\nworkloads:");
    for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  // Client plus workers stay below nproc: one vCPU is left to the host,
  // so a fragment fan-out does not wait on a vCPU taken by a neighbour.
  const int workers = static_cast<int>(std::max(1L, nproc - 2));
  const PlannerOptions options = workload->planner_options(workers);
  const Data data = Generate(workload->data_spec(), Stream(args.seed, 0));
  // Sources read their pool size from the environment when created.
  setenv("GISQL_BUFFER_POOL_FRAMES", std::to_string(data.spec.pool_frames).c_str(), 1);
  const int64_t ops = std::max(kMinOps, workload->ops_per_second() * args.seconds);

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%ld client_threads=1 worker_threads=%d build=%s\n", nproc,
              workers, PERFBENCH_BUILD_TYPE);
  std::printf("run: ops=%lld warmup_ops=%lld setups=%d slo_ms=%g\n",
              static_cast<long long>(ops),
              static_cast<long long>(workload->warmup_ops()),
              args.trace ? 2 : kSetups, workload->slo_ms());

  auto fail = [](const Status& st) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  };
  JsonMetrics metrics;
  RunLog plain;
  if (!args.trace) {
    std::vector<double> setups, raw_setups;
    System sys;
    for (int i = 0; i < kSetups; ++i) {
      sys = System();  // the previous copy goes before the next is built
      Status st = SetUp(args, options, data, &sys);
      if (!st.ok()) return fail(st);
      setups.push_back(sys.setup_s);
      raw_setups.push_back(sys.raw_setup_s);
    }
    PrintData(*sys.gis, data);
    Tracer off(false, nullptr);
    Status st = TimedPass(args, ops, sys, data, &off, &plain);
    if (!st.ok()) return fail(st);
    PrintSimDigest(plain);
    PrintRaw(plain, raw_setups);
    AddEndToEnd(plain, Median(setups), &metrics);
  } else {
    System plain_sys;
    Status st = SetUp(args, options, data, &plain_sys);
    if (!st.ok()) return fail(st);
    PrintData(*plain_sys.gis, data);
    Tracer off(false, nullptr);
    st = TimedPass(args, ops, plain_sys, data, &off, &plain);
    if (!st.ok()) return fail(st);
    PrintSimDigest(plain);

    System traced_sys;
    st = SetUp(args, options, data, &traced_sys);
    if (!st.ok()) return fail(st);
    RunLog traced;
    Tracer tracer(true, &traced.clock);
    st = TimedPass(args, ops, traced_sys, data, &tracer, &traced);
    if (!st.ok()) return fail(st);
    if (traced.errors != 0) return fail(Status::Internal("traced ops failed"));
    if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out, kSpanFileOps)) {
      return fail(Status::IOError("cannot write ", args.trace_out));
    }
    AddPerLayer(plain, traced, tracer, *plain_sys.gis, &metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              plain.errors == 0 ? "true" : "false",
              static_cast<long long>(plain.attempted),
              static_cast<long long>(plain.errors), metrics.body().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
