#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench.h"
#include "sql/parser.h"
#include "wire/serde.h"

namespace perfbench {

double Rng::Exponential(double mean) { return -mean * std::log1p(-Double()); }

Zipf::Zipf(int n, double theta) {
  double total = 0.0;
  cdf_.reserve(n);
  for (int i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), theta);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(Rng& rng) const {
  const double u = rng.Double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

std::string SiteName(int i) { return "site" + std::to_string(i); }

Data Generate(const DataSpec& spec, uint64_t seed) {
  Rng rng(seed);
  Data data;
  data.spec = spec;
  data.customers.reserve(spec.customers);
  for (int i = 0; i < spec.customers; ++i) {
    data.customers.push_back(
        {i, "cust_" + rng.Letters(static_cast<size_t>(rng.Uniform(8, spec.max_name_len))),
         "region" + std::to_string(rng.Uniform(0, spec.regions - 1)),
         "seg" + std::to_string(rng.Uniform(0, 4))});
  }
  int64_t next_sid = 0;
  data.shards.resize(spec.sites);
  for (auto& shard : data.shards) {
    shard.reserve(spec.rows_per_site);
    for (int i = 0; i < spec.rows_per_site; ++i) {
      const int64_t qty = rng.Uniform(1, 10);
      const double amount =
          static_cast<double>(qty * rng.Uniform(100, 9999)) / 100.0;
      shard.push_back({next_sid++, rng.Uniform(0, spec.customers - 1),
                       rng.Uniform(0, 199), qty, amount,
                       rng.Uniform(spec.first_day, spec.first_day + spec.days - 1),
                       rng.Letters(static_cast<size_t>(rng.Uniform(0, 32)))});
    }
  }
  return data;
}

Status BuildFederation(GlobalSystem* gis, const Data& data) {
  using gisql::Value;
  GISQL_ASSIGN_OR_RETURN(
      gisql::ComponentSource * hq,
      gis->CreateSource("hq", gisql::SourceDialect::kRelational));
  GISQL_RETURN_NOT_OK(hq->ExecuteLocalSql(
      "CREATE TABLE customers (cid bigint, name varchar, region varchar, "
      "segment varchar)"));
  {
    GISQL_ASSIGN_OR_RETURN(gisql::TablePtr t, hq->engine().GetTable("customers"));
    std::vector<gisql::Row> rows;
    rows.reserve(data.customers.size());
    for (const Customer& c : data.customers) {
      rows.push_back({Value::Int(c.cid), Value::String(c.name),
                      Value::String(c.region), Value::String(c.segment)});
    }
    GISQL_RETURN_NOT_OK(t->InsertUnchecked(std::move(rows)));
  }
  GISQL_RETURN_NOT_OK(gis->ImportSource("hq"));

  std::vector<std::string> members;
  const int sites = static_cast<int>(data.shards.size());
  for (int s = 0; s < sites; ++s) {
    const auto dialect = s == sites - 1 ? gisql::SourceDialect::kKeyValue
                                        : gisql::SourceDialect::kRelational;
    GISQL_ASSIGN_OR_RETURN(gisql::ComponentSource * site,
                           gis->CreateSource(SiteName(s), dialect));
    GISQL_RETURN_NOT_OK(site->ExecuteLocalSql(
        "CREATE TABLE sales (sid bigint, cid bigint, pid bigint, qty bigint, "
        "amount double, day bigint, note varchar)"));
    GISQL_ASSIGN_OR_RETURN(gisql::TablePtr t, site->engine().GetTable("sales"));
    std::vector<gisql::Row> rows;
    rows.reserve(data.shards[s].size());
    for (const Sale& r : data.shards[s]) {
      rows.push_back({Value::Int(r.sid), Value::Int(r.cid), Value::Int(r.pid),
                      Value::Int(r.qty), Value::Double(r.amount),
                      Value::Int(r.day), Value::String(r.note)});
    }
    GISQL_RETURN_NOT_OK(t->InsertUnchecked(std::move(rows)));
    const std::string global = "sales_" + SiteName(s);
    GISQL_RETURN_NOT_OK(gis->ImportTable(SiteName(s), "sales", global));
    members.push_back(global);
  }
  return gis->CreateUnionView("sales", members);
}

std::string SaleValues(const Sale& s) {
  char amount[64];
  std::snprintf(amount, sizeof(amount), "%.17g", s.amount);
  std::string out = "(";
  for (int64_t v : {s.sid, s.cid, s.pid, s.qty}) out += std::to_string(v) + ", ";
  out += amount;
  out += ", " + std::to_string(s.day) + ", '" + s.note + "')";
  return out;
}

uint64_t SaleChecksum(int64_t sid, int64_t pid, double amount, int64_t day) {
  uint64_t h = std::hash<int64_t>()(sid) * 0x9e3779b97f4a7c15ULL;
  h ^= std::hash<int64_t>()(pid) + 0x7f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= std::hash<double>()(amount) + 0x7f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= std::hash<int64_t>()(day) + 0x7f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

void HostClock::Start() {
  wall_s_ = cpu_s_ = raw_wall_s_ = 0.0;
  Probe();
}

void HostClock::Stop() { CloseSegment(); }

void HostClock::CloseSegment() {
  const double wall = static_cast<double>(NowNs() - segment_wall0_) / 1e9;
  raw_wall_s_ += wall;
  wall_s_ += wall * factor_;
  cpu_s_ += (ProcessCpuSeconds() - segment_cpu0_) * factor_;
}

int64_t OtherThreadsCpuNs() {
  const long self = syscall(SYS_gettid);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int64_t total = 0;
  while (const dirent* e = readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid <= 0 || tid == self) continue;
    // Linux's CPU-clock id of thread `tid` (CPUCLOCK_SCHED, per thread),
    // built as glibc's pthread_getcpuclockid builds it.
    const auto clock =
        static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      total += static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    }
  }
  closedir(dir);
  return total;
}

namespace {
/// The factor of the last clean probe in this process; 0 before any.
double last_clean_factor = 0.0;
}  // namespace

void HostClock::Probe() {
  if (segment_wall0_ != 0) CloseSegment();
  const int64_t others0 = OtherThreadsCpuNs();
  // The reference loop: dependent multiply-xor steps over a 64 KiB
  // table, so it runs from the L1/L2 caches.
  if (scratch_.empty()) scratch_.assign(1 << 13, 1);
  const size_t mask = scratch_.size() - 1;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < scratch_.size(); ++i) {
      const size_t j = (i * 2654435761u + sink_) & mask;
      sink_ = sink_ * 31 + scratch_[j];
      scratch_[j] ^= sink_;
    }
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    best = rep == 0 ? us : std::min(best, us);
  }
  if (OtherThreadsCpuNs() - others0 <= kQuietNs || last_clean_factor == 0.0) {
    probes_.push_back(best);
    factor_ = last_clean_factor = kReferenceUs / best;
  } else {
    ++skipped_;
    factor_ = last_clean_factor;
  }
  segment_cpu0_ = ProcessCpuSeconds();
  segment_wall0_ = NowNs();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(Us(s));
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path, uint64_t max_ops) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op >= max_ops) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%zu,"
                 "\"parent\":%u}}",
                 first ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), i + 1, s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Counters Counters::Read(GlobalSystem& gis, const Data& data) {
  Counters c;
  const auto& m = gis.network().metrics();
  c.messages = m.Get("net.messages");
  c.bytes = m.Get("net.bytes_sent") + m.Get("net.bytes_received");
  c.net_sim_us = m.Get("net.sim_us");
  c.retries = m.Get("net.retries");
  std::vector<std::string> hosts = {"hq"};
  for (size_t s = 0; s < data.shards.size(); ++s) hosts.push_back(SiteName(s));
  for (const std::string& h : hosts) {
    auto src = gis.GetSource(h);
    if (!src.ok()) continue;
    const gisql::BufferPoolStats p = (*src)->engine().pool().Snapshot();
    c.page_hits += p.hits;
    c.page_misses += p.misses;
    c.evictions += p.evictions;
    c.disk_us += p.disk_us;
  }
  return c;
}

PlannerOptions Workload::planner_options(int workers) const {
  PlannerOptions o;
  o.worker_threads = workers;
  return o;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

void CollectFragments(const gisql::PlanNodePtr& node,
                      std::vector<const gisql::PlanNode*>* out) {
  if (node->kind == gisql::PlanKind::kRemoteFragment) out->push_back(node.get());
  for (const auto& child : node->children) CollectFragments(child, out);
}

}  // namespace

Status TraceLayers(GlobalSystem& gis, const std::string& sql, uint64_t op,
                   uint32_t parent, Tracer* tracer, RunLog* log,
                   double* est_rows) {
  const uint32_t parse = tracer->Begin("sql.parse", op, parent);
  auto stmt = gisql::sql::ParseSelect(sql);
  tracer->End(parse);
  if (!stmt.ok()) return stmt.status();
  const uint32_t plan_span = tracer->Begin("planner.plan", op, parent);
  auto plan = gis.PlanQuery(**stmt);
  tracer->End(plan_span);
  if (!plan.ok()) return plan.status();
  *est_rows = (*plan)->est_rows;
  log->samples["parse_plan_us"].push_back(tracer->Us(parse) + tracer->Us(plan_span));

  std::vector<const gisql::PlanNode*> fragments;
  CollectFragments(*plan, &fragments);
  log->samples["planner.fragments"].push_back(static_cast<double>(fragments.size()));
  const uint32_t all = tracer->Begin("source.fragments", op, parent);
  for (const gisql::PlanNode* node : fragments) {
    GISQL_ASSIGN_OR_RETURN(gisql::ComponentSource * src,
                           gis.GetSource(node->fragment_source));
    const uint32_t exec = tracer->Begin("source.fragment", op, all);
    auto rows = src->ExecuteFragment(node->fragment);
    tracer->End(exec);
    if (!rows.ok()) return rows.status();
    const uint32_t enc = tracer->Begin("wire.encode", op, all);
    auto columns = gisql::ColumnBatch::FromRows(*rows);
    if (!columns.ok()) return columns.status();
    const std::vector<uint8_t> bytes = gisql::wire::SerializeColumnBatch(*columns);
    tracer->End(enc);
    const uint32_t dec = tracer->Begin("wire.decode", op, all);
    gisql::ByteReader reader(bytes);
    auto back = gisql::wire::ReadColumnBatch(&reader);
    tracer->End(dec);
    if (!back.ok()) return back.status();
    if (back->num_rows() != rows->num_rows()) {
      return Status::Internal("wire round trip changed the row count");
    }
    log->wire_rows += static_cast<double>(rows->num_rows());
    log->wire_bytes += static_cast<double>(bytes.size());
  }
  tracer->End(all);
  return Status::OK();
}

}  // namespace perfbench
