/// \file bench.h
/// \brief Shared pieces of the gisql benchmark: the seeded input
/// generator, the federation it builds, the span tracer, counter
/// snapshots, and the workload interface.
///
/// The benchmark drives a GlobalSystem from outside, through its public
/// API only. Every input is generated here from the command-line seed;
/// the system under test receives nothing but the generated rows and
/// statements.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/global_system.h"

namespace perfbench {

using gisql::GlobalSystem;
using gisql::PlannerOptions;
using gisql::Status;

/// \brief splitmix64: a tiny deterministic generator owned by the
/// benchmark, so its inputs never depend on the library under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean (Poisson inter-arrival gaps).
  double Exponential(double mean);
  std::string Letters(size_t len) {
    std::string s(len, 'a');
    for (auto& c : s) c = static_cast<char>('a' + Next() % 26);
    return s;
  }

 private:
  uint64_t state_;
};

/// \brief Zipf(theta) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double theta);
  int Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// \brief Sizes of the generated federation.
struct DataSpec {
  int customers = 1000;
  /// Customer names are "cust_" + 8..max_name_len letters. Wide lengths
  /// make point-lookup response sizes, and so its simulated latencies,
  /// vary from key to key.
  int max_name_len = 24;
  int rows_per_site = 20000;
  int sites = 4;  ///< site0..site{n-2} RELATIONAL, the last KEYVALUE
  int regions = 8;
  int first_day = 19000;
  int days = 365;
  /// Buffer-pool frames per source (GISQL_BUFFER_POOL_FRAMES).
  int pool_frames = 64;
};

struct Customer {
  int64_t cid;
  std::string name, region, segment;
};

struct Sale {
  int64_t sid, cid, pid, qty;
  double amount;
  int64_t day;
  std::string note;
};

/// \brief The generated inputs, kept by the benchmark as the oracle.
struct Data {
  DataSpec spec;
  std::vector<Customer> customers;
  std::vector<std::vector<Sale>> shards;  ///< one per site
};

Data Generate(const DataSpec& spec, uint64_t seed);

/// \brief Site host name of shard `i`.
std::string SiteName(int i);

/// \brief Builds hq (customers), the sales sites, the imports, and the
/// `sales` union view over every shard.
Status BuildFederation(GlobalSystem* gis, const Data& data);

/// \brief SQL literal for a sales row, as `(sid, cid, ..., 'note')`.
std::string SaleValues(const Sale& s);

/// \brief Hash of one (sid, pid, amount, day) row; rows sum to an
/// order-independent checksum.
uint64_t SaleChecksum(int64_t sid, int64_t pid, double amount, int64_t day);

/// \brief Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief CPU nanoseconds used so far by every thread of this process
/// except the caller, each read exactly from its own thread clock.
int64_t OtherThreadsCpuNs();

/// \brief Host time at a fixed reference speed.
///
/// The host is a shared virtual machine whose speed drifts by up to
/// ~1.7x within seconds. So that runs compare, every host duration is
/// rescaled to a reference speed: every kProbeEveryMs of wall time,
/// right after a call returns, the clock times a fixed benchmark-owned
/// reference loop (the fastest of three) and scales the wall and CPU
/// time that follows by kReferenceUs / that time. Probe time itself is
/// excluded. Raw wall time is kept alongside for the record.
///
/// A probe counts only if no other thread of the process ran during it
/// (at most kQuietNs of their CPU). A probe that overlaps work the
/// program left running after a call (a spinning pool, a background
/// thread) is discarded and the last clean factor kept, so the program
/// cannot slow the probe in step with its own ops and scale that cost
/// away.
class HostClock {
 public:
  static constexpr double kReferenceUs = 40.0;
  static constexpr int64_t kProbeEveryMs = 5;
  static constexpr int64_t kQuietNs = 20000;

  /// \brief Opens the first segment (probes the speed).
  void Start();
  /// \brief Closes the open segment.
  void Stop();

  /// \brief Runs `call`; returns its duration in µs at reference
  /// speed. May probe after the call, never during it.
  template <typename F>
  double Time(F&& call) {
    const double factor = factor_;
    const int64_t t0 = NowNs();
    call();
    const int64_t t1 = NowNs();
    if (t1 - segment_wall0_ >= kProbeEveryMs * 1000000) Probe();
    return static_cast<double>(t1 - t0) / 1e3 * factor;
  }

  /// \brief Multiplier from wall time to reference time now.
  double factor() const { return factor_; }
  /// \brief Wall / CPU seconds between Start and Stop, at reference
  /// speed, probes excluded.
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  /// \brief Unscaled wall seconds, probes excluded.
  double raw_wall_s() const { return raw_wall_s_; }
  /// \brief Reference-loop times (µs) of the clean probes.
  const std::vector<double>& probes() const { return probes_; }
  /// \brief Probes discarded because other threads ran during them.
  int64_t skipped() const { return skipped_; }

 private:
  void Probe();
  void CloseSegment();

  double factor_ = 1.0;
  int64_t segment_wall0_ = 0;
  double segment_cpu0_ = 0.0;
  double wall_s_ = 0.0, cpu_s_ = 0.0, raw_wall_s_ = 0.0;
  std::vector<double> probes_;
  int64_t skipped_ = 0;
  std::vector<uint64_t> scratch_;
  uint64_t sink_ = 1;
};

/// \brief In-memory spans around the benchmark's own call sites.
///
/// Off (the default for end-to-end runs) every call is a no-op. Span
/// ids are 1-based; 0 means "no span" / "no parent".
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t op;
    double factor;  ///< HostClock factor when the span began
  };

  /// \param clock scales span durations to reference speed (may be null)
  Tracer(bool on, const HostClock* clock) : on_(on), clock_(clock) {}
  bool on() const { return on_; }

  uint32_t Begin(const char* name, uint64_t op, uint32_t parent = 0) {
    if (!on_) return 0;
    spans_.push_back(Span{name, NowNs(), 0, parent, op,
                          clock_ != nullptr ? clock_->factor() : 1.0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }
  /// \brief Duration in µs of span `id` at reference speed (0 when
  /// tracing is off).
  double Us(uint32_t id) const { return id == 0 ? 0.0 : Us(spans_[id - 1]); }

  /// \brief Durations (µs, reference speed) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// \brief Writes the spans of ops below `max_ops` as Chrome trace
  /// JSON (complete "X" events; args carry op id, span id, parent).
  bool WriteChromeJson(const std::string& path, uint64_t max_ops) const;

 private:
  static double Us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3 * s.factor;
  }

  bool on_;
  const HostClock* clock_;
  std::vector<Span> spans_;
};

/// \brief Public counters of the system, read between phases.
struct Counters {
  int64_t messages = 0;
  int64_t bytes = 0;  ///< sent + received, mediator <-> sources
  int64_t net_sim_us = 0;
  int64_t retries = 0;
  int64_t page_hits = 0;
  int64_t page_misses = 0;
  int64_t evictions = 0;
  double disk_us = 0.0;

  static Counters Read(GlobalSystem& gis, const Data& data);
};

/// \brief What one timed pass produced.
struct RunLog {
  std::vector<double> host_us;  ///< wall time per attempted op
  std::vector<double> sim_ms;   ///< simulated sojourn per completed op
  std::vector<double> wait_ms;  ///< queue wait before service, per completed op
  int64_t attempted = 0, ok = 0, shed = 0, errors = 0, aborted = 0;
  int64_t slo_met = 0;
  HostClock clock;         ///< times the op loop and every call in it
  Counters before, after;  ///< bracketing the op loop
  /// Per-layer samples the traced pass collects besides its spans
  /// (fragment counts, q-errors, self times, wire volumes).
  std::map<std::string, std::vector<double>> samples;
  double wire_rows = 0.0, wire_bytes = 0.0;
  /// First output-check failure; empty when every check passed.
  std::string check_failure;

  void Fail(const std::string& what) {
    if (check_failure.empty()) check_failure = what;
  }
};

/// \brief One named workload: its data sizes, options, and op loop.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual DataSpec data_spec() const { return DataSpec(); }
  /// \brief Planner/governor options; `workers` keeps client + pool
  /// threads within the host's cores.
  virtual PlannerOptions planner_options(int workers) const;
  /// \brief Latency objective on the simulated clock.
  virtual double slo_ms() const = 0;
  /// \brief Ops per requested second: the run's fixed op count is this
  /// times --seconds, so every run of a given length does identical
  /// work.
  virtual int64_t ops_per_second() const = 0;
  /// \brief Ops run at the end of set-up, untimed.
  virtual int64_t warmup_ops() const = 0;
  /// \brief Runs `ops` operations drawn from `seed`, timing the loop
  /// into `log` and checking every answer against `data`.
  virtual Status Run(GlobalSystem& gis, const Data& data, uint64_t seed,
                     int64_t ops, Tracer* tracer, RunLog* log) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// \brief Process user+sys CPU seconds, all threads.
double ProcessCpuSeconds();

/// \brief Nearest-rank percentile (p in [0, 1]); 0 for an empty set.
double Percentile(std::vector<double> v, double p);

/// \brief The benchmark's own calls into the planner, sources and wire
/// for one SELECT, recorded as spans under `parent`: sql::ParseSelect,
/// GlobalSystem::PlanQuery, ComponentSource::ExecuteFragment on every
/// decomposed fragment, and a columnar encode/decode of each fragment
/// result. Fills `*est_rows` with the plan root's estimate.
Status TraceLayers(GlobalSystem& gis, const std::string& sql, uint64_t op,
                   uint32_t parent, Tracer* tracer, RunLog* log,
                   double* est_rows);

}  // namespace perfbench
