/// \file workloads.cc
/// \brief The four named workloads. Each runs one statement shape from
/// one client thread, a fixed number of times, and checks every answer
/// against the generated data.

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>

#include "bench.h"

namespace perfbench {
namespace {

using gisql::QueryResult;
using gisql::Result;

/// Brackets an op loop with the host clock and the system's counters.
class LoopClock {
 public:
  LoopClock(RunLog* log, GlobalSystem& gis, const Data& data)
      : log_(log), gis_(gis), data_(data) {
    log_->before = Counters::Read(gis_, data_);
    log_->clock.Start();
  }
  ~LoopClock() { Stop(); }
  /// Ends the timed loop early, so checks after it stay untimed.
  void Stop() {
    if (log_ == nullptr) return;
    log_->clock.Stop();
    log_->after = Counters::Read(gis_, data_);
    log_ = nullptr;
  }
  LoopClock(const LoopClock&) = delete;
  LoopClock& operator=(const LoopClock&) = delete;

 private:
  RunLog* log_;
  GlobalSystem& gis_;
  const Data& data_;
};

/// Books one completed op on the simulated clock.
void Complete(RunLog* log, double sojourn_ms, double wait_ms, double slo_ms) {
  ++log->ok;
  log->sim_ms.push_back(sojourn_ms);
  log->wait_ms.push_back(wait_ms);
  if (sojourn_ms <= slo_ms) ++log->slo_met;
}

/// Books a refused or failed op. Only an admission shed of a query,
/// cursor or transaction is an expected outcome; any other failure,
/// memory or buffer-pool exhaustion included, is an error.
void Refused(RunLog* log, const Status& st, const std::string& sql) {
  const std::string& m = st.message();
  if (st.IsOverloaded() &&
      (m.rfind("query shed: ", 0) == 0 || m.rfind("cursor shed: ", 0) == 0 ||
       m.rfind("transaction shed: ", 0) == 0)) {
    ++log->shed;
  } else {
    ++log->errors;
    log->Fail("unexpected error: " + st.ToString() + " in: " + sql);
  }
}

/// Root-estimate q-error of one answered SELECT, both sides floored at
/// one row.
double QError(double est_rows, size_t rows) {
  const double e = std::max(1.0, est_rows);
  const double a = std::max(1.0, static_cast<double>(rows));
  return std::max(e / a, a / e);
}

/// Traced-pass bookkeeping shared by the SELECT workloads: the layer
/// calls before the statement, then its q-error and self time.
struct LayerProbe {
  double est_rows = 0.0;

  Status Before(GlobalSystem& gis, const std::string& sql, uint64_t op,
                uint32_t root, Tracer* tracer, RunLog* log) {
    if (!tracer->on()) return Status::OK();
    return TraceLayers(gis, sql, op, root, tracer, log, &est_rows);
  }
  void Answered(Tracer* tracer, RunLog* log, size_t rows) const {
    if (tracer->on()) {
      log->samples["planner.root_qerror"].push_back(QError(est_rows, rows));
    }
  }
  void Executed(Tracer* tracer, RunLog* log, double query_us) const {
    if (tracer->on()) {
      log->samples["core.execute_self_us"].push_back(
          query_us - log->samples["parse_plan_us"].back());
    }
  }
};

/// Runs one SELECT op through `call` (a Submit or Query of `sql`): the
/// traced layer calls, host timing, and outcome booking. `*answer` is
/// set only when the statement completed.
template <typename Call>
Status SelectOp(GlobalSystem& gis, const std::string& sql, int64_t op,
                double slo_ms, Tracer* tracer, RunLog* log, Call&& call,
                std::optional<QueryResult>* answer) {
  const uint32_t root = tracer->Begin("op", op);
  LayerProbe probe;
  GISQL_RETURN_NOT_OK(probe.Before(gis, sql, op, root, tracer, log));
  Result<QueryResult> r = Status::Internal("pending");
  const uint32_t q = tracer->Begin("core.query", op, root);
  log->host_us.push_back(log->clock.Time([&] { r = call(); }));
  tracer->End(q);
  tracer->End(root);
  ++log->attempted;
  if (!r.ok()) {
    Refused(log, r.status(), sql);
    return Status::OK();
  }
  Complete(log, r->metrics.admission_wait_ms + r->metrics.elapsed_ms,
           r->metrics.admission_wait_ms, slo_ms);
  probe.Answered(tracer, log, r->batch.num_rows());
  probe.Executed(tracer, log, tracer->Us(q));
  *answer = std::move(r).ValueUnsafe();
  return Status::OK();
}

/// Sales shards over three times their sources' buffer pools, so
/// scans miss and evict on every statement.
DataSpec OutOfCoreSpec(int rows_per_site, int pool_frames) {
  DataSpec d;
  d.rows_per_site = rows_per_site;
  d.pool_frames = pool_frames;
  return d;
}

// ---------------------------------------------------------------------
// point-lookup: open-loop primary-key lookups on customers@hq.

class PointLookup : public Workload {
 public:
  static constexpr double kArrivalsPerSimSecond = 300.0;

  const char* name() const override { return "point-lookup"; }
  DataSpec data_spec() const override {
    DataSpec d;
    d.max_name_len = 600;
    d.rows_per_site = 2000;
    return d;
  }
  double slo_ms() const override { return 50.0; }
  int64_t ops_per_second() const override { return 10000; }
  // The SLO engine's slow window (60 s simulated) fills after ~18k
  // arrivals; per-statement cost grows until it does.
  int64_t warmup_ops() const override { return 20000; }

  Status Run(GlobalSystem& gis, const Data& data, uint64_t seed, int64_t ops,
             Tracer* tracer, RunLog* log) override {
    Rng rng(seed);
    const Zipf tenants(64, 0.99);
    double arrival = gis.governor().now_ms();
    LoopClock clock(log, gis, data);
    for (int64_t i = 0; i < ops; ++i) {
      arrival += rng.Exponential(1000.0 / kArrivalsPerSimSecond);
      const int64_t cid = rng.Uniform(0, data.spec.customers - 1);
      GlobalSystem::SubmitOptions submit;
      submit.arrival_ms = arrival;
      submit.priority = 2;
      submit.tenant = "tenant" + std::to_string(tenants.Sample(rng));
      const std::string sql =
          "SELECT cid, name, region, segment FROM customers WHERE cid = " +
          std::to_string(cid);

      std::optional<QueryResult> r;
      GISQL_RETURN_NOT_OK(SelectOp(
          gis, sql, i, slo_ms(), tracer, log,
          [&] { return gis.Submit(sql, submit); }, &r));
      if (!r) continue;
      const Customer& want = data.customers[cid];
      const auto& rows = r->batch.rows();
      if (rows.size() != 1 || rows[0].size() != 4 ||
          rows[0][0].AsInt() != want.cid || rows[0][1].AsString() != want.name ||
          rows[0][2].AsString() != want.region ||
          rows[0][3].AsString() != want.segment) {
        log->Fail("point-lookup: wrong row for cid " + std::to_string(cid));
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// join-analytics: closed-loop sales JOIN customers over a day range,
// grouped by region, across the four-site union view.

class JoinAnalytics : public Workload {
 public:
  static constexpr int kRangeDays = 30;

  const char* name() const override { return "join-analytics"; }
  DataSpec data_spec() const override { return OutOfCoreSpec(2000, 4); }
  double slo_ms() const override { return 400.0; }
  int64_t ops_per_second() const override { return 140; }
  int64_t warmup_ops() const override { return 80; }

  Status Run(GlobalSystem& gis, const Data& data, uint64_t seed, int64_t ops,
             Tracer* tracer, RunLog* log) override {
    BuildOracle(data);
    Rng rng(seed);
    const DataSpec& spec = data.spec;
    LoopClock clock(log, gis, data);
    for (int64_t i = 0; i < ops; ++i) {
      const int64_t lo =
          rng.Uniform(spec.first_day, spec.first_day + spec.days - kRangeDays);
      const int64_t hi = lo + kRangeDays - 1;
      const std::string sql =
          "SELECT c.region, SUM(s.amount), COUNT(*) FROM sales s JOIN "
          "customers c ON s.cid = c.cid WHERE s.day BETWEEN " +
          std::to_string(lo) + " AND " + std::to_string(hi) +
          " GROUP BY c.region";

      std::optional<QueryResult> r;
      GISQL_RETURN_NOT_OK(SelectOp(gis, sql, i, slo_ms(), tracer, log,
                                   [&] { return gis.Query(sql); }, &r));
      if (r) Check(data, lo, hi, r->batch, log);
    }
    return Status::OK();
  }

 private:
  struct Cell {
    double sum = 0.0;
    int64_t count = 0;
  };

  void BuildOracle(const Data& data) {
    const DataSpec& spec = data.spec;
    region_of_.clear();
    for (const Customer& c : data.customers) {
      region_of_.push_back(std::stoi(c.region.substr(6)));
    }
    by_day_.assign(static_cast<size_t>(spec.days) * spec.regions, Cell());
    for (const auto& shard : data.shards) {
      for (const Sale& s : shard) {
        Cell& cell = by_day_[static_cast<size_t>(s.day - spec.first_day) *
                                 spec.regions +
                             region_of_[s.cid]];
        cell.sum += s.amount;
        cell.count += 1;
      }
    }
  }

  void Check(const Data& data, int64_t lo, int64_t hi,
             const gisql::RowBatch& batch, RunLog* log) const {
    const DataSpec& spec = data.spec;
    std::vector<Cell> want(spec.regions);
    for (int64_t d = lo; d <= hi; ++d) {
      for (int g = 0; g < spec.regions; ++g) {
        const Cell& c =
            by_day_[static_cast<size_t>(d - spec.first_day) * spec.regions + g];
        want[g].sum += c.sum;
        want[g].count += c.count;
      }
    }
    size_t groups = 0;
    for (const Cell& c : want) groups += c.count > 0 ? 1 : 0;
    bool ok = batch.num_rows() == groups;
    for (const gisql::Row& row : batch.rows()) {
      if (!ok) break;
      const int g = std::stoi(row[0].AsString().substr(6));
      const double sum = row[1].NumericValue();
      ok = g >= 0 && g < spec.regions && row[2].AsInt() == want[g].count &&
           std::fabs(sum - want[g].sum) <= 1e-9 * std::max(1.0, want[g].sum);
    }
    if (!ok) {
      log->Fail("join-analytics: per-region sums differ from the oracle for "
                "days " + std::to_string(lo) + ".." + std::to_string(hi));
    }
  }

  std::vector<int> region_of_;
  std::vector<Cell> by_day_;  ///< [day][region] sums over every shard
};

// ---------------------------------------------------------------------
// order-stream: open-loop cursors draining one customer's sales. The
// mediator serves fetches one at a time on its simulated clock, so
// arrivals that find it busy wait in a backlog of open cursors; an
// arrival that finds cursor_max_open cursors open is shed.

class OrderStream : public Workload {
 public:
  static constexpr double kArrivalsPerSimSecond = 2.5;
  static constexpr int kMaxOpenCursors = 4;

  const char* name() const override { return "order-stream"; }
  DataSpec data_spec() const override { return OutOfCoreSpec(2000, 4); }
  PlannerOptions planner_options(int workers) const override {
    PlannerOptions o = Workload::planner_options(workers);
    o.cursor_max_open = kMaxOpenCursors;
    return o;
  }
  double slo_ms() const override { return 400.0; }
  int64_t ops_per_second() const override { return 100; }
  int64_t warmup_ops() const override { return 60; }

  Status Run(GlobalSystem& gis, const Data& data, uint64_t seed, int64_t ops,
             Tracer* tracer, RunLog* log) override {
    BuildOracle(data);
    Rng rng(seed);
    const Zipf tenants(64, 0.99);
    struct Arrival {
      double at_ms;
      int64_t cid;
      std::string tenant;
    };
    std::vector<Arrival> arrivals;
    double t = gis.governor().now_ms();
    for (int64_t i = 0; i < ops; ++i) {
      t += rng.Exponential(1000.0 / kArrivalsPerSimSecond);
      arrivals.push_back({t, rng.Uniform(0, data.spec.customers - 1),
                          "tenant" + std::to_string(tenants.Sample(rng))});
    }
    auto sql_of = [](int64_t cid) {
      return "SELECT sid, pid, amount, day FROM sales WHERE cid = " +
             std::to_string(cid);
    };

    struct Open {
      uint64_t cursor;
      int64_t op;
      LayerProbe probe;
      double host_us;
      double first_fetch_ms;
      int64_t rows;
      uint64_t checksum;
    };
    std::deque<Open> backlog;
    struct Drained {
      int64_t cid, rows;
      uint64_t checksum;
    };
    std::vector<Drained> drained;
    size_t next = 0;

    // Opens every arrival due by the mediator's clock; with `idle`, the
    // next arrival even if it lies ahead (the mediator jumps to it).
    auto admit_due = [&](bool idle) -> Status {
      while (next < arrivals.size() &&
             (idle || arrivals[next].at_ms <= gis.governor().now_ms())) {
        idle = false;
        const Arrival& a = arrivals[next];
        const int64_t op = static_cast<int64_t>(next++);
        GlobalSystem::CursorOptions opts;
        opts.submit.arrival_ms = a.at_ms;
        opts.submit.tenant = a.tenant;
        const std::string sql = sql_of(a.cid);
        const uint32_t root = tracer->Begin("op", op);
        LayerProbe probe;
        GISQL_RETURN_NOT_OK(probe.Before(gis, sql, op, root, tracer, log));
        Result<uint64_t> id = Status::Internal("pending");
        const uint32_t span = tracer->Begin("core.cursor_open", op, root);
        const double us = log->clock.Time([&] { id = gis.OpenCursor(sql, opts); });
        tracer->End(span);
        tracer->End(root);
        ++log->attempted;
        if (!id.ok()) {
          log->host_us.push_back(us);
          Refused(log, id.status(), sql);
          continue;
        }
        backlog.push_back({*id, op, probe, us, -1.0, 0, 0});
      }
      return Status::OK();
    };

    LoopClock clock(log, gis, data);
    while (next < arrivals.size() || !backlog.empty()) {
      GISQL_RETURN_NOT_OK(admit_due(backlog.empty()));
      if (backlog.empty()) continue;
      Open& c = backlog.front();
      if (c.first_fetch_ms < 0) c.first_fetch_ms = gis.governor().now_ms();
      Result<GlobalSystem::CursorChunkResult> chunk = Status::Internal("pending");
      const uint32_t span = tracer->Begin("core.cursor_fetch", c.op);
      c.host_us += log->clock.Time([&] { chunk = gis.FetchChunk(c.cursor); });
      tracer->End(span);
      const Arrival& a = arrivals[c.op];
      if (!chunk.ok()) {
        log->host_us.push_back(c.host_us);
        Refused(log, chunk.status(), sql_of(a.cid));
        (void)gis.CloseCursor(c.cursor);
        backlog.pop_front();
        continue;
      }
      c.checksum += Checksum(chunk->batch);
      c.rows += static_cast<int64_t>(chunk->batch.num_rows());
      if (!chunk->done) continue;
      const double now = gis.governor().now_ms();
      log->host_us.push_back(c.host_us);
      Complete(log, now - a.at_ms, c.first_fetch_ms - a.at_ms, slo_ms());
      c.probe.Answered(tracer, log, static_cast<size_t>(c.rows));
      const Want& w = want_[a.cid];
      if (c.rows != w.rows || c.checksum != w.checksum) {
        log->Fail("order-stream: drained rows differ from the oracle for cid " +
                  std::to_string(a.cid));
      }
      drained.push_back({a.cid, c.rows, c.checksum});
      backlog.pop_front();
    }
    clock.Stop();

    // The same SQL materialized through Query() must agree with the
    // drained cursors, on a sample of them.
    const size_t stride = std::max<size_t>(1, drained.size() / 16);
    for (size_t i = 0; i < drained.size(); i += stride) {
      auto r = gis.Query(sql_of(drained[i].cid));
      if (!r.ok()) return r.status();
      if (static_cast<int64_t>(r->batch.num_rows()) != drained[i].rows ||
          Checksum(r->batch) != drained[i].checksum) {
        log->Fail("order-stream: Query() and the drained cursor differ for "
                  "cid " + std::to_string(drained[i].cid));
      }
    }
    return Status::OK();
  }

 private:
  struct Want {
    int64_t rows = 0;
    uint64_t checksum = 0;
  };
  void BuildOracle(const Data& data) {
    want_.assign(data.spec.customers, Want());
    for (const auto& shard : data.shards) {
      for (const Sale& s : shard) {
        want_[s.cid].rows += 1;
        want_[s.cid].checksum += SaleChecksum(s.sid, s.pid, s.amount, s.day);
      }
    }
  }
  /// Order-independent checksum of (sid, pid, amount, day) rows.
  static uint64_t Checksum(const gisql::RowBatch& batch) {
    uint64_t sum = 0;
    for (const gisql::Row& row : batch.rows()) {
      sum += SaleChecksum(row[0].AsInt(), row[1].AsInt(), row[2].AsDouble(),
                          row[3].AsInt());
    }
    return sum;
  }

  std::vector<Want> want_;
};

// ---------------------------------------------------------------------
// txn-mixed: snapshot-isolation read-modify-write transactions from
// interleaved sessions. Each rewrites one Zipf-hot row of a relational
// shard: PK read, DELETE, INSERT, 2PC commit. Sessions that touch the
// same row conflict and abort.

class TxnMixed : public Workload {
 public:
  static constexpr int kSessions = 4;
  static constexpr int kHotKeys = 32;
  /// Seven relational shards for four sessions: most reads follow a
  /// commit to their shard, so a transaction's host time sits in the
  /// index-rebuild cost mode rather than between two modes.
  static constexpr int kSites = 8;

  const char* name() const override { return "txn-mixed"; }
  DataSpec data_spec() const override {
    DataSpec d;
    d.rows_per_site = 1500;
    d.sites = kSites;
    return d;
  }
  double slo_ms() const override { return 60.0; }
  int64_t ops_per_second() const override { return 320; }
  int64_t warmup_ops() const override { return 150; }

  Status Run(GlobalSystem& gis, const Data& data, uint64_t seed, int64_t ops,
             Tracer* tracer, RunLog* log) override {
    Rng rng(seed);
    const Zipf hot(kHotKeys, 0.8);
    if (dirty_.empty()) dirty_.assign(data.shards.size(), false);

    struct Session {
      int step = 0;  ///< 0 idle, 1 read, 2 delete, 3 insert, 4 commit
      uint64_t txn = 0;
      int64_t op = 0;
      int site = 0;
      int64_t key = 0;
      int64_t snapshot = 0;  ///< commits visible to this transaction
      Sale row{};
      double host_us = 0.0;
      double sim_ms = 0.0;
    };
    Session sessions[kSessions];
    int64_t started = 0;

    auto sim_of = [&](auto&& call) {
      const int64_t before = gis.network().metrics().Get("net.sim_us");
      call();
      return (gis.network().metrics().Get("net.sim_us") - before) / 1e3;
    };
    // Ends the session's transaction after a failed statement.
    auto fail = [&](Session& s, const Status& st, const char* what) {
      log->host_us.push_back(s.host_us);
      if (IsConflict(st)) {
        (void)gis.AbortTransaction(s.txn);
        ++log->aborted;
      } else {
        ++log->errors;
        log->Fail(std::string("txn-mixed: unexpected error in ") + what +
                  ": " + st.ToString());
      }
      s.step = 0;
    };

    auto step = [&](Session& s) {
      switch (s.step) {
        case 0: {
          if (started >= ops) return;
          s = Session();
          s.op = started++;
          s.site = static_cast<int>(rng.Uniform(0, kSites - 2));
          s.key = data.shards[s.site].front().sid + hot.Sample(rng);
          ++log->attempted;
          Result<uint64_t> id = Status::Internal("pending");
          const uint32_t span = tracer->Begin("txn.begin", s.op);
          s.host_us += log->clock.Time([&] { id = gis.BeginTransaction(); });
          tracer->End(span);
          if (!id.ok()) {
            log->host_us.push_back(s.host_us);
            Refused(log, id.status(), "BEGIN");
            return;
          }
          s.txn = *id;
          s.snapshot = committed_;
          s.step = 1;
          return;
        }
        case 1: {
          const std::string sql =
              "SELECT sid, cid, pid, qty, amount, day, note FROM sales_" +
              SiteName(s.site) + " WHERE sid = " + std::to_string(s.key);
          // A committed write bumps the table's epoch; the next indexed
          // read of that shard pays for it.
          const bool after_write = dirty_[s.site];
          dirty_[s.site] = false;
          Result<QueryResult> r = Status::Internal("pending");
          const uint32_t span = tracer->Begin(
              after_write ? "txn.read_after_write" : "txn.read", s.op);
          s.host_us += log->clock.Time([&] { r = gis.QueryInTxn(s.txn, sql); });
          tracer->End(span);
          if (!r.ok()) return fail(s, r.status(), "read");
          s.sim_ms += r->metrics.elapsed_ms;
          const Sale want = VisibleAt(data, s.site, s.key, s.snapshot);
          const auto& rows = r->batch.rows();
          if (rows.size() != 1 || rows[0][0].AsInt() != want.sid ||
              rows[0][4].AsDouble() != want.amount ||
              rows[0][6].AsString() != want.note) {
            log->Fail("txn-mixed: snapshot read of sid " +
                      std::to_string(s.key) + " differs from the oracle");
          }
          s.row = want;
          s.step = 2;
          return;
        }
        case 2:
        case 3: {
          std::string sql;
          if (s.step == 2) {
            sql = "DELETE FROM sales WHERE sid = " + std::to_string(s.key);
          } else {
            s.row.amount += 1.0;
            s.row.note = rng.Letters(static_cast<size_t>(rng.Uniform(0, 1000)));
            sql = "INSERT INTO sales VALUES " + SaleValues(s.row);
          }
          Status st;
          const uint32_t span = tracer->Begin("txn.write", s.op);
          s.host_us += log->clock.Time([&] {
            s.sim_ms += sim_of([&] { st = gis.TxnWrite(s.txn, SiteName(s.site), sql); });
          });
          tracer->End(span);
          if (!st.ok()) return fail(s, st, "write");
          ++s.step;
          return;
        }
        default: {
          Status st;
          const uint32_t span = tracer->Begin("txn.commit", s.op);
          s.host_us += log->clock.Time([&] {
            s.sim_ms += sim_of([&] { st = gis.CommitTransaction(s.txn); });
          });
          tracer->End(span);
          if (!st.ok()) return fail(s, st, "commit");
          ++committed_;
          history_[s.key].push_back({committed_, s.row});
          dirty_[s.site] = true;
          log->host_us.push_back(s.host_us);
          Complete(log, s.sim_ms, 0.0, slo_ms());
          s.step = 0;
        }
      }
    };

    LoopClock clock(log, gis, data);
    for (bool busy = true; busy;) {
      busy = started < ops;
      for (Session& s : sessions) {
        step(s);
        busy = busy || s.step != 0;
      }
    }
    clock.Stop();

    // Every committed write is visible afterwards.
    for (const auto& [key, versions] : history_) {
      int site = 0;
      while (key > data.shards[site].back().sid) ++site;
      auto r = gis.Query("SELECT amount, note FROM sales_" + SiteName(site) +
                         " WHERE sid = " + std::to_string(key));
      if (!r.ok()) return r.status();
      const Sale& last = versions.back().second;
      if (r->batch.num_rows() != 1 ||
          r->batch.rows()[0][0].AsDouble() != last.amount ||
          r->batch.rows()[0][1].AsString() != last.note) {
        log->Fail("txn-mixed: last committed write of sid " +
                  std::to_string(key) + " is not visible");
      }
    }
    if (log->attempted != log->ok + log->shed + log->errors + log->aborted) {
      log->Fail("txn-mixed: attempted != ok + shed + error + aborted");
    }
    return Status::OK();
  }

 private:
  /// True for the statuses the txn layer gives a conflict, which abort
  /// the transaction by design: a lock request that would block or
  /// stays blocked, a prepare rejected for held locks, a deadlock
  /// victim, and a first-committer-wins write-write conflict. Any other
  /// failure is an error.
  static bool IsConflict(const Status& st) {
    auto has = [&](const char* text) {
      return st.message().find(text) != std::string::npos;
    };
    if (st.IsOverloaded()) {
      return has(" would block at '") || has(" still blocked at '") ||
             has("locks are held by a concurrent transaction");
    }
    if (st.IsExecutionError()) {
      return has("deadlock: transaction ") || has("write-write conflict: ");
    }
    return false;
  }

  /// The row `key` as a snapshot that saw `snapshot` commits sees it.
  Sale VisibleAt(const Data& data, int site, int64_t key,
                 int64_t snapshot) const {
    auto it = history_.find(key);
    if (it != history_.end()) {
      for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
        if (v->first <= snapshot) return v->second;
      }
    }
    return data.shards[site][key - data.shards[site].front().sid];
  }

  int64_t committed_ = 0;
  std::map<int64_t, std::vector<std::pair<int64_t, Sale>>> history_;
  std::vector<bool> dirty_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point-lookup") return std::make_unique<PointLookup>();
  if (name == "join-analytics") return std::make_unique<JoinAnalytics>();
  if (name == "order-stream") return std::make_unique<OrderStream>();
  if (name == "txn-mixed") return std::make_unique<TxnMixed>();
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "point-lookup", "join-analytics", "order-stream", "txn-mixed"};
  return names;
}

}  // namespace perfbench
