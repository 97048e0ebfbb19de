// soe_distributed: SQL through SoeSqlBridge::Execute on a fault-free 4-node
// SoeCluster with replication 2. A 50k-row fact table hash-partitioned 8
// ways on k1, a 4,096-row dimension above the planner's 2,048-row
// broadcast threshold (shuffle join) and a 512-row dimension below it
// (broadcast join). Each round runs ten partition-pruned point scans and
// one each of: shuffle join + aggregate, broadcast join + aggregate,
// three-way join (gather fallback), two-key GROUP BY, GROUP BY ... ORDER BY
// ... LIMIT; then one CommitInserts batch of new fact rows.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "soe/sql_bridge.h"

namespace polybench {
namespace {

constexpr int64_t kFactRows = 50000;
constexpr int64_t kBigDimRows = 4096;   // above the 2,048-row broadcast threshold
constexpr int64_t kSmallDimRows = 512;  // below it
constexpr int64_t kInsertRows = 100;    // per CommitInserts batch, one per round
constexpr int kPointScansPerRound = 10;
constexpr int64_t kGroups1 = 16, kGroups2 = 8, kBigW = 64, kSmallW = 16;

struct Fact {
  int64_t k1, k2, k3, g, h, v;
};

struct SoeState {
  std::unique_ptr<poly::SoeCluster> cluster;
  std::unique_ptr<poly::SoeSqlBridge> bridge;
  poly::Database shell;  // catalog shell for timing parse/optimize, as the bridge builds it
  std::vector<Fact> facts;
  std::vector<int64_t> big_w;    // dim_big id -> w
  std::vector<int64_t> small_w;  // dim_small sid -> sw
};

Fact MakeFact(int64_t k1, Rng& rng) {
  auto u = [&rng](int64_t n) { return std::uniform_int_distribution<int64_t>(0, n - 1)(rng); };
  return {k1, u(kBigDimRows), u(kSmallDimRows), u(kGroups1), u(kGroups2), u(1000)};
}

poly::Row FactRow(const Fact& f) {
  return {poly::Value::Int(f.k1), poly::Value::Int(f.k2), poly::Value::Int(f.k3),
          poly::Value::Int(f.g),  poly::Value::Int(f.h),  poly::Value::Int(f.v)};
}

poly::StatusOr<std::unique_ptr<SoeState>> Setup(uint64_t seed) {
  auto st = std::make_unique<SoeState>();
  poly::SoeCluster::Options opts;
  opts.num_nodes = 4;
  st->cluster = std::make_unique<poly::SoeCluster>(opts);
  poly::SoeCluster& c = *st->cluster;
  using poly::ColumnDef;
  using poly::DataType;
  poly::Schema fact_schema({ColumnDef("k1", DataType::kInt64), ColumnDef("k2", DataType::kInt64),
                            ColumnDef("k3", DataType::kInt64), ColumnDef("g", DataType::kInt64),
                            ColumnDef("h", DataType::kInt64), ColumnDef("v", DataType::kInt64)});
  poly::Schema big_schema({ColumnDef("id", DataType::kInt64), ColumnDef("w", DataType::kInt64)});
  poly::Schema small_schema(
      {ColumnDef("sid", DataType::kInt64), ColumnDef("sw", DataType::kInt64)});
  POLY_RETURN_IF_ERROR(c.CreateTable("fact", fact_schema, poly::PartitionSpec::Hash("k1", 8), 2));
  POLY_RETURN_IF_ERROR(
      c.CreateTable("dim_big", big_schema, poly::PartitionSpec::Hash("id", 4), 2));
  POLY_RETURN_IF_ERROR(
      c.CreateTable("dim_small", small_schema, poly::PartitionSpec::Hash("sid", 4), 2));

  Rng rng(seed);
  std::vector<poly::Row> rows;
  for (int64_t i = 0; i < kFactRows; ++i) {
    st->facts.push_back(MakeFact(i, rng));
    rows.push_back(FactRow(st->facts.back()));
    if (rows.size() == 5000) {
      POLY_RETURN_IF_ERROR(c.CommitInserts("fact", rows).status());
      rows.clear();
    }
  }
  for (int64_t i = 0; i < kBigDimRows; ++i) {
    st->big_w.push_back(std::uniform_int_distribution<int64_t>(0, kBigW - 1)(rng));
    rows.push_back({poly::Value::Int(i), poly::Value::Int(st->big_w.back())});
  }
  POLY_RETURN_IF_ERROR(c.CommitInserts("dim_big", rows).status());
  rows.clear();
  for (int64_t i = 0; i < kSmallDimRows; ++i) {
    st->small_w.push_back(std::uniform_int_distribution<int64_t>(0, kSmallW - 1)(rng));
    rows.push_back({poly::Value::Int(i), poly::Value::Int(st->small_w.back())});
  }
  POLY_RETURN_IF_ERROR(c.CommitInserts("dim_small", rows).status());

  st->bridge = std::make_unique<poly::SoeSqlBridge>(&c);
  for (const std::string& name : c.catalog().TableNames()) {
    POLY_ASSIGN_OR_RETURN(const poly::CatalogService::TableInfo* info, c.catalog().Lookup(name));
    POLY_RETURN_IF_ERROR(st->shell.CreateTable(name, info->schema).status());
  }
  return st;
}

/// A read statement of the round with its expected answer: rows as
/// (group key(s) -> numeric values), compared as a set unless `ordered`.
struct Statement {
  const char* kind = "";
  std::string sql;
  double rows_covered = 0;
  std::vector<std::vector<double>> expected;
  bool ordered = false;
  /// For ORDER BY ... LIMIT over tied sums: only the value column
  /// sequence is fixed; each row must still be a real (key, sum) pair.
  std::map<int64_t, double> valid_pairs;
};

Statement MakeStatement(const char* kind, std::string sql, double rows_covered,
                        std::vector<std::vector<double>> expected) {
  Statement s;
  s.kind = kind;
  s.sql = std::move(sql);
  s.rows_covered = rows_covered;
  s.expected = std::move(expected);
  return s;
}

std::vector<std::vector<double>> GroupRows(const std::map<std::vector<int64_t>, std::vector<double>>& m) {
  std::vector<std::vector<double>> out;
  for (const auto& [key, vals] : m) {
    std::vector<double> row(key.begin(), key.end());
    row.insert(row.end(), vals.begin(), vals.end());
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Statement> RoundStatements(const SoeState& st, Rng& rng) {
  const double fact_n = static_cast<double>(st.facts.size());
  std::vector<Statement> out;
  for (int i = 0; i < kPointScansPerRound; ++i) {
    int64_t k = std::uniform_int_distribution<int64_t>(
        0, static_cast<int64_t>(st.facts.size()) - 1)(rng);
    const Fact& f = st.facts[static_cast<size_t>(k)];
    out.push_back(MakeStatement("point_scan",
                                "SELECT k2, v FROM fact WHERE k1 = " + std::to_string(k), fact_n,
                                {{static_cast<double>(f.k2), static_cast<double>(f.v)}}));
  }
  std::map<std::vector<int64_t>, std::vector<double>> shuffle, bcast, join3, group2, by_k2;
  int64_t w_limit = std::uniform_int_distribution<int64_t>(8, 56)(rng);
  for (const Fact& f : st.facts) {
    int64_t w = st.big_w[static_cast<size_t>(f.k2)];
    int64_t sw = st.small_w[static_cast<size_t>(f.k3)];
    auto add = [&f](std::vector<double>& acc, bool count) {
      if (acc.empty()) acc.assign(count ? 2 : 1, 0.0);
      acc[0] += static_cast<double>(f.v);
      if (count) acc[1] += 1;
    };
    add(shuffle[{w}], true);
    add(bcast[{sw}], true);
    if (w < w_limit) add(join3[{sw}], false);
    add(group2[{f.g, f.h}], true);
    add(by_k2[{f.k2}], false);
  }
  const double big_n = kBigDimRows, small_n = kSmallDimRows;
  out.push_back(MakeStatement(
      "shuffle_join",
      "SELECT w, SUM(v) AS s, COUNT(*) AS c FROM fact JOIN dim_big ON k2 = id GROUP BY w",
      fact_n + big_n, GroupRows(shuffle)));
  out.push_back(MakeStatement(
      "broadcast_join",
      "SELECT sw, SUM(v) AS s, COUNT(*) AS c FROM fact JOIN dim_small ON k3 = sid GROUP BY sw",
      fact_n + small_n, GroupRows(bcast)));
  out.push_back(MakeStatement("join3_gather",
                              "SELECT sw, SUM(v) AS s FROM fact JOIN dim_big ON k2 = id "
                              "JOIN dim_small ON k3 = sid WHERE w < " +
                                  std::to_string(w_limit) + " GROUP BY sw",
                              fact_n + big_n + small_n, GroupRows(join3)));
  out.push_back(MakeStatement("group2",
                              "SELECT g, h, SUM(v) AS s, COUNT(*) AS c FROM fact GROUP BY g, h",
                              fact_n, GroupRows(group2)));
  Statement topk = MakeStatement(
      "group_topk", "SELECT k2, SUM(v) AS s FROM fact GROUP BY k2 ORDER BY s DESC LIMIT 10",
      fact_n, {});
  topk.ordered = true;
  std::vector<double> sums;
  for (const auto& [key, vals] : by_k2) {
    topk.valid_pairs[key[0]] = vals[0];
    sums.push_back(vals[0]);
  }
  std::sort(sums.begin(), sums.end(), std::greater<double>());
  for (size_t i = 0; i < std::min<size_t>(10, sums.size()); ++i) topk.expected.push_back({sums[i]});
  out.push_back(std::move(topk));
  return out;
}

std::string Check(const Statement& s, const poly::ResultSet& rs) {
  if (rs.rows.size() != s.expected.size()) {
    return "returned " + std::to_string(rs.rows.size()) + " rows, oracle has " +
           std::to_string(s.expected.size());
  }
  if (s.ordered) {
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      const poly::Row& r = rs.rows[i];
      auto it = s.valid_pairs.find(static_cast<int64_t>(r[0].NumericValue()));
      if (r.size() != 2 || it == s.valid_pairs.end() || it->second != r[1].NumericValue() ||
          r[1].NumericValue() != s.expected[i][0]) {
        return "row " + std::to_string(i) + " differs from the oracle";
      }
    }
    return "";
  }
  std::vector<std::vector<double>> got;
  for (const poly::Row& r : rs.rows) {
    std::vector<double> row;
    for (const poly::Value& v : r) row.push_back(v.NumericValue());
    got.push_back(std::move(row));
  }
  std::sort(got.begin(), got.end());
  std::vector<std::vector<double>> want = s.expected;
  std::sort(want.begin(), want.end());
  return got == want ? "" : "row set differs from the oracle";
}

/// Fabric and coordinator counters, read before and after a statement.
struct Counters {
  uint64_t messages, bytes, shuffle, result, fragments;
  double virtual_nanos;

  static Counters Read(poly::SoeCluster& c) {
    auto& m = c.metrics();
    return {c.network().messages(),
            c.network().bytes(),
            m.counter("soe.dqp.shuffle_bytes")->Value(),
            m.counter("soe.dqp.result_bytes")->Value(),
            m.counter("soe.dqp.fragments")->Value(),
            c.network().simulated_nanos()};
  }
};

/// Measurements of the plain or the traced rounds.
struct Phase : LoopTotals {
  // Per-layer sums over traced statements.
  Samples parse, optimize, plan, fragments;
  uint64_t makespan_nanos = 0;
  int64_t rest_nanos = 0;
  uint64_t messages = 0, bytes = 0, shuffle = 0, result = 0, fragment_tasks = 0;
  double virtual_nanos = 0;
  uint64_t gather_stmts = 0;
};

/// Times the bridge's steps one by one from outside (parse and optimize on
/// the catalog shell, DistributedPlanner::Plan, SoeCluster::RunFragments
/// for plans that are not gather fallbacks) on a statement the bridge has
/// just run; what the bridge's time exceeds the steps by is the
/// coordinator's remaining work (catalog shell, residual staging, gather
/// fallback).
poly::Status TimeSteps(SoeState* st, const std::string& sql, Phase* ph, uint64_t* steps_nanos) {
  uint64_t t0 = NowNanos();
  poly::SqlParser parser(&st->shell);
  POLY_ASSIGN_OR_RETURN(poly::PlanPtr plan, parser.Parse(sql));
  uint64_t t1 = NowNanos();
  poly::Optimizer optimizer(nullptr, &st->shell);
  plan = optimizer.Optimize(plan);
  uint64_t t2 = NowNanos();
  poly::DistributedPlanner planner(&st->cluster->catalog(), &st->cluster->discovery());
  POLY_ASSIGN_OR_RETURN(poly::DistributedPlan dplan, planner.Plan(plan));
  uint64_t t3 = NowNanos();
  uint64_t t4 = t3;
  if (!dplan.use_gather_fallback) {
    POLY_RETURN_IF_ERROR(st->cluster->RunFragments(dplan).status());
    t4 = NowNanos();
  }
  ph->parse.Add(t1 - t0);
  ph->optimize.Add(t2 - t1);
  ph->plan.Add(t3 - t2);
  ph->fragments.Add(t4 - t3);
  *steps_nanos = t4 - t0;
  return poly::Status::OK();
}

void RunLoop(SoeState* st, uint64_t seed, double seconds, Phase* plain, Phase* traced,
             Tally* tally) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  poly::SoeCluster& c = *st->cluster;
  uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t round = 0; NowNanos() < deadline && tally->correct; ++round) {
    bool trace = traced != nullptr && round % 2 == 1;
    Phase* ph = trace ? traced : plain;
    st->bridge->set_trace(trace);
    for (const Statement& s : RoundStatements(*st, rng)) {
      ++tally->attempted;
      Counters before = Counters::Read(c);
      uint64_t t0 = NowNanos();
      auto rs = st->bridge->Execute(s.sql);
      uint64_t dt = NowNanos() - t0;
      if (!rs.ok()) {
        tally->Fail(s.sql + ": " + rs.status().ToString());
        continue;
      }
      Counters after = Counters::Read(c);
      ph->AddRead(s.kind, dt, s.rows_covered);
      ph->messages += after.messages - before.messages;
      ph->bytes += after.bytes - before.bytes;
      ph->shuffle += after.shuffle - before.shuffle;
      ph->result += after.result - before.result;
      ph->fragment_tasks += after.fragments - before.fragments;
      ph->virtual_nanos += after.virtual_nanos - before.virtual_nanos;
      std::string wrong = Check(s, *rs);
      if (!wrong.empty()) tally->Wrong(std::string(s.kind) + ": " + wrong + " (" + s.sql + ")");
      if (trace) {
        ph->makespan_nanos += c.last_query_stats().makespan_nanos;
        if (st->bridge->AnnotatedPlan().rfind("strategy=gather", 0) == 0) ++ph->gather_stmts;
        // The steps run after the front-door call, so that call sees the
        // same cache state as in a plain round.
        uint64_t steps = 0;
        poly::Status timed = TimeSteps(st, s.sql, ph, &steps);
        if (!timed.ok()) {
          tally->Fail(s.sql + " (timed steps): " + timed.ToString());
          continue;
        }
        ph->rest_nanos += static_cast<int64_t>(dt) - static_cast<int64_t>(steps);
      }
    }

    std::vector<Fact> batch;
    std::vector<poly::Row> rows;
    for (int64_t i = 0; i < kInsertRows; ++i) {
      batch.push_back(MakeFact(static_cast<int64_t>(st->facts.size()) + i, rng));
      rows.push_back(FactRow(batch.back()));
    }
    ++tally->attempted;
    uint64_t t0 = NowNanos();
    auto committed = c.CommitInserts("fact", rows);
    uint64_t dt = NowNanos() - t0;
    if (!committed.ok()) {
      tally->Fail("CommitInserts: " + committed.status().ToString());
      continue;
    }
    ph->AddWrite("commit_inserts", dt);
    st->facts.insert(st->facts.end(), batch.begin(), batch.end());
  }
  st->bridge->set_trace(false);
}

double PerStmt(double total, const Samples& reads) {
  return reads.count() ? total / static_cast<double>(reads.count()) : 0;
}

}  // namespace

int RunSoeDistributed(const RunConfig& cfg) {
  Tally tally;
  double setup_s = 0;
  auto st = SetUpRepeatedly<SoeState>([&cfg] { return Setup(cfg.seed); }, &setup_s, &tally);
  if (!st) return Finish(cfg, tally, Report());

  Report report;
  if (!cfg.trace) {
    Phase ph;
    RunLoop(st.get(), cfg.seed, cfg.seconds, &ph, nullptr, &tally);
    size_t bytes = 0;
    for (int n = 0; n < st->cluster->num_nodes(); ++n) {
      bytes += st->cluster->node(n)->db().MemoryBytes();
    }
    ReportEndToEnd(ph, setup_s,
                   static_cast<double>(bytes) /
                       static_cast<double>(st->facts.size() + kBigDimRows + kSmallDimRows),
                   &report);
    return Finish(cfg, tally, report);
  }

  Phase plain, traced;
  RunLoop(st.get(), cfg.seed, cfg.seconds, &plain, &traced, &tally);
  SetPerLayerDefaults(&report);
  const Samples& r = traced.reads;
  report.Set("query.parse_us", traced.parse.MeanUs(), "us");
  report.Set("query.optimize_us", traced.optimize.MeanUs(), "us");
  report.Set("soe.parse_optimize_us", traced.parse.MeanUs() + traced.optimize.MeanUs(), "us");
  report.Set("soe.plan_us", traced.plan.MeanUs(), "us");
  report.Set("soe.fragments_ms", traced.fragments.MeanUs() / 1e3, "ms");
  report.Set("soe.makespan_ms", PerStmt(traced.makespan_nanos, r) / 1e6, "ms");
  report.Set("soe.coordinator_rest_ms", PerStmt(static_cast<double>(traced.rest_nanos), r) / 1e6,
             "ms");
  report.Set("soe.commit_us", traced.writes.MeanUs(), "us");
  report.Set("soe.net.messages_per_stmt", PerStmt(traced.messages, r), "count");
  report.Set("soe.net.bytes_per_stmt", PerStmt(traced.bytes, r), "bytes");
  report.Set("soe.net.virtual_ms_per_stmt", PerStmt(traced.virtual_nanos, r) / 1e6, "ms");
  report.Set("soe.dqp.shuffle_bytes_per_stmt", PerStmt(traced.shuffle, r), "bytes");
  report.Set("soe.dqp.result_bytes_per_stmt", PerStmt(traced.result, r), "bytes");
  report.Set("soe.dqp.fragments_per_stmt", PerStmt(traced.fragment_tasks, r), "count");
  report.Set("soe.gather_fallback_stmts", static_cast<double>(traced.gather_stmts), "count");
  ReportKindsAndOverhead(plain, traced, &report);
  return Finish(cfg, tally, report);
}

}  // namespace polybench
