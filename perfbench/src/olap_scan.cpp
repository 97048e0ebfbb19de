// olap_scan: analytic statements over a 1M-row orders table and a 10k-row
// customers table on one node, through Database::Execute (governor
// attached, class olap, num_threads = nproc via set_exec_options). Each
// round runs seven statements, then commits 2,000 new orders (four insert
// transactions) that stay in the delta until the merge every
// kMergeEveryRounds rounds, so every scan covers main and delta.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "resource/governor.h"
#include "single_node.h"

namespace polybench {
namespace {

constexpr uint64_t kOrders = 1000000;
constexpr uint64_t kCustomers = 10000;
// Each round's 2,000 new orders commit as four insert transactions: one
// per round left too few write samples for a steady median.
constexpr int kInsertsPerRound = 4;
constexpr uint64_t kInsertRows = 500;  // per insert transaction
constexpr uint64_t kMergeEveryRounds = 4;
constexpr int64_t kMaxQty = 50;
constexpr int64_t kQ6Qty = 24;
const char* const kRegions[] = {"EU", "NA", "APJ", "LATAM", "MEA"};
const char* const kSegments[] = {"AUTO", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};

/// Relative tolerance for double sums: morsel order changes the reduction.
constexpr double kSumRelTol = 1e-9;

bool NearlyEqual(double a, double b, double rel_tol) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel_tol * scale;
}

/// The benchmark's own copy of an order, for the oracle loops.
struct Order {
  int64_t id;
  int64_t c_id;
  double amount;
  int64_t qty;
  int region;
};

struct OlapState {
  poly::metrics::Registry registry;
  poly::resource::ResourceGovernor governor{poly::resource::ResourceGovernor::Options{},
                                            &registry};
  poly::Database db;
  poly::TransactionManager tm;
  poly::ColumnTable* orders = nullptr;
  poly::ColumnTable* customers = nullptr;
  std::vector<Order> oracle_orders;
  std::vector<int> segment_of;  // cust_id -> segment index
};

Order MakeOrder(int64_t id, Rng& rng) {
  Order o;
  o.id = id;
  o.c_id = std::uniform_int_distribution<int64_t>(0, kCustomers - 1)(rng);
  o.amount = static_cast<double>(std::uniform_int_distribution<int64_t>(100, 99999)(rng)) / 100.0;
  o.qty = std::uniform_int_distribution<int64_t>(1, kMaxQty)(rng);
  o.region = std::uniform_int_distribution<int>(0, 4)(rng);
  return o;
}

poly::Row ToRow(const Order& o) {
  return {poly::Value::Int(o.id), poly::Value::Int(o.c_id), poly::Value::Dbl(o.amount),
          poly::Value::Int(o.qty), poly::Value::Str(kRegions[o.region])};
}

poly::StatusOr<std::unique_ptr<OlapState>> Setup(uint64_t seed) {
  auto st = std::make_unique<OlapState>();
  st->db.set_metrics_registry(&st->registry);
  Rng rng(seed);
  st->oracle_orders.reserve(kOrders);
  std::vector<poly::Row> rows;
  rows.reserve(kOrders);
  for (uint64_t i = 0; i < kOrders; ++i) {
    st->oracle_orders.push_back(MakeOrder(static_cast<int64_t>(i), rng));
    rows.push_back(ToRow(st->oracle_orders.back()));
  }
  POLY_ASSIGN_OR_RETURN(
      st->orders,
      st->db.CreateTable("orders",
                         poly::Schema({poly::ColumnDef("o_id", poly::DataType::kInt64),
                                       poly::ColumnDef("c_id", poly::DataType::kInt64),
                                       poly::ColumnDef("amount", poly::DataType::kDouble),
                                       poly::ColumnDef("qty", poly::DataType::kInt64),
                                       poly::ColumnDef("region", poly::DataType::kString)})));
  POLY_RETURN_IF_ERROR(LoadRows(&st->tm, st->orders, rows, 8192));
  rows.clear();
  for (uint64_t c = 0; c < kCustomers; ++c) {
    int segment = std::uniform_int_distribution<int>(0, 4)(rng);
    st->segment_of.push_back(segment);
    rows.push_back({poly::Value::Int(static_cast<int64_t>(c)),
                    poly::Value::Str(kSegments[segment]),
                    poly::Value::Int(std::uniform_int_distribution<int64_t>(0, 24)(rng))});
  }
  POLY_ASSIGN_OR_RETURN(
      st->customers,
      st->db.CreateTable("customers",
                         poly::Schema({poly::ColumnDef("cust_id", poly::DataType::kInt64),
                                       poly::ColumnDef("segment", poly::DataType::kString),
                                       poly::ColumnDef("nation", poly::DataType::kInt64)})));
  POLY_RETURN_IF_ERROR(LoadRows(&st->tm, st->customers, rows, 8192));
  st->orders->Merge();
  st->customers->Merge();
  st->db.set_resource_governor(&st->governor);
  poly::ExecOptions opts;
  opts.num_threads = std::max(1u, std::thread::hardware_concurrency());
  opts.workload_class = "olap";
  st->db.set_exec_options(opts);
  return st;
}

/// Seeded parameters of one round's seven statements. Each filter keeps
/// the same selectivity whatever the draw (a window of fixed width over a
/// uniform column), so a statement kind's cost does not wander between
/// rounds and the median read latency stays inside one kind.
struct RoundParams {
  int64_t tk_qty, join_qty, fresh_from;
  double q6_lo, distinct_amount;
  int tk_region;
};

/// Expected answers for one round, from plain loops over the generated
/// rows (loaded plus every committed insert batch).
struct Expected {
  double q6 = 0;
  double region_sum[5] = {};
  int64_t region_n[5] = {};
  int64_t qty_n[kMaxQty + 1] = {};
  double qty_sum[kMaxQty + 1] = {};
  double qty_max[kMaxQty + 1] = {};
  std::vector<double> topk;  // amounts, descending
  double seg_sum[5] = {};
  int64_t seg_n[5] = {};
  std::set<std::pair<int, int64_t>> distinct;
  int64_t fresh_n = 0;
  double fresh_sum = 0;
};

Expected ComputeExpected(const OlapState& st, const RoundParams& p) {
  Expected e;
  std::vector<double> tk;
  for (const Order& o : st.oracle_orders) {
    if (o.qty < kQ6Qty && o.amount >= p.q6_lo && o.amount < p.q6_lo + 200) {
      e.q6 += o.amount * static_cast<double>(o.qty);
    }
    e.region_sum[o.region] += o.amount;
    ++e.region_n[o.region];
    e.qty_sum[o.qty] += o.amount;
    e.qty_max[o.qty] = e.qty_n[o.qty]++ == 0 ? o.amount : std::max(e.qty_max[o.qty], o.amount);
    if (o.region == p.tk_region && o.qty == p.tk_qty) tk.push_back(o.amount);
    if (o.qty >= p.join_qty && o.qty < p.join_qty + kMaxQty / 2) {
      int seg = st.segment_of[o.c_id];
      e.seg_sum[seg] += o.amount;
      ++e.seg_n[seg];
    }
    if (o.amount >= p.distinct_amount && o.amount < p.distinct_amount + 500) {
      e.distinct.emplace(o.region, o.qty);
    }
    if (o.id >= p.fresh_from) {
      ++e.fresh_n;
      e.fresh_sum += o.amount;
    }
  }
  std::sort(tk.begin(), tk.end(), std::greater<double>());
  if (tk.size() > 10) tk.resize(10);
  e.topk = std::move(tk);
  return e;
}

int RegionIndex(const std::string& name, const char* const* names) {
  for (int i = 0; i < 5; ++i) {
    if (name == names[i]) return i;
  }
  return -1;
}

/// One statement of the round; Check() takes its position in the round.
struct Statement {
  const char* kind;
  std::string sql;
  bool joins_customers;
};

std::vector<Statement> RoundStatements(const RoundParams& p) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };
  return {
      {"q6_sum",
       "SELECT SUM(amount * qty) AS revenue FROM orders WHERE qty < " +
           std::to_string(kQ6Qty) + " AND amount >= " + num(p.q6_lo) +
           " AND amount < " + num(p.q6_lo + 200),
       false},
      {"group_region",
       "SELECT region, SUM(amount) AS s, COUNT(*) AS n FROM orders GROUP BY region", false},
      {"group_qty",
       "SELECT qty, COUNT(*) AS n, SUM(amount) AS s, MAX(amount) AS mx FROM orders "
       "GROUP BY qty",
       false},
      {"topk",
       "SELECT o_id, amount FROM orders WHERE region = '" + std::string(kRegions[p.tk_region]) +
           "' AND qty = " + std::to_string(p.tk_qty) + " ORDER BY amount DESC LIMIT 10",
       false},
      {"join_group",
       "SELECT segment, SUM(amount) AS s, COUNT(*) AS n FROM orders JOIN customers "
       "ON c_id = cust_id WHERE qty >= " +
           std::to_string(p.join_qty) + " AND qty < " + std::to_string(p.join_qty + kMaxQty / 2) +
           " GROUP BY segment",
       true},
      {"distinct",
       "SELECT DISTINCT region, qty FROM orders WHERE amount >= " + num(p.distinct_amount) +
           " AND amount < " + num(p.distinct_amount + 500),
       false},
      {"fresh_range",
       "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE o_id >= " +
           std::to_string(p.fresh_from),
       false},
  };
}

/// Empty string when `rs` is the right answer to statement `index`.
std::string Check(size_t index, const poly::ResultSet& rs, const Expected& e,
                  const OlapState& st, const RoundParams& p) {
  const auto& rows = rs.rows;
  auto n = [](const poly::Value& v) { return v.NumericValue(); };
  switch (index) {
    case 0:
      if (rows.size() != 1 || !NearlyEqual(n(rows[0][0]), e.q6, kSumRelTol)) {
        return "q6 sum differs from the oracle";
      }
      return "";
    case 1: {
      if (rows.size() != 5) return "group_region: wrong group count";
      for (const auto& r : rows) {
        int g = RegionIndex(r[0].ToString(), kRegions);
        if (g < 0 || !NearlyEqual(n(r[1]), e.region_sum[g], kSumRelTol) ||
            n(r[2]) != static_cast<double>(e.region_n[g])) {
          return "group_region: group " + r[0].ToString() + " differs";
        }
      }
      return "";
    }
    case 2: {
      size_t groups = 0;
      for (int64_t q = 1; q <= kMaxQty; ++q) groups += e.qty_n[q] > 0;
      if (rows.size() != groups) return "group_qty: wrong group count";
      for (const auto& r : rows) {
        auto q = static_cast<int64_t>(n(r[0]));
        if (q < 1 || q > kMaxQty || e.qty_n[q] == 0) return "group_qty: unexpected group";
        if (n(r[1]) != static_cast<double>(e.qty_n[q]) ||
            !NearlyEqual(n(r[2]), e.qty_sum[q], kSumRelTol) || n(r[3]) != e.qty_max[q]) {
          return "group_qty: group " + r[0].ToString() + " differs";
        }
      }
      return "";
    }
    case 3: {
      // Ties in amount may pick any of the tied rows, so the check is on
      // the amount sequence plus each returned row being a real match.
      if (rows.size() != e.topk.size()) return "topk: wrong row count";
      std::set<int64_t> seen;
      for (size_t i = 0; i < rows.size(); ++i) {
        auto id = static_cast<int64_t>(n(rows[i][0]));
        if (id < 0 || static_cast<size_t>(id) >= st.oracle_orders.size() ||
            !seen.insert(id).second) {
          return "topk: bad or repeated o_id";
        }
        const Order& o = st.oracle_orders[static_cast<size_t>(id)];
        if (n(rows[i][1]) != e.topk[i] || o.amount != e.topk[i] ||
            o.region != p.tk_region || o.qty != p.tk_qty) {
          return "topk: row " + std::to_string(i) + " differs";
        }
      }
      return "";
    }
    case 4: {
      size_t groups = 0;
      for (int g = 0; g < 5; ++g) groups += e.seg_n[g] > 0;
      if (rows.size() != groups) return "join_group: wrong group count";
      for (const auto& r : rows) {
        int g = RegionIndex(r[0].ToString(), kSegments);
        if (g < 0 || !NearlyEqual(n(r[1]), e.seg_sum[g], kSumRelTol) ||
            n(r[2]) != static_cast<double>(e.seg_n[g])) {
          return "join_group: group " + r[0].ToString() + " differs";
        }
      }
      return "";
    }
    case 5: {
      std::set<std::pair<int, int64_t>> got;
      for (const auto& r : rows) {
        got.emplace(RegionIndex(r[0].ToString(), kRegions), static_cast<int64_t>(n(r[1])));
      }
      if (got.size() != rows.size() || got != e.distinct) return "distinct: row set differs";
      return "";
    }
    case 6:
      // The newest orders include the last committed batch, still in the
      // delta: the count shows whether fresh rows are visible.
      if (rows.size() != 1 || n(rows[0][0]) != static_cast<double>(e.fresh_n) ||
          !NearlyEqual(n(rows[0][1]), e.fresh_sum, kSumRelTol)) {
        return "fresh_range: count or sum differs from the oracle";
      }
      return "";
  }
  return "unknown statement";
}

/// Measurements of the plain or the traced rounds.
struct Phase : LoopTotals {
  Samples merges;
  SingleNodeLayers layers;
  Samples commit_calls;
  uint64_t merge_rows_moved = 0;
};

/// Whole rounds until `seconds` have passed; with `traced` set, rounds
/// alternate between the plain front door and the traced module calls.
void RunLoop(OlapState* st, uint64_t seed, double seconds, Phase* plain, Phase* traced,
             Tally* tally) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2);
  uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t round = 0; NowNanos() < deadline && tally->correct; ++round) {
    bool trace = traced != nullptr && round % 2 == 1;
    Phase* ph = trace ? traced : plain;
    RoundParams p;
    p.q6_lo = static_cast<double>(std::uniform_int_distribution<int>(100, 700)(rng));
    p.tk_region = std::uniform_int_distribution<int>(0, 4)(rng);
    p.tk_qty = std::uniform_int_distribution<int64_t>(1, 50)(rng);
    p.join_qty = std::uniform_int_distribution<int64_t>(1, kMaxQty / 2 + 1)(rng);
    p.distinct_amount = static_cast<double>(std::uniform_int_distribution<int>(1, 500)(rng));
    p.fresh_from = static_cast<int64_t>(st->oracle_orders.size()) -
                   std::uniform_int_distribution<int64_t>(45000, 55000)(rng);
    Expected expected = ComputeExpected(*st, p);
    std::vector<Statement> stmts = RoundStatements(p);
    for (size_t i = 0; i < stmts.size(); ++i) {
      ++tally->attempted;
      uint64_t t0 = NowNanos();
      auto rs = trace ? TracedExecute(&st->db, stmts[i].sql, &ph->layers)
                      : st->db.Execute(stmts[i].sql);
      uint64_t dt = NowNanos() - t0;
      if (!rs.ok()) {
        tally->Fail(stmts[i].sql + ": " + rs.status().ToString());
        continue;
      }
      ph->AddRead(stmts[i].kind, dt,
                  static_cast<double>(st->oracle_orders.size()) +
                      (stmts[i].joins_customers ? kCustomers : 0));
      std::string wrong = Check(i, *rs, expected, *st, p);
      if (!wrong.empty()) tally->Wrong(wrong + " (" + stmts[i].sql + ")");
    }

    for (int b = 0; b < kInsertsPerRound; ++b) {
      std::vector<Order> batch;
      std::vector<poly::Row> rows;
      for (uint64_t i = 0; i < kInsertRows; ++i) {
        batch.push_back(MakeOrder(static_cast<int64_t>(st->oracle_orders.size() + i), rng));
        rows.push_back(ToRow(batch.back()));
      }
      ++tally->attempted;
      uint64_t t0 = NowNanos();
      auto txn = st->tm.Begin();
      poly::Status s;
      for (const poly::Row& row : rows) {
        s = st->tm.Insert(txn.get(), st->orders, row);
        if (!s.ok()) break;
      }
      uint64_t t1 = NowNanos();
      if (s.ok()) s = st->tm.Commit(txn.get());
      uint64_t t2 = NowNanos();
      if (!s.ok()) {
        tally->Fail("bulk insert: " + s.ToString());
        continue;
      }
      ph->AddWrite("bulk_insert", t2 - t0);
      if (trace) ph->commit_calls.Add(t2 - t1);
      st->oracle_orders.insert(st->oracle_orders.end(), batch.begin(), batch.end());
    }

    if ((round + 1) % kMergeEveryRounds == 0) {
      ++tally->attempted;
      uint64_t m0 = NowNanos();
      poly::TableMergeStats ms = st->orders->Merge();
      uint64_t m1 = NowNanos();
      ph->merges.Add(m1 - m0);
      plain->kinds["merge"].Add(m1 - m0);  // merges are never traced
      ph->busy_nanos += m1 - m0;
      ph->merge_rows_moved += ms.rows_moved;
    }
  }
}

}  // namespace

int RunOlapScan(const RunConfig& cfg) {
  Tally tally;
  double setup_s = 0;
  auto st = SetUpRepeatedly<OlapState>([&cfg] { return Setup(cfg.seed); }, &setup_s, &tally);
  if (!st) return Finish(cfg, tally, Report());

  Report report;
  if (!cfg.trace) {
    Phase ph;
    RunLoop(st.get(), cfg.seed, cfg.seconds, &ph, nullptr, &tally);
    ReportEndToEnd(ph, setup_s,
                   static_cast<double>(st->db.MemoryBytes()) /
                       static_cast<double>(st->oracle_orders.size() + kCustomers),
                   &report);
    return Finish(cfg, tally, report);
  }

  Phase plain, traced;
  RunLoop(st.get(), cfg.seed, cfg.seconds, &plain, &traced, &tally);
  SetPerLayerDefaults(&report);
  traced.layers.Report(&report);
  report.Set("txn.commit_us", traced.commit_calls.MeanUs(), "us");
  report.Set("storage.merge_ms", traced.merges.MeanUs() / 1e3, "ms");
  report.Set("storage.merge_rows_moved",
             traced.merges.count()
                 ? static_cast<double>(traced.merge_rows_moved) / traced.merges.count()
                 : 0,
             "rows");
  ReportKindsAndOverhead(plain, traced, &report);
  return Finish(cfg, tally, report);
}

}  // namespace polybench
