// oltp_point: short statements on one node. 90% point reads with Zipf(0.99)
// keys through Database::Execute (governor attached, class oltp, serial),
// 10% single-row update transactions on the same keys, and a
// ColumnTable::Merge after every kMergeEveryWrites writes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "resource/governor.h"
#include "single_node.h"

namespace polybench {
namespace {

constexpr uint64_t kRows = 262144;  // power of two: the key scramble is a bijection
constexpr int kOpsPerRound = 10;    // the last op of a round is the update
constexpr uint64_t kMergeEveryWrites = 64;
constexpr double kZipfTheta = 0.99;
const char* const kRegions[] = {"EU", "NA", "APJ", "LATAM", "MEA"};

/// Zipf(theta) ranks in [0, n) with the Gray et al. closed-form sampler
/// (the YCSB "zipfian" generator): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(Rng& rng);

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = Zeta(n_, theta_);
  double zeta2 = Zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(Rng& rng) {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                    std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

/// Hot Zipf ranks are spread over the key space instead of sitting at
/// the first rows of the table.
uint64_t ScrambleKey(uint64_t rank) { return (rank * 2654435761ULL) & (kRows - 1); }

/// Loaded single-node state plus the benchmark's own key -> values oracle.
struct OltpState {
  poly::metrics::Registry registry;
  poly::resource::ResourceGovernor governor{poly::resource::ResourceGovernor::Options{},
                                            &registry};
  poly::Database db;
  poly::TransactionManager tm;
  poly::ColumnTable* orders = nullptr;
  std::vector<poly::Row> current;  // oracle: o_id -> current row
  std::vector<uint64_t> row_of;    // o_id -> row id of the live version
};

poly::Row MakeRow(uint64_t id, Rng& rng) {
  int64_t cents = std::uniform_int_distribution<int64_t>(100, 99999)(rng);
  return {poly::Value::Int(static_cast<int64_t>(id)),
          poly::Value::Int(std::uniform_int_distribution<int64_t>(0, 9999)(rng)),
          poly::Value::Dbl(static_cast<double>(cents) / 100.0),
          poly::Value::Int(std::uniform_int_distribution<int64_t>(1, 50)(rng)),
          poly::Value::Str(kRegions[std::uniform_int_distribution<int>(0, 4)(rng)])};
}

poly::StatusOr<std::unique_ptr<OltpState>> Setup(uint64_t seed) {
  auto st = std::make_unique<OltpState>();
  st->db.set_metrics_registry(&st->registry);
  Rng rng(seed);
  st->current.reserve(kRows);
  for (uint64_t i = 0; i < kRows; ++i) st->current.push_back(MakeRow(i, rng));
  poly::Schema schema({poly::ColumnDef("o_id", poly::DataType::kInt64),
                       poly::ColumnDef("c_id", poly::DataType::kInt64),
                       poly::ColumnDef("amount", poly::DataType::kDouble),
                       poly::ColumnDef("qty", poly::DataType::kInt64),
                       poly::ColumnDef("region", poly::DataType::kString)});
  POLY_ASSIGN_OR_RETURN(st->orders, st->db.CreateTable("orders", schema));
  POLY_RETURN_IF_ERROR(LoadRows(&st->tm, st->orders, st->current, 4096));
  st->row_of.resize(kRows);
  for (uint64_t i = 0; i < kRows; ++i) st->row_of[i] = i;  // loaded in key order
  st->orders->Merge();
  // The governor attaches after loading so it meters statements, not the
  // resident table (the E25 convention).
  st->db.set_resource_governor(&st->governor);
  poly::ExecOptions opts;
  opts.num_threads = 1;
  opts.workload_class = "oltp";
  st->db.set_exec_options(opts);
  return st;
}

/// Measurements of the plain or the traced rounds.
struct Phase : LoopTotals {
  Samples merges;
  SingleNodeLayers layers;
  Samples update_calls, commit_calls;
  uint64_t merge_rows_moved = 0;
};

/// Drives whole rounds until `seconds` have passed. With `traced` set,
/// rounds alternate between the plain front door (into `plain`) and the
/// traced module calls (into `traced`), so both halves see the same data
/// and the same machine conditions.
void RunLoop(OltpState* st, uint64_t seed, double seconds, Phase* plain, Phase* traced,
             Tally* tally) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Zipf zipf(kRows, kZipfTheta);
  uint64_t writes_done = 0;
  uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t round = 0; NowNanos() < deadline && tally->correct; ++round) {
    bool trace = traced != nullptr && round % 2 == 1;
    Phase* ph = trace ? traced : plain;
    for (int op = 0; op < kOpsPerRound; ++op) {
      uint64_t key = ScrambleKey(zipf.Next(rng));
      ++tally->attempted;
      if (op + 1 < kOpsPerRound) {
        std::string sql =
            "SELECT amount, qty FROM orders WHERE o_id = " + std::to_string(key);
        uint64_t t0 = NowNanos();
        auto rs = trace ? TracedExecute(&st->db, sql, &ph->layers) : st->db.Execute(sql);
        uint64_t dt = NowNanos() - t0;
        if (!rs.ok()) {
          tally->Fail(sql + ": " + rs.status().ToString());
          continue;
        }
        ph->AddRead("point_read", dt, kRows);
        const poly::Row& want = st->current[key];
        if (rs->rows.size() != 1 || rs->rows[0].size() != 2 ||
            rs->rows[0][0].NumericValue() != want[2].NumericValue() ||
            rs->rows[0][1].NumericValue() != want[3].NumericValue()) {
          tally->Wrong(sql + " returned " + std::to_string(rs->rows.size()) +
                       " rows, not the oracle's row");
        }
        continue;
      }
      poly::Row next = MakeRow(key, rng);
      next[1] = st->current[key][1];  // an update keeps the customer
      uint64_t t0 = NowNanos();
      auto txn = st->tm.Begin();
      poly::Status s = st->tm.Update(txn.get(), st->orders, st->row_of[key], next);
      uint64_t t1 = NowNanos();
      if (s.ok()) s = st->tm.Commit(txn.get());
      uint64_t t2 = NowNanos();
      if (!s.ok()) {
        tally->Fail("update o_id=" + std::to_string(key) + ": " + s.ToString());
        continue;
      }
      ph->AddWrite("update", t2 - t0);
      if (trace) {
        ph->update_calls.Add(t1 - t0);
        ph->commit_calls.Add(t2 - t1);
      }
      st->row_of[key] = txn->last_write_row();
      st->current[key] = std::move(next);
      if (++writes_done % kMergeEveryWrites == 0) {
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
}

}  // namespace

int RunOltpPoint(const RunConfig& cfg) {
  Tally tally;
  double setup_s = 0;
  auto st = SetUpRepeatedly<OltpState>([&cfg] { return Setup(cfg.seed); }, &setup_s, &tally);
  if (!st) return Finish(cfg, tally, Report());

  Report report;
  if (!cfg.trace) {
    Phase ph;
    RunLoop(st.get(), cfg.seed, cfg.seconds, &ph, nullptr, &tally);
    ReportEndToEnd(ph, setup_s, static_cast<double>(st->db.MemoryBytes()) / kRows, &report);
    return Finish(cfg, tally, report);
  }

  Phase plain, traced;
  RunLoop(st.get(), cfg.seed, cfg.seconds, &plain, &traced, &tally);
  SetPerLayerDefaults(&report);
  traced.layers.Report(&report);
  report.Set("txn.update_us", traced.update_calls.MeanUs(), "us");
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
