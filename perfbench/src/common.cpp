#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

namespace polybench {

double Samples::QuantileUs(double q) const {
  if (v_.empty()) return 0;
  std::vector<uint64_t> s = v_;
  std::sort(s.begin(), s.end());
  double pos = q * static_cast<double>(s.size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, s.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(s[lo]) * (1 - frac) + static_cast<double>(s[hi]) * frac) / 1e3;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

namespace {

/// High-water resident set size of this process, in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every statement kind any workload reports, so a traced run prints the
/// same per-kind metric names on every workload.
const std::vector<std::string>& AllStatementKinds() {
  static const std::vector<std::string> kinds = {
      // oltp_point
      "point_read", "update", "merge",
      // olap_scan (merge shared with oltp_point)
      "q6_sum", "group_region", "group_qty", "topk", "join_group", "distinct",
      "fresh_range", "bulk_insert",
      // soe_distributed
      "point_scan", "shuffle_join", "broadcast_join", "join3_gather", "group2",
      "group_topk", "commit_inserts"};
  return kinds;
}

/// Shortest text that reads back as exactly `v`.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string Report::ToText() const {
  std::ostringstream out;
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-40s %16.4f %s\n", name.c_str(), value,
                  unit.c_str());
    out << buf;
  }
  return out.str();
}

void Tally::Wrong(const std::string& what) {
  if (correct) first_error = what;
  correct = false;
}

void Tally::Fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

Samples& KindSamples::operator[](const std::string& kind) {
  for (auto& [name, samples] : kinds_) {
    if (name == kind) return samples;
  }
  kinds_.emplace_back(kind, Samples());
  return kinds_.back().second;
}

void ReportEndToEnd(const LoopTotals& loop, double setup_s, double table_bytes_per_row,
                    Report* report) {
  report->Set("setup_s", setup_s, "s");
  report->Set("read_p50_us", loop.reads.QuantileUs(0.5), "us");
  report->Set("read_p90_us", loop.reads.QuantileUs(0.9), "us");
  report->Set("write_p50_us", loop.writes.QuantileUs(0.5), "us");
  report->Set("ops_per_s",
              static_cast<double>(loop.reads.count() + loop.writes.count()) /
                  (static_cast<double>(loop.busy_nanos) / 1e9),
              "ops/s");
  report->Set("scan_rows_per_s",
              loop.rows_covered / (static_cast<double>(loop.reads.sum()) / 1e9), "rows/s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("table_bytes_per_row", table_bytes_per_row, "bytes/row");
}

void ReportKindsAndOverhead(const LoopTotals& plain, const LoopTotals& traced, Report* report) {
  for (const auto& [kind, samples] : plain.kinds.all()) {
    report->Set("kind." + kind + "_p50_us", samples.QuantileUs(0.5), "us");
  }
  // Mean read latency of traced rounds over plain rounds: the cost of
  // tracing as the front door sees it.
  double base = plain.reads.MeanUs();
  report->Set("trace.overhead_pct", base > 0 ? (traced.reads.MeanUs() / base - 1) * 100 : 0,
              "%");
}

void SetPerLayerDefaults(Report* report) {
  static const std::vector<std::pair<std::string, std::string>> layers = {
      {"query.parse_us", "us"},
      {"query.optimize_us", "us"},
      {"resource.admit_us", "us"},
      {"query.exec_us", "us"},
      {"query.rows_examined_per_row_returned", "rows/row"},
      {"query.compiled_stmts", "count"},
      {"query.exec_cpu_per_wall", "s/s"},
      {"txn.update_us", "us"},
      {"txn.commit_us", "us"},
      {"storage.merge_ms", "ms"},
      {"storage.merge_rows_moved", "rows"},
      {"soe.parse_optimize_us", "us"},
      {"soe.plan_us", "us"},
      {"soe.fragments_ms", "ms"},
      {"soe.makespan_ms", "ms"},
      {"soe.coordinator_rest_ms", "ms"},
      {"soe.commit_us", "us"},
      {"soe.net.messages_per_stmt", "count"},
      {"soe.net.bytes_per_stmt", "bytes"},
      {"soe.net.virtual_ms_per_stmt", "ms"},
      {"soe.dqp.shuffle_bytes_per_stmt", "bytes"},
      {"soe.dqp.result_bytes_per_stmt", "bytes"},
      {"soe.dqp.fragments_per_stmt", "count"},
      {"soe.gather_fallback_stmts", "count"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : layers) report->Set(name, 0, unit);
  for (const std::string& kind : AllStatementKinds()) {
    report->Set("kind." + kind + "_p50_us", 0, "us");
  }
}

int Finish(const RunConfig& cfg, const Tally& tally, const Report& report) {
  std::cout << "{\"provenance\": {\"workload\": " << JsonString(cfg.workload)
            << ", \"seed\": " << cfg.seed << ", \"seconds\": " << JsonNumber(cfg.seconds)
            << ", \"trace\": " << (cfg.trace ? 1 : 0)
            << ", \"poly_build_type\": " << JsonString(POLY_BUILD_TYPE)
            << ", \"compiler\": " << JsonString(POLY_CXX_COMPILER)
            << ", \"nproc\": " << std::thread::hardware_concurrency() << "}}\n";
  std::cerr << "workload " << cfg.workload << " seed " << cfg.seed
            << (cfg.trace ? " (traced)" : "") << ": attempted " << tally.attempted
            << ", failed " << tally.failed << (tally.correct ? "" : ", WRONG ANSWER")
            << "\n"
            << report.ToText();
  if (!tally.first_error.empty()) std::cerr << "first error: " << tally.first_error << "\n";
  std::cout << "{\"correct\": " << (tally.correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << report.ToJson() << "}" << std::endl;
  return tally.correct ? 0 : 3;
}

}  // namespace polybench
