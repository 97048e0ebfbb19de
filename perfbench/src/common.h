// Shared pieces of the Polyphony benchmark program: the run configuration,
// timing, sample statistics, the per-run report and operation tally, and
// the set-up and reporting steps every workload shares.
#ifndef POLYBENCH_COMMON_H_
#define POLYBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace polybench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Number of times a run builds its inputs from scratch; setup_s is the
/// median, so one slow set-up does not decide the figure.
constexpr int kSetupRepetitions = 3;

/// Wall clock in nanoseconds (steady).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seeded generator for every input the benchmark makes.
using Rng = std::mt19937_64;

/// Collected latencies of one kind of operation, in nanoseconds.
class Samples {
 public:
  void Add(uint64_t nanos) {
    v_.push_back(nanos);
    sum_ += nanos;
  }
  size_t count() const { return v_.size(); }
  uint64_t sum() const { return sum_; }
  /// q-quantile in microseconds (linear interpolation); 0 when empty.
  double QuantileUs(double q) const;
  double MeanUs() const { return v_.empty() ? 0 : sum_ / 1e3 / v_.size(); }

 private:
  std::vector<uint64_t> v_;
  uint64_t sum_ = 0;
};

/// Named metrics with units, printed in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  /// One metric per line, for people reading a terminal.
  std::string ToText() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operation tallies plus the answer check, shared by every workload.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_error;

  /// Records a wrong answer (the run then reports correct=false).
  void Wrong(const std::string& what);
  /// Records a failed operation (an error Status from the program).
  void Fail(const std::string& what);
};

/// Statement latencies by statement kind, in first-use order.
class KindSamples {
 public:
  Samples& operator[](const std::string& kind);
  const std::vector<std::pair<std::string, Samples>>& all() const { return kinds_; }

 private:
  std::vector<std::pair<std::string, Samples>> kinds_;
};

/// What every workload's closed loop measures, plain or traced.
struct LoopTotals {
  Samples reads, writes;
  uint64_t busy_nanos = 0;  // time inside timed operations (oracle work excluded)
  double rows_covered = 0;  // base-table rows the read statements read
  KindSamples kinds;

  void AddRead(const std::string& kind, uint64_t nanos, double rows) {
    reads.Add(nanos);
    kinds[kind].Add(nanos);
    busy_nanos += nanos;
    rows_covered += rows;
  }
  void AddWrite(const std::string& kind, uint64_t nanos) {
    writes.Add(nanos);
    kinds[kind].Add(nanos);
    busy_nanos += nanos;
  }
};

/// Writes the end-to-end metrics of a plain run.
void ReportEndToEnd(const LoopTotals& loop, double setup_s, double table_bytes_per_row,
                    Report* report);

/// Writes the per-kind medians (from the plain rounds) and the tracing
/// overhead of a traced run.
void ReportKindsAndOverhead(const LoopTotals& plain, const LoopTotals& traced, Report* report);

/// Builds a workload's state kSetupRepetitions times from scratch and keeps
/// the last; `median_s` gets the median set-up time. Null on failure, which
/// is recorded in `tally`.
template <class State, class SetupFn>
std::unique_ptr<State> SetUpRepeatedly(SetupFn setup, double* median_s, Tally* tally) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    state.reset();
    uint64_t t0 = NowNanos();
    auto built = setup();
    if (!built.ok()) {
      tally->attempted = 1;
      tally->Fail("setup: " + built.status().ToString());
      return nullptr;
    }
    state = std::move(*built);
    times.push_back((NowNanos() - t0) / 1e9);
  }
  std::sort(times.begin(), times.end());
  *median_s = times[times.size() / 2];
  return state;
}

/// Sets every per-layer metric a traced run prints to 0 with its unit;
/// workloads then overwrite the ones their path crosses. 0 means the
/// workload's statements never enter that layer.
void SetPerLayerDefaults(Report* report);

/// Runs the workload named in `cfg`, prints its report as the last line.
int RunOltpPoint(const RunConfig& cfg);
int RunOlapScan(const RunConfig& cfg);
int RunSoeDistributed(const RunConfig& cfg);

/// Prints the provenance line and, as the last line, the result; the
/// metrics also go to stderr as a table. Returns the process exit code.
int Finish(const RunConfig& cfg, const Tally& tally, const Report& report);

}  // namespace polybench

#endif  // POLYBENCH_COMMON_H_
