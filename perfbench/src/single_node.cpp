#include "single_node.h"

#include <time.h>

#include "query/compiled.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "resource/governor.h"
#include "storage/mvcc.h"

namespace polybench {

using poly::StatusOr;

namespace {

/// CPU time consumed by the whole process (all threads), in nanoseconds.
uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Sum of the `rows_in` of every scan span in a trace: the row versions a
/// statement examined.
uint64_t ScanRowsIn(const poly::OperatorSpan& span) {
  if (span.label.rfind("Scan(", 0) == 0 || span.label.rfind("FusedScan(", 0) == 0) {
    return span.rows_in;
  }
  uint64_t rows = 0;
  for (const auto& child : span.children) rows += ScanRowsIn(child);
  return rows;
}

}  // namespace

void SingleNodeLayers::Report(polybench::Report* report) const {
  report->Set("query.parse_us", parse.MeanUs(), "us");
  report->Set("query.optimize_us", optimize.MeanUs(), "us");
  report->Set("resource.admit_us", admit.MeanUs(), "us");
  report->Set("query.exec_us", exec.MeanUs(), "us");
  report->Set("query.rows_examined_per_row_returned",
              rows_returned ? static_cast<double>(rows_examined) / rows_returned : 0,
              "rows/row");
  report->Set("query.compiled_stmts", static_cast<double>(compiled_stmts), "count");
  report->Set("query.exec_cpu_per_wall",
              exec_wall_nanos ? static_cast<double>(exec_cpu_nanos) / exec_wall_nanos : 0,
              "s/s");
}

StatusOr<poly::ResultSet> TracedExecute(poly::Database* db, const std::string& sql,
                                        SingleNodeLayers* layers) {
  uint64_t t0 = NowNanos();
  poly::SqlParser parser(db);
  StatusOr<poly::PlanPtr> parsed = parser.Parse(sql);
  if (!parsed.ok()) return parsed.status();
  uint64_t t1 = NowNanos();
  poly::Optimizer optimizer(/*pruner=*/nullptr, db);
  poly::PlanPtr plan = optimizer.Optimize(*parsed);
  uint64_t t2 = NowNanos();

  // Same options Database::Execute(sql) passes on, with operator spans on.
  poly::ExecOptions effective = db->exec_options();
  effective.trace = true;
  poly::resource::AdmissionTicket ticket;
  if (auto* gov = db->resource_governor()) {
    auto admitted = gov->AdmitQuery(effective.workload_class);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(*admitted);
    effective.budget = ticket.budget();
  }
  uint64_t t3 = NowNanos();
  uint64_t cpu3 = ProcessCpuNanos();

  const poly::ReadView view = poly::LatestCommittedView();
  StatusOr<poly::ResultSet> result = poly::Status::Internal("statement did not run");
  bool ran = false;
  poly::QueryCompiler compiler(db, view, effective);
  if (compiler.CanCompile(plan)) {
    ++layers->compiled_stmts;
    result = compiler.Execute(plan);
    ran = result.ok() || result.status().code() != poly::StatusCode::kNotImplemented;
  }
  if (!ran) {
    poly::Executor executor(db, view, effective);
    result = executor.Execute(plan);
  }
  uint64_t cpu4 = ProcessCpuNanos();
  uint64_t t4 = NowNanos();

  layers->parse.Add(t1 - t0);
  layers->optimize.Add(t2 - t1);
  layers->admit.Add(t3 - t2);
  layers->exec.Add(t4 - t3);
  layers->exec_wall_nanos += t4 - t3;
  layers->exec_cpu_nanos += cpu4 - cpu3;
  if (result.ok()) {
    if (result->trace) layers->rows_examined += ScanRowsIn(*result->trace);
    layers->rows_returned += result->rows.size();
  }
  return result;
}

poly::Status LoadRows(poly::TransactionManager* tm, poly::ColumnTable* table,
                      const std::vector<poly::Row>& rows, size_t batch) {
  for (size_t begin = 0; begin < rows.size(); begin += batch) {
    auto txn = tm->Begin();
    size_t end = std::min(rows.size(), begin + batch);
    for (size_t i = begin; i < end; ++i) {
      POLY_RETURN_IF_ERROR(tm->Insert(txn.get(), table, rows[i]));
    }
    POLY_RETURN_IF_ERROR(tm->Commit(txn.get()));
  }
  return poly::Status::OK();
}

}  // namespace polybench
