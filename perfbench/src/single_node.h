// The single-node front door, plain and broken into its module calls.
#ifndef POLYBENCH_SINGLE_NODE_H_
#define POLYBENCH_SINGLE_NODE_H_

#include <string>
#include <vector>

#include "common.h"
#include "storage/database.h"
#include "txn/transaction_manager.h"

namespace polybench {

/// Per-layer totals of statements run through TracedExecute.
struct SingleNodeLayers {
  Samples parse, optimize, admit, exec;
  uint64_t exec_cpu_nanos = 0;
  uint64_t exec_wall_nanos = 0;
  uint64_t rows_examined = 0;
  uint64_t rows_returned = 0;
  uint64_t compiled_stmts = 0;

  /// Writes the query.* and resource.* per-layer metrics.
  void Report(polybench::Report* report) const;
};

/// Database::Execute(sql) step by step, timed from outside: SqlParser::Parse,
/// Optimizer::Optimize, ResourceGovernor::AdmitQuery, QueryCompiler::
/// CanCompile/Execute or Executor::Execute — the same calls with the same
/// options the front door makes, plus ExecOptions::trace for the operator
/// spans. The answer must equal the front door's.
poly::StatusOr<poly::ResultSet> TracedExecute(poly::Database* db, const std::string& sql,
                                              SingleNodeLayers* layers);

/// Inserts `rows` into `table`, `batch` rows per committed transaction.
poly::Status LoadRows(poly::TransactionManager* tm, poly::ColumnTable* table,
                      const std::vector<poly::Row>& rows, size_t batch);

}  // namespace polybench

#endif  // POLYBENCH_SINGLE_NODE_H_
