#ifndef SSTORE_QUERY_EXECUTOR_H_
#define SSTORE_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/mutation_log.h"
#include "query/plan.h"

namespace sstore {

/// Executes plan fragments against tables. All mutations are reported to the
/// MutationLog (when present) *before* this call returns, so a transaction
/// can undo them in reverse order. The executor is stateless apart from that
/// hook; it is cheap to construct per transaction.
class Executor {
 public:
  explicit Executor(MutationLog* mlog = nullptr) : mlog_(mlog) {}

  // ---- Reads ----

  /// Sequential scan with optional predicate / projection / order / limit.
  Result<std::vector<Tuple>> Scan(const ScanSpec& spec) const;

  /// Point/equality lookup via a named hash index, with optional residual
  /// predicate and projection applied to matching rows.
  Result<std::vector<Tuple>> IndexScan(Table* table,
                                       const std::string& index_name,
                                       const Tuple& key,
                                       const ExprPtr& residual = nullptr,
                                       std::vector<size_t> projection = {}) const;

  /// Number of rows matching `predicate` (COUNT(*) shortcut).
  Result<size_t> Count(Table* table, const ExprPtr& predicate = nullptr) const;

  /// GROUP BY aggregation (see AggregateSpec).
  Result<std::vector<Tuple>> Aggregate(const AggregateSpec& spec) const;

  // ---- Writes ----
  //
  // Delete and Update find their rows through a hash index keyed on exactly
  // {col} when the predicate is `col = literal` with a non-NULL literal of
  // the column's declared type (BIGINT and TIMESTAMP alike; DOUBLE columns
  // excluded); otherwise they scan. Either way they touch the same rows in
  // slot order and log the same undo records.

  /// Inserts one row; `batch_id` tags stream rows with their atomic batch,
  /// `active=false` stages the row (windows).
  Result<RowId> Insert(Table* table, Tuple row, int64_t batch_id = 0,
                       bool active = true) const;

  /// Inserts many rows under one batch id, moving each row into the table.
  /// Stops at the first failure with mutations so far already recorded in
  /// the MutationLog (the transaction will roll them back).
  Result<size_t> InsertMany(Table* table, std::vector<Tuple> rows,
                            int64_t batch_id = 0, bool active = true) const;

  /// Deletes all rows matching `predicate` (all rows if null); returns count.
  Result<size_t> Delete(Table* table, const ExprPtr& predicate = nullptr,
                        bool include_staged = false) const;

  /// Deletes one row by id.
  Status DeleteRow(Table* table, RowId rid) const;

  /// Applies SET clauses to all rows matching `predicate`; returns count.
  Result<size_t> Update(Table* table, const ExprPtr& predicate,
                        const std::vector<SetClause>& sets,
                        bool include_staged = false) const;

  /// Flips a row's staging flag (window management), undo-logged.
  Status SetActive(Table* table, RowId rid, bool active) const;

  MutationLog* mutation_log() const { return mlog_; }

 private:
  MutationLog* mlog_;
};

}  // namespace sstore

#endif  // SSTORE_QUERY_EXECUTOR_H_
