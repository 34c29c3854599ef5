#ifndef SSTORE_QUERY_PLAN_H_
#define SSTORE_QUERY_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "query/expr.h"
#include "storage/table.h"

namespace sstore {

/// Ordering key for scan/aggregate output: column index within the *output*
/// row (after projection / aggregate layout); a column past the output row
/// fails the query with kOutOfRange. Keys order by Value::Compare (NULL
/// first), except that NaN sorts after every other number and ties with
/// any other NaN. Ordering is stable: rows tied on every key keep their
/// input order (slot order for a scan). `ORDER BY ... LIMIT n` is a stable
/// top-n: exactly the first n rows of the full stable order.
struct OrderBySpec {
  size_t column;
  bool descending = false;
};

/// A relational scan: optional predicate, optional projection, optional
/// ordering and limit. Window staging visibility is enforced here: staged
/// rows are never visible to scans unless `include_staged` is set (used only
/// by window-management internals).
struct ScanSpec {
  Table* table = nullptr;
  ExprPtr predicate;                 // null => all rows
  std::vector<size_t> projection;    // empty => all columns
  std::vector<OrderBySpec> order_by;
  std::optional<size_t> limit;
  bool include_staged = false;
};

/// Aggregate functions supported by AggregateSpec.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate output: func applied to `column` (ignored for COUNT(*)).
struct AggExpr {
  AggFunc func;
  size_t column = 0;
};

/// GROUP BY aggregation over a table. Output rows are laid out as
/// [group_by columns..., aggregate results...]; order_by/limit apply to that
/// layout. Rows fall in one group when their group-by values tie under the
/// OrderBySpec ordering (so BIGINT 5 and TIMESTAMP 5 share a group, and so do
/// all NaNs); a group's key values are those of its first row in slot order,
/// and its aggregates fold its rows in slot order. Without order_by the
/// output is ascending by group key; with it, groups tied on every ORDER BY
/// key keep that ascending order, and a limit keeps the first rows of it.
/// With no group_by columns, exactly one row is produced (even over an empty
/// input, SQL-style: COUNT=0, SUM/MIN/MAX/AVG=NULL). SUM over BIGINT/TIMESTAMP
/// inputs only is a BIGINT, and kOutOfRange when it leaves the int64 range;
/// one DOUBLE input makes it a DOUBLE.
struct AggregateSpec {
  Table* table = nullptr;
  ExprPtr predicate;
  std::vector<size_t> group_by;
  std::vector<AggExpr> aggregates;
  std::vector<OrderBySpec> order_by;
  std::optional<size_t> limit;
  bool include_staged = false;
};

/// UPDATE ... SET col = expr assignments.
struct SetClause {
  size_t column;
  ExprPtr value;  // evaluated against the row's *before* image
};

}  // namespace sstore

#endif  // SSTORE_QUERY_PLAN_H_
