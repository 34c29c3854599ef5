#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sstore {

namespace {

/// The output row for a stored row of `width` values starting at `row`.
Tuple Project(const Value* row, size_t width,
              const std::vector<size_t>& projection) {
  if (projection.empty()) return Tuple(row, row + width);
  Tuple out;
  out.reserve(projection.size());
  for (size_t c : projection) out.push_back(row[c]);
  return out;
}

Status ValidateProjection(const Table& table,
                          const std::vector<size_t>& projection) {
  for (size_t c : projection) {
    if (c >= table.schema().num_columns()) {
      return Status::OutOfRange("projection column " + std::to_string(c) +
                                " out of range for table '" + table.name() +
                                "'");
    }
  }
  return Status::OK();
}

Status ValidateOrderBy(const std::vector<OrderBySpec>& order_by,
                       size_t width) {
  for (const OrderBySpec& ob : order_by) {
    if (ob.column >= width) {
      return Status::OutOfRange("ORDER BY column " +
                                std::to_string(ob.column) +
                                " out of range for a " +
                                std::to_string(width) + "-column output row");
    }
  }
  return Status::OK();
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

/// Value::Compare, except that NaN sorts after every other number and level
/// with any other NaN. Value::Compare finds NaN equal to every number, which
/// is no strict weak order; this one is, so heap selection and a stable sort
/// agree on it.
int OrderCompare(const Value& a, const Value& b) {
  if (IsIntLike(a.type()) && IsIntLike(b.type())) return a.Compare(b);
  bool a_nan = IsNaN(a);
  bool b_nan = IsNaN(b);
  if (a_nan == b_nan) return a_nan ? 0 : a.Compare(b);
  const Value& other = a_nan ? b : a;
  if (other.is_null() || other.type() == ValueType::kString) {
    return a.Compare(b);  // NULL first; a string orders by type tag
  }
  return a_nan ? 1 : -1;
}

/// Three-way comparison of two rows, given by their first values, on `keys`
/// in turn.
int RowCompare(const Value* a, const Value* b,
               const std::vector<OrderBySpec>& keys) {
  for (const OrderBySpec& k : keys) {
    int c = OrderCompare(a[k.column], b[k.column]);
    if (c != 0) return k.descending ? -c : c;
  }
  return 0;
}

/// The one ordering step of Scan and Aggregate: orders `rows` (pointers to
/// each row's first value) by `keys`, ties kept in input order, and keeps
/// the first `limit` of them (all when unset). When the limit cuts, a heap
/// selection over positions finds the survivors; its output equals a stable
/// sort truncated to `limit`, row for row.
void OrderRows(std::vector<const Value*>* rows,
               const std::vector<OrderBySpec>& keys,
               std::optional<size_t> limit) {
  size_t n = rows->size();
  size_t keep = limit.has_value() ? std::min(*limit, n) : n;
  if (keys.empty() || keep == 0) {
    rows->resize(keep);
    return;
  }
  if (keep == n) {
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Value* a, const Value* b) {
                       return RowCompare(a, b, keys) < 0;
                     });
    return;
  }
  std::vector<size_t> pos(n);
  std::iota(pos.begin(), pos.end(), size_t{0});
  std::partial_sort(pos.begin(), pos.begin() + keep, pos.end(),
                    [&](size_t i, size_t j) {
                      int c = RowCompare((*rows)[i], (*rows)[j], keys);
                      return c != 0 ? c < 0 : i < j;
                    });
  std::vector<const Value*> top(keep);
  for (size_t r = 0; r < keep; ++r) top[r] = (*rows)[pos[r]];
  rows->swap(top);
}

/// How many rows a scan of `table` visits: the upper bound on its matches.
size_t VisibleRows(const Table& table, bool include_staged) {
  return include_staged ? table.row_count() : table.active_count();
}

/// Calls `fn(rid, row)` on each live row matching `predicate` (every row if
/// null), in slot order, until `fn` returns false.
template <typename Fn>
Status ForEachMatch(const Table& table, const ExprPtr& predicate,
                    bool include_staged, Fn fn) {
  Status err = Status::OK();
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(predicate, row);
        if (!match.ok()) {
          err = match.status();
          return false;
        }
        return !*match || fn(rid, row);
      },
      include_staged);
  return err;
}

/// The hash index that answers `predicate` as a point lookup, or null. That
/// takes a `col = literal` predicate whose literal has the column's declared
/// type (BIGINT and TIMESTAMP count as one; a NULL literal never does), and
/// an index keyed on exactly {col}. DOUBLE columns always scan: NaN compares
/// equal to every number, which no hash probe can reproduce.
const HashIndex* PointIndex(const Table& table, const ExprPtr& predicate,
                            const Value** key) {
  size_t col = 0;
  if (predicate == nullptr || !predicate->AsColumnEquality(&col, key) ||
      col >= table.schema().num_columns()) {
    return nullptr;
  }
  ValueType declared = table.schema().column(col).type;
  ValueType actual = (*key)->type();
  if (declared == ValueType::kDouble ||
      (actual != declared && !(IsIntLike(declared) && IsIntLike(actual)))) {
    return nullptr;
  }
  for (const auto& idx : table.indexes()) {
    const std::vector<size_t>& cols = idx->key_columns();
    if (cols.size() == 1 && cols[0] == col) return idx.get();
  }
  return nullptr;
}

/// Ids of the live rows matching `predicate` (all rows if null), in slot
/// order: through PointIndex when one applies, by a full scan otherwise.
/// Index candidates are sorted and re-checked against the whole predicate,
/// so both paths return the same ids in the same order, and the mutations
/// built on them log the same undo records.
Result<std::vector<RowId>> MatchingRows(const Table& table,
                                        const ExprPtr& predicate,
                                        bool include_staged) {
  std::vector<RowId> out;
  const Value* key = nullptr;
  if (const HashIndex* idx = PointIndex(table, predicate, &key)) {
    std::vector<RowId> candidates = idx->Lookup({*key});
    std::sort(candidates.begin(), candidates.end());
    for (RowId rid : candidates) {
      SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta, table.GetMeta(rid));
      if (!include_staged && !meta->active) continue;
      SSTORE_ASSIGN_OR_RETURN(const Tuple* row, table.Get(rid));
      SSTORE_ASSIGN_OR_RETURN(bool match, EvalPredicate(predicate, *row));
      if (match) out.push_back(rid);
    }
    return out;
  }
  SSTORE_RETURN_NOT_OK(
      ForEachMatch(table, predicate, include_staged, [&](RowId rid, const Tuple&) {
        out.push_back(rid);
        return true;
      }));
  return out;
}

}  // namespace

Result<std::vector<Tuple>> Executor::Scan(const ScanSpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("scan requires a table");
  }
  SSTORE_RETURN_NOT_OK(ValidateProjection(*spec.table, spec.projection));
  size_t width = spec.projection.empty()
                     ? spec.table->schema().num_columns()
                     : spec.projection.size();
  SSTORE_RETURN_NOT_OK(ValidateOrderBy(spec.order_by, width));
  // Order keys name output columns; map them onto the stored row, so rows
  // are ordered before any of them is projected.
  std::vector<OrderBySpec> keys = spec.order_by;
  if (!spec.projection.empty()) {
    for (OrderBySpec& k : keys) k.column = spec.projection[k.column];
  }
  // Without ordering the limit can stop the scan early.
  bool early_limit = keys.empty() && spec.limit.has_value();
  std::vector<const Value*> rows;
  size_t visible = VisibleRows(*spec.table, spec.include_staged);
  rows.reserve(early_limit ? std::min(*spec.limit, visible) : visible);
  SSTORE_RETURN_NOT_OK(ForEachMatch(
      *spec.table, spec.predicate, spec.include_staged,
      [&](RowId, const Tuple& row) {
        rows.push_back(row.data());
        return !(early_limit && rows.size() >= *spec.limit);
      }));
  OrderRows(&rows, keys, spec.limit);
  std::vector<Tuple> out;
  out.reserve(rows.size());
  size_t arity = spec.table->schema().num_columns();
  for (const Value* row : rows) {
    out.push_back(Project(row, arity, spec.projection));
  }
  return out;
}

Result<std::vector<Tuple>> Executor::IndexScan(
    Table* table, const std::string& index_name, const Tuple& key,
    const ExprPtr& residual, std::vector<size_t> projection) const {
  if (table == nullptr) {
    return Status::InvalidArgument("index scan requires a table");
  }
  SSTORE_RETURN_NOT_OK(ValidateProjection(*table, projection));
  SSTORE_ASSIGN_OR_RETURN(std::vector<RowId> rids,
                          table->IndexLookup(index_name, key));
  std::vector<Tuple> out;
  for (RowId rid : rids) {
    SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta, table->GetMeta(rid));
    if (!meta->active) continue;  // staged rows invisible to queries
    SSTORE_ASSIGN_OR_RETURN(const Tuple* row, table->Get(rid));
    SSTORE_ASSIGN_OR_RETURN(bool match, EvalPredicate(residual, *row));
    if (!match) continue;
    out.push_back(Project(row->data(), row->size(), projection));
  }
  return out;
}

Result<size_t> Executor::Count(Table* table, const ExprPtr& predicate) const {
  if (table == nullptr) {
    return Status::InvalidArgument("count requires a table");
  }
  size_t n = 0;
  SSTORE_RETURN_NOT_OK(ForEachMatch(*table, predicate, /*include_staged=*/false,
                                    [&](RowId, const Tuple&) {
                                      ++n;
                                      return true;
                                    }));
  return n;
}

Result<std::vector<Tuple>> Executor::Aggregate(const AggregateSpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("aggregate requires a table");
  }
  size_t arity = spec.table->schema().num_columns();
  for (size_t c : spec.group_by) {
    if (c >= arity) {
      return Status::OutOfRange("group-by column out of range");
    }
  }
  for (const AggExpr& a : spec.aggregates) {
    if (a.func != AggFunc::kCount && a.column >= arity) {
      return Status::OutOfRange("aggregate column out of range");
    }
  }
  size_t width = spec.group_by.size() + spec.aggregates.size();
  SSTORE_RETURN_NOT_OK(ValidateOrderBy(spec.order_by, width));

  std::vector<const Value*> rows;
  rows.reserve(VisibleRows(*spec.table, spec.include_staged));
  SSTORE_RETURN_NOT_OK(ForEachMatch(*spec.table, spec.predicate,
                                    spec.include_staged,
                                    [&](RowId, const Tuple& row) {
                                      rows.push_back(row.data());
                                      return true;
                                    }));

  struct AggState {
    int64_t count = 0;         // rows seen (for COUNT / AVG denominators)
    int64_t non_null = 0;      // non-null inputs for this aggregate
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min, max;
  };
  std::vector<AggState> states(spec.aggregates.size());
  // Group g's output row is cells[g * width, (g + 1) * width). There is at
  // most one group per row, and one even over no rows.
  std::vector<Value> cells;
  cells.reserve(std::max<size_t>(rows.size(), 1) * width);
  size_t groups = 0;

  // Folds rows[begin, end) — one group, in slot order — into an output row.
  auto fold = [&](size_t begin, size_t end) -> Status {
    std::fill(states.begin(), states.end(), AggState{});
    for (size_t r = begin; r < end; ++r) {
      for (size_t i = 0; i < spec.aggregates.size(); ++i) {
        const AggExpr& a = spec.aggregates[i];
        AggState& st = states[i];
        ++st.count;
        if (a.func == AggFunc::kCount) continue;
        const Value& v = rows[r][a.column];
        if (v.is_null()) continue;
        ++st.non_null;
        Result<double> num = v.ToNumeric();
        if (!num.ok() &&
            (a.func == AggFunc::kSum || a.func == AggFunc::kAvg)) {
          return num.status();
        }
        if (num.ok()) {
          st.sum += *num;
          if (IsIntLike(v.type())) {
            st.isum += v.as_int64();
          } else {
            st.sum_is_int = false;
          }
        }
        if (st.non_null == 1) {
          st.min = v;
          st.max = v;
        } else {
          if (v.Compare(st.min) < 0) st.min = v;
          if (v.Compare(st.max) > 0) st.max = v;
        }
      }
    }
    for (size_t c : spec.group_by) cells.push_back(rows[begin][c]);
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      const AggState& st = states[i];
      switch (spec.aggregates[i].func) {
        case AggFunc::kCount:
          cells.push_back(Value::BigInt(st.count));
          break;
        case AggFunc::kSum:
          if (st.non_null == 0) {
            cells.push_back(Value::Null());
          } else if (st.sum_is_int) {
            cells.push_back(Value::BigInt(st.isum));
          } else {
            cells.push_back(Value::Double(st.sum));
          }
          break;
        case AggFunc::kAvg:
          cells.push_back(st.non_null == 0
                              ? Value::Null()
                              : Value::Double(
                                    st.sum / static_cast<double>(st.non_null)));
          break;
        case AggFunc::kMin:
          cells.push_back(st.non_null == 0 ? Value::Null() : st.min);
          break;
        case AggFunc::kMax:
          cells.push_back(st.non_null == 0 ? Value::Null() : st.max);
          break;
      }
    }
    ++groups;
    return Status::OK();
  };

  if (spec.group_by.empty()) {
    // Global aggregation: one group, even over no rows.
    SSTORE_RETURN_NOT_OK(fold(0, rows.size()));
  } else {
    // Sort-based grouping: a stable sort on the group-by columns makes each
    // group one run of rows, still in slot order within the run.
    std::vector<OrderBySpec> group_keys;
    group_keys.reserve(spec.group_by.size());
    for (size_t c : spec.group_by) group_keys.push_back({c, false});
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Value* a, const Value* b) {
                       return RowCompare(a, b, group_keys) < 0;
                     });
    size_t end = 0;
    for (size_t begin = 0; begin < rows.size(); begin = end) {
      for (end = begin + 1;
           end < rows.size() && RowCompare(rows[begin], rows[end], group_keys) == 0;
           ++end) {
      }
      SSTORE_RETURN_NOT_OK(fold(begin, end));
    }
  }

  std::vector<const Value*> order(groups);
  for (size_t g = 0; g < groups; ++g) order[g] = cells.data() + g * width;
  OrderRows(&order, spec.order_by, spec.limit);
  std::vector<Tuple> out;
  out.reserve(order.size());
  for (const Value* row : order) out.emplace_back(row, row + width);
  return out;
}

Result<RowId> Executor::Insert(Table* table, Tuple row, int64_t batch_id,
                               bool active) const {
  if (table == nullptr) {
    return Status::InvalidArgument("insert requires a table");
  }
  RowMeta meta;
  meta.batch_id = batch_id;
  meta.active = active;
  SSTORE_ASSIGN_OR_RETURN(RowId rid, table->Insert(std::move(row), meta));
  if (mlog_ != nullptr) mlog_->RecordInsert(table, rid);
  return rid;
}

Result<size_t> Executor::InsertMany(Table* table,
                                    const std::vector<Tuple>& rows,
                                    int64_t batch_id, bool active) const {
  size_t n = 0;
  for (const Tuple& row : rows) {
    SSTORE_ASSIGN_OR_RETURN(RowId rid, Insert(table, row, batch_id, active));
    (void)rid;
    ++n;
  }
  return n;
}

Result<size_t> Executor::InsertMany(Table* table, std::vector<Tuple>&& rows,
                                    int64_t batch_id, bool active) const {
  size_t n = 0;
  for (Tuple& row : rows) {
    SSTORE_ASSIGN_OR_RETURN(RowId rid,
                            Insert(table, std::move(row), batch_id, active));
    (void)rid;
    ++n;
  }
  rows.clear();  // rows are moved-from; don't leave husks for the caller
  return n;
}

Result<size_t> Executor::Delete(Table* table, const ExprPtr& predicate,
                                bool include_staged) const {
  if (table == nullptr) {
    return Status::InvalidArgument("delete requires a table");
  }
  SSTORE_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                          MatchingRows(*table, predicate, include_staged));
  for (RowId rid : victims) {
    SSTORE_RETURN_NOT_OK(DeleteRow(table, rid));
  }
  return victims.size();
}

Status Executor::DeleteRow(Table* table, RowId rid) const {
  SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta_ptr, table->GetMeta(rid));
  RowMeta meta = *meta_ptr;
  SSTORE_ASSIGN_OR_RETURN(Tuple before, table->Delete(rid));
  if (mlog_ != nullptr) {
    mlog_->RecordDelete(table, rid, std::move(before), meta);
  }
  return Status::OK();
}

Result<size_t> Executor::Update(Table* table, const ExprPtr& predicate,
                                const std::vector<SetClause>& sets,
                                bool include_staged) const {
  if (table == nullptr) {
    return Status::InvalidArgument("update requires a table");
  }
  size_t arity = table->schema().num_columns();
  for (const SetClause& s : sets) {
    if (s.column >= arity) {
      return Status::OutOfRange("SET column out of range");
    }
  }
  SSTORE_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                          MatchingRows(*table, predicate, include_staged));
  for (RowId rid : victims) {
    SSTORE_ASSIGN_OR_RETURN(const Tuple* cur, table->Get(rid));
    Tuple next = *cur;
    for (const SetClause& s : sets) {
      SSTORE_ASSIGN_OR_RETURN(Value v, s.value->Eval(*cur));
      next[s.column] = std::move(v);
    }
    SSTORE_ASSIGN_OR_RETURN(Tuple before, table->Update(rid, std::move(next)));
    if (mlog_ != nullptr) mlog_->RecordUpdate(table, rid, std::move(before));
  }
  return victims.size();
}

Status Executor::SetActive(Table* table, RowId rid, bool active) const {
  SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta, table->GetMeta(rid));
  bool was = meta->active;
  if (was == active) return Status::OK();
  SSTORE_RETURN_NOT_OK(table->SetActive(rid, active));
  if (mlog_ != nullptr) mlog_->RecordActivate(table, rid, was);
  return Status::OK();
}

}  // namespace sstore
