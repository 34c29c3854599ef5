#include "query/executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace sstore {

namespace {

Tuple Project(const Tuple& row, const std::vector<size_t>& projection) {
  if (projection.empty()) return row;
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
  Status err = Status::OK();
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(predicate, row);
        if (!match.ok()) {
          err = match.status();
          return false;
        }
        if (*match) out.push_back(rid);
        return true;
      },
      include_staged);
  SSTORE_RETURN_NOT_OK(err);
  return out;
}

}  // namespace

void SortTuples(std::vector<Tuple>* rows,
                const std::vector<OrderBySpec>& order_by) {
  if (order_by.empty()) return;
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const Tuple& a, const Tuple& b) {
                     for (const OrderBySpec& ob : order_by) {
                       int c = a[ob.column].Compare(b[ob.column]);
                       if (c != 0) return ob.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

Result<std::vector<Tuple>> Executor::Scan(const ScanSpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("scan requires a table");
  }
  SSTORE_RETURN_NOT_OK(ValidateProjection(*spec.table, spec.projection));
  std::vector<Tuple> out;
  Status err = Status::OK();
  // With ordering we must collect everything before applying the limit.
  bool early_limit = spec.order_by.empty() && spec.limit.has_value();
  spec.table->ForEach(
      [&](RowId, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(spec.predicate, row);
        if (!match.ok()) {
          err = match.status();
          return false;
        }
        if (!*match) return true;
        out.push_back(Project(row, spec.projection));
        return !(early_limit && out.size() >= *spec.limit);
      },
      spec.include_staged);
  SSTORE_RETURN_NOT_OK(err);
  SortTuples(&out, spec.order_by);
  if (spec.limit.has_value() && out.size() > *spec.limit) {
    out.resize(*spec.limit);
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
    out.push_back(Project(*row, projection));
  }
  return out;
}

Result<size_t> Executor::Count(Table* table, const ExprPtr& predicate) const {
  ScanSpec spec;
  spec.table = table;
  spec.predicate = predicate;
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Scan(spec));
  return rows.size();
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

  struct AggState {
    int64_t count = 0;         // rows seen (for COUNT / AVG denominators)
    int64_t non_null = 0;      // non-null inputs for this aggregate
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min, max;
  };
  struct GroupState {
    Tuple key;
    std::vector<AggState> aggs;
  };

  std::unordered_map<Tuple, GroupState, TupleHasher> groups;
  // Global aggregation gets one implicit group keyed by the empty tuple.
  if (spec.group_by.empty()) {
    GroupState g;
    g.aggs.resize(spec.aggregates.size());
    groups.emplace(Tuple{}, std::move(g));
  }

  Status err = Status::OK();
  spec.table->ForEach(
      [&](RowId, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(spec.predicate, row);
        if (!match.ok()) {
          err = match.status();
          return false;
        }
        if (!*match) return true;
        Tuple key;
        key.reserve(spec.group_by.size());
        for (size_t c : spec.group_by) key.push_back(row[c]);
        auto [it, inserted] = groups.try_emplace(key);
        GroupState& g = it->second;
        if (inserted) {
          g.key = std::move(key);
          g.aggs.resize(spec.aggregates.size());
        }
        for (size_t i = 0; i < spec.aggregates.size(); ++i) {
          const AggExpr& a = spec.aggregates[i];
          AggState& st = g.aggs[i];
          ++st.count;
          if (a.func == AggFunc::kCount) continue;
          const Value& v = row[a.column];
          if (v.is_null()) continue;
          ++st.non_null;
          Result<double> num = v.ToNumeric();
          if (!num.ok() &&
              (a.func == AggFunc::kSum || a.func == AggFunc::kAvg)) {
            err = num.status();
            return false;
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
        return true;
      },
      spec.include_staged);
  SSTORE_RETURN_NOT_OK(err);

  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) {
    Tuple row = g.key;
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      const AggExpr& a = spec.aggregates[i];
      const AggState& st = g.aggs[i];
      switch (a.func) {
        case AggFunc::kCount:
          row.push_back(Value::BigInt(st.count));
          break;
        case AggFunc::kSum:
          if (st.non_null == 0) {
            row.push_back(Value::Null());
          } else if (st.sum_is_int) {
            row.push_back(Value::BigInt(st.isum));
          } else {
            row.push_back(Value::Double(st.sum));
          }
          break;
        case AggFunc::kAvg:
          row.push_back(st.non_null == 0
                            ? Value::Null()
                            : Value::Double(st.sum /
                                            static_cast<double>(st.non_null)));
          break;
        case AggFunc::kMin:
          row.push_back(st.non_null == 0 ? Value::Null() : st.min);
          break;
        case AggFunc::kMax:
          row.push_back(st.non_null == 0 ? Value::Null() : st.max);
          break;
      }
    }
    out.push_back(std::move(row));
  }

  SortTuples(&out, spec.order_by);
  if (spec.limit.has_value() && out.size() > *spec.limit) {
    out.resize(*spec.limit);
  }
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
