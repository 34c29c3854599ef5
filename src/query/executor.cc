#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
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
inline int OrderCompare(const Value& a, const Value& b) {
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
/// the first `limit` of them (all when unset). Positions break ties, which
/// makes the order total. A limit that cuts runs one heap selection
/// (std::partial_sort), whose output equals the stable order truncated.
void OrderRows(std::vector<const Value*>* rows,
               const std::vector<OrderBySpec>& keys,
               std::optional<size_t> limit) {
  size_t n = rows->size();
  size_t keep = limit.has_value() ? std::min(*limit, n) : n;
  if (keys.empty() || keep == 0 || n == 1) {
    rows->resize(keep);
    return;
  }
  auto row_less = [&](size_t i, size_t j) {
    int c = RowCompare((*rows)[i], (*rows)[j], keys);
    return c != 0 ? c < 0 : i < j;
  };
  std::vector<size_t> pos(n);
  std::iota(pos.begin(), pos.end(), size_t{0});
  if (keep < n) {
    std::partial_sort(pos.begin(), pos.begin() + keep, pos.end(), row_less);
    pos.resize(keep);
  } else {
    std::sort(pos.begin(), pos.end(), row_less);
  }
  std::vector<const Value*> out(pos.size());
  for (size_t r = 0; r < pos.size(); ++r) out[r] = (*rows)[pos[r]];
  rows->swap(out);
}

/// splitmix64's finalizer: spreads every input bit over the whole word.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A grouping hash that agrees with `OrderCompare == 0`: a number hashes by
/// its double image (so BIGINT 5, TIMESTAMP 5 and 5.0 meet, and so do 0.0
/// and -0.0), every NaN hashes alike, and a string or NULL by value. Keys
/// that share a hash still go through OrderCompare, so a collision — say
/// two int64s above 2^53 with one double image — never merges two groups.
inline uint64_t GroupHash(const Value& v) {
  double d = 0;
  switch (v.type()) {
    case ValueType::kNull:
      return 0x6a09e667f3bcc909ull;
    case ValueType::kString:
      return Mix(std::hash<std::string>{}(v.as_string()));
    case ValueType::kDouble:
      d = v.as_double();
      if (std::isnan(d)) return 0xbb67ae8584caa73bull;
      if (d == 0.0) d = 0.0;  // -0.0 hashes as 0.0
      break;
    case ValueType::kBigInt:
    case ValueType::kTimestamp:
      d = static_cast<double>(v.as_int64());
      break;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(bits);
}

/// One GROUP BY group: its first row in slot order (whose key values the
/// output keeps), its key hash and how many rows it holds.
struct Group {
  const Value* first;
  uint64_t hash;
  int64_t rows;
};

/// The groups of a GROUP BY in first-seen order, found through a flat
/// open-addressing table of group ids + 1 (0 marks an empty slot), probed
/// linearly and doubled at half load. A probe compares stored hashes first
/// and the key columns, with OrderCompare, only on a hash match.
class GroupTable {
 public:
  /// `cols` (the group-by columns) must outlive the table; `expected` rows
  /// size the first allocation.
  GroupTable(const std::vector<size_t>& cols, size_t expected) : cols_(cols) {
    size_t cap = 16;
    while (cap < 2 * std::min<size_t>(expected, 64)) cap *= 2;
    slots_.resize(cap);
    groups_.reserve(cap / 2);
  }

  /// The id of the group `row` falls in, opening a new one if none matches.
  size_t FindOrAdd(const Value* row) {
    uint64_t hash = 0;
    for (size_t c : cols_) {
      hash = (hash ^ GroupHash(row[c])) * 0x9e3779b97f4a7c15ull;
    }
    size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    for (; slots_[s] != 0; s = (s + 1) & mask) {
      Group& g = groups_[slots_[s] - 1];
      if (g.hash == hash && SameKey(g.first, row)) return slots_[s] - 1;
    }
    groups_.push_back(Group{row, hash, 0});
    slots_[s] = static_cast<uint32_t>(groups_.size());
    if (2 * groups_.size() > slots_.size()) Grow();
    return groups_.size() - 1;
  }

  std::vector<Group>& groups() { return groups_; }

 private:
  bool SameKey(const Value* a, const Value* b) const {
    for (size_t c : cols_) {
      if (OrderCompare(a[c], b[c]) != 0) return false;
    }
    return true;
  }

  void Grow() {
    std::vector<uint32_t> grown(2 * slots_.size());
    size_t mask = grown.size() - 1;
    for (size_t g = 0; g < groups_.size(); ++g) {
      size_t s = groups_[g].hash & mask;
      while (grown[s] != 0) s = (s + 1) & mask;
      grown[s] = static_cast<uint32_t>(g + 1);
    }
    slots_.swap(grown);
  }

  const std::vector<size_t>& cols_;
  std::vector<uint32_t> slots_;
  std::vector<Group> groups_;
};

/// The running state of one non-COUNT aggregate over one group.
struct AggState {
  int64_t non_null = 0;  // non-NULL inputs folded
  double sum = 0;
  bool sum_is_int = true;
  __int128 isum = 0;  // exact for any row count a table can hold
  Value min, max;
};

/// Folds one input value into `st`. SUM and AVG reject a non-numeric
/// value.
Status FoldValue(AggFunc func, const Value& v, AggState* st) {
  if (v.is_null()) return Status::OK();
  ++st->non_null;
  Result<double> num = v.ToNumeric();
  if (!num.ok() && (func == AggFunc::kSum || func == AggFunc::kAvg)) {
    return num.status();
  }
  if (num.ok()) {
    st->sum += *num;
    if (IsIntLike(v.type())) {
      st->isum += v.as_int64();
    } else {
      st->sum_is_int = false;
    }
  }
  if (st->non_null == 1) {
    st->min = v;
    st->max = v;
  } else {
    if (v.Compare(st->min) < 0) st->min = v;
    if (v.Compare(st->max) > 0) st->max = v;
  }
  return Status::OK();
}

/// The output value of a non-COUNT aggregate (NULL over no non-NULL input).
/// An all-BIGINT SUM outside the int64 range is kOutOfRange.
Result<Value> AggResult(AggFunc func, const AggState& st) {
  if (st.non_null == 0) return Value::Null();
  switch (func) {
    case AggFunc::kSum:
      if (!st.sum_is_int) return Value::Double(st.sum);
      if (st.isum < std::numeric_limits<int64_t>::min() ||
          st.isum > std::numeric_limits<int64_t>::max()) {
        return Status::OutOfRange("SUM overflows BIGINT");
      }
      return Value::BigInt(static_cast<int64_t>(st.isum));
    case AggFunc::kAvg:
      return Value::Double(st.sum / static_cast<double>(st.non_null));
    case AggFunc::kMin:
      return st.min;
    default:
      return st.max;
  }
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
  if (predicate == nullptr) {
    table.ForEach([&](RowId rid, const Tuple& row,
                      const RowMeta&) { return fn(rid, row); },
                  include_staged);
    return err;
  }
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
      SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table.GetMeta(rid));
      if (!include_staged && !meta.active) continue;
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
    SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table->GetMeta(rid));
    if (!meta.active) continue;  // staged rows invisible to queries
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

  // Only the non-COUNT aggregates keep per-group state; COUNT reads the
  // group's row count.
  std::vector<size_t> folded;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    if (spec.aggregates[i].func != AggFunc::kCount) folded.push_back(i);
  }
  GroupTable table(spec.group_by,
                   VisibleRows(*spec.table, spec.include_staged));
  std::vector<Group>& groups = table.groups();
  // Without group-by columns every row falls in one group, opened here so
  // that it exists even over no rows.
  if (spec.group_by.empty()) table.FindOrAdd(nullptr);
  // Group g's states are states[g * folded.size(), (g + 1) * folded.size()).
  std::vector<AggState> states(groups.size() * folded.size());
  Status err = Status::OK();
  SSTORE_RETURN_NOT_OK(ForEachMatch(
      *spec.table, spec.predicate, spec.include_staged,
      [&](RowId, const Tuple& tuple) {
        const Value* row = tuple.data();
        size_t g = table.FindOrAdd(row);
        ++groups[g].rows;
        if (folded.empty()) return true;
        states.resize(groups.size() * folded.size());
        for (size_t j = 0; j < folded.size(); ++j) {
          const AggExpr& a = spec.aggregates[folded[j]];
          err = FoldValue(a.func, row[a.column],
                          &states[g * folded.size() + j]);
          if (!err.ok()) return false;  // stops the scan
        }
        return true;
      }));
  SSTORE_RETURN_NOT_OK(err);

  // Group g's output row is cells[g * width, (g + 1) * width).
  std::vector<Value> cells;
  cells.reserve(groups.size() * width);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c : spec.group_by) cells.push_back(groups[g].first[c]);
    const AggState* st = states.data() + g * folded.size();
    for (const AggExpr& a : spec.aggregates) {
      if (a.func == AggFunc::kCount) {
        cells.push_back(Value::BigInt(groups[g].rows));
      } else {
        SSTORE_ASSIGN_OR_RETURN(Value v, AggResult(a.func, *st++));
        cells.push_back(std::move(v));
      }
    }
  }

  // ORDER BY, then the group-by columns it does not name, ascending: groups
  // tied on every ORDER BY key come out ascending by group key.
  std::vector<OrderBySpec> with_ties;
  for (size_t i = 0; i < spec.group_by.size(); ++i) {
    if (std::none_of(spec.order_by.begin(), spec.order_by.end(),
                     [i](const OrderBySpec& k) { return k.column == i; })) {
      if (with_ties.empty()) with_ties = spec.order_by;
      with_ties.push_back({i, false});
    }
  }
  std::vector<const Value*> order(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) order[g] = cells.data() + g * width;
  OrderRows(&order, with_ties.empty() ? spec.order_by : with_ties, spec.limit);
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
  SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table->GetMeta(rid));
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
  SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table->GetMeta(rid));
  bool was = meta.active;
  if (was == active) return Status::OK();
  SSTORE_RETURN_NOT_OK(table->SetActive(rid, active));
  if (mlog_ != nullptr) mlog_->RecordActivate(table, rid, was);
  return Status::OK();
}

}  // namespace sstore
