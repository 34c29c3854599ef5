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

/// Bounded selection, the one `ORDER BY ... LIMIT k` step of Scan and
/// Aggregate. Offered items in input order, it keeps the first `k` of them
/// under the three-way order `cmp` on `nkeys` ORDER BY keys, ties in offer
/// order, in a k-entry heap whose top is the worst entry kept.
///
/// `image(item, i, &key)` sets `key` to an int64 that orders as the item's
/// key i does, when that key is BIGINT or TIMESTAMP (false otherwise).
/// Entries keep the images of their leading kImaged keys, are ordered on
/// their common leading images first, and only when those tie and some key
/// is left does `cmp` run. An item that loses to the top on its first key's
/// image costs one integer comparison. TakeSorted yields exactly the first
/// k items of the stable order of everything offered.
constexpr uint32_t kImaged = 2;

template <typename T, typename Cmp, typename Image>
class TopK {
 public:
  TopK(size_t k, size_t nkeys, Cmp cmp, Image image)
      : k_(k), nkeys_(static_cast<uint32_t>(nkeys)), cmp_(cmp), image_(image) {
    heap_.reserve(k);
  }

  void Offer(T item) {
    uint32_t pos = offered_++;
    if (heap_.size() == k_) {
      int64_t first = 0;
      if (k_ == 0 || (heap_.front().imaged != 0 && image_(item, 0, &first) &&
                      first > heap_.front().image[0])) {
        return;  // worse than the top on the first key
      }
    }
    Entry e;
    e.item = item;
    e.pos = pos;
    e.imaged = 0;
    while (e.imaged < std::min(nkeys_, kImaged) &&
           image_(item, e.imaged, &e.image[e.imaged])) {
      ++e.imaged;
    }
    if (heap_.size() < k_) {
      Store(e, &heap_.emplace_back());
      std::push_heap(heap_.begin(), heap_.end(), Less());
    } else if (Before(e, heap_.front())) {
      ReplaceTop(e);
    }
  }

  /// Calls `fn(item)` on the kept items, best first.
  template <typename Fn>
  void TakeSorted(Fn fn) {
    std::sort_heap(heap_.begin(), heap_.end(), Less());
    for (const Entry& e : heap_) fn(e.item);
  }

 private:
  struct Entry {
    T item;
    uint32_t pos;     // offer order: the last tie-break
    uint32_t imaged;  // leading keys with an image
    int64_t image[kImaged] = {};
  };

  /// Puts `e` in the top's place and sifts it down to where it belongs.
  void ReplaceTop(const Entry& e) {
    size_t n = heap_.size();
    size_t at = 0;
    for (size_t child = 1; child < n; child = 2 * at + 1) {
      if (child + 1 < n && Before(heap_[child], heap_[child + 1])) ++child;
      if (!Before(e, heap_[child])) break;
      heap_[at] = heap_[child];
      at = child;
    }
    Store(e, &heap_[at]);
  }

  /// `*to = e`, field by field: `e` was just built field by field, and a
  /// whole-struct copy reads it back in wider loads than it was written
  /// with, which stalls store forwarding on every offer that is kept.
  static void Store(const Entry& e, Entry* to) {
    to->item = e.item;
    to->pos = e.pos;
    to->imaged = e.imaged;
    for (uint32_t i = 0; i < kImaged; ++i) to->image[i] = e.image[i];
  }

  /// Whether `a` comes before `b`: on their common leading images, then by
  /// `cmp` when keys are left, then in offer order.
  bool Before(const Entry& a, const Entry& b) const {
    uint32_t common = std::min(a.imaged, b.imaged);
    if (common > 0 && a.image[0] != b.image[0]) {
      return a.image[0] < b.image[0];
    }
    if (common > 1 && a.image[1] != b.image[1]) {
      return a.image[1] < b.image[1];
    }
    int c = common == nkeys_ ? 0 : cmp_(a.item, b.item);
    return c != 0 ? c < 0 : a.pos < b.pos;
  }
  auto Less() const {
    return [this](const Entry& a, const Entry& b) { return Before(a, b); };
  }

  size_t k_;
  uint32_t nkeys_;
  Cmp cmp_;
  Image image_;
  uint32_t offered_ = 0;
  std::vector<Entry> heap_;
};

/// A TopK image of `v` under an ORDER BY key: its int64, bit-flipped when
/// the key is descending (~ reverses the order and cannot overflow).
inline bool KeyImage(const Value& v, bool descending, int64_t* out) {
  if (!IsIntLike(v.type())) return false;
  *out = descending ? ~v.as_int64() : v.as_int64();
  return true;
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
  const Value* first = nullptr;
  uint64_t hash = 0;
  int64_t rows = 0;
};

/// The groups of a GROUP BY in first-seen order, found through a flat
/// open-addressing table of group ids + 1 (0 marks an empty slot), indexed
/// by a key hash's top bits, probed linearly and doubled at half load. A
/// probe compares stored hashes first and the key columns, with
/// OrderCompare, only on a hash match. With one group-by column declared
/// BIGINT or TIMESTAMP, whose non-NULL values compare as their int64s, the
/// hash is the int64 times an odd constant: a bijection, so equal hashes are
/// equal keys and no key column is read again; NULL keeps its own group
/// outside the slots.
class GroupTable {
 public:
  /// `cols` (the group-by columns of `schema`) must outlive the table;
  /// `expected` rows size the first allocation.
  GroupTable(const Schema& schema, const std::vector<size_t>& cols,
             size_t expected)
      : cols_(cols),
        int_key_(cols.size() == 1 && IsIntLike(schema.column(cols[0]).type)) {
    size_t cap = 16;
    shift_ = 60;
    while (cap < 2 * std::min<size_t>(expected, 64)) {
      cap *= 2;
      --shift_;
    }
    slots_.resize(cap);
    groups_.reserve(cap / 2);
  }

  /// The id of the group `row` falls in, opening a new one if none matches.
  /// Forced inline: it runs once per row.
  [[gnu::always_inline]] size_t FindOrAdd(const Value* row) {
    uint64_t hash;
    if (int_key_) {
      const Value& v = row[cols_[0]];
      if (v.is_null()) return NullGroup(row);
      hash = static_cast<uint64_t>(v.as_int64()) * kOdd;
    } else {
      hash = KeyHash(row);
    }
    size_t mask = slots_.size() - 1;
    for (size_t s = hash >> shift_;; s = (s + 1) & mask) {
      uint32_t id = slots_[s];
      if (id == 0) return Add(row, hash, s);
      if (groups_[id - 1].hash == hash &&
          (int_key_ || SameKey(groups_[id - 1].first, row))) {
        return id - 1;
      }
    }
  }

  std::vector<Group>& groups() { return groups_; }

 private:
  static constexpr uint64_t kOdd = 0x9e3779b97f4a7c15ull;
  static constexpr size_t kNoGroup = ~size_t{0};

  uint64_t KeyHash(const Value* row) const {
    uint64_t hash = 0;
    for (size_t c : cols_) hash = (hash ^ GroupHash(row[c])) * kOdd;
    return hash;
  }

  /// Opens a group for `row` at empty slot `s`. Its fields are written in
  /// place: a Group built on the stack and copied whole would be read back
  /// in wider loads than it was written with, stalling store forwarding.
  size_t Add(const Value* row, uint64_t hash, size_t s) {
    Group& g = groups_.emplace_back();
    g.first = row;
    g.hash = hash;
    slots_[s] = static_cast<uint32_t>(groups_.size());
    if (2 * groups_.size() > slots_.size()) Grow();
    return groups_.size() - 1;
  }

  /// The NULL key's group (int keys only), opened on its first row.
  size_t NullGroup(const Value* row) {
    if (null_group_ == kNoGroup) {
      null_group_ = groups_.size();
      groups_.push_back(Group{row, 0, 0});
    }
    return null_group_;
  }

  bool SameKey(const Value* a, const Value* b) const {
    for (size_t c : cols_) {
      if (OrderCompare(a[c], b[c]) != 0) return false;
    }
    return true;
  }

  void Grow() {
    std::vector<uint32_t> grown(2 * slots_.size());
    --shift_;
    size_t mask = grown.size() - 1;
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (g == null_group_) continue;
      size_t s = groups_[g].hash >> shift_;
      while (grown[s] != 0) s = (s + 1) & mask;
      grown[s] = static_cast<uint32_t>(g + 1);
    }
    slots_.swap(grown);
  }

  const std::vector<size_t>& cols_;
  const bool int_key_;
  int shift_;  // 64 - log2(slots_.size())
  size_t null_group_ = kNoGroup;
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

/// Calls `fn(rid, row)` on each live row matching `filter`, in slot order,
/// until `fn` returns false. Forced inline, as Table::ForEach is, so each
/// query's row loop is compiled into the query: an outlined loop reads
/// every captured variable through its closure's pointers on every row.
template <typename Fn>
[[gnu::always_inline]] inline Status ForEachMatch(const Table& table,
                                                 const Filter& filter,
                                                 bool include_staged, Fn fn) {
  Status err = Status::OK();
  const bool every_row = filter.empty();
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        if (!every_row && !filter.Matches(row, &err)) return err.ok();
        return fn(rid, row);
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
  Filter filter(predicate, table.schema().num_columns());
  const Value* key = nullptr;
  if (const HashIndex* idx = PointIndex(table, predicate, &key)) {
    std::vector<RowId> candidates = idx->Lookup({*key});
    std::sort(candidates.begin(), candidates.end());
    Status err = Status::OK();
    for (RowId rid : candidates) {
      SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table.GetMeta(rid));
      if (!include_staged && !meta.active) continue;
      SSTORE_ASSIGN_OR_RETURN(const Tuple* row, table.Get(rid));
      if (filter.Matches(*row, &err)) out.push_back(rid);
      SSTORE_RETURN_NOT_OK(err);
    }
    return out;
  }
  SSTORE_RETURN_NOT_OK(
      ForEachMatch(table, filter, include_staged, [&](RowId rid, const Tuple&) {
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
  auto cmp = [&keys](const Value* a, const Value* b) {
    return RowCompare(a, b, keys);
  };
  Filter filter(spec.predicate, spec.table->schema().num_columns());
  size_t visible = VisibleRows(*spec.table, spec.include_staged);
  size_t arity = spec.table->schema().num_columns();
  std::vector<Tuple> out;
  if (!keys.empty() && spec.limit.has_value() && *spec.limit < visible) {
    // ORDER BY ... LIMIT k: the filter and the bounded selection in one
    // pass, and only the kept rows projected.
    auto image = [&keys](const Value* row, size_t i, int64_t* key) {
      return KeyImage(row[keys[i].column], keys[i].descending, key);
    };
    TopK<const Value*, decltype(cmp), decltype(image)> top(
        *spec.limit, keys.size(), cmp, image);
    SSTORE_RETURN_NOT_OK(ForEachMatch(*spec.table, filter, spec.include_staged,
                                      [&](RowId, const Tuple& row) {
                                        top.Offer(row.data());
                                        return true;
                                      }));
    out.reserve(*spec.limit);
    top.TakeSorted([&](const Value* row) {
      out.push_back(Project(row, arity, spec.projection));
    });
    return out;
  }
  // Without ordering the limit can stop the scan early.
  bool early_limit = keys.empty() && spec.limit.has_value();
  std::vector<const Value*> rows;
  rows.reserve(early_limit ? std::min(*spec.limit, visible) : visible);
  SSTORE_RETURN_NOT_OK(ForEachMatch(
      *spec.table, filter, spec.include_staged, [&](RowId, const Tuple& row) {
        rows.push_back(row.data());
        return !(early_limit && rows.size() >= *spec.limit);
      }));
  // An unlimited ORDER BY: one full sort, ties kept in slot order.
  if (!keys.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Value* a, const Value* b) {
                       return cmp(a, b) < 0;
                     });
  }
  if (spec.limit.has_value() && rows.size() > *spec.limit) {
    rows.resize(*spec.limit);
  }
  out.reserve(rows.size());
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
  Filter filter(residual, table->schema().num_columns());
  Status err = Status::OK();
  for (RowId rid : rids) {
    SSTORE_ASSIGN_OR_RETURN(RowMeta meta, table->GetMeta(rid));
    if (!meta.active) continue;  // staged rows invisible to queries
    SSTORE_ASSIGN_OR_RETURN(const Tuple* row, table->Get(rid));
    if (filter.Matches(*row, &err)) {
      out.push_back(Project(row->data(), row->size(), projection));
    }
    SSTORE_RETURN_NOT_OK(err);
  }
  return out;
}

Result<size_t> Executor::Count(Table* table, const ExprPtr& predicate) const {
  if (table == nullptr) {
    return Status::InvalidArgument("count requires a table");
  }
  size_t n = 0;
  Filter filter(predicate, table->schema().num_columns());
  SSTORE_RETURN_NOT_OK(ForEachMatch(*table, filter, /*include_staged=*/false,
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
  GroupTable table(spec.table->schema(), spec.group_by,
                   VisibleRows(*spec.table, spec.include_staged));
  std::vector<Group>& groups = table.groups();
  // Without group-by columns every row falls in one group, opened here so
  // that it exists even over no rows.
  if (spec.group_by.empty()) table.FindOrAdd(nullptr);
  // Group g's states are states[g * folded.size(), (g + 1) * folded.size()).
  std::vector<AggState> states(groups.size() * folded.size());
  Status err = Status::OK();
  SSTORE_RETURN_NOT_OK(ForEachMatch(
      *spec.table, Filter(spec.predicate, arity), spec.include_staged,
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

  // Every group's non-COUNT results, so that an error in a group the limit
  // drops (a SUM overflow) still fails the query. Group g's are
  // results[g * folded.size(), (g + 1) * folded.size()).
  std::vector<Value> results;
  results.reserve(states.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t j = 0; j < folded.size(); ++j) {
      SSTORE_ASSIGN_OR_RETURN(
          Value v, AggResult(spec.aggregates[folded[j]].func,
                             states[g * folded.size() + j]));
      results.push_back(std::move(v));
    }
  }

  // Output column c of group g, found in the group's state: a key value of
  // its first row, its row count, or one of its results.
  struct Cell {
    enum Kind : uint8_t { kKey, kCount, kResult } kind;
    size_t index;  // the row's column (kKey) or the result's slot (kResult)
  };
  std::vector<Cell> cells(width);
  for (size_t i = 0, j = 0; i < width; ++i) {
    if (i < spec.group_by.size()) {
      cells[i] = {Cell::kKey, spec.group_by[i]};
    } else if (spec.aggregates[i - spec.group_by.size()].func ==
               AggFunc::kCount) {
      cells[i] = {Cell::kCount, 0};
    } else {
      cells[i] = {Cell::kResult, j++};
    }
  }
  auto value_of = [&](const Cell& cell, uint32_t g) -> const Value& {
    return cell.kind == Cell::kKey ? groups[g].first[cell.index]
                                   : results[g * folded.size() + cell.index];
  };
  // ORDER BY, then the group-by columns it does not name, ascending: groups
  // tied on every ORDER BY key come out ascending by group key.
  struct SortKey {
    Cell cell;
    bool descending;
  };
  std::vector<SortKey> keys;
  for (const OrderBySpec& k : spec.order_by) {
    keys.push_back({cells[k.column], k.descending});
  }
  for (size_t i = 0; i < spec.group_by.size(); ++i) {
    if (std::none_of(spec.order_by.begin(), spec.order_by.end(),
                     [i](const OrderBySpec& k) { return k.column == i; })) {
      keys.push_back({cells[i], false});
    }
  }
  auto cmp = [&](uint32_t a, uint32_t b) {
    for (const SortKey& k : keys) {
      int c;
      if (k.cell.kind == Cell::kCount) {
        c = (groups[a].rows > groups[b].rows) -
            (groups[a].rows < groups[b].rows);
      } else {
        c = OrderCompare(value_of(k.cell, a), value_of(k.cell, b));
      }
      if (c != 0) return k.descending ? -c : c;
    }
    return 0;
  };

  // Output rows only for the groups kept.
  std::vector<Tuple> out;
  auto emit = [&](uint32_t g) {
    Tuple row;
    row.reserve(width);
    for (const Cell& cell : cells) {
      if (cell.kind == Cell::kCount) {
        row.push_back(Value::BigInt(groups[g].rows));
      } else {
        row.push_back(value_of(cell, g));
      }
    }
    out.push_back(std::move(row));
  };
  if (!keys.empty() && spec.limit.has_value() && *spec.limit < groups.size()) {
    auto image = [&](uint32_t g, size_t i, int64_t* key) {
      const SortKey& k = keys[i];
      if (k.cell.kind == Cell::kCount) {
        *key = k.descending ? ~groups[g].rows : groups[g].rows;
        return true;
      }
      return KeyImage(value_of(k.cell, g), k.descending, key);
    };
    TopK<uint32_t, decltype(cmp), decltype(image)> top(
        *spec.limit, keys.size(), cmp, image);
    for (size_t g = 0; g < groups.size(); ++g) {
      top.Offer(static_cast<uint32_t>(g));
    }
    out.reserve(*spec.limit);
    top.TakeSorted(emit);
    return out;
  }
  // Group ids are first-seen positions, so they break ties stably.
  std::vector<uint32_t> order(groups.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  if (!keys.empty()) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      int c = cmp(a, b);
      return c != 0 ? c < 0 : a < b;
    });
  }
  if (spec.limit.has_value() && order.size() > *spec.limit) {
    order.resize(*spec.limit);
  }
  out.reserve(order.size());
  for (uint32_t g : order) emit(g);
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

Result<size_t> Executor::InsertMany(Table* table, std::vector<Tuple> rows,
                                    int64_t batch_id, bool active) const {
  size_t n = 0;
  for (Tuple& row : rows) {
    SSTORE_ASSIGN_OR_RETURN(RowId rid,
                            Insert(table, std::move(row), batch_id, active));
    (void)rid;
    ++n;
  }
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
