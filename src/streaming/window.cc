#include "streaming/window.h"

#include <algorithm>

namespace sstore {

namespace {

/// Trims `rows`, (seq, RowId) pairs, to the `n` with the smallest seq, in
/// ascending seq order.
void KeepOldest(std::vector<std::pair<uint64_t, RowId>>* rows, size_t n) {
  n = std::min(n, rows->size());
  std::partial_sort(rows->begin(), rows->begin() + n, rows->end());
  rows->resize(n);
}

}  // namespace

Status WindowManager::DefineWindow(const WindowSpec& spec) {
  if (spec.size <= 0 || spec.slide <= 0) {
    return Status::InvalidArgument("window size and slide must be positive");
  }
  if (spec.slide > spec.size) {
    return Status::InvalidArgument("window slide must not exceed size");
  }
  if (spec.kind == WindowKind::kTimeBased) {
    if (spec.ts_column >= spec.schema.num_columns()) {
      return Status::OutOfRange("window timestamp column out of range");
    }
    ValueType ts_type = spec.schema.column(spec.ts_column).type;
    if (!IsIntLike(ts_type)) {
      return Status::InvalidArgument(
          std::string("window timestamp column must be BIGINT or TIMESTAMP, "
                      "not ") +
          ValueTypeToString(ts_type));
    }
  }
  if (HasWindow(spec.name)) {
    return Status::AlreadyExists("window '" + spec.name + "' already defined");
  }
  SSTORE_ASSIGN_OR_RETURN(
      Table * table,
      ee_->catalog()->CreateTable(spec.name, spec.schema, TableKind::kWindow));
  WindowState state;
  state.spec = spec;
  state.table = table;
  windows_.emplace(spec.name, std::move(state));
  return Status::OK();
}

Status WindowManager::AttachSlideTrigger(const std::string& window,
                                         const std::string& fragment_name) {
  auto it = windows_.find(window);
  if (it == windows_.end()) {
    return Status::NotFound("no window named '" + window + "'");
  }
  if (!ee_->HasFragment(fragment_name)) {
    return Status::NotFound("no fragment named '" + fragment_name + "'");
  }
  it->second.slide_triggers.push_back(fragment_name);
  return Status::OK();
}

Status WindowManager::Insert(Executor& exec, const std::string& window,
                             const std::vector<Tuple>& rows) {
  auto it = windows_.find(window);
  if (it == windows_.end()) {
    return Status::NotFound("no window named '" + window + "'");
  }
  WindowState& w = it->second;
  for (const Tuple& row : rows) {
    int64_t ts = 0;
    if (w.spec.kind == WindowKind::kTimeBased) {
      // A valid row has the timestamp column, holding an integer or NULL.
      SSTORE_RETURN_NOT_OK(w.table->schema().ValidateTuple(row));
      const Value& tv = row[w.spec.ts_column];
      if (tv.is_null()) {
        return Status::InvalidArgument("null timestamp for time-based window");
      }
      ts = tv.as_int64();
    }
    // Arriving tuples are staged: invisible until the window slides.
    SSTORE_ASSIGN_OR_RETURN(
        RowId rid, exec.Insert(w.table, row, /*batch_id=*/0, /*active=*/false));
    (void)rid;
    if (w.spec.kind == WindowKind::kTupleBased) {
      SSTORE_RETURN_NOT_OK(SlideTupleBased(exec, w));
    } else {
      SSTORE_RETURN_NOT_OK(SlideTimeBased(exec, w, ts));
    }
  }
  return Status::OK();
}

Status WindowManager::SlideTupleBased(Executor& exec, WindowState& w) {
  // Window statistics are tracked in table metadata (active/staged counts),
  // so deciding whether to slide is O(1). The first window forms once
  // `size` rows have arrived, and it has formed exactly when a row is
  // active: read off the table, that state rolls back with an aborted
  // transaction's rows.
  size_t staged = w.table->staged_count();
  size_t threshold = w.table->active_count() > 0
                         ? static_cast<size_t>(w.spec.slide)
                         : static_cast<size_t>(w.spec.size);
  if (staged < threshold) return Status::OK();

  // One pass splits the rows by state; a partial sort by seq then picks the
  // oldest `slide` active rows to expire (none before the first window) and
  // the oldest `threshold` staged rows to activate. Both go in arrival
  // order, as a full sort by seq would have them, so the undo log records
  // the same mutations in the same order.
  std::vector<std::pair<uint64_t, RowId>> active;
  std::vector<std::pair<uint64_t, RowId>> arrived;
  active.reserve(w.table->active_count());
  arrived.reserve(staged);
  w.table->ForEach(
      [&](RowId rid, const Tuple&, const RowMeta& meta) {
        (meta.active ? active : arrived).emplace_back(meta.seq, rid);
        return true;
      },
      /*include_staged=*/true);
  KeepOldest(&active, static_cast<size_t>(w.spec.slide));
  KeepOldest(&arrived, threshold);
  for (const auto& row : active) {
    SSTORE_RETURN_NOT_OK(exec.DeleteRow(w.table, row.second));
  }
  for (const auto& row : arrived) {
    SSTORE_RETURN_NOT_OK(exec.SetActive(w.table, row.second, true));
  }
  ++w.slides;
  return FireSlideTriggers(exec, w);
}

Status WindowManager::SlideTimeBased(Executor& exec, WindowState& w,
                                     int64_t arrived_ts) {
  if (!w.ts_initialized) {
    w.next_slide_ts = arrived_ts + w.spec.slide;
    w.ts_initialized = true;
  }
  while (arrived_ts >= w.next_slide_ts) {
    int64_t window_end = w.next_slide_ts;        // exclusive
    int64_t window_start = window_end - w.spec.size;  // inclusive
    // Activate staged tuples inside the window; drop staged tuples that are
    // already older than the window start (late arrivals past the slide).
    std::vector<RowId> by_seq = w.table->RowIdsBySeq(/*include_staged=*/true);
    for (RowId rid : by_seq) {
      SSTORE_ASSIGN_OR_RETURN(RowMeta meta, w.table->GetMeta(rid));
      SSTORE_ASSIGN_OR_RETURN(const Tuple* row, w.table->Get(rid));
      int64_t ts = (*row)[w.spec.ts_column].as_int64();
      if (ts >= window_end) continue;  // belongs to a future window
      if (ts < window_start) {
        SSTORE_RETURN_NOT_OK(exec.DeleteRow(w.table, rid));
        continue;
      }
      if (!meta.active) {
        SSTORE_RETURN_NOT_OK(exec.SetActive(w.table, rid, true));
      }
    }
    w.next_slide_ts += w.spec.slide;
    ++w.slides;
    SSTORE_RETURN_NOT_OK(FireSlideTriggers(exec, w));
  }
  return Status::OK();
}

Status WindowManager::FireSlideTriggers(Executor& exec, WindowState& w) {
  Tuple params = {Value::BigInt(w.slides)};
  for (const std::string& frag : w.slide_triggers) {
    SSTORE_ASSIGN_OR_RETURN(
        std::vector<Tuple> ignored,
        ee_->InvokeInEngine(frag, params, exec.mutation_log()));
    (void)ignored;
  }
  return Status::OK();
}

Result<std::vector<Tuple>> WindowManager::ActiveContents(
    const std::string& window) const {
  auto it = windows_.find(window);
  if (it == windows_.end()) {
    return Status::NotFound("no window named '" + window + "'");
  }
  const Table* table = it->second.table;
  std::vector<std::pair<uint64_t, Tuple>> rows;
  table->ForEach([&](RowId, const Tuple& row, const RowMeta& meta) {
    rows.emplace_back(meta.seq, row);
    return true;
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (auto& [seq, row] : rows) out.push_back(std::move(row));
  return out;
}

Result<int64_t> WindowManager::SlideCount(const std::string& window) const {
  auto it = windows_.find(window);
  if (it == windows_.end()) {
    return Status::NotFound("no window named '" + window + "'");
  }
  return it->second.slides;
}

Status WindowManager::CheckAccess(const Table& table,
                                  const std::string& proc_name) const {
  if (table.kind() != TableKind::kWindow) return Status::OK();
  auto it = windows_.find(table.name());
  if (it == windows_.end()) return Status::OK();
  const std::string& owner = it->second.spec.owner_proc;
  if (owner.empty() || owner == proc_name) return Status::OK();
  return Status::PermissionDenied(
      "window '" + table.name() + "' is visible only to TEs of '" + owner +
      "' (accessed by '" + proc_name + "')");
}

}  // namespace sstore
