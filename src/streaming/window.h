#ifndef SSTORE_STREAMING_WINDOW_H_
#define SSTORE_STREAMING_WINDOW_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/execution_engine.h"
#include "query/executor.h"
#include "storage/catalog.h"

namespace sstore {

/// Window flavors (paper §2.1): sliding windows with a fixed size and slide;
/// slide == size is a tumbling window. Tuple-based windows count tuples,
/// time-based windows measure a timestamp column.
enum class WindowKind { kTupleBased, kTimeBased };

/// Declarative definition of a sliding window.
struct WindowSpec {
  std::string name;
  Schema schema;
  WindowKind kind = WindowKind::kTupleBased;
  /// Tuple count (tuple-based) or microseconds (time-based).
  int64_t size = 0;
  int64_t slide = 0;
  /// For time-based windows: which column carries the tuple timestamp.
  size_t ts_column = 0;
  /// Stored procedure owning this window. Only TEs of this procedure may
  /// see the window (paper §3.2.2 scoping rule).
  std::string owner_proc;
};

/// Native windowing support inside the EE (paper §3.2.2). Windows are
/// time-varying tables whose arriving tuples are *staged* — invisible to
/// queries — until slide conditions are met; on slide, expired tuples are
/// removed, staged tuples activate, and any attached slide triggers run
/// inside the EE within the same transaction.
///
/// Window bookkeeping never goes through a metadata table: the active and
/// staged counts are the backing table's own counters (Table::active_count,
/// staged_count), each row's staging flag and arrival order sit in its
/// slot (RowMeta), and the slide cursors (slide count, the time-based
/// window's next boundary) live in this manager's WindowState. That is
/// what gives S-Store its ~2x advantage over a manual metadata-table
/// implementation (Figure 7).
class WindowManager {
 public:
  explicit WindowManager(ExecutionEngine* ee) : ee_(ee) {}

  WindowManager(const WindowManager&) = delete;
  WindowManager& operator=(const WindowManager&) = delete;

  /// Creates the backing kWindow table and registers the spec. Fails with
  /// kInvalidArgument on non-positive size/slide, slide > size, or a
  /// time-based window whose timestamp column is not BIGINT/TIMESTAMP.
  Status DefineWindow(const WindowSpec& spec);

  bool HasWindow(const std::string& name) const {
    return windows_.find(name) != windows_.end();
  }

  /// Attaches an EE trigger fired on every slide of `window`, with params =
  /// (slide_generation). The fragment must already be registered in the EE.
  Status AttachSlideTrigger(const std::string& window,
                            const std::string& fragment_name);

  /// Inserts tuples into the window as staged rows, sliding as the spec
  /// dictates. Must be called by the owning procedure's TE; mutations are
  /// undo-logged through `exec`. A row that does not fit the window's
  /// schema fails with kInvalidArgument, which aborts the transaction.
  Status Insert(Executor& exec, const std::string& window,
                const std::vector<Tuple>& rows);

  /// The active (visible) window contents in arrival order.
  Result<std::vector<Tuple>> ActiveContents(const std::string& window) const;

  /// How many times `window` has slid since definition. A slide inside a
  /// transaction that later aborts still counts: the undo log restores the
  /// window's rows, not this counter.
  Result<int64_t> SlideCount(const std::string& window) const;

  /// Scoping check used by the partition's table-access guard: OK when
  /// `proc_name` owns `table` or the table is not a registered window.
  Status CheckAccess(const Table& table, const std::string& proc_name) const;

 private:
  struct WindowState {
    WindowSpec spec;
    Table* table = nullptr;
    int64_t slides = 0;
    /// Time-based: exclusive upper bound of the current window.
    int64_t next_slide_ts = 0;
    bool ts_initialized = false;
    std::vector<std::string> slide_triggers;
  };

  Status SlideTupleBased(Executor& exec, WindowState& w);
  Status SlideTimeBased(Executor& exec, WindowState& w, int64_t arrived_ts);
  Status FireSlideTriggers(Executor& exec, WindowState& w);

  ExecutionEngine* ee_;
  std::unordered_map<std::string, WindowState> windows_;
};

}  // namespace sstore

#endif  // SSTORE_STREAMING_WINDOW_H_
