#ifndef SSTORE_ENGINE_EXECUTION_ENGINE_H_
#define SSTORE_ENGINE_EXECUTION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "query/executor.h"
#include "storage/catalog.h"

namespace sstore {

class ExecutionEngine;

/// A precompiled "SQL plan fragment" executed inside the EE. Fragments may
/// read/write tables through `exec` and cascade into further stream inserts
/// through `ee` (which fires downstream EE triggers without leaving the EE).
/// `params` carries the invocation parameters (for EE triggers: the batch id
/// as a single BIGINT).
using FragmentFn = std::function<Result<std::vector<Tuple>>(
    ExecutionEngine& ee, Executor& exec, const Tuple& params)>;

/// Statistics tracking the PE<->EE boundary, the mechanism behind Figure 5:
/// every PE-side fragment invocation serializes its request and its result
/// set across the boundary (as H-Store ships ParameterSets over JNI), while
/// EE triggers run fragments entirely inside the EE.
struct EngineStats {
  uint64_t boundary_crossings = 0;     // PE->EE round trips
  uint64_t boundary_bytes = 0;         // serialized request+response bytes
  uint64_t fragments_executed = 0;     // total fragment executions
  uint64_t ee_trigger_firings = 0;     // fragments run via EE triggers
  uint64_t gc_deleted_rows = 0;        // stream rows garbage-collected
};

/// The Execution Engine: H-Store's lower layer, which evaluates SQL plan
/// fragments against the partition's data (paper §3.1), extended with
/// S-Store's EE triggers and stream garbage collection (§3.2).
///
/// Single-threaded by design: one EE per partition, always driven by the
/// partition's worker thread. stats() alone is readable from any thread.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(Catalog* catalog) : catalog_(catalog) {}

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  Catalog* catalog() const { return catalog_; }

  // ---- Fragment registry ----

  Status RegisterFragment(const std::string& name, FragmentFn fn);
  bool HasFragment(const std::string& name) const {
    return fragments_.find(name) != fragments_.end();
  }

  /// Invokes a fragment from the PE side, *through the serialized boundary*:
  /// the request (name + params) is encoded to bytes and decoded inside the
  /// EE; the result rows are encoded inside the EE and decoded on the PE
  /// side. This deliberately pays H-Store's PE->EE round-trip cost.
  Result<std::vector<Tuple>> InvokeFromPE(const std::string& name,
                                          const Tuple& params,
                                          MutationLog* mlog);

  /// Invokes a fragment directly inside the EE (no boundary crossing); used
  /// by EE triggers and by fragments calling other fragments.
  Result<std::vector<Tuple>> InvokeInEngine(const std::string& name,
                                            const Tuple& params,
                                            MutationLog* mlog);

  // ---- EE triggers (paper §3.2.3) ----

  /// Attaches a fragment to a stream table: when an atomic batch is inserted
  /// into `table_name` (via InsertBatch), `fragment_name` runs inside the EE
  /// with params = (batch_id), within the same transaction. A table with EE
  /// triggers is fully consumed by them: each inserted batch is deleted
  /// right after all attached triggers have fired — the paper's automatic
  /// garbage collection, which replaces H-Store's explicit DELETE statements.
  Status AttachInsertTrigger(const std::string& table_name,
                             const std::string& fragment_name);

  /// Inserts an atomic batch into a stream/base table; the rows are moved
  /// into storage. EE triggers attached to the table execute within the
  /// same transaction (cascading) and see the batch through the table, then
  /// auto-GC reclaims the batch.
  Status InsertBatch(const std::string& table_name, std::vector<Tuple> rows,
                     int64_t batch_id, MutationLog* mlog);

  /// Point-in-time snapshot of counters that only go up.
  EngineStats stats() const;

 private:
  Catalog* catalog_;
  /// Accumulates boundary-envelope checksums so the modeled JNI framing
  /// work is observable and cannot be dead-code eliminated.
  uint64_t benchmark_checksum_ = 0;
  std::unordered_map<std::string, FragmentFn> fragments_;
  std::unordered_map<std::string, std::vector<std::string>> insert_triggers_;
  // Written only by the worker thread, read by stats() from any thread (a
  // kStats request on a wire I/O thread).
  std::atomic<uint64_t> boundary_crossings_{0};
  std::atomic<uint64_t> boundary_bytes_{0};
  std::atomic<uint64_t> fragments_executed_{0};
  std::atomic<uint64_t> ee_trigger_firings_{0};
  std::atomic<uint64_t> gc_deleted_rows_{0};
};

}  // namespace sstore

#endif  // SSTORE_ENGINE_EXECUTION_ENGINE_H_
