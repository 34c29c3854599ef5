#include "engine/execution_engine.h"

#include <cstring>

namespace sstore {

Status ExecutionEngine::RegisterFragment(const std::string& name,
                                         FragmentFn fn) {
  if (HasFragment(name)) {
    return Status::AlreadyExists("fragment '" + name + "' already registered");
  }
  fragments_.emplace(name, std::move(fn));
  return Status::OK();
}

namespace {

// H-Store's PE->EE crossing ships a framed message (plan-fragment ids,
// parameter sets, dependency tables) over JNI; the envelope is on the order
// of kilobytes regardless of payload. We reproduce that fixed cost: the
// envelope is materialized and checksummed on both sides of the boundary so
// the work cannot be optimized away.
constexpr size_t kBoundaryEnvelopeBytes = 1024;

uint64_t FrameEnvelope(ByteWriter* message) {
  static const std::vector<uint8_t> kPadding(kBoundaryEnvelopeBytes, 0xA5);
  size_t payload = message->size();
  if (payload < kBoundaryEnvelopeBytes) {
    message->PutBytes(kPadding.data(), kBoundaryEnvelopeBytes - payload);
  }
  // Word-wise FNV-style checksum over the framed message.
  const std::vector<uint8_t>& bytes = message->data();
  uint64_t checksum = 14695981039346656037ull;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    checksum = (checksum ^ word) * 1099511628211ull;
  }
  for (; i < bytes.size(); ++i) {
    checksum = (checksum ^ bytes[i]) * 1099511628211ull;
  }
  return checksum;
}

/// The engine's counters have one writer (the worker thread), so a relaxed
/// load+store is enough to keep concurrent stats() reads defined.
void Bump(std::atomic<uint64_t>& counter, uint64_t n) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

}  // namespace

EngineStats ExecutionEngine::stats() const {
  EngineStats out;
  out.boundary_crossings = boundary_crossings_.load(std::memory_order_relaxed);
  out.boundary_bytes = boundary_bytes_.load(std::memory_order_relaxed);
  out.fragments_executed = fragments_executed_.load(std::memory_order_relaxed);
  out.ee_trigger_firings = ee_trigger_firings_.load(std::memory_order_relaxed);
  out.gc_deleted_rows = gc_deleted_rows_.load(std::memory_order_relaxed);
  return out;
}

Result<std::vector<Tuple>> ExecutionEngine::InvokeFromPE(
    const std::string& name, const Tuple& params, MutationLog* mlog) {
  // --- PE side: serialize the request across the boundary. ---
  ByteWriter request;
  request.PutString(name);
  request.PutTuple(params);
  uint64_t request_checksum = FrameEnvelope(&request);
  std::vector<uint8_t> request_bytes = request.Take();
  benchmark_checksum_ ^= request_checksum;

  // --- EE side: decode the request, execute, encode the response. ---
  ByteReader req_reader(request_bytes);
  SSTORE_ASSIGN_OR_RETURN(std::string frag_name, req_reader.GetString());
  SSTORE_ASSIGN_OR_RETURN(Tuple frag_params, req_reader.GetTuple());

  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          InvokeInEngine(frag_name, frag_params, mlog));

  ByteWriter response;
  response.PutTuples(rows);
  benchmark_checksum_ ^= FrameEnvelope(&response);
  std::vector<uint8_t> response_bytes = response.Take();

  // --- PE side: decode the response. ---
  ByteReader resp_reader(response_bytes);
  SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> out, resp_reader.GetTuples());

  Bump(boundary_crossings_, 1);
  Bump(boundary_bytes_, request_bytes.size() + response_bytes.size());
  return out;
}

Result<std::vector<Tuple>> ExecutionEngine::InvokeInEngine(
    const std::string& name, const Tuple& params, MutationLog* mlog) {
  auto it = fragments_.find(name);
  if (it == fragments_.end()) {
    return Status::NotFound("no fragment named '" + name + "'");
  }
  Bump(fragments_executed_, 1);
  Executor exec(mlog);
  return it->second(*this, exec, params);
}

Status ExecutionEngine::AttachInsertTrigger(const std::string& table_name,
                                            const std::string& fragment_name) {
  SSTORE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(table_name));
  if (table->kind() == TableKind::kWindow) {
    // Window EE triggers fire on slide, not on raw insert; the window
    // manager owns those (streaming layer).
    return Status::InvalidArgument(
        "attach window triggers through the window manager, not the EE");
  }
  if (!HasFragment(fragment_name)) {
    return Status::NotFound("no fragment named '" + fragment_name + "'");
  }
  insert_triggers_[table_name].push_back(fragment_name);
  return Status::OK();
}

Status ExecutionEngine::InsertBatch(const std::string& table_name,
                                    const std::vector<Tuple>& rows,
                                    int64_t batch_id, MutationLog* mlog,
                                    bool fire_triggers) {
  SSTORE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(table_name));
  Executor exec(mlog);
  SSTORE_ASSIGN_OR_RETURN(size_t n, exec.InsertMany(table, rows, batch_id));
  (void)n;
  if (!fire_triggers) return Status::OK();
  return FireTriggersAndGc(table_name, table, batch_id, mlog);
}

Status ExecutionEngine::InsertBatch(const std::string& table_name,
                                    std::vector<Tuple>&& rows,
                                    int64_t batch_id, MutationLog* mlog,
                                    bool fire_triggers) {
  SSTORE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(table_name));
  Executor exec(mlog);
  SSTORE_ASSIGN_OR_RETURN(size_t n,
                          exec.InsertMany(table, std::move(rows), batch_id));
  (void)n;
  if (!fire_triggers) return Status::OK();
  return FireTriggersAndGc(table_name, table, batch_id, mlog);
}

Status ExecutionEngine::FireTriggersAndGc(const std::string& table_name,
                                          Table* table, int64_t batch_id,
                                          MutationLog* mlog) {
  auto it = insert_triggers_.find(table_name);
  if (it == insert_triggers_.end() || it->second.empty()) return Status::OK();

  Tuple trigger_params = {Value::BigInt(batch_id)};
  for (const std::string& frag : it->second) {
    Bump(ee_trigger_firings_, 1);
    SSTORE_ASSIGN_OR_RETURN(std::vector<Tuple> ignored,
                            InvokeInEngine(frag, trigger_params, mlog));
    (void)ignored;
  }

  // Automatic garbage collection (paper §3.2.3): the batch has now been
  // seen by every attached trigger, so delete exactly its rows.
  Executor exec(mlog);
  std::vector<RowId> victims;
  table->ForEach([&](RowId rid, const Tuple&, const RowMeta& meta) {
    if (meta.batch_id == batch_id) victims.push_back(rid);
    return true;
  });
  for (RowId rid : victims) {
    SSTORE_RETURN_NOT_OK(exec.DeleteRow(table, rid));
  }
  Bump(gc_deleted_rows_, victims.size());
  return Status::OK();
}

}  // namespace sstore
