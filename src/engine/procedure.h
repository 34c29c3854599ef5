#ifndef SSTORE_ENGINE_PROCEDURE_H_
#define SSTORE_ENGINE_PROCEDURE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/execution_engine.h"
#include "engine/txn.h"
#include "query/executor.h"
#include "storage/catalog.h"

namespace sstore {

class Partition;

/// How a stored procedure participates in the workload, which also decides
/// what the command log records under each recovery mode (paper §3.2.5):
/// - kOltp: ordinary client-invoked transaction; always logged.
/// - kBorder: streaming SP that ingests batches from outside; always logged.
/// - kInterior: streaming SP activated by PE triggers; logged only under
///   strong recovery (weak recovery regenerates it via upstream backup).
enum class SpKind { kOltp = 0, kBorder = 1, kInterior = 2 };

const char* SpKindToString(SpKind kind);

/// Everything a stored procedure body may touch during one transaction
/// execution. Mutations through exec() are undo-logged; EmitToStream routes
/// through the EE (firing EE triggers in-engine) and records the emission so
/// PE triggers fire after commit.
class ProcContext {
 public:
  ProcContext(Partition* partition, ExecutionEngine* ee,
              TransactionExecution* te)
      : partition_(partition), ee_(ee), te_(te), exec_(&te->undo()) {}

  const Tuple& params() const { return te_->params(); }
  int64_t batch_id() const { return te_->batch_id(); }
  int64_t txn_id() const { return te_->txn_id(); }

  /// Undo-logged plan executor for direct table access.
  Executor& exec() { return exec_; }

  /// Looks up a table, enforcing the partition's table-access guard (the
  /// streaming layer uses it to make windows visible only to TEs of their
  /// owning stored procedure, paper §3.2.2). Defined in procedure.cc.
  Result<Table*> table(const std::string& name);

  /// Invokes an EE plan fragment the H-Store way: one serialized PE->EE
  /// round trip per call.
  Result<std::vector<Tuple>> CallFragment(const std::string& fragment,
                                          const Tuple& params) {
    return ee_->InvokeFromPE(fragment, params, &te_->undo());
  }

  /// Appends an atomic batch to a stream; the rows are moved into the stream
  /// table. EE triggers attached to the stream run inside the EE within
  /// this transaction; PE triggers attached to it fire after this
  /// transaction commits. Uses this TE's batch id.
  Status EmitToStream(const std::string& stream, std::vector<Tuple> rows) {
    SSTORE_RETURN_NOT_OK(ee_->InsertBatch(stream, std::move(rows),
                                          te_->batch_id(), &te_->undo()));
    te_->NoteEmit(stream, te_->batch_id());
    return Status::OK();
  }

  /// Adds a row to the transaction's client-visible result set.
  void EmitOutput(Tuple row) { te_->output().push_back(std::move(row)); }

  Partition* partition() { return partition_; }
  ExecutionEngine* ee() { return ee_; }
  TransactionExecution* te() { return te_; }

 private:
  Partition* partition_;
  ExecutionEngine* ee_;
  TransactionExecution* te_;
  Executor exec_;
};

/// A predefined parametric transaction (paper §2): subclass and implement
/// Run. Returning a non-OK status aborts the transaction (all mutations are
/// rolled back); kAborted is the conventional code for intentional aborts.
class StoredProcedure {
 public:
  virtual ~StoredProcedure() = default;
  virtual Status Run(ProcContext& ctx) = 0;
};

/// Convenience adapter wrapping a lambda as a stored procedure.
class LambdaProcedure : public StoredProcedure {
 public:
  using Fn = std::function<Status(ProcContext&)>;
  explicit LambdaProcedure(Fn fn) : fn_(std::move(fn)) {}
  Status Run(ProcContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};

}  // namespace sstore

#endif  // SSTORE_ENGINE_PROCEDURE_H_
