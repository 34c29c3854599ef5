#include "streaming/sstore.h"

namespace sstore {

SStore::SStore(const Options& options)
    : partition_(options.partition_id, options.queue_capacity) {
  streams_ = std::make_unique<StreamManager>(&partition_.catalog());
  windows_ = std::make_unique<WindowManager>(&partition_.ee());
  triggers_ = std::make_unique<TriggerManager>(&partition_, streams_.get());
  recovery_ = std::make_unique<RecoveryManager>(&partition_, triggers_.get());

  // Window scoping (paper §3.2.2): a window table is only visible to TEs of
  // its owning stored procedure.
  WindowManager* wm = windows_.get();
  partition_.SetTableAccessGuard(
      [wm](const Table& table, const std::string& proc_name) {
        return wm->CheckAccess(table, proc_name);
      });
}

SStore::~SStore() { Stop(); }

}  // namespace sstore
