#ifndef SSTORE_CLUSTER_CLUSTER_INJECTOR_H_
#define SSTORE_CLUSTER_CLUSTER_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "engine/partition.h"
#include "streaming/injector.h"

namespace sstore {

/// Keyed generalization of StreamInjector (paper §3.2 Figure 4, scaled out
/// per §4.7): prepares atomic batches and invokes the workflow's border
/// stored procedure on the partition that *owns the batch's key*, so each
/// partition sees a monotonically increasing batch-id sequence for the
/// border SP — the stream-order constraint, preserved per partition.
///
/// The designated key column (`Options::key_column`) is read from each batch
/// tuple and routed through the cluster's PartitionMap; same key, same
/// partition — until a `Cluster::Rebalance` re-homes the key's range. The
/// injector follows the live map: every injection goes through the
/// cluster's routed admission, which routes and enqueues under one
/// `Cluster::RoutingView`, so the owner cannot flip between the two, and a
/// partition added by a split gets a fresh batch-id lane starting at 1 —
/// each partition's border SP still sees strictly increasing ids (§2.2
/// per-lane order), whichever map version routed them.
///
/// Batch ids are allocated per partition under a per-partition lane lock
/// held across id assignment *and* enqueue, so concurrent producers cannot
/// invert id order relative to queue order within a partition
/// (cross-partition order is unconstrained — that is the shared-nothing
/// bargain).
///
/// Backpressure is the partitions' `queue_capacity`: a producer whose
/// target partition is full sleeps on its condition variable, outside the
/// lane and the view, then re-routes.
class ClusterInjector {
 public:
  struct Options {
    /// Column of the batch tuple whose value routes the batch.
    int key_column = 0;
  };

  ClusterInjector(Cluster* cluster, std::string border_proc)
      : ClusterInjector(cluster, std::move(border_proc), Options()) {}

  ClusterInjector(Cluster* cluster, std::string border_proc, Options options)
      : cluster_(cluster),
        border_proc_(std::move(border_proc)),
        options_(options) {}

  ClusterInjector(const ClusterInjector&) = delete;
  ClusterInjector& operator=(const ClusterInjector&) = delete;

  ~ClusterInjector() {
    for (auto& slot : lanes_) delete slot.load(std::memory_order_acquire);
  }

  /// Non-blocking injection routed by the batch's key column against the
  /// live partition map — it blocks only while the owner's queue is full.
  /// One-slot ticket.
  BatchTicketPtr InjectAsync(Tuple batch) {
    size_t p = 0;
    return cluster_->AdmitRouted(
        [&](const PartitionMap& map) {
          p = RouteOf(batch, map);
          return std::array<size_t, 1>{p};
        },
        [&] {
          // The lane lock is held across id assignment and the (spilling,
          // never blocking) enqueue.
          Lane& lane = LaneOf(p);
          std::lock_guard<std::mutex> hold(lane.mu);
          return cluster_->partition(p).SubmitAsync(
              Invocation{border_proc_, std::move(batch), lane.next_batch_id++},
              EnqueuePolicy::kSpillWhenFull);
        });
  }

  /// Batch-at-a-time injection: splits the batch by key, then submits one
  /// invocation group per touched partition under its lane lock — one
  /// allocation and one completion signal per partition instead of per
  /// tuple. Per-partition batch ids remain consecutive and ordered. Tickets
  /// come back in partition order of first touch, as from
  /// Cluster::SubmitBatchAsync.
  std::vector<BatchTicketPtr> InjectBatchAsync(std::vector<Tuple> batches) {
    // Tuple indices per partition; tuples move only once admitted.
    std::vector<std::vector<size_t>> routed;
    std::vector<size_t> touched;
    return cluster_->AdmitRouted(
        [&](const PartitionMap& map) -> const std::vector<size_t>& {
          routed.assign(map.num_partitions(), {});
          touched.clear();
          for (size_t i = 0; i < batches.size(); ++i) {
            size_t p = RouteOf(batches[i], map);
            if (routed[p].empty()) touched.push_back(p);
            routed[p].push_back(i);
          }
          return touched;
        },
        [&] {
          std::vector<BatchTicketPtr> tickets;
          tickets.reserve(touched.size());
          for (size_t p : touched) {
            Lane& lane = LaneOf(p);
            std::lock_guard<std::mutex> hold(lane.mu);
            std::vector<Invocation> invs;
            invs.reserve(routed[p].size());
            for (size_t i : routed[p]) {
              invs.push_back(Invocation{border_proc_, std::move(batches[i]),
                                        lane.next_batch_id++});
            }
            tickets.push_back(cluster_->partition(p).SubmitBatchAsync(
                std::move(invs), EnqueuePolicy::kSpillWhenFull));
          }
          return tickets;
        });
  }

  /// Blocking injection: waits for the border transaction to commit on the
  /// owning partition.
  TxnOutcome InjectSync(Tuple batch) {
    return InjectAsync(std::move(batch))->Wait()[0];
  }

  /// Total batches injected across all partitions.
  int64_t batches_injected() const {
    int64_t total = 0;
    for (size_t p = 0; p < kMaxClusterPartitions; ++p) {
      total += batches_injected(p);
    }
    return total;
  }

  /// Batches injected into one partition.
  int64_t batches_injected(size_t p) const {
    const Lane* lane = lanes_[p].load(std::memory_order_acquire);
    if (lane == nullptr) return 0;
    std::lock_guard<std::mutex> hold(lane->mu);
    return lane->next_batch_id - 1;
  }

 private:
  struct Lane {
    mutable std::mutex mu;
    int64_t next_batch_id = 1;
  };

  /// Lanes are created on first touch so the injector follows cluster
  /// growth: a partition added by Rebalance gets a fresh lane (ids from 1).
  /// The slot array is fixed at the cluster ceiling, so the common path is
  /// one acquire load — no shared lock on the ingest hot path; the grow
  /// mutex is taken once per lane ever. Lane objects are heap-pinned.
  Lane& LaneOf(size_t p) {
    Lane* lane = lanes_[p].load(std::memory_order_acquire);
    if (lane != nullptr) return *lane;
    std::lock_guard<std::mutex> hold(lanes_grow_mu_);
    lane = lanes_[p].load(std::memory_order_relaxed);
    if (lane == nullptr) {
      lane = new Lane();
      lanes_[p].store(lane, std::memory_order_release);
    }
    return *lane;
  }

  size_t RouteOf(const Tuple& batch, const PartitionMap& map) const {
    size_t column = static_cast<size_t>(options_.key_column);
    if (column >= batch.size()) {
      // A batch without the key column routes to partition 0 —
      // deterministic, and visible in skewed per-partition stats rather
      // than silently dropped.
      return 0;
    }
    return map.PartitionOf(batch[column]);
  }

  Cluster* cluster_;
  std::string border_proc_;
  Options options_;
  /// Serializes lane creation only; lookups are lock-free loads.
  std::mutex lanes_grow_mu_;
  /// Slot per possible partition id (8 KiB of pointers), published with
  /// release order once constructed. Freed in the destructor.
  std::array<std::atomic<Lane*>, kMaxClusterPartitions> lanes_{};
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_CLUSTER_INJECTOR_H_
