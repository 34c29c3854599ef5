// Linear Road subset (paper §4.7): streaming vehicle position reports
// through the two-SP workflow — per-report position/toll/accident handling
// (SP1, border) and per-minute toll/statistics rollup (SP2, interior,
// PE-triggered at minute boundaries) — on a single partition.
//
// For the multi-partition version of this workload (keyed routing by x-way
// over a shared-nothing Cluster), see cluster_linear_road.cpp.
//
// Run: ./build/examples/linear_road [xways] [sim_seconds]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "streaming/sstore.h"
#include "workloads/linear_road.h"

using namespace sstore;  // NOLINT: example brevity

int main(int argc, char** argv) {
  int xways = argc > 1 ? std::atoi(argv[1]) : 4;
  int sim_seconds = argc > 2 ? std::atoi(argv[2]) : 130;

  LinearRoadConfig config;
  config.num_xways = xways;
  config.vehicles_per_xway = 40;
  config.duration_sec = sim_seconds;
  config.stop_probability = 0.002;
  config.seed = 42;

  SStore store;
  LinearRoadApp app(&store, config);
  if (!app.Setup().ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  store.Start();

  LinearRoadGenerator gen(config);
  std::vector<BatchTicketPtr> tickets;
  int64_t total_reports = 0;
  for (int s = 0; s < sim_seconds; ++s) {
    for (const PositionReport& r : gen.NextSecond()) {
      tickets.push_back(app.InjectAsync(r));
      ++total_reports;
    }
  }
  for (auto& t : tickets) t->Wait();
  while (store.partition().QueueDepth() > 0) {
  }
  store.Stop();

  size_t notifications = app.DrainNotifications().ValueOr(0);
  size_t archived = app.ArchivedStats().ValueOr(0);
  size_t accidents = app.OpenAccidents().ValueOr(0);
  double tolls = app.TotalTollsCharged().ValueOr(0.0);
  std::printf("x-ways: %d on one partition, %d simulated seconds\n", xways,
              sim_seconds);
  std::printf("position reports processed: %lld\n",
              static_cast<long long>(total_reports));
  std::printf("toll/accident notifications delivered: %zu\n", notifications);
  std::printf("per-minute segment statistics archived: %zu\n", archived);
  std::printf("open accidents at end: %zu, total tolls charged: %.1f\n",
              accidents, tolls);
  return total_reports > 0 ? 0 : 1;
}
