// Observability layer (src/obs/ + its cluster/server integration): histogram
// correctness under concurrency, snapshot/exposition round trips, the golden
// metric-name contract, the kStats wire round trip (live counters must match
// client-observed commits), trace span dumps, snapshots that outlive a wire
// server, stats reads racing the partition worker's engine counters, and
// kStats polls racing checkpointer restarts without a counter going down.
// Run in isolation with `ctest -L obs`.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "workloads/microbench.h"
#include "workloads/voter_cluster.h"

namespace sstore {
namespace {

// ---- LatencyHistogram ----

TEST(LatencyHistogramTest, CountSumMaxExactPercentilesBucketed) {
  LatencyHistogram h;
  LatencyHistogram::Snapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.Percentile(50), 0);
  EXPECT_EQ(empty.Mean(), 0.0);

  for (int i = 0; i < 1000; ++i) h.Record(8);
  h.Record(100000);
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1001u);
  EXPECT_EQ(s.sum, 1000u * 8 + 100000u);
  EXPECT_EQ(s.max, 100000);
  // p50 lands in the [8,16) bucket; p100 is the exact max.
  int64_t p50 = s.Percentile(50);
  EXPECT_GE(p50, 8);
  EXPECT_LT(p50, 16);
  EXPECT_EQ(s.Percentile(100), 100000);

  // Bimodal split: quantiles on either side of the gap land in the right
  // bucket.
  LatencyHistogram h2;
  for (int i = 0; i < 100; ++i) h2.Record(4);
  for (int i = 0; i < 100; ++i) h2.Record(1024);
  LatencyHistogram::Snapshot s2 = h2.snapshot();
  EXPECT_LT(s2.Percentile(25), 8);
  EXPECT_GE(s2.Percentile(75), 1024);
  EXPECT_LT(s2.Percentile(75), 2048);
}

TEST(LatencyHistogramTest, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.Record(-5);
  h.Record(0);
  EXPECT_EQ(h.snapshot().count, 2u);
  EXPECT_EQ(h.snapshot().sum, 0u);
  EXPECT_EQ(h.snapshot().max, 0);
}

TEST(LatencyHistogramTest, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1 + (t * kPerThread + i) % 512);
    });
  }
  for (auto& th : threads) th.join();
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(s.max, 512);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// ---- Exposition, parsing ----

TEST(MetricsExpositionTest, SnapshotRenderParseRoundTrip) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(32);
  MetricsSnapshot snap;
  snap.Add("demo_ops_total", MetricKind::kCounter, 42);
  snap.Add("demo_depth", MetricKind::kGauge, -7);
  MetricSample latency;
  latency.name = "demo_latency_us";
  latency.kind = MetricKind::kHistogram;
  latency.hist = h.snapshot();
  latency.value = static_cast<double>(latency.hist.count);
  snap.samples.push_back(latency);

  EXPECT_EQ(snap.Value("demo_ops_total"), 42.0);
  EXPECT_EQ(snap.Value("demo_depth"), -7.0);
  EXPECT_EQ(snap.Value("absent_metric", 123.0), 123.0);
  const MetricSample* hist = snap.Find("demo_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 100u);

  std::string text = RenderPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE demo_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_latency_us summary"), std::string::npos);

  std::map<std::string, double> parsed;
  for (auto& [name, value] : ParseMetricsText(text)) parsed[name] = value;
  EXPECT_EQ(parsed.at("demo_ops_total"), 42.0);
  EXPECT_EQ(parsed.at("demo_depth"), -7.0);
  EXPECT_EQ(parsed.at("demo_latency_us_count"), 100.0);
  double p50 = parsed.at("demo_latency_us{quantile=\"0.5\"}");
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_EQ(parsed.at("demo_latency_us{quantile=\"1\"}"), 32.0);
}

// ---- Trace ring & JSON ----

TEST(TraceRingTest, KeepsNewestEventsOldestFirst) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.Push(TraceEvent{"execute", i * 100, 10, 0, i});
  }
  EXPECT_EQ(ring.total_pushed(), 6u);
  std::vector<TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().id, 2);
  EXPECT_EQ(events.back().id, 5);

  std::string json = TraceEventsToJson(events);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);

  ring.Clear();
  EXPECT_TRUE(ring.Events().empty());
}

// ---- Cluster + wire integration ----

Cluster::Options ObsClusterOpts(int partitions) {
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = PartitionMap::Mode::kModulo;
  // Sample everything so small test loads land in the histogram and rings.
  opts.latency_sample_every = 1;
  opts.trace_sample_every = 1;
  return opts;
}

struct ObsHarness {
  explicit ObsHarness(int partitions)
      : cluster(ObsClusterOpts(partitions)),
        config{16, 1000},
        app(&cluster, config),
        server(&cluster, {}) {
    EXPECT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
    cluster.Start();
    EXPECT_TRUE(server.Start().ok());
  }

  ~ObsHarness() {
    server.Stop();
    cluster.Stop();
  }

  std::unique_ptr<WireClient> Connect() {
    auto client = WireClient::Connect({"127.0.0.1", server.port()});
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// `n` keyed votes over the wire; returns the client-observed commit count
  /// (every vote should commit at this load — no sheds, ample votes left).
  int64_t Vote(WireClient* client, int n) {
    int64_t committed = 0;
    std::vector<WireFuturePtr> futures;
    futures.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int64_t c = i % config.num_contestants;
      futures.push_back(client->SubmitAsync("vc_vote", {Value::BigInt(c)},
                                            Value::BigInt(c)));
    }
    EXPECT_TRUE(client->Flush().ok());
    for (auto& f : futures) {
      const WireResult& r = f->Wait();
      EXPECT_TRUE(r.transport.ok()) << r.transport.ToString();
      EXPECT_FALSE(r.busy);
      if (r.committed()) ++committed;
    }
    return committed;
  }

  Cluster cluster;
  VoterClusterConfig config;
  VoterClusterApp app;
  WireServer server;
};

std::vector<std::string> MetricNames(const std::string& text) {
  std::vector<std::string> names;
  for (auto& [name, value] : ParseMetricsText(text)) names.push_back(name);
  return names;
}

std::map<std::string, double> FetchParsed(WireClient* client) {
  auto text = client->FetchStats();
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  std::map<std::string, double> parsed;
  if (text.ok()) {
    for (auto& [name, value] : ParseMetricsText(*text)) parsed[name] = value;
  }
  return parsed;
}

// The PR's acceptance check: a kStats round trip against a live loaded
// server returns a parseable snapshot whose submitted/committed counters
// match what the client observed.
TEST(ClusterObsTest, StatsRoundTripMatchesClientObservedCommits) {
  ObsHarness h(2);
  auto client = h.Connect();
  constexpr int kVotes = 400;
  int64_t committed = h.Vote(client.get(), kVotes);
  EXPECT_EQ(committed, kVotes);
  h.cluster.WaitIdle();

  std::map<std::string, double> m = FetchParsed(client.get());
  ASSERT_FALSE(m.empty());
  EXPECT_EQ(m.at("sstore_wire_requests_submitted_total"),
            static_cast<double>(kVotes));
  EXPECT_EQ(m.at("sstore_txn_client_requests_total"),
            static_cast<double>(kVotes));
  // Triggers may commit additional internal txns; never fewer than the
  // client saw commit.
  EXPECT_GE(m.at("sstore_txn_committed_total"), static_cast<double>(committed));
  EXPECT_EQ(m.at("sstore_partitions"), 2.0);
  EXPECT_GE(m.at("sstore_wire_stats_requests_total"), 1.0);
  // Per-partition committed must sum to the cluster total.
  double per_part = 0;
  for (int p = 0; p < 2; ++p) {
    per_part += m.at(LabeledMetric("sstore_partition_committed_total",
                                   "partition", std::to_string(p)));
  }
  EXPECT_EQ(per_part, m.at("sstore_txn_committed_total"));
  // With sample_every=1, the latency histogram saw at least one batch.
  EXPECT_GE(m.at("sstore_txn_latency_us_count"), 1.0);
}

TEST(ClusterObsTest, GoldenMetricNamesAllPresent) {
  ObsHarness h(2);
  auto client = h.Connect();
  h.Vote(client.get(), 50);
  h.cluster.WaitIdle();
  auto text = client->FetchStats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  std::vector<std::pair<std::string, double>> parsed =
      ParseMetricsText(*text);
  ASSERT_FALSE(parsed.empty());

  std::ifstream golden(std::string(SSTORE_SOURCE_DIR) +
                       "/tools/golden_metrics.txt");
  ASSERT_TRUE(golden.is_open()) << "tools/golden_metrics.txt missing";
  std::string name;
  int checked = 0;
  while (std::getline(golden, name)) {
    if (name.empty() || name[0] == '#') continue;
    bool found = false;
    for (auto& [parsed_name, value] : parsed) {
      if (parsed_name.compare(0, name.size(), name) == 0) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "golden metric missing from exposition: " << name;
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

TEST(ClusterObsTest, TraceDumpIsChromeTracingJson) {
  ObsHarness h(2);
  auto client = h.Connect();
  h.Vote(client.get(), 200);
  h.cluster.WaitIdle();

  std::string json = h.cluster.DumpTraceJson();
  while (!json.empty() && json.back() == '\n') json.pop_back();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Batch spans: the sampled last-invocation-of-batch records queue_wait and
  // execute phases (log/commit-hook spans only when those stages ran).
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  ASSERT_NE(h.cluster.trace_ring(0), nullptr);
  ASSERT_NE(h.cluster.trace_ring(1), nullptr);
  EXPECT_EQ(h.cluster.trace_ring(99), nullptr);
  EXPECT_GT(h.cluster.trace_ring(0)->total_pushed() +
                h.cluster.trace_ring(1)->total_pushed(),
            0u);
}

// A stopped and destroyed WireServer leaves nothing behind in the cluster:
// the next snapshot must not touch it (ASan turns a stale reference into a
// heap-use-after-free here).
TEST(ClusterObsTest, SnapshotAfterWireServerDestroyed) {
  Cluster cluster(ObsClusterOpts(2));
  VoterClusterConfig config{16, 1000};
  ASSERT_TRUE(cluster.Deploy(BuildVoterClusterDeployment(config)).ok());
  cluster.Start();
  auto server = std::make_unique<WireServer>(&cluster, WireServer::Options{});
  ASSERT_TRUE(server->Start().ok());
  {
    auto client = WireClient::Connect({"127.0.0.1", server->port()});
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->FetchStats().ok());
  }
  server->Stop();
  server.reset();

  MetricsSnapshot snap = cluster.SnapshotMetrics();
  EXPECT_EQ(snap.Find("sstore_wire_frames_received_total"), nullptr);
  EXPECT_EQ(snap.Value("sstore_partitions"), 2.0);
  EXPECT_EQ(snap.Value("sstore_txn_committed_total", -1), 0.0);
  cluster.Stop();
}

// The execution engine's counters are written by the partition worker and
// read by whichever thread takes a snapshot (in production a kStats request
// on a wire I/O thread): TSan reports plain counters here as a data race.
TEST(ClusterObsTest, EngineCountersReadWhileWorkerFiresEeTriggers) {
  Cluster cluster(1);
  constexpr int kStages = 3;
  constexpr int kTxns = 2000;
  ASSERT_TRUE(EeTriggerChain::SetupSStore(&cluster.store(0), kStages).ok());
  cluster.Start();
  std::atomic<bool> done{false};
  std::thread producer([&] {
    std::vector<BatchTicketPtr> tickets;
    tickets.reserve(kTxns);
    for (int i = 0; i < kTxns; ++i) {
      tickets.push_back(cluster.partition(0).SubmitAsync(
          Invocation{"ingest_s", {Value::BigInt(i)}, i + 1}));
    }
    for (auto& t : tickets) EXPECT_TRUE(t->Wait()[0].committed());
    done.store(true);
  });
  int polls = 0;
  while (!done.load()) {
    cluster.SnapshotMetrics();
    ++polls;
  }
  producer.join();
  EXPECT_GT(polls, 0);
  EXPECT_EQ(
      cluster.SnapshotMetrics().Value("sstore_engine_ee_trigger_firings_total"),
      static_cast<double>(kStages * kTxns));
  cluster.Stop();
}

// The kStats answer is the in-process snapshot with the server's own
// samples appended: same names, same order, then sstore_wire_*.
TEST(ClusterObsTest, SnapshotNamesAreStatsNamesMinusWire) {
  ObsHarness h(2);
  auto client = h.Connect();
  h.Vote(client.get(), 50);
  h.cluster.WaitIdle();
  auto text = client->FetchStats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  auto is_wire = [](const std::string& name) {
    return name.rfind("sstore_wire_", 0) == 0;
  };
  std::vector<std::string> wire = MetricNames(*text);
  auto first_wire = std::find_if(wire.begin(), wire.end(), is_wire);
  ASSERT_NE(first_wire, wire.end());
  EXPECT_TRUE(std::all_of(first_wire, wire.end(), is_wire))
      << "sstore_wire_* samples must follow every cluster sample";
  std::vector<std::string> cluster_part(wire.begin(), first_wire);

  std::vector<std::string> local =
      MetricNames(RenderPrometheusText(h.cluster.SnapshotMetrics()));
  EXPECT_EQ(local, cluster_part);
  EXPECT_GT(local.size(), 30u);
}

// A kStats request on a wire I/O thread reads the checkpointer's counters
// while the owning thread cycles it through Stop/Start: the reads must stay
// race-free (TSan), and the counters must never go down across a restart.
TEST(ClusterObsTest, StatsPollsSurviveCheckpointerRestarts) {
  ObsHarness h(2);
  std::string dir = ::testing::TempDir() + "/sstore_obs_" +
                    std::to_string(::getpid()) + "_restart_ckpt";
  ::mkdir(dir.c_str(), 0755);
  Checkpointer::Options copts;
  copts.dir = dir;
  copts.interval_ms = 1;
  copts.poll_ms = 1;

  std::atomic<bool> done{false};
  std::atomic<int> polls{0};
  std::thread poller([&] {
    auto client = h.Connect();
    double last_completed = 0;
    while (!done.load()) {
      std::map<std::string, double> m = FetchParsed(client.get());
      EXPECT_EQ(m.count("sstore_checkpoint_completed_total"), 1u);
      double completed = m["sstore_checkpoint_completed_total"];
      EXPECT_GE(completed, last_completed);
      last_completed = completed;
      polls.fetch_add(1);
    }
  });
  // Cycle until both enough restarts ran and the poller overlapped them.
  constexpr int kCycles = 40;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int cycles = 0;
  uint64_t completed = 0;
  while (cycles < kCycles || (polls.load() < kCycles &&
                               std::chrono::steady_clock::now() < deadline)) {
    Status st = h.cluster.StartCheckpointer(copts);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) break;
    EXPECT_GE(h.cluster.GatherStats().checkpoint.completed, completed)
        << "restart " << cycles << " zeroed the checkpoint counters";
    if (cycles == 0) {
      // At least one completion before the first restart, so a restart
      // that zeroes the counters shows.
      EXPECT_TRUE(h.cluster.checkpointer()->WaitForCompletions(1, 20000));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    h.cluster.StopCheckpointer();
    completed = h.cluster.GatherStats().checkpoint.completed;
    ++cycles;
  }
  EXPECT_GE(completed, 1u);
  done.store(true);
  poller.join();
  EXPECT_GE(polls.load(), kCycles);
}

}  // namespace
}  // namespace sstore
