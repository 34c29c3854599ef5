// The traced run: per-layer metrics and a stage budget for one workload.
// It hosts the cluster in this process, so client spans and the cluster's
// partition spans share one process, and it is kept apart from the gated
// runs (its own hosts, full sampling, extra threads).
//
//   wb_trace --workload NAME --seed N --seconds S --dir SCRATCH
//            --connections K --window W --light-rate R
//
// Steps, each on a fresh host unless noted:
//   A. default sampling: closed loop over the wire -> kStats counter deltas
//      (frames per batch, sheds, txns per request, log and streaming
//      counts, partition skew) and the untraced throughput;
//   B. latency_sample_every=1, trace_sample_every=1: closed loop (traced
//      throughput, so obs.traced_tps_ratio = B / A), then the light open
//      loop with client spans joined to Cluster::DumpTraceJson's partition
//      spans by (partition, txn_id) -> stage budget;
//   W. WireClient pipelined throughput (client layer, off the gated path);
//   C. in-process batched submit at A's frames per batch;
//   D. single-thread baseline: Partition::RunInline (+ DrainQueueInline
//      for the leaderboard's PE-triggered stages);
//   E. the codec, PartitionMap::PartitionOf, Executor::Update and
//      Executor::IndexScan on a 64-row contestants table, and
//      CommandLog::Append / Flush on a scratch log;
//   L. the log layer: a vote_durable host (log_sync, group commit 1)
//      driven in-process -> flushes and bytes per commit, then
//      Cluster::Recover over its checkpoint + log.
// Prints the budget, then "TRACE <json>".
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "log/command_log.h"
#include "query/executor.h"
#include "query/expr.h"
#include "server/client.h"
#include "storage/catalog.h"
#include "wb_common.h"

namespace {

using sstore::Value;
using wb::Status;

struct Args {
  wb::WorkloadKind kind = wb::WorkloadKind::kVoteWire;
  uint64_t seed = 1;
  double seconds = 20;
  std::string dir;
  int connections = 1;
  int window = 64;
  double light_rate = 1000;
};

/// Requests and failures over every load-generator phase of the run.
struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Status Account(const wb::LoadGen& gen, Totals* totals) {
  totals->attempted += gen.attempted();
  totals->failed += gen.failed();
  if (gen.output_errors() != 0) {
    return Status::Internal(std::to_string(gen.output_errors()) +
                            " responses contradict the validity marks");
  }
  return Status::OK();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Get(const wb::StatsMap& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Per-call nanoseconds of `body(i)`, as the median over `passes` passes
/// of `n` calls each.
template <typename F>
double NsPerCall(int passes, int n, F&& body) {
  std::vector<double> per_pass;
  for (int pass = 0; pass < passes; ++pass) {
    int64_t t0 = wb::NowNs();
    for (int i = 0; i < n; ++i) body(i);
    per_pass.push_back(static_cast<double>(wb::NowNs() - t0) / n);
  }
  return wb::Percentile(&per_pass, 50);
}

wb::HostOptions Host(const Args& a, const std::string& sub) {
  wb::HostOptions o;
  o.kind = a.kind;
  o.dir = a.dir + "/" + sub;
  return o;
}

wb::GenConfig Gen(const Args& a, uint16_t port) {
  wb::GenConfig g;
  g.port = port;
  g.kind = a.kind;
  g.seed = a.seed;
  g.connections = a.connections;
  g.window = a.window;
  return g;
}

/// Step A: counters from the server's kStats exposition over a closed loop
/// at default sampling.
Status StepCounters(const Args& a, std::map<std::string, double>* m,
                    double* untraced_tps, double* frames_per_batch,
                    std::string* detail, Totals* totals) {
  wb::ServerHost host(Host(a, "a"));
  SSTORE_RETURN_NOT_OK(host.Start());
  wb::LoadGen gen(Gen(a, host.port()));
  SSTORE_RETURN_NOT_OK(gen.Connect());
  wb::PhaseResult warm, closed;
  SSTORE_RETURN_NOT_OK(gen.ClosedLoop("warmup", 0.5, &warm));
  SSTORE_RETURN_NOT_OK(gen.ClosedLoop("closed", a.seconds * 0.15, &closed));
  const auto& d = closed.counters;
  *untraced_tps = Ratio(static_cast<double>(closed.committed), closed.seconds);
  *frames_per_batch = Ratio(Get(d, "sstore_wire_requests_submitted_total"),
                            Get(d, "sstore_wire_batches_submitted_total"));
  const double committed = Get(d, "sstore_txn_committed_total");
  const double aborted = Get(d, "sstore_txn_aborted_total");
  (*m)["server.frames_per_batch"] = *frames_per_batch;
  (*m)["server.busy_shed_ratio"] =
      Ratio(Get(d, "sstore_wire_busy_shed_total"),
            Get(d, "sstore_wire_frames_received_total"));
  (*m)["engine.txns_per_request"] =
      Ratio(committed + aborted, static_cast<double>(closed.issued));
  (*m)["engine.boundary_bytes_per_txn"] =
      Ratio(Get(d, "sstore_engine_boundary_bytes_total"), committed + aborted);
  (*m)["engine.producer_blocks"] = Get(d, "sstore_producer_blocks_total");
  (*m)["streaming.internal_per_client"] =
      Ratio(Get(d, "sstore_txn_internal_requests_total"),
            Get(d, "sstore_txn_client_requests_total"));
  (*m)["streaming.abort_ratio"] = Ratio(aborted, committed + aborted);
  double max_p = 0, sum_p = 0;
  const size_t parts = host.cluster().num_partitions();
  for (size_t p = 0; p < parts; ++p) {
    double c = Get(d, sstore::LabeledMetric("sstore_partition_committed_total",
                                            "partition", std::to_string(p)));
    max_p = std::max(max_p, c);
    sum_p += c;
  }
  (*m)["cluster.partition_skew"] = Ratio(max_p, sum_p / parts);
  (*m)["engine.queue_high_watermark"] = static_cast<double>(
      host.cluster().GatherStats().max_queue_high_watermark());
  *detail = wb::PhaseJson(&closed);
  gen.Close();
  host.StopServing();
  return Account(gen, totals);
}

struct StageSamples {
  std::vector<double> encode_us, send_us, decode_us, e2e_us, wire_us;
  std::map<std::string, std::vector<int64_t>> partition;  // integer us
  size_t joined = 0, spans = 0;
};

/// Parses DumpTraceJson's fixed one-event-per-line format into
/// (partition, txn) -> stage -> duration.
std::map<std::pair<int, int64_t>, std::map<std::string, int64_t>> ParseTrace(
    const std::string& json) {
  std::map<std::pair<int, int64_t>, std::map<std::string, int64_t>> out;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    // One event per line; scanning a copy keeps sscanf off the whole dump.
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    char name[64] = {0};
    int tid = 0;
    long long ts = 0, dur = 0, txn = 0;
    size_t start = line.find("{\"name\":\"");
    if (start == std::string::npos) continue;
    if (std::sscanf(line.c_str() + start,
                    "{\"name\":\"%63[^\"]\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%lld,\"dur\":%lld,\"args\":{\"txn\":%lld}}",
                    name, &tid, &ts, &dur, &txn) == 5) {
      out[{tid, txn}][name] = dur;
    }
  }
  return out;
}

/// Step B: traced closed loop, then the light open loop with spans.
Status StepTraced(const Args& a, double* traced_tps, StageSamples* st,
                  double* late_us, std::string* detail, Totals* totals) {
  wb::HostOptions ho = Host(a, "b");
  ho.latency_sample_every = 1;
  ho.trace_sample_every = 1;
  ho.trace_ring_capacity = size_t{1} << 18;
  wb::ServerHost host(ho);
  SSTORE_RETURN_NOT_OK(host.Start());
  wb::GenConfig gc = Gen(a, host.port());
  gc.record_spans = true;
  wb::LoadGen gen(gc);
  SSTORE_RETURN_NOT_OK(gen.Connect());
  wb::PhaseResult warm, closed, light;
  SSTORE_RETURN_NOT_OK(gen.ClosedLoop("warmup", 0.3, &warm));
  SSTORE_RETURN_NOT_OK(gen.ClosedLoop("closed", a.seconds * 0.15, &closed));
  *traced_tps = Ratio(static_cast<double>(closed.committed), closed.seconds);
  gen.ClearSpans();
  for (size_t p = 0; p < host.cluster().num_partitions(); ++p) {
    host.cluster().trace_ring(p)->Clear();
  }
  SSTORE_RETURN_NOT_OK(gen.OpenLoop("light", a.light_rate, 0.2,
                                    std::min(3.0, a.seconds * 0.15), &light));
  *late_us = light.late_us_max;
  auto stages = ParseTrace(host.cluster().DumpTraceJson());
  for (const wb::ClientSpan& span : gen.spans()) {
    if (!span.committed) continue;
    ++st->spans;
    int p = wb::IsLeaderboard(a.kind)
                ? 0
                : static_cast<int>(host.cluster().PartitionOf(
                      Value::BigInt(span.contestant)));
    auto it = stages.find({p, span.txn_id});
    if (it == stages.end()) continue;
    ++st->joined;
    int64_t partition_us = 0;
    for (const char* name :
         {"queue_wait", "execute", "log_append", "commit_hooks"}) {
      auto s = it->second.find(name);
      int64_t us = s == it->second.end() ? 0 : s->second;
      st->partition[name].push_back(us);
      partition_us += us;
    }
    st->encode_us.push_back(span.encode_ns / 1e3);
    st->send_us.push_back(span.send_ns / 1e3);
    st->decode_us.push_back(span.decode_ns / 1e3);
    st->e2e_us.push_back(span.e2e_ns / 1e3);
    st->wire_us.push_back(span.e2e_ns / 1e3 -
                          static_cast<double>(partition_us));
  }
  *detail = wb::PhaseJson(&light);
  gen.Close();
  host.StopServing();
  return Account(gen, totals);
}

/// Step W: WireClient, one connection, 128 pipelined, closed loop.
Status StepWireClient(const Args& a, double seconds, double* tps) {
  wb::ServerHost host(Host(a, "w"));
  SSTORE_RETURN_NOT_OK(host.Start());
  SSTORE_ASSIGN_OR_RETURN(auto client, sstore::WireClient::Connect(
                                           {"127.0.0.1", host.port()}));
  wb::RequestGen requests(a.kind, a.seed + 1);
  const bool keyed = !wb::IsLeaderboard(a.kind);
  uint64_t committed = 0;
  const int64_t t0 = wb::NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::pair<sstore::WireFuturePtr, bool>> window;
  while (wb::NowNs() < stop) {
    for (int i = 0; i < 128; ++i) {
      wb::Request req = requests.Next();
      sstore::Invocation inv = requests.ToInvocation(req);
      window.emplace_back(
          keyed ? client->SubmitAsync(inv.proc, inv.params,
                                      Value::BigInt(req.contestant))
                : client->SubmitAsync(inv.proc, inv.params, inv.batch_id),
          req.valid);
    }
    SSTORE_RETURN_NOT_OK(client->Flush());
    for (auto& [future, valid] : window) {
      const sstore::WireResult& r = future->Wait();
      if (!r.transport.ok()) return r.transport;
      if (r.busy || r.committed() != valid) {
        return Status::Internal("WireClient run: unexpected outcome");
      }
      committed += r.committed() ? 1 : 0;
    }
    window.clear();
  }
  host.cluster().WaitIdle();
  *tps = Ratio(static_cast<double>(committed),
               static_cast<double>(wb::NowNs() - t0) / 1e9);
  client.reset();
  host.StopServing();
  return Status::OK();
}

/// In-process batched submit on a started host: batches of `batch`
/// requests, at most `window` requests in flight, for `seconds`. Returns
/// committed requests per second; fails on an outcome that contradicts the
/// request's validity mark.
Status DriveInProc(wb::ServerHost& host, uint64_t seed, double seconds,
                   size_t batch, size_t window, double* tps) {
  sstore::Cluster& cluster = host.cluster();
  const wb::WorkloadKind kind = host.options().kind;
  wb::RequestGen requests(kind, seed);
  struct Pending {
    sstore::BatchTicketPtr ticket;
    std::vector<bool> valid;
  };
  std::deque<Pending> inflight;
  size_t inflight_requests = 0;
  uint64_t committed = 0, wrong = 0;
  auto retire = [&]() {
    Pending& p = inflight.front();
    p.ticket->Wait();
    for (size_t i = 0; i < p.valid.size(); ++i) {
      bool ok = p.ticket->outcome(i).committed();
      committed += ok ? 1 : 0;
      wrong += ok != p.valid[i] ? 1 : 0;
    }
    inflight_requests -= p.valid.size();
    inflight.pop_front();
  };
  const int64_t t0 = wb::NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  while (wb::NowNs() < stop) {
    std::map<size_t, Pending> groups;
    std::map<size_t, std::vector<sstore::Invocation>> invs;
    for (size_t i = 0; i < batch; ++i) {
      wb::Request req = requests.Next();
      size_t p = wb::IsLeaderboard(kind)
                     ? 0
                     : cluster.PartitionOf(Value::BigInt(req.contestant));
      invs[p].push_back(requests.ToInvocation(req));
      groups[p].valid.push_back(req.valid);
    }
    for (auto& [p, list] : invs) {
      // Votes are keyed, so they go to their owner; the leaderboard's
      // single partition takes the unkeyed batch-id route.
      groups[p].ticket =
          wb::IsLeaderboard(kind)
              ? cluster.SubmitBatchAsync(std::move(list)).at(0)
              : cluster.SubmitBatchToPartition(p, std::move(list));
      inflight_requests += groups[p].valid.size();
      inflight.push_back(std::move(groups[p]));
    }
    while (inflight_requests > window) retire();
  }
  while (!inflight.empty()) retire();
  cluster.WaitIdle();
  *tps = Ratio(static_cast<double>(committed),
               static_cast<double>(wb::NowNs() - t0) / 1e9);
  if (wrong != 0) return Status::Internal("in-process run: wrong outcomes");
  return Status::OK();
}

/// Step C: in-process batched submit at the wire run's frames per batch,
/// with the same number of requests in flight as the wire window.
Status StepInProc(const Args& a, double seconds, double frames_per_batch,
                  double* tps) {
  wb::ServerHost host(Host(a, "c"));
  SSTORE_RETURN_NOT_OK(host.Start());
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(std::lround(frames_per_batch)));
  SSTORE_RETURN_NOT_OK(DriveInProc(host, a.seed + 2, seconds, batch,
                                   static_cast<size_t>(a.window), tps));
  host.StopServing();
  return Status::OK();
}

/// Step L: the log layer on every workload. A vote_durable host (log_sync,
/// group commit 1, initial checkpoint) is driven in-process; its LogStats
/// give flushes and bytes per commit, then Cluster::Recover replays its
/// checkpoint + log into a fresh cluster, which must hold every commit.
Status StepLog(const Args& a, double seconds,
               std::map<std::string, double>* m) {
  wb::HostOptions ho = Host(a, "l");
  ho.kind = wb::WorkloadKind::kVoteDurable;
  wb::ServerHost host(ho);
  SSTORE_RETURN_NOT_OK(host.Start());
  double tps = 0;
  SSTORE_RETURN_NOT_OK(DriveInProc(host, a.seed + 5, seconds, 8, 64, &tps));
  host.StopServing();
  const sstore::ClusterStats cs = host.cluster().GatherStats();
  (*m)["log.flushes_per_kcommit"] =
      1000.0 * Ratio(static_cast<double>(cs.log.flush_count),
                     static_cast<double>(cs.txn.committed));
  (*m)["log.bytes_per_commit"] =
      Ratio(static_cast<double>(cs.log.bytes_written),
            static_cast<double>(cs.log.records_appended));
  host.cluster().Stop();
  double replay_s = 0;
  SSTORE_ASSIGN_OR_RETURN(std::vector<int64_t> recovered,
                          host.RecoverVotes(&replay_s));
  int64_t recovered_votes = 0;
  for (int64_t n : recovered) recovered_votes += n;
  if (recovered_votes != static_cast<int64_t>(cs.txn.committed)) {
    return Status::Internal("recovery holds " +
                            std::to_string(recovered_votes) + " of " +
                            std::to_string(cs.txn.committed) +
                            " committed votes");
  }
  (*m)["log.replay_records_per_s"] =
      Ratio(static_cast<double>(cs.log.records_appended), replay_s);
  return Status::OK();
}

/// Step D: single-thread baseline on a cluster that was never started.
Status StepInline(const Args& a, double seconds, double* us_per_txn) {
  wb::ServerHost host(Host(a, "d"));
  SSTORE_RETURN_NOT_OK(host.Prepare());
  sstore::Cluster& cluster = host.cluster();
  wb::RequestGen requests(a.kind, a.seed + 3);
  uint64_t txns = 0;
  const int64_t t0 = wb::NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  while (wb::NowNs() < stop) {
    for (int i = 0; i < 64; ++i) {
      wb::Request req = requests.Next();
      size_t p = wb::IsLeaderboard(a.kind)
                     ? 0
                     : cluster.PartitionOf(Value::BigInt(req.contestant));
      sstore::Partition& part = cluster.partition(p);
      sstore::TxnOutcome out = part.RunInline(requests.ToInvocation(req));
      if (out.committed() != req.valid) {
        return Status::Internal("inline run: unexpected outcome " +
                                out.status.ToString());
      }
      txns += 1 + part.DrainQueueInline();
    }
  }
  *us_per_txn = static_cast<double>(wb::NowNs() - t0) / 1e3 /
                static_cast<double>(txns);
  return Status::OK();
}

/// Step E: the codec, routing, executor and command log on their own.
Status StepLayers(const Args& a, std::map<std::string, double>* m) {
  constexpr int kFrames = 4096;
  wb::RequestGen requests(a.kind, a.seed + 4);
  std::vector<wb::Request> reqs;
  for (int i = 0; i < kFrames; ++i) reqs.push_back(requests.Next());

  sstore::ByteWriter frames;
  (*m)["client.encode_ns"] = NsPerCall(7, kFrames, [&](int i) {
    if (i == 0) frames.Clear();
    requests.Encode(reqs[i], static_cast<uint64_t>(i + 1), &frames);
  });
  std::vector<std::pair<const uint8_t*, size_t>> payloads;
  sstore::WireFrameBuffer buffer;
  buffer.Feed(frames.data().data(), frames.size());
  std::vector<uint8_t> copy;
  for (;;) {
    const uint8_t* payload = nullptr;
    size_t len = 0;
    SSTORE_ASSIGN_OR_RETURN(bool got, buffer.Next(&payload, &len));
    if (!got) break;
    payloads.emplace_back(payload, len);
  }
  if (payloads.size() != kFrames) return Status::Internal("frame split");
  sstore::WireRequest decoded;
  sstore::WireRequestType type;
  Status decode_status = Status::OK();
  (*m)["server.decode_ns"] = NsPerCall(7, kFrames, [&](int i) {
    Status s = sstore::DecodeRequest(payloads[i].first, payloads[i].second,
                                     &decoded, &type);
    if (!s.ok()) decode_status = s;
  });
  SSTORE_RETURN_NOT_OK(decode_status);

  sstore::ByteWriter results;
  sstore::TxnOutcome outcome;
  (*m)["server.result_encode_ns"] = NsPerCall(7, kFrames, [&](int i) {
    if (i == 0) results.Clear();
    outcome.txn_id = i;
    sstore::EncodeResult(&results, static_cast<uint64_t>(i + 1), outcome);
  });
  std::vector<std::pair<const uint8_t*, size_t>> responses;
  sstore::WireFrameBuffer rbuf;
  rbuf.Feed(results.data().data(), results.size());
  for (;;) {
    const uint8_t* payload = nullptr;
    size_t len = 0;
    SSTORE_ASSIGN_OR_RETURN(bool got, rbuf.Next(&payload, &len));
    if (!got) break;
    responses.emplace_back(payload, len);
  }
  sstore::WireResponse resp;
  (*m)["client.decode_ns"] = NsPerCall(7, kFrames, [&](int i) {
    Status s = sstore::DecodeResponse(responses[i].first, responses[i].second,
                                      &resp);
    if (!s.ok()) decode_status = s;
  });
  SSTORE_RETURN_NOT_OK(decode_status);

  sstore::PartitionMap map(static_cast<size_t>(wb::PartitionsFor(a.kind)));
  std::vector<Value> keys;
  for (const wb::Request& r : reqs) keys.push_back(Value::BigInt(r.contestant));
  size_t sink = 0;
  (*m)["cluster.route_ns"] = NsPerCall(
      7, kFrames, [&](int i) { sink += map.PartitionOf(keys[i]); });

  // A standalone 64-row contestants table, as vc_vote sees it.
  sstore::Catalog catalog;
  SSTORE_ASSIGN_OR_RETURN(
      sstore::Table * table,
      catalog.CreateTable(
          "contestants",
          sstore::Schema({{"contestant_id", sstore::ValueType::kBigInt},
                          {"vote_count", sstore::ValueType::kBigInt}})));
  SSTORE_RETURN_NOT_OK(table->CreateIndex("pk", {"contestant_id"}, true));
  for (int64_t c = 0; c < wb::kContestants; ++c) {
    SSTORE_RETURN_NOT_OK(
        table->Insert({Value::BigInt(c), Value::BigInt(0)}).status());
  }
  sstore::Executor exec;
  Status query_status = Status::OK();
  (*m)["query.update_by_key_us"] =
      NsPerCall(7, 2000, [&](int i) {
        auto n = exec.Update(
            table,
            sstore::Eq(sstore::Col(0), sstore::LitInt(i % wb::kContestants)),
            {{1, sstore::Add(sstore::Col(1), sstore::LitInt(1))}});
        if (!n.ok() || *n != 1) query_status = Status::Internal("update");
      }) /
      1e3;
  (*m)["query.index_scan_ns"] = NsPerCall(7, 4096, [&](int i) {
    auto rows = exec.IndexScan(table, "pk",
                               {Value::BigInt(i % wb::kContestants)});
    if (!rows.ok() || rows->size() != 1) {
      query_status = Status::Internal("scan");
    }
  });
  SSTORE_RETURN_NOT_OK(query_status);

  // Scratch command log: append without flushing, then one fsync'd flush.
  sstore::CommandLog::Options lo;
  lo.path = a.dir + "/scratch.log";
  lo.group_size = size_t{1} << 30;
  lo.sync = true;
  SSTORE_ASSIGN_OR_RETURN(auto cmdlog, sstore::CommandLog::Open(lo));
  std::vector<double> append_us, fsync_us;
  for (int i = 0; i < 400; ++i) {
    sstore::LogRecord rec;
    rec.txn_id = i + 1;
    rec.proc = "vc_vote";
    rec.params = {Value::BigInt(i % wb::kContestants)};
    int64_t t0 = wb::NowNs();
    SSTORE_RETURN_NOT_OK(cmdlog->Append(rec));
    int64_t t1 = wb::NowNs();
    SSTORE_RETURN_NOT_OK(cmdlog->Flush());
    int64_t t2 = wb::NowNs();
    append_us.push_back((t1 - t0) / 1e3);
    fsync_us.push_back((t2 - t1) / 1e3);
  }
  SSTORE_RETURN_NOT_OK(cmdlog->Close());
  (*m)["log.append_us_p50"] = wb::Percentile(&append_us, 50);
  (*m)["log.fsync_us_p50"] = wb::Percentile(&fsync_us, 50);
  if (sink == 0 && wb::PartitionsFor(a.kind) > 1) {
    return Status::Internal("routing sent every key to partition 0");
  }
  return Status::OK();
}

void PrintBudget(const Args& a, StageSamples* st) {
  double e2e = wb::Percentile(&st->e2e_us, 50);
  std::printf("stage budget: %s, light open loop at %.0f/s, %zu of %zu "
              "committed requests joined to partition spans\n",
              wb::WorkloadName(a.kind), a.light_rate, st->joined, st->spans);
  std::printf("  %-22s %10s %10s\n", "stage", "p50_us", "%_of_e2e");
  auto row = [&](const char* name, double us) {
    std::printf("  %-22s %10.2f %10.1f\n", name, us, 100.0 * Ratio(us, e2e));
  };
  row("client.encode", wb::Percentile(&st->encode_us, 50));
  row("client.send", wb::Percentile(&st->send_us, 50));
  for (const char* name :
       {"queue_wait", "execute", "log_append", "commit_hooks"}) {
    row((std::string("partition.") + name).c_str(),
        wb::GroupedMedian(st->partition[name]));
  }
  row("client.decode", wb::Percentile(&st->decode_us, 50));
  row("wire (e2e - partition)", wb::Percentile(&st->wire_us, 50));
  row("end to end", e2e);
  std::printf("  (partition stages are whole microseconds, read as grouped "
              "medians; medians do not add up to the end-to-end median)\n");
}

Status Run(const Args& a, wb::JsonObject* out, Totals* totals) {
  std::map<std::string, double> m;
  const double s = a.seconds;
  double untraced_tps = 0, traced_tps = 0, frames_per_batch = 0, late_us = 0;
  std::string counters_detail, light_detail;
  wb::JsonObject step_s;
  int64_t t0 = wb::NowNs();
  auto lap = [&](const char* step) {
    int64_t now = wb::NowNs();
    step_s.Num(step, static_cast<double>(now - t0) / 1e9);
    t0 = now;
  };
  SSTORE_RETURN_NOT_OK(StepCounters(a, &m, &untraced_tps, &frames_per_batch,
                                    &counters_detail, totals));
  lap("a_counters");
  StageSamples st;
  SSTORE_RETURN_NOT_OK(
      StepTraced(a, &traced_tps, &st, &late_us, &light_detail, totals));
  if (st.joined == 0) return Status::Internal("no client span joined");
  lap("b_traced");
  double wireclient_tps = 0, inproc_tps = 0, inline_us = 0;
  SSTORE_RETURN_NOT_OK(StepWireClient(a, s * 0.08, &wireclient_tps));
  lap("w_wireclient");
  SSTORE_RETURN_NOT_OK(StepInProc(a, s * 0.1, frames_per_batch, &inproc_tps));
  lap("c_inproc");
  SSTORE_RETURN_NOT_OK(StepInline(a, s * 0.05, &inline_us));
  lap("d_inline");
  SSTORE_RETURN_NOT_OK(StepLayers(a, &m));
  lap("e_layers");
  SSTORE_RETURN_NOT_OK(StepLog(a, s * 0.05, &m));
  lap("l_log");

  m["obs.traced_tps_ratio"] = Ratio(traced_tps, untraced_tps);
  m["client.wireclient_tps"] = wireclient_tps;
  m["engine.inproc_tps"] = inproc_tps;
  m["server.wire_vs_inproc"] = Ratio(untraced_tps, inproc_tps);
  m["engine.inline_us_per_txn"] = inline_us;
  auto median_or_zero = [](std::vector<int64_t> v) {
    return v.empty() ? 0.0 : wb::GroupedMedian(std::move(v));
  };
  m["engine.queue_wait_us_p50"] = median_or_zero(st.partition["queue_wait"]);
  m["engine.execute_us_p50"] = median_or_zero(st.partition["execute"]);
  m["engine.commit_hooks_us_p50"] =
      median_or_zero(st.partition["commit_hooks"]);
  double e2e = wb::Percentile(&st.e2e_us, 50);
  m["server.wire_share_pct"] =
      100.0 * Ratio(wb::Percentile(&st.wire_us, 50), e2e);
  m["gen.late_us_max"] = late_us;

  PrintBudget(a, &st);
  wb::JsonObject metrics, detail;
  for (const auto& [name, value] : m) metrics.Num(name, value);
  detail.Num("untraced_tps", untraced_tps)
      .Num("traced_tps", traced_tps)
      .Int("joined_spans", static_cast<int64_t>(st.joined))
      .Raw("step_s", step_s.str())
      .Raw("counters_phase", counters_detail)
      .Raw("traced_light_phase", light_detail);
  out->Raw("metrics", metrics.str()).Raw("detail", detail.str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!wb::ParseFlags(argc, argv, &flags) || flags.count("workload") == 0 ||
      flags.count("dir") == 0) {
    std::fprintf(stderr, "usage: see the header of wb_trace.cc\n");
    return 2;
  }
  Status release = wb::CheckReleaseBuild();
  if (!release.ok()) {
    std::fprintf(stderr, "refusing to run: %s\n", release.ToString().c_str());
    return 2;
  }
  auto kind = wb::ParseWorkload(flags["workload"]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  Args a;
  a.kind = *kind;
  a.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  a.seconds = std::atof(flags["seconds"].c_str());
  a.dir = flags["dir"];
  a.connections = std::atoi(flags["connections"].c_str());
  a.window = std::atoi(flags["window"].c_str());
  a.light_rate = std::atof(flags["light-rate"].c_str());
  if (a.seconds <= 0 || a.connections <= 0 || a.window <= 0 ||
      a.light_rate <= 0) {
    std::fprintf(stderr, "bad arguments\n");
    return 2;
  }
  wb::JsonObject out;
  Totals totals;
  Status st = Run(a, &out, &totals);
  out.Bool("ok", st.ok())
      .Str("error", st.ok() ? "" : st.ToString())
      .Int("attempted", static_cast<int64_t>(totals.attempted))
      .Int("failed", static_cast<int64_t>(totals.failed));
  std::printf("TRACE %s\n", out.str().c_str());
  std::fflush(stdout);
  return st.ok() ? 0 : 1;
}
