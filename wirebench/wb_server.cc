// The benchmark's server process: one workload's cluster behind a
// WireServer on an ephemeral loopback port, built only from public APIs.
//
//   wb_server --workload vote_wire|vote_durable|leaderboard_wire
//             [--dir SCRATCH]
//
// Prints "READY <port> <start_ns>" once it accepts requests, where
// start_ns is the steady clock (CLOCK_MONOTONIC, shared by every process
// on the host) at main() entry, so the generator can time set-up up to its
// first accepted request. It serves until its stdin closes, then drains,
// reads the output-check state from the idle cluster (vote_durable also
// recovers checkpoint + log into a fresh cluster) and prints
// "REPORT <json>".
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "wb_common.h"

int main(int argc, char** argv) {
  const int64_t start_ns = wb::NowNs();
  std::map<std::string, std::string> flags;
  if (!wb::ParseFlags(argc, argv, &flags) || flags.count("workload") == 0) {
    std::fprintf(stderr,
                 "usage: wb_server --workload NAME [--dir D]\n");
    return 2;
  }
  wb::Status release = wb::CheckReleaseBuild();
  if (!release.ok()) {
    std::fprintf(stderr, "refusing to run: %s\n", release.ToString().c_str());
    return 2;
  }
  auto kind = wb::ParseWorkload(flags["workload"]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  wb::HostOptions options;
  options.kind = *kind;
  options.dir = flags["dir"];
  wb::ServerHost host(options);
  wb::Status st = host.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("READY %u %lld\n", host.port(),
              static_cast<long long>(start_ns));
  std::fflush(stdout);

  // Serve until run.py closes our stdin.
  std::string line;
  while (std::getline(std::cin, line)) {
  }

  host.StopServing();
  const int64_t peak_rss_kb = wb::PeakRssKb();
  wb::JsonObject report;
  report.Str("workload", wb::WorkloadName(*kind))
      .Int("peak_rss_kb", peak_rss_kb)
      .Raw("state", host.ReportJson());
  if (*kind == wb::WorkloadKind::kVoteDurable) {
    host.cluster().Stop();
    double replay_s = 0;
    auto recovered = host.RecoverVotes(&replay_s);
    report.Bool("recovered_ok", recovered.ok())
        .Str("recover_error",
             recovered.ok() ? "" : recovered.status().ToString())
        .Num("recover_s", replay_s);
    if (recovered.ok()) report.IntArray("recovered_counts", *recovered);
  }
  std::printf("REPORT %s\n", report.str().c_str());
  std::fflush(stdout);
  return 0;
}
