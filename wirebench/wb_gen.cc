// The load generator: one process, one thread, `--connections` non-blocking
// sockets, speaking the wire protocol through the public codec.
//
//   wb_gen --workload NAME --seed N --connections K --window W
//          --warmup-s S --closed-s S --open-warm-s S
//          --light-rate R --light-s S --heavy-rate R --heavy-s S
//
// It reads "<port> <server_start_ns>" from stdin (so it is already running
// when the server comes up), pings to time set-up, then runs a closed-loop
// warm-up, the measured closed loop, and the two open-loop rates. Prints
// "GEN <json>" with every phase, the session totals and the per-contestant
// acknowledged commits the output checks compare against the server.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "wb_common.h"

namespace {

double Flag(std::map<std::string, std::string>& flags, const char* name) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing --%s\n", name);
    std::exit(2);
  }
  return std::atof(it->second.c_str());
}

wb::Status Run(wb::LoadGen& gen, std::map<std::string, std::string>& flags,
               int64_t start_ns, wb::JsonObject* out) {
  SSTORE_RETURN_NOT_OK(gen.Connect());
  SSTORE_ASSIGN_OR_RETURN(int64_t pong_ns, gen.Ping());
  out->Num("setup_s", static_cast<double>(pong_ns - start_ns) / 1e9);

  SSTORE_ASSIGN_OR_RETURN(wb::StatsMap before, gen.FetchStats());
  wb::PhaseResult warm, closed, light, heavy;
  SSTORE_RETURN_NOT_OK(
      gen.ClosedLoop("warmup", Flag(flags, "warmup-s"), &warm));
  SSTORE_RETURN_NOT_OK(
      gen.ClosedLoop("closed", Flag(flags, "closed-s"), &closed));
  wb::Status open = gen.OpenLoop("light", Flag(flags, "light-rate"),
                                 Flag(flags, "open-warm-s"),
                                 Flag(flags, "light-s"), &light);
  if (open.ok()) {
    open = gen.OpenLoop("heavy", Flag(flags, "heavy-rate"),
                        Flag(flags, "open-warm-s"), Flag(flags, "heavy-s"),
                        &heavy);
  }
  // A late open loop has drained its session, so the report below still
  // feeds the output checks; any other failure ends the run here.
  if (!open.ok() && open.code() != sstore::StatusCode::kUnavailable) {
    return open;
  }
  SSTORE_ASSIGN_OR_RETURN(wb::StatsMap after, gen.FetchStats());
  auto delta = [&](const char* name) {
    return after[name] - before[name];
  };
  out->Num("server_committed_delta", delta("sstore_txn_committed_total"))
      .Num("server_aborted_delta", delta("sstore_txn_aborted_total"))
      .Raw("phases", "[" + wb::PhaseJson(&warm) + "," + wb::PhaseJson(&closed) +
                         "," + wb::PhaseJson(&light) + "," +
                         wb::PhaseJson(&heavy) + "]");
  return open;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!wb::ParseFlags(argc, argv, &flags) || flags.count("workload") == 0) {
    std::fprintf(stderr, "usage: see the header of wb_gen.cc\n");
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
  wb::GenConfig config;
  config.kind = *kind;
  config.seed = static_cast<uint64_t>(Flag(flags, "seed"));
  config.connections = static_cast<int>(Flag(flags, "connections"));
  config.window = static_cast<int>(Flag(flags, "window"));

  unsigned port = 0;
  long long start_ns = 0;
  if (!(std::cin >> port >> start_ns)) {
    std::fprintf(stderr, "expected '<port> <start_ns>' on stdin\n");
    return 2;
  }
  config.port = static_cast<uint16_t>(port);

  wb::LoadGen gen(config);
  wb::JsonObject out;
  wb::Status st = Run(gen, flags, start_ns, &out);
  out.Bool("ok", st.ok())
      .Str("error", st.ok() ? "" : st.ToString())
      .Bool("too_late", st.code() == sstore::StatusCode::kUnavailable)
      .Int("attempted", static_cast<int64_t>(gen.attempted()))
      .Int("failed", static_cast<int64_t>(gen.failed()))
      .Int("output_errors", static_cast<int64_t>(gen.output_errors()))
      .Int("acked_commits", static_cast<int64_t>(gen.acked_commits()))
      .IntArray("acked_counts", gen.acked_per_contestant());
  std::printf("GEN %s\n", out.str().c_str());
  std::fflush(stdout);
  return st.ok() ? 0 : 1;
}
