// The paper's motivating application (§1.1): leaderboard maintenance for an
// American-Idol-style voting show, as a three-transaction streaming
// workflow with shared, fully transactional state:
//
//   votes --> [validate] --> [maintain leaderboards] --> [remove lowest
//              border         top/bottom/trending          every 1000 votes]
//
// Run: ./build/examples/voter_leaderboard [num_votes]

#include <cstdio>
#include <cstdlib>

#include "streaming/sstore.h"
#include "workloads/voter.h"

using namespace sstore;  // NOLINT: example brevity

namespace {

void PrintBoard(VoterApp& app, const std::string& which) {
  Result<std::vector<Tuple>> board = app.Leaderboard(which);
  std::printf("  %-9s:", which.c_str());
  if (!board.ok()) {
    std::printf(" <error: %s>\n", board.status().ToString().c_str());
    return;
  }
  for (const Tuple& row : *board) {
    std::printf("  #%lld (%lld votes)",
                static_cast<long long>(row[0].as_int64()),
                static_cast<long long>(row[1].as_int64()));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int num_votes = argc > 1 ? std::atoi(argv[1]) : 5000;

  SStore store;
  VoterConfig config;
  config.num_contestants = 6;
  config.delete_every = 1000;
  VoterApp app(&store, config);
  if (!app.Setup().ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  store.Start();
  VoteGenerator gen(config, /*seed=*/2026);
  int accepted = 0, rejected = 0;
  std::vector<BatchTicketPtr> tickets;
  tickets.reserve(num_votes);
  for (int i = 0; i < num_votes; ++i) {
    tickets.push_back(app.InjectVoteAsync(gen.Next()));
  }
  for (auto& t : tickets) {
    if (t->Wait()[0].committed()) {
      ++accepted;
    } else {
      ++rejected;  // duplicate phone or removed contestant
    }
  }
  while (store.partition().QueueDepth() > 0) {
  }
  store.Stop();

  std::printf("votes: %d accepted, %d rejected\n", accepted, rejected);
  std::printf("validated total: %lld, contestants still running: %lld\n",
              static_cast<long long>(*app.TotalValidVotes()),
              static_cast<long long>(*app.ActiveContestants()));
  PrintBoard(app, "top");
  PrintBoard(app, "bottom");
  PrintBoard(app, "trending");
  return 0;
}
