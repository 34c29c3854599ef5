// Self-tests of the benchmark's own arithmetic: exact percentiles, the
// grouped median, binned phase medians, the open-loop due-time schedule and its lateness
// accounting, the failed_ratio classification and the seeded request
// stream. run.py runs this before every measurement and refuses to report
// numbers if it fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "wb_common.h"

namespace {

int failures = 0;
int checks = 0;

void Expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v = {4, 1, 3, 2};
  Expect(Near(wb::Percentile(&v, 50), 2.5), "p50 of 1..4 is 2.5");
  Expect(Near(wb::Percentile(&v, 90), 3.7), "p90 of 1..4 is 3.7");
  Expect(Near(wb::Percentile(&v, 0), 1), "p0 is the minimum");
  Expect(Near(wb::Percentile(&v, 100), 4), "p100 is the maximum");
  std::vector<double> one = {7};
  Expect(Near(wb::Percentile(&one, 99), 7), "one sample is every percentile");
  std::vector<double> none;
  Expect(std::isnan(wb::Percentile(&none, 50)), "no samples is NaN");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(wb::Percentile(&hundred, 90), 90.1), "p90 of 1..100 is 90.1");

  Expect(Near(wb::GroupedMedian({2, 2, 3, 3}), 2.5),
         "grouped median splits two equal groups at their boundary");
  Expect(Near(wb::GroupedMedian({1, 1, 1}), 1.0),
         "grouped median of one group is its centre");
  Expect(Near(wb::GroupedMedian({1, 2, 2, 2, 9}), 2.0),
         "grouped median interpolates inside the median group");
}

void TestBins() {
  wb::PhaseResult phase;
  phase.window_s = 1.0;
  // 2 bins of 0.5 s: 300 commits in the first, 100 in the second.
  for (int i = 0; i < 400; ++i) {
    phase.commit_s.push_back(i < 300 ? 0.1f : 0.7f);
  }
  // First bin: latencies 1..200, second bin: 1001..1200.
  for (int i = 1; i <= 200; ++i) {
    phase.latency_us.push_back(i);
    phase.due_s.push_back(0.2f);
    phase.latency_us.push_back(1000 + i);
    phase.due_s.push_back(0.8f);
  }
  wb::BinnedSummary b = wb::SummarizeBins(phase, 0.5);
  Expect(b.bins == 2, "a 1 s window splits into two 0.5 s bins");
  Expect(Near(b.tps, 400.0), "throughput is the median of 600/s and 200/s");
  Expect(Near(b.p50_us, (100.5 + 1100.5) / 2), "p50 is the median of bins");
  Expect(Near(b.p90_us, (180.1 + 1180.1) / 2), "p90 is the median of bins");
  phase.window_s = 0.3;
  b = wb::SummarizeBins(phase, 0.5);
  Expect(b.bins == 1 && Near(b.tps, 300 / 0.3),
         "a window shorter than a bin is one bin");
  // A closed loop that drained until 1.5 s: 200 more commits at 1.2 s land
  // in the last bin, which then spans 0.5-1.5 s (300 commits, 300/s).
  phase.window_s = 1.0;
  phase.seconds = 1.5;
  for (int i = 0; i < 200; ++i) phase.commit_s.push_back(1.2f);
  b = wb::SummarizeBins(phase, 0.5);
  Expect(b.bins == 2 && Near(b.tps, (600.0 + 300.0) / 2),
         "the last bin runs on to the drained queue");
}

void TestSchedule() {
  // 1000/s from t=0: request i is due at i ms.
  wb::OpenLoopSchedule s(0, 1000.0, 8);
  Expect(s.DueNs(0) == 0 && s.DueNs(5) == 5'000'000, "due times are i / rate");
  uint64_t next = 0;
  Expect(s.TakeDue(0, &next) == 1 && next == 1, "request 0 is due at start");
  Expect(s.late_ns_max() == 0, "on time is zero lateness");
  Expect(s.TakeDue(2'500'000, &next) == 2 && next == 3,
         "requests 1 and 2 are due at 2.5 ms");
  Expect(s.late_ns_max() == 1'500'000,
         "lateness is measured from the first newly due request");
  Expect(s.TakeDue(2'600'000, &next) == 0, "nothing new due");
  Expect(s.late_ns_max() == 1'500'000, "no new request, no new lateness");
  Expect(s.TakeDue(10'000'000, &next) == 5 && next == 8,
         "the schedule stops at its count");
  Expect(s.late_ns_max() == 7'000'000, "a 7 ms stall reads as 7 ms late");
  Expect(s.TakeDue(20'000'000, &next) == 0, "an exhausted schedule is idle");
  Expect(s.late_ns_max() == 7'000'000, "worst lateness is kept");
}

void TestClassification() {
  using sstore::WireResponse;
  using sstore::WireResponseType;
  WireResponse busy;
  busy.type = WireResponseType::kBusy;
  WireResponse ok;
  ok.type = WireResponseType::kResult;
  WireResponse aborted;
  aborted.type = WireResponseType::kResult;
  aborted.status = sstore::Status::Aborted("unknown contestant");

  Expect(wb::Classify(&ok, true) == wb::Outcome::kCommitted, "valid commit");
  Expect(!wb::CountsAsFailed(wb::Classify(&ok, true)),
         "a commit is no failure");
  Expect(wb::CountsAsFailed(wb::Classify(&busy, true)), "kBusy counts");
  Expect(wb::CountsAsFailed(wb::Classify(&busy, false)),
         "kBusy counts even for an invalid vote");
  Expect(wb::CountsAsFailed(wb::Classify(nullptr, true)),
         "a transport failure counts");
  Expect(wb::CountsAsFailed(wb::Classify(&aborted, true)),
         "an abort of a valid vote counts");
  Expect(wb::Classify(&aborted, false) == wb::Outcome::kExpectedAbort &&
             !wb::CountsAsFailed(wb::Classify(&aborted, false)),
         "an abort of an invalid vote is a correct outcome");
  Expect(wb::BreaksOutput(wb::Classify(&ok, false)),
         "a committed invalid vote breaks the output check");
  Expect(!wb::BreaksOutput(wb::Classify(&aborted, false)),
         "an aborted invalid vote keeps the output correct");
}

void TestRequests() {
  for (auto kind : {wb::WorkloadKind::kVoteWire,
                    wb::WorkloadKind::kLeaderboardWire}) {
    wb::RequestGen a(kind, 42), b(kind, 42), c(kind, 43);
    bool same = true, differs = false, reserved_ok = true, ids_up = true;
    int invalid = 0;
    int64_t last_batch = 0;
    for (int i = 0; i < 20000; ++i) {
      wb::Request x = a.Next(), y = b.Next(), z = c.Next();
      same &= x.contestant == y.contestant && x.valid == y.valid &&
              x.phone == y.phone && x.batch_id == y.batch_id;
      differs |= x.contestant != z.contestant;
      if (!x.valid) ++invalid;
      if (wb::IsLeaderboard(kind)) {
        if (x.valid) {
          reserved_ok &= x.contestant >= wb::kReserved &&
                         x.contestant < wb::kContestants;
        }
        ids_up &= x.batch_id == last_batch + 1;
        last_batch = x.batch_id;
      } else if (x.valid) {
        reserved_ok &= x.contestant >= 0 && x.contestant < wb::kContestants;
      } else {
        reserved_ok &= x.contestant >= wb::kContestants;
      }
    }
    std::string name = wb::WorkloadName(kind);
    Expect(same, name + ": the same seed gives the same requests");
    Expect(differs, name + ": another seed gives other requests");
    Expect(reserved_ok, name + ": valid votes target live contestants only");
    Expect(ids_up, name + ": batch ids increase by one");
    double share = invalid / 20000.0;
    double want = wb::IsLeaderboard(kind) ? 0.02 : 0.01;
    Expect(share > want * 0.7 && share < want * 1.3,
           name + ": invalid share near " + std::to_string(want));
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestBins();
  TestSchedule();
  TestClassification();
  TestRequests();
  std::printf("SELFTEST %s %d checks, %d failed\n",
              failures == 0 ? "ok" : "FAILED", checks, failures);
  return failures == 0 ? 0 : 1;
}
