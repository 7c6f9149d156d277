// Unit tests for the storm simulator (src/storm): the determinism kit
// (SimRng / EventQueue) and the discrete-event engine driven by
// synthetic retry profiles, so every oracle fires (and stays quiet) on inputs
// whose ground truth is known by construction.

#include "src/storm/sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/lang/digest.h"
#include "src/obs/journal.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"

namespace wasabi {
namespace {

TEST(SimRngTest, SameSeedSameStream) {
  SimRng a(123);
  SimRng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SimRngTest, SplitStreamsAreIndependentOfDrawOrder) {
  // Splitting is a pure function of (parent state, salt): drawing from one
  // child must not perturb a sibling split with a different salt.
  SimRng root(7);
  SimRng left = root.Split(1);
  SimRng right = root.Split(2);
  std::vector<uint64_t> right_alone;
  {
    SimRng root2(7);
    SimRng right2 = root2.Split(2);
    for (int i = 0; i < 16; ++i) {
      right_alone.push_back(right2.Next());
    }
  }
  for (int i = 0; i < 16; ++i) {
    (void)left.Next();  // Interleave draws from the sibling.
    EXPECT_EQ(right.Next(), right_alone[i]);
  }
  // And the two salts actually diverge.
  SimRng l2 = SimRng(7).Split(1);
  SimRng r2 = SimRng(7).Split(2);
  EXPECT_NE(l2.Next(), r2.Next());
}

TEST(SimRngTest, NextIntIsInclusiveAndHandlesDegenerateRanges) {
  SimRng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u) << "inclusive range [3,5] should hit all values";
  EXPECT_EQ(rng.NextInt(8, 8), 8);
  EXPECT_EQ(rng.NextInt(10, 2), 10) << "hi < lo yields lo";
}

TEST(EventQueueTest, PopsInTimeOrderWithPushOrderTiebreak) {
  EventQueue<int> q;
  q.Push(30, 1);
  q.Push(10, 2);
  q.Push(10, 3);  // Same instant as payload 2: must pop after it.
  q.Push(20, 4);
  q.Push(10, 5);
  std::vector<int> order;
  while (!q.empty()) {
    order.push_back(q.PopMin().payload);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 4, 1}));
}

TEST(EventQueueTest, InterleavedPushPopKeepsHeapInvariant) {
  EventQueue<int> q;
  for (int i = 100; i > 0; --i) {
    q.Push(i, i);
  }
  int64_t last = -1;
  for (int i = 0; i < 50; ++i) {
    auto e = q.PopMin();
    EXPECT_GT(e.at_ms, last);
    last = e.at_ms;
    q.Push(e.at_ms + 200, e.payload);  // Reschedule past the original tail.
  }
  while (!q.empty()) {
    auto e = q.PopMin();
    EXPECT_GE(e.at_ms, last);
    last = e.at_ms;
  }
}

// Differential property test: seeded push/pop sequences against a reference
// std::priority_queue keyed (at_ms, seq). Every push respects the queue's one
// precondition (never earlier than the last pop). Delays are drawn per
// pattern so the sequences cover same-ms ties, pushes just inside and just
// past every power-of-two horizon up to 2^16 ms (so the wheel edge is hit
// whatever its span), far-only stretches where the cursor has to jump, and
// near and far entries due at the same ms.
struct RefEntry {
  int64_t at_ms;
  uint64_t seq;
  int payload;
  bool operator>(const RefEntry& o) const {
    return std::tie(at_ms, seq) > std::tie(o.at_ms, o.seq);
  }
};

int64_t DrawDelay(SimRng& rng, int pattern) {
  switch (pattern) {
    case 0:  // Dense near traffic with many same-ms ties.
      return rng.NextInt(0, 3);
    case 1: {  // Horizon edges: 2^k - 1, 2^k, 2^k + 1 for k in [8, 16].
      int64_t edge = int64_t{1} << rng.NextInt(8, 16);
      return edge + rng.NextInt(-1, 1);
    }
    case 2:  // Far only: the wheel stays empty and the cursor jumps.
      return rng.NextInt(20'000, 200'000);
    default:  // Mixed spread across the near and far ranges.
      return rng.NextInt(0, 40'000);
  }
}

TEST(EventQueueTest, MatchesAReferencePriorityQueueOnSeededSequences) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SimRng rng(seed);
    EventQueue<int> q;
    std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<RefEntry>> ref;
    uint64_t next_seq = 0;
    int64_t last_pop = 0;
    int payload = 0;
    auto push = [&](int64_t at_ms) {
      q.Push(at_ms, payload);
      ref.push(RefEntry{at_ms, next_seq++, payload});
      ++payload;
    };
    for (int step = 0; step < 4000; ++step) {
      int pattern = static_cast<int>(rng.NextInt(0, 3));
      int64_t pushes = rng.NextInt(0, 4);
      for (int64_t i = 0; i < pushes; ++i) {
        push(last_pop + DrawDelay(rng, pattern));
      }
      int64_t pops = rng.NextInt(0, 4);
      for (int64_t i = 0; i < pops && !ref.empty(); ++i) {
        ASSERT_FALSE(q.empty());
        auto got = q.PopMin();
        RefEntry want = ref.top();
        ref.pop();
        ASSERT_EQ(got.at_ms, want.at_ms) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.seq, want.seq) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.payload, want.payload) << "seed " << seed << " step " << step;
        last_pop = got.at_ms;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      auto got = q.PopMin();
      ASSERT_EQ(got.seq, ref.top().seq) << "seed " << seed << " drain";
      ref.pop();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueTest, FarAndNearEntriesForTheSameMsPopInPushOrder) {
  // Entries due at kT are pushed from cursors walked up to kT - 2^k - 1,
  // kT - 2^k and kT - 2^k + 1 for k from 16 down to 8, so some are far and
  // some near whatever the wheel's span. One more is pushed at kT after the
  // first kT pop. Every kT entry must pop in push order.
  constexpr int64_t kT = 100'000;
  constexpr int kWalker = -1;
  EventQueue<int> q;
  int next = 0;
  q.Push(kT, next++);
  for (int k = 16; k >= 8; --k) {
    for (int64_t off : {1, 0, -1}) {
      int64_t at = kT - (int64_t{1} << k) - off;
      q.Push(at, kWalker);
      auto walker = q.PopMin();
      ASSERT_EQ(walker.payload, kWalker);
      ASSERT_EQ(walker.at_ms, at);
      q.Push(kT, next++);
    }
  }
  std::vector<int> order;
  order.push_back(q.PopMin().payload);
  q.Push(kT, next++);  // Due now: behind everything else due at kT.
  while (!q.empty()) {
    auto entry = q.PopMin();
    EXPECT_EQ(entry.at_ms, kT);
    order.push_back(entry.payload);
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(next));
  for (int i = 0; i < next; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

// Golden digests of StormReportToJson plus the storm journal JSON for the two
// storm labs, pinned from the binary-heap event queue: any change to the
// queue's pop order, or to the simulator, shows up here.
uint64_t StormDigest(const std::string& name, const StormOptions& options) {
  CorpusApp app = BuildCorpusApp(name);
  std::vector<EdgeRetryProfile> profiles = ExtractRetryProfiles(app.program, *app.index);
  RetryJournal journal;
  StormReport report = RunStormSim(app.name, profiles, options, &journal);
  return mj::Fnv1a64(journal.ToJson(app.name), mj::Fnv1a64(StormReportToJson(report)));
}

TEST(StormGoldenTest, LabReportsAndJournalsMatchPinnedDigests) {
  StormOptions long_run;
  long_run.duration_ms = 600'000;
  long_run.seed = 7;
  struct Golden {
    const char* app;
    StormOptions options;
    uint64_t digest;
  };
  const Golden goldens[] = {
      {"repairlab", StormOptions{}, 0x7849d70d903d7555ull},
      {"stormlab", StormOptions{}, 0xb85b062e99816175ull},
      {"repairlab", long_run, 0xe733b80c997601d7ull},
      {"stormlab", long_run, 0xe52d6b4c6fb7240full},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(StormDigest(golden.app, golden.options), golden.digest)
        << golden.app << " duration_ms=" << golden.options.duration_ms
        << " seed=" << golden.options.seed;
  }
}

// --- Engine tests over synthetic profiles --------------------------------

EdgeRetryProfile HealthyProfile(const std::string& name) {
  EdgeRetryProfile p;
  p.service = name;
  p.coordinator = name + ".handle";
  p.file = "src/" + name + ".mj";
  p.bounded = true;
  p.attempts = 3;
  p.backoff_ms = {40, 80};
  p.jittered = true;
  p.retries_on_overload = false;
  p.fanout = 1;
  return p;
}

EdgeRetryProfile NoJitterProfile(const std::string& name) {
  EdgeRetryProfile p = HealthyProfile(name);
  p.attempts = 5;
  p.backoff_ms = {100, 100, 100, 100};
  p.jittered = false;
  return p;
}

EdgeRetryProfile FanoutProfile(const std::string& name) {
  EdgeRetryProfile p = HealthyProfile(name);
  p.bounded = false;
  p.attempts = 64;
  p.backoff_ms = {30};
  p.fanout = 3;
  return p;
}

EdgeRetryProfile OverloadProfile(const std::string& name) {
  EdgeRetryProfile p = HealthyProfile(name);
  p.bounded = false;
  p.attempts = 64;
  p.backoff_ms = {20};
  p.retries_on_overload = true;
  p.overload_backoff_ms = 10;
  return p;
}

TEST(StormSimTest, HealthyEdgeRecoversWithNoBugsAndAClosedBreaker) {
  RetryJournal journal;
  StormOptions options;
  StormReport report = RunStormSim("synthetic", {HealthyProfile("Gateway")}, options, &journal);

  EXPECT_TRUE(report.bugs.empty());
  EXPECT_FALSE(report.metastable);
  ASSERT_EQ(report.edges.size(), 1u);
  const StormEdgeStats& edge = report.edges[0];
  EXPECT_FALSE(edge.metastable);
  EXPECT_GT(edge.succeeded, 0);
  EXPECT_GT(edge.gave_up, 0) << "bounded policy gives up during the fault";
  EXPECT_GT(edge.shed_by_breaker, 0) << "breaker opens under persistent failure";
  // The system drains and the edge succeeds again once the fault clears.
  EXPECT_GE(report.time_to_recover_ms, 0);
  EXPECT_GE(edge.time_to_recover_ms, 0);

  // The breaker's whole arc is journaled on the edge stream: open under the
  // fault, half-open probe after cooldown, closed once a probe succeeds.
  std::set<JournalEventKind> edge_kinds;
  for (const JournalEvent& event : journal.Collect()) {
    if (event.stream == JournalStream::kStorm && event.run_id == 1) {
      edge_kinds.insert(event.kind);
    }
  }
  EXPECT_TRUE(edge_kinds.count(JournalEventKind::kBreakerOpen));
  EXPECT_TRUE(edge_kinds.count(JournalEventKind::kBreakerHalfOpen));
  EXPECT_TRUE(edge_kinds.count(JournalEventKind::kBreakerClose));
}

TEST(StormSimTest, FixedBackoffEdgeTripsTheMissingJitterOracle) {
  StormOptions options;
  StormReport report = RunStormSim("synthetic", {NoJitterProfile("Relay")}, options, nullptr);
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].type, BugType::kStormMissingJitter);
  EXPECT_EQ(report.bugs[0].coordinator, "Relay.handle");
  EXPECT_GE(report.edges[0].wave_peak, 3)
      << "a whole burst failing at once must retry as one wave";
}

TEST(StormSimTest, UnboundedFanoutEdgeTripsTheAmplificationOracle) {
  StormOptions options;
  StormReport report = RunStormSim("synthetic", {FanoutProfile("Mirror")}, options, nullptr);
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].type, BugType::kStormUnboundedFanout);
  EXPECT_EQ(report.bugs[0].coordinator, "Mirror.handle");
  EXPECT_GE(report.edges[0].amplification_x1000, 3000);
}

TEST(StormSimTest, RetryOnOverloadEdgeGoesMetastable) {
  StormOptions options;
  StormReport report = RunStormSim("synthetic", {OverloadProfile("Pump")}, options, nullptr);
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].type, BugType::kStormRetryOnOverload);
  EXPECT_EQ(report.bugs[0].coordinator, "Pump.handle");
  EXPECT_TRUE(report.metastable) << "offered load must still exceed capacity at the end";
  EXPECT_TRUE(report.edges[0].metastable);
  EXPECT_GT(report.backend_overload_rejections, 0);
  EXPECT_GT(report.backend_reject_work_ms, 0)
      << "rejections must burn server time or the storm would drain";
}

TEST(StormSimTest, ReportAndJournalAreDeterministicAcrossRepeatedRuns) {
  std::vector<EdgeRetryProfile> profiles = {
      HealthyProfile("Gateway"), NoJitterProfile("Relay"), FanoutProfile("Mirror"),
      OverloadProfile("Pump")};
  StormOptions options;
  options.seed = 77;
  RetryJournal journal_a;
  RetryJournal journal_b;
  StormReport a = RunStormSim("synthetic", profiles, options, &journal_a);
  StormReport b = RunStormSim("synthetic", profiles, options, &journal_b);
  EXPECT_EQ(StormReportToJson(a), StormReportToJson(b));
  EXPECT_EQ(journal_a.ToJson("synthetic"), journal_b.ToJson("synthetic"));
}

TEST(StormSimTest, SamplesCoverTheTimelineForEveryEdge) {
  RetryJournal journal;
  StormOptions options;
  StormReport report =
      RunStormSim("synthetic", {HealthyProfile("A"), NoJitterProfile("B")}, options, &journal);
  ASSERT_FALSE(report.samples.empty());
  EXPECT_EQ(report.samples.front().t_ms, 0);
  EXPECT_GE(report.samples.back().t_ms,
            report.options.duration_ms - report.options.sample_interval_ms);
  for (const StormSample& sample : report.samples) {
    EXPECT_EQ(sample.edge_inflight.size(), 2u);
  }
  // The backend timeline (run 0) carries the fault markers and depth samples.
  int64_t fault_begin = -1;
  int64_t fault_end = -1;
  size_t depth_samples = 0;
  for (const JournalEvent& event : journal.Collect()) {
    if (event.stream != JournalStream::kStorm || event.run_id != 0) {
      continue;
    }
    if (event.kind == JournalEventKind::kFaultBegin) {
      fault_begin = event.t_ms;
    } else if (event.kind == JournalEventKind::kFaultEnd) {
      fault_end = event.t_ms;
    } else if (event.kind == JournalEventKind::kQueueDepth) {
      depth_samples++;
    }
  }
  EXPECT_EQ(fault_begin, report.options.fault_start_ms);
  EXPECT_EQ(fault_end, report.options.fault_end_ms);
  EXPECT_EQ(depth_samples, report.samples.size());
}

TEST(StormSimTest, DegenerateOptionsAreNormalizedAndTerminate) {
  StormOptions options;
  options.duration_ms = -5;
  options.arrival_interval_ms = 0;
  options.burst = -3;
  options.service_ms = 0;
  options.latency_ms = -1;
  options.queue_limit = 0;
  options.reject_cost_ms = -10;
  options.request_timeout_ms = 0;
  options.fault_start_ms = 900;   // Past the (clamped) duration.
  options.fault_end_ms = 100;     // Inverted window.
  options.sample_interval_ms = 0;
  options.recovery_window_ms = -1;
  StormReport report = RunStormSim("synthetic", {HealthyProfile("G")}, options, nullptr);
  EXPECT_EQ(report.options.duration_ms, 1);
  EXPECT_EQ(report.options.burst, 1);
  EXPECT_EQ(report.options.reject_cost_ms, 0);
  EXPECT_GE(report.options.fault_end_ms, report.options.fault_start_ms);
  EXPECT_LE(report.options.fault_end_ms, report.options.duration_ms);
  EXPECT_TRUE(report.bugs.empty());
}

TEST(StormSimTest, NoProfilesYieldsAnEmptyWellFormedReport) {
  StormOptions options;
  StormReport report = RunStormSim("synthetic", {}, options, nullptr);
  EXPECT_TRUE(report.edges.empty());
  EXPECT_TRUE(report.bugs.empty());
  EXPECT_EQ(report.total_requests, 0);
  EXPECT_FALSE(report.metastable);
  std::string json = StormReportToJson(report);
  EXPECT_NE(json.find("\"wasabi-storm-v1\""), std::string::npos);
}

}  // namespace
}  // namespace wasabi
