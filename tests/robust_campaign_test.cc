// Fault-containment tests for the campaign executor: every run completes with
// all resilience counters at zero when nothing fails, recovery of transient
// chaos faults, exact quarantine of persistent ones, circuit-breaker
// short-circuiting, fail-fast / quarantine-quota admission control, and — the
// core contract — byte-identical outcomes for any worker count even while the
// chaos harness is killing runs.

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/campaign.h"
#include "src/exec/task_pool.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// Two well-behaved retry structures (capped, slept) so every run completes
// when the infrastructure doesn't fail; host failures come only from chaos.
constexpr const char* kSource = R"(
class Fetcher {
  String fetch() {
    for (var retry = 0; retry < 4; retry++) {
      try {
        return this.pull();
      } catch (IOException e) {
        Log.warn("fetch retry");
        Thread.sleep(5);
      }
    }
    return "fetch-gave-up";
  }
  String pull() throws IOException { return "data"; }
}
class Sender {
  String send() {
    for (var retry = 0; retry < 6; retry++) {
      try {
        return this.push();
      } catch (TimeoutException e) {
        Log.warn("send retry");
        Thread.sleep(9);
      }
    }
    return "send-gave-up";
  }
  String push() throws TimeoutException { return "ok"; }
}
class RobustTest {
  void testFetch() {
    var f = new Fetcher();
    f.fetch();
  }
  void testSend() {
    var s = new Sender();
    s.send();
  }
  void testBoth() {
    var f = new Fetcher();
    var s = new Sender();
    f.fetch();
    s.send();
  }
}
)";

class RobustCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("robust.mj", kSource, diag));
    ASSERT_FALSE(diag.has_errors());
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    runner_ = std::make_unique<TestRunner>(program_, *index_);

    RetryLocation fetch;
    fetch.coordinator = "Fetcher.fetch";
    fetch.retried_method = "Fetcher.pull";
    fetch.exception_name = "IOException";
    fetch.file = "robust.mj";
    RetryLocation send;
    send.coordinator = "Sender.send";
    send.retried_method = "Sender.push";
    send.exception_name = "TimeoutException";
    send.file = "robust.mj";
    locations_ = {fetch, send};

    std::vector<PlanEntry> plan;
    for (const char* test :
         {"RobustTest.testFetch", "RobustTest.testSend", "RobustTest.testBoth"}) {
      plan.push_back(PlanEntry{test, 0});
      plan.push_back(PlanEntry{test, 1});
    }
    specs_ = ExpandPlan(plan, locations_, {kInjectOnce, kInjectRepeatedly});
    ASSERT_EQ(specs_.size(), 12u);
  }

  // Five runs hammering ONE location: the shape the breaker / fail-fast /
  // quota admission tests need (serial id-ordered reduce makes the exact
  // decision sequence predictable).
  std::vector<CampaignRunSpec> SingleLocationSpecs(size_t count) const {
    std::vector<CampaignRunSpec> specs;
    for (size_t i = 0; i < count; ++i) {
      CampaignRunSpec spec;
      spec.id = i;
      spec.test = TestCase{"RobustTest.testFetch"};
      spec.location_index = 0;
      spec.k = kInjectOnce;
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  // Everything the robust executor decides, flattened for byte comparison.
  static std::string Fingerprint(const CampaignOutcome& outcome) {
    std::ostringstream out;
    out << "results=" << outcome.results.size() << "\n";
    for (const CampaignRunResult& run : outcome.results) {
      out << run.id << "|" << run.location_index << "|" << run.k << "|"
          << run.record.log.Dump() << "\n";
    }
    out << "quarantined=" << outcome.quarantined.size() << "\n";
    for (const RunFailure& failure : outcome.quarantined) {
      out << failure.run_id << "|" << failure.test << "|" << failure.location << "|"
          << RunFailureKindName(failure.kind) << "|" << failure.detail << "|"
          << failure.attempts << "|" << failure.chaos << "\n";
    }
    const RobustnessStats& stats = outcome.robustness;
    out << "stats=" << stats.retries << "," << stats.recovered << "," << stats.quarantined
        << "," << stats.chaos_faults << "," << stats.breaker_open << ","
        << stats.fail_fast_skipped << "," << stats.backoff_virtual_ms << ","
        << stats.aborted << "\n";
    for (const std::string& key : stats.open_locations) {
      out << "open=" << key << "\n";
    }
    return out.str();
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<TestRunner> runner_;
  std::vector<RetryLocation> locations_;
  std::vector<CampaignRunSpec> specs_;
};

TEST_F(RobustCampaignTest, DefaultOptionsCompleteEveryRunIdenticallyAtAnyWorkerCount) {
  TaskPool serial(1);
  const CampaignOutcome reference =
      ExecuteCampaignRobust(*runner_, locations_, specs_, serial, RobustnessOptions{});
  ASSERT_EQ(reference.results.size(), specs_.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].id, specs_[i].id);
  }
  EXPECT_TRUE(reference.quarantined.empty());
  const RobustnessStats& stats = reference.robustness;
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.recovered, 0);
  EXPECT_EQ(stats.quarantined, 0);
  EXPECT_EQ(stats.chaos_faults, 0);
  EXPECT_EQ(stats.breaker_open, 0);
  EXPECT_EQ(stats.fail_fast_skipped, 0);
  EXPECT_EQ(stats.backoff_virtual_ms, 0);
  EXPECT_FALSE(stats.aborted);
  EXPECT_TRUE(stats.open_locations.empty());

  TaskPool pool(4);
  EXPECT_EQ(Fingerprint(ExecuteCampaignRobust(*runner_, locations_, specs_, pool,
                                              RobustnessOptions{})),
            Fingerprint(reference));
}

TEST_F(RobustCampaignTest, TransientChaosIsRecoveredOrQuarantinedExactlyAsDrawn) {
  RobustnessOptions options;
  options.breaker_threshold = 0;  // Isolate the retry path from the breaker.
  options.retry.max_attempts = 4;
  options.chaos.enabled = true;
  options.chaos.seed = 7;
  options.chaos.rate = 0.5;
  options.chaos.transient = true;

  // The chaos draw is a pure function, so the test can compute the exact
  // expected outcome per run id: the first non-faulting attempt, or
  // quarantine when all attempts fault.
  std::set<uint64_t> expect_quarantined;
  int64_t expect_faults = 0;
  int64_t expect_recovered = 0;
  for (const CampaignRunSpec& spec : specs_) {
    int first_success = 0;
    for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
      if (!ChaosShouldFault(options.chaos, spec.id, attempt)) {
        first_success = attempt;
        break;
      }
      ++expect_faults;
    }
    if (first_success == 0) {
      expect_quarantined.insert(spec.id);
    } else if (first_success > 1) {
      ++expect_recovered;
    }
  }
  ASSERT_GT(expect_faults, 0) << "seed must actually fault something";

  TaskPool reference_pool(1);
  const CampaignOutcome reference =
      ExecuteCampaignRobust(*runner_, locations_, specs_, reference_pool, RobustnessOptions{});
  ASSERT_EQ(reference.results.size(), specs_.size());

  TaskPool pool(4);
  CampaignOutcome outcome = ExecuteCampaignRobust(*runner_, locations_, specs_, pool, options);

  std::set<uint64_t> quarantined_ids;
  for (const RunFailure& failure : outcome.quarantined) {
    quarantined_ids.insert(failure.run_id);
    EXPECT_EQ(failure.kind, RunFailureKind::kChaos);
    EXPECT_TRUE(failure.chaos);
    EXPECT_EQ(failure.attempts, options.retry.max_attempts);
  }
  EXPECT_EQ(quarantined_ids, expect_quarantined);
  EXPECT_EQ(outcome.robustness.chaos_faults, expect_faults);
  EXPECT_EQ(outcome.robustness.recovered, expect_recovered);
  // Every fault either schedules a retry or quarantines the run.
  EXPECT_EQ(outcome.robustness.retries,
            expect_faults - static_cast<int64_t>(expect_quarantined.size()));

  // Containment: the surviving runs are byte-identical to the fault-free
  // campaign — chaos may delay a run, never change its execution.
  ASSERT_EQ(outcome.results.size(), specs_.size() - expect_quarantined.size());
  for (const CampaignRunResult& run : outcome.results) {
    EXPECT_EQ(run.record.log.Dump(), reference.results[run.id].record.log.Dump())
        << "run " << run.id;
  }
}

TEST_F(RobustCampaignTest, OutcomeIsByteIdenticalAcrossWorkerCounts) {
  RobustnessOptions options;
  options.breaker_threshold = 0;
  options.retry.max_attempts = 3;
  options.chaos.enabled = true;
  options.chaos.seed = 5;
  options.chaos.rate = 0.5;
  options.chaos.transient = true;
  options.chaos.budget_fraction = 0.4;  // Mix host faults and budget aborts.

  TaskPool serial(1);
  const std::string reference =
      Fingerprint(ExecuteCampaignRobust(*runner_, locations_, specs_, serial, options));
  for (int workers : {2, 4, 8}) {
    TaskPool pool(workers);
    EXPECT_EQ(Fingerprint(ExecuteCampaignRobust(*runner_, locations_, specs_, pool, options)),
              reference)
        << workers << " workers";
  }
}

TEST_F(RobustCampaignTest, PersistentChaosQuarantinesExactlyTheFaultedIdentities) {
  RobustnessOptions options;
  options.breaker_threshold = 0;
  options.retry.max_attempts = 3;
  options.chaos.enabled = true;
  options.chaos.seed = 3;
  options.chaos.rate = 0.5;
  options.chaos.transient = false;  // Retry cannot save a faulted identity.

  std::set<uint64_t> expect_quarantined;
  for (const CampaignRunSpec& spec : specs_) {
    if (ChaosShouldFault(options.chaos, spec.id, 1)) {
      expect_quarantined.insert(spec.id);
    }
  }
  ASSERT_FALSE(expect_quarantined.empty()) << "seed must fault some identity";
  ASSERT_LT(expect_quarantined.size(), specs_.size()) << "seed must spare some identity";

  TaskPool pool(4);
  CampaignOutcome outcome = ExecuteCampaignRobust(*runner_, locations_, specs_, pool, options);

  std::set<uint64_t> quarantined_ids;
  for (const RunFailure& failure : outcome.quarantined) {
    quarantined_ids.insert(failure.run_id);
    // A persistent fault burns the full attempt budget before quarantine.
    EXPECT_EQ(failure.attempts, options.retry.max_attempts);
  }
  EXPECT_EQ(quarantined_ids, expect_quarantined);
  EXPECT_EQ(outcome.results.size(), specs_.size() - expect_quarantined.size());
  EXPECT_EQ(outcome.robustness.recovered, 0);
}

TEST_F(RobustCampaignTest, BreakerOpensAndShortCircuitsRetries) {
  std::vector<CampaignRunSpec> specs = SingleLocationSpecs(5);
  RobustnessOptions options;
  options.breaker_threshold = 3;
  options.retry.max_attempts = 3;
  options.chaos.enabled = true;
  options.chaos.rate = 1.0;  // Every attempt faults.

  TaskPool pool(4);
  CampaignOutcome outcome = ExecuteCampaignRobust(*runner_, locations_, specs, pool, options);

  // Wave 1 reduce, id order: runs 0 and 1 are scheduled for retry before the
  // third consecutive failure (run 2) opens the circuit; runs 2-4 quarantine
  // with their own chaos failure; wave 2 then skips runs 0 and 1 at admission.
  EXPECT_TRUE(outcome.results.empty());
  ASSERT_EQ(outcome.quarantined.size(), 5u);
  const std::string key = locations_[0].Key();
  for (const RunFailure& failure : outcome.quarantined) {
    if (failure.run_id <= 1) {
      EXPECT_EQ(failure.detail, "skipped: circuit open for " + key) << failure.run_id;
      EXPECT_FALSE(failure.chaos);
    } else {
      EXPECT_EQ(failure.kind, RunFailureKind::kChaos) << failure.run_id;
      EXPECT_TRUE(failure.chaos);
    }
  }
  EXPECT_EQ(outcome.robustness.retries, 2);
  EXPECT_EQ(outcome.robustness.chaos_faults, 5);
  EXPECT_EQ(outcome.robustness.breaker_open, 2);
  EXPECT_EQ(outcome.robustness.open_locations, (std::vector<std::string>{key}));
}

TEST_F(RobustCampaignTest, FailFastSkipsPendingRunsAfterFirstQuarantine) {
  std::vector<CampaignRunSpec> specs = SingleLocationSpecs(5);
  RobustnessOptions options;
  options.breaker_threshold = 3;
  options.retry.max_attempts = 3;
  options.fail_fast = true;
  options.chaos.enabled = true;
  options.chaos.rate = 1.0;

  TaskPool pool(2);
  CampaignOutcome outcome = ExecuteCampaignRobust(*runner_, locations_, specs, pool, options);

  ASSERT_EQ(outcome.quarantined.size(), 5u);
  // Runs 0 and 1 survive wave 1 as retries; with quarantines on the books,
  // fail-fast skips them at wave-2 admission (before the breaker check).
  for (const RunFailure& failure : outcome.quarantined) {
    if (failure.run_id <= 1) {
      EXPECT_EQ(failure.detail, "skipped: fail-fast after earlier quarantine")
          << failure.run_id;
    }
  }
  EXPECT_EQ(outcome.robustness.fail_fast_skipped, 2);
  EXPECT_EQ(outcome.robustness.breaker_open, 0);
  EXPECT_FALSE(outcome.robustness.aborted);
}

TEST_F(RobustCampaignTest, QuarantineQuotaAbortsTheCampaign) {
  std::vector<CampaignRunSpec> specs = SingleLocationSpecs(5);
  RobustnessOptions options;
  options.breaker_threshold = 3;
  options.retry.max_attempts = 3;
  options.max_quarantined = 1;
  options.chaos.enabled = true;
  options.chaos.rate = 1.0;

  TaskPool pool(2);
  CampaignOutcome outcome = ExecuteCampaignRobust(*runner_, locations_, specs, pool, options);

  ASSERT_EQ(outcome.quarantined.size(), 5u);
  for (const RunFailure& failure : outcome.quarantined) {
    if (failure.run_id <= 1) {
      EXPECT_EQ(failure.detail, "skipped: quarantine limit reached") << failure.run_id;
    }
  }
  EXPECT_TRUE(outcome.robustness.aborted);
}

TEST_F(RobustCampaignTest, CoverageParityAndFullRateQuarantine) {
  std::vector<TestCase> tests = runner_->DiscoverTests();
  ASSERT_EQ(tests.size(), 3u);

  // Reference: a plain serial loop, one fresh recorder per test, no pool and
  // no arena — built here so it shares nothing with the executor under test.
  CoverageMap reference;
  for (const TestCase& test : tests) {
    CoverageRecorder recorder(&locations_);
    runner_->RunTest(test, {&recorder});
    if (!recorder.hits().empty()) {
      reference[test.qualified_name] = recorder.hits();
    }
  }
  ASSERT_FALSE(reference.empty());

  // Fault-free pass at 4 workers: exactly the serial map, nothing quarantined.
  TaskPool pool(4);
  CoverageOutcome clean =
      MapCoverageRobust(*runner_, tests, locations_, pool, RobustnessOptions{});
  EXPECT_EQ(clean.coverage, reference);
  EXPECT_TRUE(clean.quarantined.empty());

  // Full-rate chaos: every test quarantined under its own index, coverage
  // empty — the pass degrades instead of dying.
  RobustnessOptions chaotic;
  chaotic.retry.max_attempts = 2;
  chaotic.chaos.enabled = true;
  chaotic.chaos.rate = 1.0;
  for (int workers : {1, 4}) {
    TaskPool chaos_pool(workers);
    CoverageOutcome outcome =
        MapCoverageRobust(*runner_, tests, locations_, chaos_pool, chaotic);
    EXPECT_TRUE(outcome.coverage.empty()) << workers << " workers";
    ASSERT_EQ(outcome.quarantined.size(), tests.size()) << workers << " workers";
    for (size_t i = 0; i < outcome.quarantined.size(); ++i) {
      EXPECT_EQ(outcome.quarantined[i].run_id, i);
      EXPECT_EQ(outcome.quarantined[i].test, tests[i].qualified_name);
      EXPECT_EQ(outcome.quarantined[i].location, "<coverage>");
      EXPECT_EQ(outcome.quarantined[i].attempts, chaotic.retry.max_attempts);
    }
    EXPECT_EQ(outcome.robustness.recovered, 0);
  }
}

}  // namespace
}  // namespace wasabi
