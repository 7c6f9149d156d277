// Regression tests for execution-log isolation under the parallel campaign
// executor. Every run owns its log (one Interpreter, one ExecutionLog); the
// executor must never let records from concurrent runs interleave. The tests
// drive real injected runs through ExecuteCampaignRobust on a multi-worker
// pool, many times, and check that
//
//   1. each result's log references ONLY that run's own injection point —
//      a foreign callee/caller/exception in any record means logs bled
//      between workers;
//   2. every parallel run's log dump is byte-identical to the same spec run
//      by a plain serial TestRunner::RunTest loop with no pool and no arena —
//      interleaving or lost records cannot hide.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/campaign.h"
#include "src/exec/task_pool.h"
#include "src/inject/injector.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// Two independent retry structures with distinct coordinators, callees, and
// trigger exceptions, so cross-run contamination is detectable per field.
// Both loops sleep and log, producing multi-entry logs worth diffing.
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
class IsolationTest {
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

class ExecLogIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("isolation.mj", kSource, diag));
    ASSERT_FALSE(diag.has_errors());
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    runner_ = std::make_unique<TestRunner>(program_, *index_);

    RetryLocation fetch;
    fetch.coordinator = "Fetcher.fetch";
    fetch.retried_method = "Fetcher.pull";
    fetch.exception_name = "IOException";
    fetch.file = "isolation.mj";
    RetryLocation send;
    send.coordinator = "Sender.send";
    send.retried_method = "Sender.push";
    send.exception_name = "TimeoutException";
    send.file = "isolation.mj";
    locations_ = {fetch, send};

    // Every test against every location at both K settings: 3 x 2 x 2 = 12
    // runs per campaign, enough to keep 4 workers genuinely concurrent.
    std::vector<PlanEntry> plan;
    for (const char* test : {"IsolationTest.testFetch", "IsolationTest.testSend",
                             "IsolationTest.testBoth"}) {
      plan.push_back(PlanEntry{test, 0});
      plan.push_back(PlanEntry{test, 1});
    }
    specs_ = ExpandPlan(plan, locations_, {kInjectOnce, kInjectRepeatedly});
    ASSERT_EQ(specs_.size(), 12u);
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<TestRunner> runner_;
  std::vector<RetryLocation> locations_;
  std::vector<CampaignRunSpec> specs_;
};

TEST_F(ExecLogIsolationTest, ConcurrentRunsNeverInterleaveLogRecords) {
  // Reference: each spec run serially with a fresh interpreter and injector.
  std::vector<std::string> reference;
  for (const CampaignRunSpec& spec : specs_) {
    const RetryLocation& location = locations_[spec.location_index];
    FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                           location.exception_name, spec.k}});
    reference.push_back(runner_->RunTest(spec.test, {&injector}).log.Dump());
  }

  TaskPool pool(4);
  // Repeat to give the scheduler chances to interleave badly.
  for (int round = 0; round < 8; ++round) {
    CampaignOutcome outcome =
        ExecuteCampaignRobust(*runner_, locations_, specs_, pool, RobustnessOptions{});
    ASSERT_TRUE(outcome.quarantined.empty());
    const std::vector<CampaignRunResult>& results = outcome.results;
    ASSERT_EQ(results.size(), specs_.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const CampaignRunResult& run = results[i];
      EXPECT_EQ(run.id, specs_[i].id);
      const RetryLocation& own = locations_[run.location_index];

      // Runs whose test actually reaches the injected location must log the
      // injections; mismatched pairs legitimately log nothing.
      const bool covered = run.record.test.qualified_name == "IsolationTest.testBoth" ||
                           (run.location_index == 0 &&
                            run.record.test.qualified_name == "IsolationTest.testFetch") ||
                           (run.location_index == 1 &&
                            run.record.test.qualified_name == "IsolationTest.testSend");
      if (covered) {
        EXPECT_GT(run.record.log.size(), 0u) << "run " << run.id;
      }

      // (1) Log purity: every injection record names this run's own point.
      for (const LogEntry& entry : run.record.log.entries()) {
        if (entry.kind != LogEntryKind::kInjection) {
          continue;
        }
        EXPECT_EQ(entry.injection_callee, own.retried_method) << "run " << run.id;
        EXPECT_EQ(entry.injection_caller, own.coordinator) << "run " << run.id;
        EXPECT_EQ(entry.injection_exception, own.exception_name) << "run " << run.id;
      }

      // (2) Byte-identical to the serial run of the same spec.
      EXPECT_EQ(run.record.log.Dump(), reference[i])
          << "run " << run.id << " round " << round;
    }
  }
}

}  // namespace
}  // namespace wasabi
