// A step-by-step fault-injection campaign on one corpus application, showing
// every stage of the paper's dynamic workflow: identification, test-suite
// preparation (config restoration), coverage discovery, planning, injection,
// and oracle classification — including an execution-log excerpt for one
// injected run.
//
//   $ ./build/examples/fault_injection_campaign [app]      (default: hdfs)

#include <iostream>
#include <string>

#include "src/analysis/retry_finder.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/exec/campaign.h"
#include "src/exec/task_pool.h"
#include "src/inject/injector.h"
#include "src/testing/config_restore.h"
#include "src/testing/coverage.h"
#include "src/testing/oracles.h"
#include "src/testing/runner.h"

int main(int argc, char** argv) {
  using namespace wasabi;
  std::string app_name = argc > 1 ? argv[1] : "hdfs";
  CorpusApp app = BuildCorpusApp(app_name);
  std::cout << "== Fault-injection campaign against " << app.display_name << " ==\n";

  // Stage 1: identify retry locations (here: the CodeQL-style loop query; the
  // full pipeline also merges LLM-identified coordinators).
  RetryFinder finder(app.program, *app.index);
  std::vector<RetryLocation> locations;
  for (RetryStructure& structure : finder.FindLoopStructures()) {
    for (RetryLocation& location : structure.locations) {
      locations.push_back(location);
    }
  }
  std::cout << "\n[1] " << locations.size() << " injectable retry locations, e.g.:\n";
  for (size_t i = 0; i < locations.size() && i < 3; ++i) {
    std::cout << "    " << locations[i].Key() << "\n";
  }

  // Stage 2: test preparation — restore developer-restricted retry configs.
  ConfigRestorationResult restoration = ScanTestsForRetryRestrictions(app.program);
  std::cout << "\n[2] config restoration: " << restoration.restrictions.size()
            << " restricted retry settings neutralized";
  for (const RetryConfigRestriction& r : restoration.restrictions) {
    std::cout << "\n    " << r.test_class << "." << r.test_method << " set " << r.key << "="
              << r.restricted_value;
  }
  std::cout << "\n";

  RunnerOptions runner_options;
  runner_options.config_overrides = app.default_configs;
  runner_options.frozen_keys = restoration.keys_to_freeze;
  TestRunner runner(app.program, *app.index, runner_options);
  std::vector<TestCase> tests = runner.DiscoverTests();

  // Stage 3: coverage discovery (one clean run of the whole suite).
  TaskPool pool(1);
  CoverageMap coverage =
      MapCoverageRobust(runner, tests, locations, pool, RobustnessOptions{}).coverage;
  std::cout << "\n[3] coverage: " << coverage.size() << " of " << tests.size()
            << " unit tests reach at least one retry location\n";

  // Stage 4: planning.
  std::vector<PlanEntry> plan = PlanInjections(coverage, locations.size());
  std::cout << "\n[4] plan: " << plan.size() << " {test, location} pairs (naive plan: "
            << NaivePlan(coverage).size() << ")\n";

  // Stage 5: injected runs, two K settings each, classified by the oracles.
  std::cout << "\n[5] injected runs:\n";
  int shown_log = 0;
  for (const PlanEntry& entry : plan) {
    const RetryLocation& location = locations[entry.location_index];
    for (int k : {kInjectOnce, kInjectRepeatedly}) {
      FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                             location.exception_name, k}});
      TestRunRecord record = runner.RunTest(TestCase{entry.test}, {&injector});
      std::vector<OracleReport> reports = EvaluateOracles(record, location);
      if (reports.empty()) {
        continue;
      }
      for (const OracleReport& report : reports) {
        std::cout << "    " << OracleKindName(report.kind) << " @ " << location.coordinator
                  << " (K=" << k << "): " << report.detail << "\n";
      }
      if (shown_log == 0) {
        std::cout << "    --- execution log excerpt ---\n";
        std::string dump = record.log.Dump();
        size_t pos = 0;
        for (int line = 0; line < 6 && pos < dump.size(); ++line) {
          size_t next = dump.find('\n', pos);
          if (next == std::string::npos) {
            next = dump.size();
          }
          std::cout << "      " << dump.substr(pos, next - pos) << "\n";
          pos = next + 1;
        }
        std::cout << "    -----------------------------\n";
        ++shown_log;
      }
    }
  }
  return 0;
}
