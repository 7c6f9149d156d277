// Golden-equivalence suite for the interpreter hot-path overhaul
// (docs/PERFORMANCE.md): the resolution pass, slot frames, dispatch cache and
// per-worker run reuse are pure performance work, so the observable output of
// the dynamic workflow must not move by a single byte. This suite pins that
// contract against goldens captured from the pre-overhaul interpreter:
//
//   - the full dynamic workflow (report JSON, raw oracle firings, coverage,
//     counters) on all 8 corpus apps at 1/2/4/8 workers,
//   - the same workflow under `--chaos 42:0.1` self-chaos (quarantine set,
//     robustness counters, degraded report),
//   - the per-run execution logs of every clean test run and every injected
//     campaign run, byte for byte (text, virtual timestamps, call stacks,
//     injection annotations, step/loop counters).
//
// Goldens live in tests/goldens/<app>.golden as `key value` lines; values are
// FNV-1a-64 content hashes plus the hashed byte count (so a mismatch at least
// localizes to a section and says whether content grew or shrank). Regenerate
// with: WASABI_UPDATE_GOLDENS=1 ./golden_equivalence_test  — but only ever
// from a build whose behavior is already trusted.

#include <unistd.h>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/exec/campaign.h"
#include "src/testing/config_restore.h"
#include "src/testing/coverage.h"

#ifndef WASABI_GOLDENS_DIR
#define WASABI_GOLDENS_DIR "tests/goldens"
#endif

namespace wasabi {
namespace {

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// "fnv=<hex> bytes=<n>": enough to compare, enough to debug a mismatch.
std::string Digest(std::string_view text) {
  std::ostringstream out;
  out << "fnv=" << std::hex << Fnv1a64(text) << std::dec << " bytes=" << text.size();
  return out.str();
}

// Everything the dynamic workflow reports, flattened (the exec_determinism
// fingerprint plus the robustness-layer outputs).
std::string WorkflowFingerprint(const DynamicResult& result) {
  std::ostringstream out;
  out << "bugs=" << BugReportsToJson(result.bugs);
  out << "\nraw_reports=" << result.raw_reports.size() << "\n";
  for (const OracleReport& report : result.raw_reports) {
    out << OracleKindName(report.kind) << "|" << report.test << "|"
        << report.location.retried_method << "|" << report.group_key << "|" << report.detail
        << "\n";
  }
  out << "coverage=\n";
  for (const auto& [test, hits] : result.coverage) {
    out << test << ":";
    for (size_t hit : hits) {
      out << " " << hit;
    }
    out << "\n";
  }
  out << "locations=" << result.locations.size() << " total_tests=" << result.total_tests
      << " covering=" << result.tests_covering_retry << " planned=" << result.planned_runs
      << " naive=" << result.naive_runs << " structures=" << result.structures_identified
      << "/" << result.structures_covered << " restored=" << result.config_restrictions_restored
      << "\n";
  out << "degraded=" << result.degraded << " quarantined=" << result.quarantined.size() << "\n";
  for (const RunFailure& failure : result.quarantined) {
    out << failure.run_id << "|" << failure.test << "|" << failure.location << "|"
        << RunFailureKindName(failure.kind) << "|" << failure.attempts << "\n";
  }
  out << "robust retries=" << result.robustness.retries
      << " recovered=" << result.robustness.recovered
      << " quarantined=" << result.robustness.quarantined
      << " chaos=" << result.robustness.chaos_faults
      << " breaker=" << result.robustness.breaker_open
      << " backoff=" << result.robustness.backoff_virtual_ms << "\n";
  return out.str();
}

// One run's full observable record: outcome, counters, and the execution log
// rendered byte for byte.
void AppendRunRecord(std::ostringstream& out, const TestRunRecord& record) {
  out << record.test.qualified_name << "|" << TestStatusName(record.outcome.status) << "|"
      << record.outcome.exception_class << "|" << record.outcome.exception_message << "|"
      << record.outcome.abort_reason << "|vt=" << record.virtual_duration_ms
      << "|steps=" << record.steps << "|loops=" << record.loop_iterations << "\n";
  for (const std::string& frame : record.outcome.crash_stack) {
    out << "  crash@" << frame << "\n";
  }
  for (const std::string& cause : record.outcome.cause_chain) {
    out << "  cause:" << cause << "\n";
  }
  for (int count : record.injection_counts) {
    out << "  injections:" << count << "\n";
  }
  out << record.log.Dump() << "\n";
}

using GoldenMap = std::map<std::string, std::string>;

// Computes every golden section for one corpus app under the given engine.
// The committed goldens were captured from the tree-walking interpreter; the
// bytecode VM (docs/PERFORMANCE.md) must reproduce every section byte for
// byte, so both engines compute against the same files.
GoldenMap ComputeGoldens(const std::string& app_name,
                         EngineKind engine = EngineKind::kVm) {
  GoldenMap goldens;
  CorpusApp app = BuildCorpusApp(app_name);

  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.jobs = 1;
  options.interp.engine = engine;
  Wasabi tool(app.program, *app.index, options);

  DynamicResult serial = tool.RunDynamicWorkflow();
  goldens["workflow.jobs1"] = Digest(WorkflowFingerprint(serial));
  for (int jobs : {2, 4, 8}) {
    tool.set_jobs(jobs);
    goldens["workflow.jobs" + std::to_string(jobs)] =
        Digest(WorkflowFingerprint(tool.RunDynamicWorkflow()));
  }

  // Self-chaos variant: quarantine decisions and the degraded report are part
  // of the frozen surface too (they depend on run identities, not schedules).
  WasabiOptions chaos_options = options;
  chaos_options.robust.chaos.enabled = true;
  chaos_options.robust.chaos.seed = 42;
  chaos_options.robust.chaos.rate = 0.1;
  Wasabi chaos_tool(app.program, *app.index, chaos_options);
  for (int jobs : {1, 2, 4, 8}) {
    chaos_tool.set_jobs(jobs);
    goldens["chaos.jobs" + std::to_string(jobs)] =
        Digest(WorkflowFingerprint(chaos_tool.RunDynamicWorkflow()));
  }

  // Per-run execution logs, with the exact runner configuration the workflow
  // uses (defaults + §3.1.4 config restoration).
  RunnerOptions runner_options;
  runner_options.interp.engine = engine;
  runner_options.config_overrides = app.default_configs;
  runner_options.frozen_keys = ScanTestsForRetryRestrictions(app.program).keys_to_freeze;
  TestRunner runner(app.program, *app.index, runner_options);
  std::vector<TestCase> tests = runner.DiscoverTests();

  std::ostringstream clean_logs;
  for (const TestCase& test : tests) {
    AppendRunRecord(clean_logs, runner.RunTest(test));
  }
  goldens["logs.clean"] = Digest(clean_logs.str());

  std::vector<PlanEntry> plan = PlanInjections(serial.coverage, serial.locations.size());
  std::vector<CampaignRunSpec> specs =
      ExpandPlan(plan, serial.locations, {kInjectOnce, kInjectRepeatedly});
  TaskPool pool(1);
  CampaignOutcome campaign =
      ExecuteCampaignRobust(runner, serial.locations, specs, pool, RobustnessOptions{});
  EXPECT_TRUE(campaign.quarantined.empty()) << app_name;
  std::ostringstream campaign_logs;
  for (const CampaignRunResult& run : campaign.results) {
    campaign_logs << "run=" << run.id << " location=" << run.location_index << " k=" << run.k
                  << "\n";
    AppendRunRecord(campaign_logs, run.record);
  }
  goldens["logs.campaign"] = Digest(campaign_logs.str());

  return goldens;
}

std::string GoldenPath(const std::string& app_name) {
  return std::string(WASABI_GOLDENS_DIR) + "/" + app_name + ".golden";
}

GoldenMap LoadGoldens(const std::string& app_name) {
  GoldenMap goldens;
  std::ifstream in(GoldenPath(app_name));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.find(' ');
    if (space != std::string::npos) {
      goldens[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return goldens;
}

void WriteGoldens(const std::string& app_name, const GoldenMap& goldens) {
  std::ofstream out(GoldenPath(app_name));
  out << "# Pre-overhaul dynamic-workflow goldens for " << app_name
      << " (see golden_equivalence_test.cc).\n";
  for (const auto& [key, value] : goldens) {
    out << key << " " << value << "\n";
  }
}

class GoldenEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenEquivalenceTest, MatchesPreOverhaulGoldens) {
  const std::string app_name = GetParam();
  GoldenMap computed = ComputeGoldens(app_name);

  if (std::getenv("WASABI_UPDATE_GOLDENS") != nullptr) {
    WriteGoldens(app_name, computed);
    GTEST_SKIP() << "goldens regenerated at " << GoldenPath(app_name);
  }

  GoldenMap expected = LoadGoldens(app_name);
  ASSERT_FALSE(expected.empty())
      << "no goldens at " << GoldenPath(app_name)
      << "; regenerate from a trusted build with WASABI_UPDATE_GOLDENS=1";
  EXPECT_EQ(computed.size(), expected.size());
  for (const auto& [key, value] : expected) {
    auto found = computed.find(key);
    ASSERT_NE(found, computed.end()) << "missing golden section " << key;
    EXPECT_EQ(found->second, value) << app_name << " " << key
                                    << " diverged from the pre-overhaul interpreter";
  }
}

// Engine sweep: the reference tree-walker must still match the same committed
// goldens the (default) bytecode VM matches above — together the two tests
// prove the engines observationally identical on the full dynamic workflow,
// at every worker count, under chaos, down to per-run execution logs.
TEST_P(GoldenEquivalenceTest, TreeEngineMatchesTheSameGoldens) {
  const std::string app_name = GetParam();
  if (std::getenv("WASABI_UPDATE_GOLDENS") != nullptr) {
    GTEST_SKIP() << "goldens are regenerated from the default engine only";
  }
  GoldenMap computed = ComputeGoldens(app_name, EngineKind::kTree);
  GoldenMap expected = LoadGoldens(app_name);
  ASSERT_FALSE(expected.empty())
      << "no goldens at " << GoldenPath(app_name)
      << "; regenerate from a trusted build with WASABI_UPDATE_GOLDENS=1";
  for (const auto& [key, value] : expected) {
    auto found = computed.find(key);
    ASSERT_NE(found, computed.end()) << "missing golden section " << key;
    EXPECT_EQ(found->second, value)
        << app_name << " " << key << " diverged between the engines";
  }
}

// Differential half of the suite (docs/CACHING.md): a warm `--cache-dir` run
// must be byte-identical to a cache-off run of the same configuration at
// every worker count, and under self-chaos. The cold pass populates at one
// worker count and the warm passes replay at all of them — run verdicts carry
// stable ids and the reducer consumes them in id order, so worker count can
// never leak into a cached (or uncached) report. Both configurations share
// one cache directory: their dynamic-config digests differ, which also pins
// the keyspace separation between chaos-on and chaos-off entries.
TEST_P(GoldenEquivalenceTest, WarmCacheRunsAreByteIdenticalToCacheOff) {
  const std::string app_name = GetParam();
  CorpusApp app = BuildCorpusApp(app_name);

  const std::string cache_dir =
      ::testing::TempDir() + "wasabi_cache_differential_" + app_name + "_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(cache_dir, &error);
  ASSERT_NE(store, nullptr) << error;

  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.jobs = 1;
  WasabiOptions chaos_options = options;
  chaos_options.robust.chaos.enabled = true;
  chaos_options.robust.chaos.seed = 42;
  chaos_options.robust.chaos.rate = 0.1;

  Wasabi off(app.program, *app.index, options);
  Wasabi cached(app.program, *app.index, options);
  cached.set_cache(store.get());
  Wasabi chaos_off(app.program, *app.index, chaos_options);
  Wasabi chaos_cached(app.program, *app.index, chaos_options);
  chaos_cached.set_cache(store.get());

  // Cold populate at 1 worker; every later iteration replays warm. The
  // memo's lookups mirror execution one for one, so each warm pass must
  // answer exactly the attempts its cold pass executed and execute none.
  CacheStats after_cold;
  size_t cold_executed = 0;
  size_t cold_chaos_executed = 0;
  for (int jobs : {1, 2, 4, 8}) {
    off.set_jobs(jobs);
    cached.set_jobs(jobs);
    chaos_off.set_jobs(jobs);
    chaos_cached.set_jobs(jobs);
    DynamicResult cached_result = cached.RunDynamicWorkflow();
    EXPECT_EQ(WorkflowFingerprint(cached_result), WorkflowFingerprint(off.RunDynamicWorkflow()))
        << app_name << " cache-on vs cache-off diverged at jobs=" << jobs;
    DynamicResult chaos_cached_result = chaos_cached.RunDynamicWorkflow();
    EXPECT_EQ(WorkflowFingerprint(chaos_cached_result),
              WorkflowFingerprint(chaos_off.RunDynamicWorkflow()))
        << app_name << " cache-on vs cache-off diverged under chaos at jobs=" << jobs;
    if (jobs == 1) {
      after_cold = store->stats();
      cold_executed = cached_result.runs_executed;
      cold_chaos_executed = chaos_cached_result.runs_executed;
      EXPECT_EQ(cached_result.runs_reused, 0u) << app_name;
      EXPECT_EQ(chaos_cached_result.runs_reused, 0u) << app_name;
      EXPECT_GT(cold_executed, 0u) << app_name;
      continue;
    }
    EXPECT_EQ(cached_result.runs_executed, 0u) << app_name << " jobs=" << jobs;
    EXPECT_EQ(cached_result.runs_reused, cold_executed) << app_name << " jobs=" << jobs;
    EXPECT_EQ(chaos_cached_result.runs_executed, 0u) << app_name << " jobs=" << jobs;
    EXPECT_EQ(chaos_cached_result.runs_reused, cold_chaos_executed)
        << app_name << " jobs=" << jobs;
  }

  // The store agrees: no warm lookup missed, and the six warm passes (three
  // per configuration) hit once per cold miss of their configuration.
  CacheStats warm = DiffStats(after_cold, store->stats());
  for (const char* ns : {"cov", "run"}) {
    EXPECT_EQ(warm.misses_by_namespace[ns], 0) << app_name << " " << ns;
    EXPECT_EQ(warm.hits_by_namespace[ns], 3 * after_cold.misses_by_namespace[ns])
        << app_name << " " << ns;
  }
  EXPECT_EQ(after_cold.hits_by_namespace["run"], 0) << app_name;
  EXPECT_EQ(after_cold.misses_by_namespace["run"],
            static_cast<int64_t>(cold_executed + cold_chaos_executed))
      << app_name;
  std::filesystem::remove_all(cache_dir);
}

INSTANTIATE_TEST_SUITE_P(AllCorpusApps, GoldenEquivalenceTest,
                         ::testing::ValuesIn(CorpusAppNames()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace wasabi
