// Cache-correctness property tests (ctest label "cache", docs/CACHING.md).
//
// The contract under test: attaching a CacheStore NEVER changes any workflow
// output — not on a cold run (populate), not on a warm run (full replay), not
// after mutating exactly one corpus file (partial replay), and not with a
// poisoned cache directory (checksum/version fallback). The cache may only
// ever trade recomputation for lookups; a wrong report is the one failure
// mode that must be impossible.
//
// Invalidation granularity is also pinned here: mutating one non-test source
// file must recompute exactly that file's per-file SimLLM entries (q1/when
// namespaces) while every other file replays, and exactly the coverage runs
// and campaign runs whose recorded code includes that file (cov/run
// namespaces). A declaration-shape edit (a new field) invalidates every
// coverage and campaign entry; an edit to a file no run executes invalidates
// none.

#include <unistd.h>
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/exec/campaign.h"
#include "src/inject/injector.h"
#include "src/interp/unit_recorder.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/testing/config_restore.h"
#include "src/testing/coverage.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// Flattens everything the dynamic workflow reports (the golden-equivalence
// fingerprint): bugs, raw oracle firings, coverage, counters, quarantine set.
std::string DynamicFingerprint(const DynamicResult& result) {
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
      << " naive=" << result.naive_runs << " structures=" << result.structures_identified << "/"
      << result.structures_covered << " restored=" << result.config_restrictions_restored << "\n";
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

// Static workflow surface, including the replayed LLM usage counters (the
// cache stores per-file usage deltas; their sum must reproduce the cache-off
// totals exactly).
std::string StaticFingerprint(const StaticResult& result) {
  std::ostringstream out;
  out << "when=" << BugReportsToJson(result.when_bugs);
  out << "\nif=" << BugReportsToJson(result.if_bugs);
  out << "\noutliers=" << result.if_outliers.size();
  out << "\nllm calls=" << result.llm_usage.calls << " bytes=" << result.llm_usage.bytes_sent
      << " tokens=" << result.llm_usage.prompt_tokens << "\n";
  return out.str();
}

std::string IdentificationFingerprint(const IdentificationResult& result) {
  std::ostringstream out;
  out << "structures=" << result.structures.size() << "\n";
  for (const RetryStructure& structure : result.structures) {
    out << structure.coordinator << "|" << static_cast<int>(structure.mechanism) << "|"
        << structure.found_by.codeql << structure.found_by.llm << "\n";
  }
  out << "truncated=" << result.files_truncated_by_llm
      << " candidates=" << result.candidate_loops_without_keyword_filter
      << " llm calls=" << result.llm_usage.calls << " bytes=" << result.llm_usage.bytes_sent
      << " tokens=" << result.llm_usage.prompt_tokens << "\n";
  return out.str();
}

bool IsTestUnit(const std::string& file) {
  return file.find("/test/") != std::string::npos || file.rfind("test/", 0) == 0;
}

// Reparses `base` into a fresh Program, appending a comment (digest-visible,
// semantics-preserving) to the unit at `mutate_index`; pass SIZE_MAX for a
// byte-identical rebuild. `extra_unit`, when non-empty, is appended as one
// more file.
mj::Program RebuildProgram(const mj::Program& base, size_t mutate_index,
                           const std::string& extra_unit = "") {
  mj::Program rebuilt;
  mj::DiagnosticEngine diag;
  for (size_t i = 0; i < base.units().size(); ++i) {
    const auto& unit = base.units()[i];
    std::string text(unit->file().text());
    if (i == mutate_index) {
      text += "\n// cache-property mutation\n";
    }
    rebuilt.AddUnit(mj::ParseSource(unit->file().name(), text, diag));
  }
  if (!extra_unit.empty()) {
    std::string text = extra_unit;
    if (mutate_index == base.units().size()) {
      text += "\n// cache-property mutation\n";
    }
    rebuilt.AddUnit(mj::ParseSource("src/util/UnusedHelper.mj", text, diag));
  }
  EXPECT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
  return rebuilt;
}

// A class no test reaches, for the untouched-file edit.
constexpr char kUnusedHelper[] =
    "class UnusedHelper {\n"
    "  int twice(int x) {\n"
    "    return x + x;\n"
    "  }\n"
    "}\n";

// Reparses `base` with one field declaration added to the first class of
// the unit at `unit_index`: a declaration-shape edit that changes no code
// any test runs.
mj::Program AddFieldToFirstClass(const mj::Program& base, size_t unit_index) {
  mj::Program rebuilt;
  mj::DiagnosticEngine diag;
  for (size_t i = 0; i < base.units().size(); ++i) {
    const auto& unit = base.units()[i];
    std::string text(unit->file().text());
    if (i == unit_index) {
      const size_t brace = text.find('{', text.find("class "));
      EXPECT_NE(brace, std::string::npos);
      text.insert(brace + 1, "\n  int cachePropertyShapeField;\n");
    }
    rebuilt.AddUnit(mj::ParseSource(unit->file().name(), text, diag));
  }
  EXPECT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
  return rebuilt;
}

// Independent count of what the run memo must re-execute after `unit`
// changes: every test whose coverage run, and every campaign run, whose
// executed units (plus, for a campaign run, its location's file) include it.
// Replays each run of `result` directly on the runner with a UnitRecorder.
struct Dependents {
  int64_t tests = 0;
  int64_t runs = 0;
};

Dependents CountDependents(const mj::Program& program, const mj::ProgramIndex& index,
                           const WasabiOptions& options, const DynamicResult& result,
                           size_t unit) {
  RunnerOptions runner_options;
  runner_options.interp = options.interp;
  runner_options.config_overrides = options.default_configs;
  runner_options.frozen_keys = ScanTestsForRetryRestrictions(program).keys_to_freeze;
  TestRunner runner(program, index, runner_options);
  UnitMap map(program, index);
  auto touches = [&](const TestCase& test, std::vector<CallInterceptor*> interceptors,
                     int64_t extra_unit) {
    UnitRecorder units(map);
    if (extra_unit >= 0) {
      units.AddUnit(static_cast<uint32_t>(extra_unit));
    }
    RunPerturbation perturbation;
    perturbation.unit_recorder = &units;
    runner.RunTest(test, std::move(interceptors), nullptr, perturbation);
    const std::vector<uint32_t> touched = units.units();
    return std::binary_search(touched.begin(), touched.end(), static_cast<uint32_t>(unit));
  };
  Dependents out;
  for (const TestCase& test : runner.DiscoverTests()) {
    out.tests += touches(test, {}, -1) ? 1 : 0;
  }
  for (const CampaignRunSpec& spec :
       ExpandPlan(PlanInjections(result.coverage, result.locations.size()), result.locations,
                  {kInjectOnce, kInjectRepeatedly})) {
    const RetryLocation& location = result.locations[spec.location_index];
    FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                           location.exception_name, spec.k}});
    out.runs += touches(spec.test, {&injector}, map.UnitOfFile(location.file)) ? 1 : 0;
  }
  return out;
}

size_t FirstNonTestUnit(const mj::Program& program) {
  for (size_t i = 0; i < program.units().size(); ++i) {
    if (!IsTestUnit(program.units()[i]->file().name())) {
      return i;
    }
  }
  ADD_FAILURE() << "corpus app has no non-test unit";
  return 0;
}

class CachePropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wasabi_cache_property_test_" +
           std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<CacheStore> OpenStore() {
    std::string error;
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir_, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  }

  static WasabiOptions OptionsFor(const CorpusApp& app) {
    WasabiOptions options;
    options.app_name = app.name;
    options.default_configs = app.default_configs;
    return options;
  }

  std::string dir_;
};

TEST_F(CachePropertyTest, WarmRunIsByteIdenticalAndSkipsEveryNamespace) {
  CorpusApp app = BuildCorpusApp("hacommon");

  // Ground truth: the workflows without any cache attached.
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_identify = IdentificationFingerprint(plain.IdentifyRetryStructures());
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());
  const std::string base_static = StaticFingerprint(plain.RunStaticWorkflow());

  // Cold run populates; output must not move.
  MetricsRegistry cold_metrics;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.set_observability(nullptr, &cold_metrics);
    EXPECT_EQ(IdentificationFingerprint(cold.IdentifyRetryStructures()), base_identify);
    DynamicResult dynamic = cold.RunDynamicWorkflow();
    EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
    EXPECT_EQ(StaticFingerprint(cold.RunStaticWorkflow()), base_static);
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
    EXPECT_GT(store->stats().puts, 0);
    // One coverage entry per test and one campaign entry per planned run
    // (no host failures here, so every run completes on its first attempt).
    EXPECT_EQ(cold_metrics.CounterValue("cache.misses.cov"),
              static_cast<int64_t>(dynamic.total_tests));
    EXPECT_EQ(cold_metrics.CounterValue("cache.misses.run"),
              static_cast<int64_t>(dynamic.planned_runs));
    EXPECT_EQ(dynamic.runs_executed, dynamic.planned_runs);
  }
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.q1"), 0);
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.cov"), 0);
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.run"), 0);
  EXPECT_EQ(cold_metrics.CounterValue("cache.hits.cov"), 0);
  EXPECT_EQ(cold_metrics.CounterValue("cache.hits.run"), 0);
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.when"), 0);

  // Warm run replays everything: zero misses, hit counts mirror the cold
  // misses, and every fingerprint is byte-identical.
  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  EXPECT_GT(store->stats().loaded_entries, 0);
  Wasabi warm(app.program, *app.index, OptionsFor(app));
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  EXPECT_EQ(IdentificationFingerprint(warm.IdentifyRetryStructures()), base_identify);
  DynamicResult dynamic = warm.RunDynamicWorkflow();
  EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
  EXPECT_EQ(StaticFingerprint(warm.RunStaticWorkflow()), base_static);
  EXPECT_EQ(dynamic.runs_executed, 0u);
  EXPECT_EQ(dynamic.runs_reused, dynamic.planned_runs);

  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.q1"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.cov"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.run"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.when"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.q1"),
            cold_metrics.CounterValue("cache.misses.q1"));
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.cov"),
            cold_metrics.CounterValue("cache.misses.cov"));
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.run"),
            cold_metrics.CounterValue("cache.misses.run"));
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.when"),
            cold_metrics.CounterValue("cache.misses.when"));
}

TEST_F(CachePropertyTest, SingleFileMutationRecomputesOnlyDigestDependents) {
  CorpusApp app = BuildCorpusApp("hacommon");

  // Populate from the pristine program.
  MetricsRegistry cold_metrics;
  DynamicResult pristine;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.set_observability(nullptr, &cold_metrics);
    pristine = cold.RunDynamicWorkflow();
    cold.RunStaticWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }

  // Mutate exactly one non-test file (an appended comment: the content digest
  // hashes comments and byte length, so this invalidates like a code edit).
  const size_t mutated_unit = FirstNonTestUnit(app.program);
  const Dependents dependents =
      CountDependents(app.program, *app.index, OptionsFor(app), pristine, mutated_unit);
  mj::Program mutated = RebuildProgram(app.program, mutated_unit);
  mj::ProgramIndex mutated_index(mutated);

  WasabiOptions options = OptionsFor(app);
  Wasabi mutated_plain(mutated, mutated_index, options);
  const std::string base_dynamic = DynamicFingerprint(mutated_plain.RunDynamicWorkflow());
  const std::string base_static = StaticFingerprint(mutated_plain.RunStaticWorkflow());

  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  Wasabi warm(mutated, mutated_index, options);
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  DynamicResult dynamic = warm.RunDynamicWorkflow();
  EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
  EXPECT_EQ(StaticFingerprint(warm.RunStaticWorkflow()), base_static);

  // Per-file namespaces: exactly the mutated file recomputes.
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.q1"), 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.q1"),
            cold_metrics.CounterValue("cache.misses.q1") - 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.when"), 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.when"),
            cold_metrics.CounterValue("cache.misses.when") - 1);

  // Execution namespaces: exactly the coverage runs and campaign runs whose
  // recorded code includes the mutated file execute again; every other run
  // is served from the memo. The edit must slice, not hit or miss wholesale.
  EXPECT_GT(dependents.tests, 0);
  EXPECT_LT(dependents.tests, static_cast<int64_t>(dynamic.total_tests));
  EXPECT_GT(dependents.runs, 0);
  EXPECT_LT(dependents.runs, static_cast<int64_t>(dynamic.planned_runs));
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.cov"), dependents.tests);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.cov"),
            static_cast<int64_t>(dynamic.total_tests) - dependents.tests);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.run"), dependents.runs);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.run"),
            static_cast<int64_t>(dynamic.planned_runs) - dependents.runs);
}

TEST_F(CachePropertyTest, DeclarationShapeEditInvalidatesEveryExecutionEntry) {
  CorpusApp app = BuildCorpusApp("hacommon");
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }

  // One new field on one class: no test executes anything new, but the
  // hierarchy every dispatch resolves against has changed.
  mj::Program edited = AddFieldToFirstClass(app.program, FirstNonTestUnit(app.program));
  mj::ProgramIndex edited_index(edited);
  Wasabi plain(edited, edited_index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  Wasabi warm(edited, edited_index, OptionsFor(app));
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  DynamicResult dynamic = warm.RunDynamicWorkflow();
  EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.cov"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.cov"),
            static_cast<int64_t>(dynamic.total_tests));
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.run"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.run"),
            static_cast<int64_t>(dynamic.planned_runs));
}

TEST_F(CachePropertyTest, EditToAFileNoRunExecutesMissesNoExecutionEntry) {
  CorpusApp app = BuildCorpusApp("hacommon");
  const size_t helper_unit = app.program.units().size();
  mj::Program with_helper = RebuildProgram(app.program, SIZE_MAX, kUnusedHelper);
  mj::ProgramIndex with_helper_index(with_helper);
  MetricsRegistry cold_metrics;
  DynamicResult pristine;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(with_helper, with_helper_index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.set_observability(nullptr, &cold_metrics);
    pristine = cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  const Dependents dependents = CountDependents(with_helper, with_helper_index,
                                                OptionsFor(app), pristine, helper_unit);
  EXPECT_EQ(dependents.tests, 0);
  EXPECT_EQ(dependents.runs, 0);

  // A comment appended to the helper nobody calls.
  mj::Program edited = RebuildProgram(app.program, helper_unit, kUnusedHelper);
  mj::ProgramIndex edited_index(edited);
  Wasabi plain(edited, edited_index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  Wasabi warm(edited, edited_index, OptionsFor(app));
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  DynamicResult dynamic = warm.RunDynamicWorkflow();
  EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.cov"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.cov"),
            cold_metrics.CounterValue("cache.misses.cov"));
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.run"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.run"),
            cold_metrics.CounterValue("cache.misses.run"));
  EXPECT_EQ(dynamic.runs_executed, 0u);
}

TEST_F(CachePropertyTest, PoisonedEntriesFallBackColdWithoutWrongReports) {
  CorpusApp app = BuildCorpusApp("hacommon");
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }

  // Poison the entries file: tear off the tail mid-record and append garbage.
  const std::string entries_path = dir_ + "/entries.tsv";
  std::string content;
  {
    std::ifstream in(entries_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
  }
  ASSERT_GT(content.size(), 100u);
  content.resize(content.size() * 3 / 5);
  content += "\ngarbage that is definitely not a record\n\t\t\t\t\t\n";
  {
    std::ofstream out(entries_path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  // The damaged store must detect and drop poisoned records (counted), serve
  // what survived, and the report must still not move by a byte.
  std::unique_ptr<CacheStore> store = OpenStore();
  EXPECT_GT(store->stats().corrupt_entries, 0);
  Wasabi warm(app.program, *app.index, OptionsFor(app));
  warm.set_cache(store.get());
  EXPECT_EQ(DynamicFingerprint(warm.RunDynamicWorkflow()), base_dynamic);
}

TEST_F(CachePropertyTest, VersionMismatchFallsBackColdAndRecovers) {
  CorpusApp app = BuildCorpusApp("hacommon");
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  {
    std::ofstream version(dir_ + "/VERSION", std::ios::trunc);
    version << "wasabi-cache-v999-from-the-future\n";
  }

  // Stale-schema store: discarded wholesale, run falls back cold, and the
  // Flush re-populates the directory under the current schema.
  MetricsRegistry metrics;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    EXPECT_EQ(store->stats().version_mismatches, 1);
    EXPECT_EQ(store->stats().loaded_entries, 0);
    Wasabi warm(app.program, *app.index, OptionsFor(app));
    warm.set_cache(store.get());
    warm.set_observability(nullptr, &metrics);
    EXPECT_EQ(DynamicFingerprint(warm.RunDynamicWorkflow()), base_dynamic);
    EXPECT_EQ(metrics.CounterValue("cache.hits.cov"), 0);
    EXPECT_EQ(metrics.CounterValue("cache.hits.run"), 0);
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  std::unique_ptr<CacheStore> recovered = OpenStore();
  EXPECT_EQ(recovered->stats().version_mismatches, 0);
  EXPECT_GT(recovered->stats().loaded_entries, 0);
}

}  // namespace
}  // namespace wasabi
