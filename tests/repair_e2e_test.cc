// End-to-end repair pipeline over the repairlab ground-truth app: run the
// full detect -> synthesize -> validate loop, score the outcomes exactly
// against the seeded manifest (every template-fixable bug fixed, zero false
// fixes), prove the report is byte-identical at every worker count / cache
// state / engine, prove the validator catches every SimRepair-injected bad
// patch, and prove validation re-campaigns really are cache-sliced: a
// validation re-executes only the runs whose recorded code includes the
// patched file, and its report still equals a cache-off run on every corpus
// app and lab under self-chaos.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/store.h"
#include "src/corpus/corpus.h"
#include "src/repair/repair.h"
#include "src/robust/chaos.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

RepairOptions OptionsFor(const CorpusApp& app) {
  RepairOptions options;
  options.wasabi.app_name = app.name;
  options.wasabi.default_configs = app.default_configs;
  return options;
}

RepairReport RunOnce(const CorpusApp& app, RepairOptions options) {
  return RunRepair(app.program, *app.index, options);
}

std::string UniqueTempDir(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "wasabi_repair_e2e_" + tag + "_" +
         std::to_string(++counter) + "_" + std::to_string(::getpid());
}

TEST(RepairE2eTest, RepairlabOutcomesMatchTheSeededManifestExactly) {
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairReport report = RunOnce(app, OptionsFor(app));

  std::vector<RepairExpectation> expected = ExpectedRepairs(app.bugs);
  ASSERT_EQ(report.rows.size(), expected.size())
      << RepairReportToText(report);
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].file + " / " + expected[i].coordinator);
    EXPECT_EQ(report.rows[i].type, expected[i].type);
    EXPECT_EQ(report.rows[i].file, expected[i].file);
    EXPECT_EQ(report.rows[i].coordinator, expected[i].coordinator);
    EXPECT_EQ(report.rows[i].tmpl, expected[i].tmpl);
    EXPECT_EQ(report.rows[i].outcome, expected[i].outcome);
    EXPECT_EQ(report.rows[i].error_mode, RepairErrorMode::kNone);
  }

  // TP = every template-fixable bug fixed; FP = zero bogus "fixed" rows.
  int expected_fixed = 0;
  for (const RepairExpectation& e : expected) {
    expected_fixed += e.outcome == RepairOutcome::kFixed ? 1 : 0;
  }
  EXPECT_EQ(report.totals.fixed, expected_fixed);
  EXPECT_EQ(report.totals.not_fixed, 0);
  EXPECT_EQ(report.totals.regressed, 0);
  EXPECT_EQ(report.totals.no_template, 1) << "only the unbounded fan-out has no template";
  EXPECT_EQ(report.totals.confirmed,
            report.totals.fixed + report.totals.not_fixed + report.totals.regressed +
                report.totals.no_template);
}

TEST(RepairE2eTest, ReportIsByteIdenticalAtAnyWorkerCountAndBothEngines) {
  // repairlab exercises every template; stormlab's validations are the
  // longest (each re-runs the storm simulation), so it is where concurrent
  // validations overlap the most.
  for (const char* name : {"repairlab", "stormlab"}) {
    SCOPED_TRACE(name);
    CorpusApp app = BuildCorpusApp(name);
    RepairOptions baseline_options = OptionsFor(app);
    baseline_options.wasabi.jobs = 1;
    std::string baseline = RepairReportToJson(RunOnce(app, baseline_options));
    ASSERT_FALSE(baseline.empty());

    for (int jobs : {2, 4, 8}) {
      RepairOptions options = OptionsFor(app);
      options.wasabi.jobs = jobs;
      EXPECT_EQ(RepairReportToJson(RunOnce(app, options)), baseline) << "jobs=" << jobs;
    }
    RepairOptions tree = OptionsFor(app);
    tree.wasabi.interp.engine = EngineKind::kTree;
    EXPECT_EQ(RepairReportToJson(RunOnce(app, tree)), baseline)
        << "the tree-walker must reproduce the VM's repair report byte for byte";
  }
}

TEST(RepairE2eTest, ReportIsByteIdenticalWithCacheOffColdAndWarm) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::string off = RepairReportToJson(RunOnce(app, OptionsFor(app)));

  // At jobs 4 the validations run concurrently and share the store.
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::string dir = UniqueTempDir("cache");
    std::string error;
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;

    RepairOptions cold_options = OptionsFor(app);
    cold_options.wasabi.jobs = jobs;
    cold_options.wasabi.cache = store.get();
    RepairReport cold = RunOnce(app, cold_options);
    EXPECT_EQ(RepairReportToJson(cold), off) << "cold cache must not change the report";
    ASSERT_TRUE(store->Flush(&error)) << error;

    std::unique_ptr<CacheStore> warm_store = CacheStore::Open(dir, &error);
    ASSERT_NE(warm_store, nullptr) << error;
    RepairOptions warm_options = OptionsFor(app);
    warm_options.wasabi.jobs = jobs;
    warm_options.wasabi.cache = warm_store.get();
    RepairReport warm = RunOnce(app, warm_options);
    EXPECT_EQ(RepairReportToJson(warm), off) << "warm cache must not change the report";

    fs::remove_all(dir);
  }
}

TEST(RepairE2eTest, ValidationReusesTheUnpatchedSliceOfTheCache) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::vector<CacheStats> deltas;
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::string dir = UniqueTempDir("slice");
    std::string error;
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;

    RepairOptions options = OptionsFor(app);
    options.wasabi.jobs = jobs;
    options.wasabi.cache = store.get();
    RepairReport report = RunOnce(app, options);

    // Starting COLD, the baseline populates per-file entries and the run
    // memo; each validation re-campaign then hits the q1/when entries of
    // every UNPATCHED file and every coverage, campaign and clean-suite run
    // whose recorded code excludes the patched file, and misses the rest. Both
    // sides non-zero is the slicing signature: neither a full recompute nor
    // an (impossible) full hit.
    const CacheStats& delta = report.validation_cache_delta;
    EXPECT_GT(delta.hits, 0u) << "validation must reuse the unpatched slice";
    EXPECT_GT(delta.misses, 0u) << "a patched file must invalidate its own entries";
    EXPECT_GT(delta.hits_by_namespace.count("q1"), 0u);
    EXPECT_GT(delta.hits_by_namespace.count("when"), 0u);
    EXPECT_GT(delta.hits_by_namespace.count("cov"), 0u);
    EXPECT_GT(delta.hits_by_namespace.count("run"), 0u);
    EXPECT_GT(delta.misses_by_namespace.count("run"), 0u);
    EXPECT_GT(delta.hits_by_namespace.count("clean"), 0u);
    EXPECT_GT(delta.misses_by_namespace.count("clean"), 0u);
    deltas.push_back(delta);

    fs::remove_all(dir);
  }
  // Concurrent validations read the baseline's entries and only add variants
  // for their own patched code, so the traffic is the same as one validation
  // after another.
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].hits, deltas[0].hits);
  EXPECT_EQ(deltas[1].misses, deltas[0].misses);
  EXPECT_EQ(deltas[1].hits_by_namespace, deltas[0].hits_by_namespace);
  EXPECT_EQ(deltas[1].misses_by_namespace, deltas[0].misses_by_namespace);
}

// Dependency-keyed validation differential (docs/CACHING.md): the first
// cached pass fills the run memo in its baseline and slices every validation
// against it; the later passes are warm throughout. Under `--chaos 7:0.1` at
// 1, 4 and 8 workers the report must equal a cache-off run byte for byte.
class RepairMemoDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RepairMemoDifferentialTest, WarmValidationMatchesCacheOffUnderChaos) {
  CorpusApp app = BuildCorpusApp(GetParam());
  RepairOptions options = OptionsFor(app);
  std::string error;
  ASSERT_TRUE(ParseChaosSpec("7:0.1", &options.wasabi.robust.chaos, &error)) << error;
  const std::string off = RepairReportToJson(RunOnce(app, options));

  const std::string dir = UniqueTempDir("differential");
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  for (int jobs : {1, 4, 8}) {
    RepairOptions cached = options;
    cached.wasabi.jobs = jobs;
    cached.wasabi.cache = store.get();
    EXPECT_EQ(RepairReportToJson(RunOnce(app, cached)), off) << "jobs=" << jobs;
  }
  fs::remove_all(dir);
}

std::vector<std::string> DifferentialApps() {
  std::vector<std::string> apps = CorpusAppNames();
  apps.push_back("repairlab");
  apps.push_back("stormlab");
  return apps;
}

INSTANTIATE_TEST_SUITE_P(CorpusAndLabs, RepairMemoDifferentialTest,
                         ::testing::ValuesIn(DifferentialApps()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

TEST(RepairE2eTest, EverySimRepairBadPatchIsCaughtNeverReportedFixed) {
  CorpusApp app = BuildCorpusApp("repairlab");

  struct ModeCase {
    const char* name;
    void (*arm)(SimRepairConfig*);
    RepairErrorMode mode;
  };
  const ModeCase kCases[] = {
      {"wrong-location", [](SimRepairConfig* c) { c->wrong_location_percent = 100; },
       RepairErrorMode::kWrongLocation},
      {"cap-too-low", [](SimRepairConfig* c) { c->cap_too_low_percent = 100; },
       RepairErrorMode::kCapTooLow},
      {"drop-jitter", [](SimRepairConfig* c) { c->drop_jitter_percent = 100; },
       RepairErrorMode::kDropJitter},
  };
  for (const ModeCase& mode_case : kCases) {
    SCOPED_TRACE(mode_case.name);
    RepairOptions options = OptionsFor(app);
    mode_case.arm(&options.sim);
    RepairReport report = RunOnce(app, options);
    int corrupted = 0;
    for (const RepairRow& row : report.rows) {
      if (row.error_mode != mode_case.mode) {
        continue;
      }
      ++corrupted;
      EXPECT_NE(row.outcome, RepairOutcome::kFixed)
          << row.file << " / " << row.coordinator
          << ": an injected bad patch must never be reported fixed\n"
          << RepairReportToText(report);
    }
    EXPECT_GT(corrupted, 0) << "the 100% knob must corrupt at least one patch";
  }
}

TEST(RepairE2eTest, CapTooLowIsCaughtBySingleFaultResilienceNotTheVerdictDiff) {
  // Cap 1 clears the missing-cap oracle (no more unbounded retry), so the
  // verdict diff alone would celebrate it. Only the K=1 replay — the patched
  // coordinator no longer survives a single transient fault — exposes it.
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairOptions options = OptionsFor(app);
  options.sim.cap_too_low_percent = 100;
  RepairReport report = RunOnce(app, options);
  int regressed_caps = 0;
  for (const RepairRow& row : report.rows) {
    if (row.error_mode != RepairErrorMode::kCapTooLow) {
      continue;
    }
    EXPECT_EQ(row.outcome, RepairOutcome::kRegressed)
        << row.coordinator << ": " << row.note;
    EXPECT_NE(row.note.find("single-fault replay"), std::string::npos) << row.note;
    ++regressed_caps;
  }
  EXPECT_GT(regressed_caps, 0);
}

TEST(RepairE2eTest, SimRepairReportsAreDeterministicToo) {
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairOptions options = OptionsFor(app);
  options.sim.wrong_location_percent = 40;
  options.sim.cap_too_low_percent = 40;
  options.sim.drop_jitter_percent = 40;
  std::string first = RepairReportToJson(RunOnce(app, options));
  options.wasabi.jobs = 4;
  EXPECT_EQ(RepairReportToJson(RunOnce(app, options)), first)
      << "error-mode draws are keyed on (seed, bug), not execution order";
}

TEST(RepairE2eTest, RepairJsonIsVersionedAndCacheFree) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::string json = RepairReportToJson(RunOnce(app, OptionsFor(app)));
  EXPECT_NE(json.find("\"version\": \"wasabi-repair-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"repairlab\""), std::string::npos);
  // The slicing evidence is in-memory only: serialized bytes must not depend
  // on cache state.
  EXPECT_EQ(json.find("cache"), std::string::npos);
}

}  // namespace
}  // namespace wasabi
