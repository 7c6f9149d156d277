// Dependency-keyed execution memo for the coverage pass and the injection
// campaign (docs/CACHING.md).
//
// Every coverage run and every campaign attempt is memoized by the code it
// actually executed, not by the whole program:
//
//  * Key: the memo prefix (the dynamic-config digest, which also covers the
//    runner's config overrides and frozen keys) plus the run's own identity.
//    Coverage and clean suite: the test. Campaign: test, location Key(), K
//    and attempt. With
//    chaos on, the chaos identity (test index, run id) joins the key, since
//    it decides the faults and the degraded environment.
//  * Value: one variant per code version. A variant starts with the
//    declaration-shape digest and the (file, content) digest of every unit
//    the run executed (src/interp/unit_recorder.h), then holds the outcome.
//    A lookup hits only when the shape and every recorded file are
//    unchanged, so an edit re-executes exactly the runs that could observe
//    it. Writers only add variants: a repair validation's patched runs sit
//    beside the baseline's and never replace them.
//  * Coverage variants store hits as location keys, mapped back to indices
//    on load, plus a digest of the locations identified in the run's files,
//    so a changed location list cannot leak stale hits.
//  * Clean-suite variants (the repair validator's uninjected run of every
//    test) store the test's status.
//  * Campaign variants store one attempt's post-oracle reports (prober
//    classification included) or its host-failure kind. The executor asks
//    the memo before running an attempt. Admission, the breaker fold,
//    retries, oracle order and grouping stay one serial, id-ordered reduce
//    whether an attempt was memoized or executed, so any mix of hits and
//    misses reproduces a cache-off campaign byte for byte.
//
// Every decode validates shape, bounds, and enum ranges; a variant that fails
// to decode does not match (the store already checksums raw bytes), so cache
// damage can only cause recomputation, never a wrong report.

#ifndef WASABI_SRC_EXEC_CAMPAIGN_CACHE_H_
#define WASABI_SRC_EXEC_CAMPAIGN_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/program_digest.h"
#include "src/cache/store.h"
#include "src/exec/campaign.h"
#include "src/interp/unit_recorder.h"
#include "src/testing/oracles.h"

namespace wasabi {

// Namespace tags inside the store.
inline constexpr char kCacheNsCoverage[] = "cov";
inline constexpr char kCacheNsRun[] = "run";
inline constexpr char kCacheNsClean[] = "clean";

// One memoized campaign attempt.
struct MemoizedAttempt {
  bool completed = true;
  // Completed: the attempt's post-oracle reports; test and location are
  // filled in from the spec on load.
  std::vector<OracleReport> reports;
  // Host failure: kind, detail and chaos flag (identity is the caller's).
  RunFailure failure;
};

class RunMemo {
 public:
  // `digest`, `units` and `locations` describe the program being analyzed
  // and must outlive the memo. `campaign_lookups` false executes every
  // campaign attempt and still stores it (record mode and journaling need the
  // real execution).
  RunMemo(CacheStore* store, std::string prefix, const ProgramDigest& digest,
          const UnitMap& units, const std::vector<RetryLocation>& locations, bool chaos,
          bool campaign_lookups);

  bool campaign_lookups() const { return campaign_lookups_; }
  UnitRecorder NewRecorder() const { return UnitRecorder(units_); }

  // Coverage runs, by test and discovery index.
  bool LookupCoverage(const TestCase& test, size_t index, CoverageRunOutcome* out) const;
  // Stores nothing for an outcome with a host failure the chaos harness did
  // not inject: its failed attempts recorded no dependencies.
  void StoreCoverage(const TestCase& test, size_t index, const CoverageRunOutcome& outcome) const;

  // Campaign attempts.
  bool LookupAttempt(const CampaignRunSpec& spec, int attempt, MemoizedAttempt* out) const;
  void StoreAttempt(const CampaignRunSpec& spec, int attempt, const UnitRecorder& units,
                    const MemoizedAttempt& outcome) const;

  // Uninjected clean-suite runs (Wasabi::RunCleanSuite), by test.
  bool LookupClean(const TestCase& test, TestStatus* out) const;
  void StoreClean(const TestCase& test, const UnitRecorder& units, TestStatus status) const;

 private:
  std::string CoverageKey(const TestCase& test, size_t index) const;
  std::string AttemptKey(const CampaignRunSpec& spec, int attempt) const;
  // Digest of the keys of the locations whose file is one of `units`, in
  // location-list order.
  uint64_t LocationsDigest(const std::vector<uint32_t>& units) const;
  // Parses a variant's dependency header; true when it is still current,
  // with `extra` set to its kind-specific digest, `units` to the recorded
  // units' indices in this program and `body` to the outcome records.
  bool CurrentHeader(std::string_view variant, uint64_t* extra, std::vector<uint32_t>* units,
                     std::string_view* body) const;

  CacheStore* store_;
  std::string prefix_;
  const ProgramDigest& digest_;
  const std::vector<RetryLocation>& locations_;
  bool chaos_;
  bool campaign_lookups_;
  const UnitMap& units_;
  std::unordered_map<uint64_t, uint32_t> unit_of_pair_;
  std::unordered_map<std::string, size_t> location_index_;  // Key() -> index.
  std::vector<int64_t> location_unit_;  // Unit of each location's file, or -1.
};

// MapCoverageRobust with per-test memoization. With a null memo this is
// exactly MapCoverageRobust; with one, current variants are restored and only
// the misses execute (under their original identities), then the shared
// reduce produces the byte-identical outcome and new variants are stored.
CoverageOutcome MapCoverageCached(const TestRunner& runner, const std::vector<TestCase>& tests,
                                  const std::vector<RetryLocation>& locations, TaskPool& pool,
                                  const RobustnessOptions& options, const CampaignObs& obs,
                                  const RunMemo* memo);

// Reports one phase's memo traffic: cache.hits.<ns>/cache.misses.<ns>
// counters, counter-track samples, and journal cache events.
void ExportMemoLookups(const CampaignObs& obs, const char* ns, int64_t hits, int64_t misses);

}  // namespace wasabi

#endif  // WASABI_SRC_EXEC_CAMPAIGN_CACHE_H_
