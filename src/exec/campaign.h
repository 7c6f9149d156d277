// Parallel fault-injection campaign executor (§3.1 dynamic workflow, scaled).
//
// The planner emits {test, location} pairs; each pair is executed under every
// K setting, so a campaign is a flat list of independent runs. Runs share only
// immutable state — the parsed Program and its ProgramIndex are built once and
// never mutated after construction — while every run gets a fresh Interpreter
// (own environment, virtual clock, singletons, execution log) and its own
// FaultInjector, so workers never share a mutable sink.
//
// Determinism: every run carries a stable id assigned in expansion order
// (plan-entry-major, K-minor). The reducer orders results by that id before
// any downstream consumer (oracles, report grouping, JSON) sees them, so the
// output is byte-identical for any worker count and any scheduling.

#ifndef WASABI_SRC_EXEC_CAMPAIGN_H_
#define WASABI_SRC_EXEC_CAMPAIGN_H_

#include <cstdint>
#include <vector>

#include "src/exec/task_pool.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/record/recorder.h"
#include "src/robust/robust.h"
#include "src/testing/coverage.h"
#include "src/testing/oracles.h"
#include "src/testing/runner.h"

namespace wasabi {

class RunMemo;  // src/exec/campaign_cache.h

// Optional observability sinks threaded through the executor. All four are
// non-owning and may be null; the default-constructed value is "fully off".
// Spans and progress ticks are recorded from worker threads as runs execute;
// metric aggregation over run records happens at reduce time, serially and in
// run-id order, so the metrics snapshot is deterministic too. The journal
// records worker-side events through per-run JournalRun handles (one worker
// per run per wave) and reduce-side events serially, so its collected stream
// is byte-identical at any worker count (docs/OBSERVABILITY.md).
struct CampaignObs {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  ProgressMeter* progress = nullptr;
  RetryJournal* journal = nullptr;
};

// One unit of campaign work: run `test` while injecting at `location_index`
// with budget `k`.
struct CampaignRunSpec {
  uint64_t id = 0;  // Stable: position in expansion order.
  TestCase test;
  size_t location_index = 0;
  int k = kInjectOnce;
};

struct CampaignRunResult {
  uint64_t id = 0;
  size_t location_index = 0;
  int k = kInjectOnce;
  int attempt = 1;       // The attempt that completed.
  TestRunRecord record;  // Holds this run's private execution log.
  // With a run memo attached (docs/CACHING.md): either the completing attempt
  // was served by the memo — `record` is empty and `reports` holds its
  // post-oracle reports — or it executed and `units` holds the units it ran
  // code from (probe reruns add theirs before the outcome is stored).
  bool memoized = false;
  std::vector<OracleReport> reports;
  UnitRecorder units;
};

// Expands the plan into run specs: for each entry, one spec per K value, in
// the order given. Ids number the specs 0..n-1.
std::vector<CampaignRunSpec> ExpandPlan(const std::vector<PlanEntry>& plan,
                                        const std::vector<RetryLocation>& locations,
                                        const std::vector<int>& k_values);

// --- Fault-contained execution (docs/ROBUSTNESS.md) -------------------------
//
// The campaign executor never lets a host-level failure kill the campaign:
// a run whose task throws is retried per RobustnessOptions::retry (waves:
// a parallel attempt wave, then a serial id-ordered reduce that classifies
// failures, feeds the per-location circuit breaker, and decides retries —
// so every resilience decision is independent of worker scheduling), and
// quarantined with a structured RunFailure once attempts are exhausted, the
// location's circuit is open, or fail-fast / the quarantine budget cut the
// campaign short.

struct CampaignOutcome {
  std::vector<CampaignRunResult> results;  // Completed runs only, id-ordered.
  std::vector<RunFailure> quarantined;     // Given-up runs, id-ordered.
  RobustnessStats robustness;
  int64_t executed_attempts = 0;  // Attempts that ran the test.
  int64_t memoized_attempts = 0;  // Attempts the run memo answered.
};

// Executes every spec on the pool. Completed results and quarantine records
// come back sorted by run id. With `obs` attached, every attempt gets a "run"
// span tagged {run_id, test, location, k}, injection counters and the
// completed runs' step/loop-iteration/virtual-time histograms are fed to the
// registry, and the progress meter ticks once per attempt that completes.
//
// Two optional extensions serve the flakiness prober and record/replay modes
// (docs/FLAKINESS.md):
//   * `arenas` — caller-owned per-worker arenas (size >= pool.worker_count()).
//     Sharing them lets the prober reuse the campaign's warm interpreters.
//     Null falls back to executor-local arenas.
//   * `recorders` — when non-null, resized to specs.size() and filled with one
//     decision stream per run (indexed by run id): chaos draws, attempt
//     begin/end, backoff draws, dispatch resolutions, injector fire/skip
//     choices, and quarantine outcomes. The caller appends the final verdict
//     (an oracle-phase fact) and serializes. Recording never changes the
//     campaign's observable outcome.
//   * `memo` — the dependency-keyed run memo (src/exec/campaign_cache.h).
//     Each admitted attempt past the chaos seam is looked up first; a hit
//     supplies its post-oracle reports or host-failure kind without running.
//     Executed attempts record the units they touch; host failures are
//     stored here, completed runs by the caller once their reports are final.
CampaignOutcome ExecuteCampaignRobust(const TestRunner& runner,
                                      const std::vector<RetryLocation>& locations,
                                      const std::vector<CampaignRunSpec>& specs, TaskPool& pool,
                                      const RobustnessOptions& options,
                                      const CampaignObs& obs = {},
                                      std::vector<InterpreterArena>* arenas = nullptr,
                                      std::vector<RunRecorder>* recorders = nullptr,
                                      const RunMemo* memo = nullptr);

// Fault-contained coverage discovery: a test whose coverage run keeps failing
// at the host level is quarantined (location "<coverage>") and simply covers
// nothing, instead of killing the whole pass. Chaos identities for coverage
// runs are tagged with the top bit so they never collide with campaign run
// ids under one seed.
struct CoverageOutcome {
  CoverageMap coverage;
  std::vector<RunFailure> quarantined;  // run_id = test index in `tests`.
  RobustnessStats robustness;
};

CoverageOutcome MapCoverageRobust(const TestRunner& runner, const std::vector<TestCase>& tests,
                                  const std::vector<RetryLocation>& locations, TaskPool& pool,
                                  const RobustnessOptions& options, const CampaignObs& obs = {});

// --- Coverage execute/reduce split (docs/CACHING.md) ------------------------
//
// The robust coverage pass factors into a wave executor and a deterministic
// reduce so the run memo (src/exec/campaign_cache.h) can execute
// only the tests whose entries are missing and still reduce the merged
// per-test outcomes exactly like a cache-off run. MapCoverageRobust is the
// composition of the two over the full test list.

// Everything one test's coverage run produced, including the per-test slice
// of the resilience counters (sums over tests reproduce RobustnessStats).
struct CoverageRunOutcome {
  std::vector<size_t> hits;  // Location indices; empty when quarantined.
  int attempts = 0;
  int64_t retries = 0;
  bool recovered = false;
  int64_t chaos_faults = 0;
  int64_t backoff_virtual_ms = 0;
  bool quarantined = false;
  RunFailureKind failure_kind = RunFailureKind::kHostException;
  std::string failure_detail;
  bool failure_chaos = false;
  // With a run memo attached: the units the completing attempt executed.
  std::vector<uint32_t> units;
};

// Runs the wave loop over `tests`. `original_indices` (parallel to `tests`)
// carries each test's index in the FULL discovery list: chaos identities,
// backoff streams, and quarantine run ids derive from it, so executing a
// subset behaves byte-identically to its slice of a full pass. With a memo,
// every run records the units it executes into its outcome.
std::vector<CoverageRunOutcome> ExecuteCoverageRuns(
    const TestRunner& runner, const std::vector<TestCase>& tests,
    const std::vector<RetryLocation>& locations, TaskPool& pool,
    const RobustnessOptions& options, const CampaignObs& obs,
    const std::vector<size_t>& original_indices, const RunMemo* memo = nullptr);

// Serial reduce over the full, discovery-ordered outcome list: coverage map,
// id-ordered quarantine records, summed stats, and the reduce-time metric
// surface (cumulative-coverage series, run counters).
CoverageOutcome ReduceCoverageOutcomes(const std::vector<TestCase>& tests,
                                       std::vector<CoverageRunOutcome> per_test,
                                       const CampaignObs& obs);

}  // namespace wasabi

#endif  // WASABI_SRC_EXEC_CAMPAIGN_H_
