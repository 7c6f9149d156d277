// Deterministic self-chaos harness (docs/ROBUSTNESS.md).
//
// The containment guarantees in this PR are only worth anything if they are
// exercised: ChaosConfig makes a seeded, configurable fraction of pipeline
// runs fail at the host level — by throwing a chaos host exception or by
// simulating a leaked interpreter-budget abort — so tests (and operators, via
// `--chaos SEED:RATE`) can prove the campaign survives, quarantines exactly
// the faulted runs, and produces an otherwise byte-identical report.
//
// Determinism contract: whether a given (run identity, attempt) faults is a
// pure function of the seed, never of scheduling, wall clock, or worker
// count. Transient faults depend on the attempt number, so a retry policy can
// recover them; persistent faults ignore it, so the quarantine set is exactly
// predictable.

#ifndef WASABI_SRC_ROBUST_CHAOS_H_
#define WASABI_SRC_ROBUST_CHAOS_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/interp/interpreter.h"

namespace wasabi {

// The host exception the chaos harness throws. Deliberately NOT derived from
// std::exception: containment must also hold for foreign exception types that
// only `catch (...)` sees.
struct ChaosHostFault {
  uint64_t identity = 0;
  int attempt = 0;
  std::string What() const;
};

// A simulated interpreter-budget abort escaping the runner. Distinct from the
// real ExecutionAborted so classification can tag the failure as chaos-made.
struct ChaosBudgetFault {
  AbortReason reason = AbortReason::kStepBudget;
  uint64_t identity = 0;
};

struct ChaosConfig {
  bool enabled = false;
  uint64_t seed = 0;
  double rate = 0.0;  // Fraction of (identity, attempt) draws that fault.
  // Transient faults hash the attempt number in, so retries recover them;
  // persistent faults hit every attempt at a faulted identity.
  bool transient = true;
  // Fraction of faults that present as budget aborts instead of host
  // exceptions (cycling step-budget / virtual-time / stack-overflow flavors).
  double budget_fraction = 0.0;
  // Fraction of campaign runs that execute in a degraded ENVIRONMENT instead
  // of failing outright: the run proceeds normally but the interpreter config
  // key "chaos.degraded" is true, visible to applications via
  // Config.getBool("chaos.degraded", false). The flakiness prober uses this to
  // detect chaos-induced verdicts (docs/FLAKINESS.md). Default off, so the
  // PR 3 chaos-containment byte-identity contract is untouched.
  double env_rate = 0.0;
};

// Pure decision function: should this (identity, attempt) draw fault?
bool ChaosShouldFault(const ChaosConfig& config, uint64_t identity, int attempt);

// Throws ChaosHostFault or ChaosBudgetFault iff the draw faults; otherwise a
// no-op. Call at a pipeline seam before executing the real work.
void ChaosMaybeFault(const ChaosConfig& config, uint64_t identity, int attempt);

// Pure decision function: does this run identity execute under the degraded
// environment? Independent of the fault draw (distinct mix constant) and of
// the attempt number — the environment is a property of the run, so host-level
// retries of a degraded run stay degraded.
bool ChaosDegradedEnvironment(const ChaosConfig& config, uint64_t identity);

// Parses the CLI `--chaos SEED:RATE[:ENV_RATE]` spec (e.g. "42:0.1" or
// "42:0:0.25"). Returns false and fills `error` on malformed input; SEED is
// decimal digits only (no sign) and must fit in 64 bits; RATE and ENV_RATE
// must be in [0, 1].
bool ParseChaosSpec(const std::string& spec, ChaosConfig* config, std::string* error);

}  // namespace wasabi

#endif  // WASABI_SRC_ROBUST_CHAOS_H_
