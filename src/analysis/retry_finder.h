// CodeQL-style identification of retry code (§3.1.1 of the paper).
//
// Technique 1 (implemented here): control-flow analysis finds every loop whose
// header is reachable from at least one catch block inside the loop body, then
// applies the paper's naming filter ("retry"/"retries" appearing in string
// literals, variables, or invoked method names inside the loop). For each such
// retry loop, callee signatures provide the candidate retry-trigger exceptions
// and call sites become retry locations.
//
// Technique 2 (the LLM) lives in src/llm; once it reports a coordinator
// method, TripletsForCoordinator() performs the "simple CodeQL query" the
// paper uses to enumerate that coordinator's potential retried methods and
// trigger exceptions.

#ifndef WASABI_SRC_ANALYSIS_RETRY_FINDER_H_
#define WASABI_SRC_ANALYSIS_RETRY_FINDER_H_

#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/retry_model.h"
#include "src/lang/ast.h"
#include "src/lang/sema.h"

namespace wasabi {

struct RetryFinderOptions {
  // The paper's keyword filter. Disabling it reproduces the §4.4 ablation
  // (3.5x more candidate loops, mostly non-retry).
  bool require_keyword = true;
  std::vector<std::string> keywords = {"retry", "retries"};
  // The paper analyzes application source, not test harnesses; classes whose
  // names end in "Test" are skipped.
  bool skip_test_classes = true;
};

// A loop whose header is reachable from a catch block inside its body —
// a candidate retry loop, before the keyword filter.
struct LoopCandidate {
  const mj::MethodDecl* method = nullptr;
  const mj::Stmt* loop = nullptr;
  bool keyword_evidence = false;
  std::vector<const mj::CatchClause*> reaching_catches;
};

class RetryFinder {
 public:
  RetryFinder(const mj::Program& program, const mj::ProgramIndex& index,
              RetryFinderOptions options = {});

  // All candidate loops (catch reaches header), with keyword evidence noted
  // but not enforced. Used directly by the keyword-filter ablation.
  std::vector<LoopCandidate> FindCandidateLoops() const;

  // The CodeQL technique's final output: retry-loop structures (keyword filter
  // applied per options) with their retry-location triplets attached.
  std::vector<RetryStructure> FindLoopStructures() const;
  // As above, over candidates the caller already found (FindCandidateLoops),
  // so a caller that needs both builds every method's CFG once.
  std::vector<RetryStructure> FindLoopStructures(
      const std::vector<LoopCandidate>& candidates) const;

  // The follow-up query for an LLM-reported coordinator method: every call in
  // the method is a potential retried method; its signature exceptions are
  // potential triggers. No catch/loop requirement — the paper relies on the
  // test oracles to absorb over-reporting.
  std::vector<RetryLocation> TripletsForCoordinator(const mj::MethodDecl& method,
                                                    RetryMechanism mechanism) const;

  // True if the subtree (a loop statement, including its clauses and body)
  // contains any of the configured keywords in identifiers, string literals,
  // or invoked method names. Exposed for tests.
  bool HasKeywordEvidence(const mj::Stmt& stmt) const;

 private:
  void AttachLocations(RetryStructure& structure, const LoopCandidate& candidate,
                       const Cfg& cfg) const;

  const mj::Program& program_;
  const mj::ProgramIndex& index_;
  RetryFinderOptions options_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_ANALYSIS_RETRY_FINDER_H_
