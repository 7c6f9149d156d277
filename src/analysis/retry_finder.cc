#include "src/analysis/retry_finder.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "src/analysis/type_infer.h"

namespace wasabi {

using mj::AstKind;

namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool ContainsKeyword(std::string_view text, const std::vector<std::string>& keywords) {
  std::string lower = ToLower(text);
  for (const std::string& keyword : keywords) {
    if (lower.find(keyword) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Collects every call expression in `stmt` together with the catch clauses
// whose try bodies lexically enclose the call (innermost first). Calls inside
// catch/finally blocks see only the catches of *outer* try statements.
struct CallSite {
  const mj::CallExpr* call = nullptr;
  std::vector<const mj::CatchClause*> catches_in_scope;
};

void CollectCallsInExpr(const mj::Expr* expr,
                        const std::vector<const mj::CatchClause*>& scope,
                        std::vector<CallSite>& out) {
  mj::WalkExprs(expr, [&](const mj::Expr& e) {
    if (e.kind == AstKind::kCall) {
      out.push_back(CallSite{static_cast<const mj::CallExpr*>(&e), scope});
    }
  });
}

void CollectCallsInStmt(const mj::Stmt* stmt, std::vector<const mj::CatchClause*>& scope,
                        std::vector<CallSite>& out) {
  if (stmt == nullptr) {
    return;
  }
  switch (stmt->kind) {
    case AstKind::kBlock:
      for (const mj::Stmt* child : static_cast<const mj::BlockStmt*>(stmt)->statements) {
        CollectCallsInStmt(child, scope, out);
      }
      break;
    case AstKind::kVarDecl:
      CollectCallsInExpr(static_cast<const mj::VarDeclStmt*>(stmt)->init, scope, out);
      break;
    case AstKind::kAssign:
      CollectCallsInExpr(static_cast<const mj::AssignStmt*>(stmt)->target, scope, out);
      CollectCallsInExpr(static_cast<const mj::AssignStmt*>(stmt)->value, scope, out);
      break;
    case AstKind::kExprStmt:
      CollectCallsInExpr(static_cast<const mj::ExprStmt*>(stmt)->expr, scope, out);
      break;
    case AstKind::kIf: {
      const auto* node = static_cast<const mj::IfStmt*>(stmt);
      CollectCallsInExpr(node->condition, scope, out);
      CollectCallsInStmt(node->then_branch, scope, out);
      CollectCallsInStmt(node->else_branch, scope, out);
      break;
    }
    case AstKind::kWhile: {
      const auto* node = static_cast<const mj::WhileStmt*>(stmt);
      CollectCallsInExpr(node->condition, scope, out);
      CollectCallsInStmt(node->body, scope, out);
      break;
    }
    case AstKind::kFor: {
      const auto* node = static_cast<const mj::ForStmt*>(stmt);
      CollectCallsInStmt(node->init, scope, out);
      CollectCallsInExpr(node->condition, scope, out);
      CollectCallsInStmt(node->update, scope, out);
      CollectCallsInStmt(node->body, scope, out);
      break;
    }
    case AstKind::kSwitch: {
      const auto* node = static_cast<const mj::SwitchStmt*>(stmt);
      CollectCallsInExpr(node->subject, scope, out);
      for (const mj::SwitchCase& switch_case : node->cases) {
        for (const mj::Stmt* child : switch_case.body) {
          CollectCallsInStmt(child, scope, out);
        }
      }
      break;
    }
    case AstKind::kTry: {
      const auto* node = static_cast<const mj::TryStmt*>(stmt);
      size_t added = node->catches.size();
      for (const mj::CatchClause& clause : node->catches) {
        scope.push_back(&clause);
      }
      for (const mj::Stmt* child : node->body->statements) {
        CollectCallsInStmt(child, scope, out);
      }
      scope.resize(scope.size() - added);
      for (const mj::CatchClause& clause : node->catches) {
        for (const mj::Stmt* child : clause.body->statements) {
          CollectCallsInStmt(child, scope, out);
        }
      }
      if (node->finally != nullptr) {
        for (const mj::Stmt* child : node->finally->statements) {
          CollectCallsInStmt(child, scope, out);
        }
      }
      break;
    }
    case AstKind::kThrow:
      CollectCallsInExpr(static_cast<const mj::ThrowStmt*>(stmt)->value, scope, out);
      break;
    case AstKind::kReturn:
      CollectCallsInExpr(static_cast<const mj::ReturnStmt*>(stmt)->value, scope, out);
      break;
    default:
      break;
  }
}

}  // namespace

RetryFinder::RetryFinder(const mj::Program& program, const mj::ProgramIndex& index,
                         RetryFinderOptions options)
    : program_(program), index_(index), options_(std::move(options)) {}

bool RetryFinder::HasKeywordEvidence(const mj::Stmt& stmt) const {
  bool found = false;
  auto check = [&](std::string_view text) {
    if (!found && ContainsKeyword(text, options_.keywords)) {
      found = true;
    }
  };
  auto expr_fn = [&](const mj::Expr& expr) {
    switch (expr.kind) {
      case AstKind::kName:
        check(static_cast<const mj::NameExpr&>(expr).name);
        break;
      case AstKind::kStringLiteral:
        check(static_cast<const mj::StringLiteralExpr&>(expr).value);
        break;
      case AstKind::kFieldAccess:
        check(static_cast<const mj::FieldAccessExpr&>(expr).field);
        break;
      case AstKind::kCall:
        check(static_cast<const mj::CallExpr&>(expr).callee);
        break;
      default:
        break;
    }
  };
  auto stmt_fn = [&](const mj::Stmt& s) {
    if (s.kind == AstKind::kVarDecl) {
      check(static_cast<const mj::VarDeclStmt&>(s).name);
    }
  };
  mj::WalkStmts(&stmt, stmt_fn, expr_fn);
  return found;
}

namespace {

bool IsTestClassName(std::string_view name) {
  return name.size() >= 4 && name.substr(name.size() - 4) == "Test";
}

}  // namespace

std::vector<LoopCandidate> RetryFinder::FindCandidateLoops() const {
  std::vector<LoopCandidate> candidates;
  CfgBuilder builder;
  for (const mj::MethodDecl* method : index_.all_methods()) {
    if (method->body == nullptr) {
      continue;
    }
    if (options_.skip_test_classes && method->owner != nullptr &&
        IsTestClassName(method->owner->name)) {
      continue;
    }
    Cfg cfg = builder.Build(*method);

    // Find every loop statement in the body.
    std::vector<const mj::Stmt*> loops;
    mj::WalkStmts(
        method->body,
        [&](const mj::Stmt& stmt) {
          if (stmt.kind == AstKind::kWhile || stmt.kind == AstKind::kFor) {
            loops.push_back(&stmt);
          }
        },
        [](const mj::Expr&) {});

    for (const mj::Stmt* loop : loops) {
      CfgNodeId header = cfg.HeaderOf(*loop);
      if (header == kInvalidCfgNode) {
        continue;
      }
      const mj::Stmt* body =
          loop->kind == AstKind::kWhile ? static_cast<const mj::WhileStmt*>(loop)->body
                                        : static_cast<const mj::ForStmt*>(loop)->body;
      // Catch clauses lexically inside the loop body.
      std::vector<const mj::CatchClause*> reaching;
      mj::WalkStmts(
          body,
          [&](const mj::Stmt& stmt) {
            if (stmt.kind != AstKind::kTry) {
              return;
            }
            for (const mj::CatchClause& clause : static_cast<const mj::TryStmt&>(stmt).catches) {
              CfgNodeId entry = cfg.CatchEntryOf(clause);
              if (entry != kInvalidCfgNode && cfg.Reaches(entry, header)) {
                reaching.push_back(&clause);
              }
            }
          },
          [](const mj::Expr&) {});
      if (reaching.empty()) {
        continue;
      }
      LoopCandidate candidate;
      candidate.method = method;
      candidate.loop = loop;
      // The paper's filter checks the loop body/condition; the enclosing
      // method's own name (e.g. `fetchWithRetries`) is equally direct naming
      // evidence, so it counts too.
      candidate.keyword_evidence =
          HasKeywordEvidence(*loop) || ContainsKeyword(method->name, options_.keywords);
      candidate.reaching_catches = std::move(reaching);
      candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

void RetryFinder::AttachLocations(RetryStructure& structure, const LoopCandidate& candidate,
                                  const Cfg& cfg) const {
  LocalTypes types(*candidate.method, index_);
  CfgNodeId header = cfg.HeaderOf(*candidate.loop);

  const mj::Stmt* body = candidate.loop->kind == AstKind::kWhile
                             ? static_cast<const mj::WhileStmt*>(candidate.loop)->body
                             : static_cast<const mj::ForStmt*>(candidate.loop)->body;
  std::vector<CallSite> calls;
  std::vector<const mj::CatchClause*> scope;
  CollectCallsInStmt(body, scope, calls);

  std::unordered_set<std::string> seen;
  for (const CallSite& site : calls) {
    if (site.catches_in_scope.empty()) {
      continue;  // A call outside any try can't trigger catch-driven retry.
    }
    const mj::MethodDecl* resolved = types.ResolveCall(*site.call);
    if (resolved == nullptr) {
      continue;
    }
    for (const std::string& exception : index_.PotentialThrows(*resolved)) {
      // Is there a catch in scope that would catch E and reach the header?
      bool retriggers = false;
      for (const mj::CatchClause* clause : site.catches_in_scope) {
        if (!index_.IsSubtype(exception, clause->exception_type)) {
          continue;
        }
        CfgNodeId entry = cfg.CatchEntryOf(*clause);
        if (entry != kInvalidCfgNode && cfg.Reaches(entry, header)) {
          retriggers = true;
        }
        // The innermost catch that matches E handles it; stop looking.
        break;
      }
      if (!retriggers) {
        continue;
      }
      RetryLocation location;
      location.coordinator = candidate.method->QualifiedName();
      location.coordinator_decl = candidate.method;
      location.retried_method = resolved->QualifiedName();
      location.retried_decl = resolved;
      location.exception_name = exception;
      location.call_site = site.call;
      location.location = site.call->location;
      const mj::CompilationUnit* unit = index_.UnitOfMethod(*candidate.method);
      location.file = unit != nullptr ? unit->file().name() : "";
      location.mechanism = RetryMechanism::kLoop;
      if (seen.insert(location.Key()).second) {
        structure.locations.push_back(std::move(location));
      }
    }
  }
}

std::vector<RetryStructure> RetryFinder::FindLoopStructures() const {
  return FindLoopStructures(FindCandidateLoops());
}

std::vector<RetryStructure> RetryFinder::FindLoopStructures(
    const std::vector<LoopCandidate>& candidates) const {
  std::vector<RetryStructure> structures;
  CfgBuilder builder;
  for (const LoopCandidate& candidate : candidates) {
    if (options_.require_keyword && !candidate.keyword_evidence) {
      continue;
    }
    RetryStructure structure;
    const mj::CompilationUnit* unit = index_.UnitOfMethod(*candidate.method);
    structure.file = unit != nullptr ? unit->file().name() : "";
    structure.coordinator = candidate.method->QualifiedName();
    structure.coordinator_decl = candidate.method;
    structure.mechanism = RetryMechanism::kLoop;
    structure.anchor = candidate.loop;
    structure.location = candidate.loop->location;
    structure.found_by.codeql = true;
    structure.keyword_evidence = candidate.keyword_evidence;
    Cfg cfg = builder.Build(*candidate.method);
    AttachLocations(structure, candidate, cfg);
    structures.push_back(std::move(structure));
  }
  return structures;
}

std::vector<RetryLocation> RetryFinder::TripletsForCoordinator(const mj::MethodDecl& method,
                                                               RetryMechanism mechanism) const {
  std::vector<RetryLocation> locations;
  if (method.body == nullptr) {
    return locations;
  }
  LocalTypes types(method, index_);
  std::vector<CallSite> calls;
  std::vector<const mj::CatchClause*> scope;
  for (const mj::Stmt* stmt : method.body->statements) {
    CollectCallsInStmt(stmt, scope, calls);
  }
  std::unordered_set<std::string> seen;
  for (const CallSite& site : calls) {
    const mj::MethodDecl* resolved = types.ResolveCall(*site.call);
    if (resolved == nullptr) {
      continue;
    }
    for (const std::string& exception : index_.PotentialThrows(*resolved)) {
      RetryLocation location;
      location.coordinator = method.QualifiedName();
      location.coordinator_decl = &method;
      location.retried_method = resolved->QualifiedName();
      location.retried_decl = resolved;
      location.exception_name = exception;
      location.call_site = site.call;
      location.location = site.call->location;
      const mj::CompilationUnit* unit = index_.UnitOfMethod(method);
      location.file = unit != nullptr ? unit->file().name() : "";
      location.mechanism = mechanism;
      if (seen.insert(location.Key()).second) {
        locations.push_back(std::move(location));
      }
    }
  }
  return locations;
}

}  // namespace wasabi
