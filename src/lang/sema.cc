#include "src/lang/sema.h"

#include <algorithm>
#include <unordered_set>

namespace mj {

const std::vector<std::string> ProgramIndex::kNoThrows = {};

CompilationUnit* Program::AddUnit(std::unique_ptr<CompilationUnit> unit) {
  units_.push_back(std::move(unit));
  return units_.back().get();
}

std::unique_ptr<CompilationUnit> Program::ReplaceUnit(size_t index,
                                                      std::unique_ptr<CompilationUnit> unit) {
  units_[index].swap(unit);
  return unit;
}

const std::vector<BuiltinException>& BuiltinExceptions() {
  // Mirrors the exception types named by the paper's studied bugs (§2) plus
  // the common Java types the corpus applications use. `typically_transient`
  // is ground-truth metadata for corpus generation.
  static const std::vector<BuiltinException> kExceptions = {
      {"Exception", "", false},
      {"RuntimeException", "Exception", false},
      {"NullPointerException", "RuntimeException", false},
      {"IllegalArgumentException", "RuntimeException", false},
      {"IllegalStateException", "RuntimeException", false},
      {"UnsupportedOperationException", "RuntimeException", false},
      {"ArithmeticException", "RuntimeException", false},
      {"IOException", "Exception", true},
      {"ConnectException", "IOException", true},
      {"SocketException", "IOException", true},
      {"SocketTimeoutException", "IOException", true},
      {"EOFException", "IOException", false},
      {"FileNotFoundException", "IOException", false},
      {"AccessControlException", "IOException", false},
      {"RemoteException", "IOException", true},
      {"TimeoutException", "Exception", true},
      {"InterruptedException", "Exception", false},
      {"KeeperException", "Exception", true},
      {"KeeperConnectionLossException", "KeeperException", true},
      {"KeeperRequestTimeoutException", "KeeperException", true},
      {"TTransportException", "Exception", true},
      {"ServiceUnavailableException", "Exception", true},
      {"ResourceExhaustedException", "Exception", true},
      {"LeaseExpiredException", "Exception", true},
      {"ExitException", "Exception", false},
      {"HadoopException", "Exception", false},          // Generic wrapper type.
      {"RetriableException", "Exception", true},
      {"UnknownTopicOrPartitionException", "RetriableException", true},
      {"CoordinatorLoadInProgressException", "RetriableException", true},
      {"CommitFailedException", "Exception", false},
      {"TaskCanceledException", "Exception", false},
      {"ShutdownException", "Exception", false},
      {"AssertionError", "Exception", false},           // Thrown by Assert builtins.
  };
  return kExceptions;
}

namespace {

const std::unordered_map<std::string_view, const BuiltinException*>& BuiltinExceptionMap() {
  static const auto* kMap = [] {
    auto* map = new std::unordered_map<std::string_view, const BuiltinException*>();
    for (const BuiltinException& exc : BuiltinExceptions()) {
      map->emplace(exc.name, &exc);
    }
    return map;
  }();
  return *kMap;
}

}  // namespace

bool IsBuiltinException(std::string_view name) {
  return BuiltinExceptionMap().count(name) > 0;
}

ProgramIndex::ProgramIndex(const Program& program, DiagnosticEngine* diag) {
  for (const auto& unit : program.units()) {
    for (const ClassDecl* cls : unit->classes()) {
      auto [it, inserted] = classes_by_name_.emplace(cls->name, cls);
      if (!inserted && diag != nullptr) {
        diag->Error(cls->location, "duplicate class '" + cls->name + "'");
      }
      if (inserted) {
        all_classes_.push_back(cls);
        unit_of_class_.emplace(cls, unit.get());
        for (const MethodDecl* method : cls->methods) {
          all_methods_.push_back(method);
          methods_by_name_[method->name].push_back(method);
          methods_by_qualified_name_.emplace(method->QualifiedName(), method);
        }
      }
    }
  }
  // Annotate the AST for the interpreter's slot frames, dispatch cache and
  // field layouts. Deterministic and idempotent, so building several indexes
  // over one program is safe (each produces identical annotations).
  resolution_ = ResolveProgram(program, *this);
}

const ClassDecl* ProgramIndex::FindClass(std::string_view name) const {
  auto it = classes_by_name_.find(name);
  return it == classes_by_name_.end() ? nullptr : it->second;
}

const CompilationUnit* ProgramIndex::UnitOf(const ClassDecl& cls) const {
  auto it = unit_of_class_.find(&cls);
  return it == unit_of_class_.end() ? nullptr : it->second;
}

const CompilationUnit* ProgramIndex::UnitOfMethod(const MethodDecl& method) const {
  return method.owner == nullptr ? nullptr : UnitOf(*method.owner);
}

const MethodDecl* ProgramIndex::ResolveMethod(const ClassDecl& cls,
                                              std::string_view name) const {
  const ClassDecl* current = &cls;
  // Bounded walk defends against base cycles without per-call allocation.
  for (int depth = 0; current != nullptr && depth < 64; ++depth) {
    for (const MethodDecl* method : current->methods) {
      if (method->name == name) {
        return method;
      }
    }
    current = current->base_name.empty() ? nullptr : FindClass(current->base_name);
  }
  return nullptr;
}

const MethodDecl* ProgramIndex::FindQualified(std::string_view qualified_name) const {
  auto it = methods_by_qualified_name_.find(qualified_name);
  return it == methods_by_qualified_name_.end() ? nullptr : it->second;
}

std::vector<const MethodDecl*> ProgramIndex::MethodsNamed(std::string_view name) const {
  auto it = methods_by_name_.find(name);
  return it == methods_by_name_.end() ? std::vector<const MethodDecl*>{} : it->second;
}

bool ProgramIndex::IsExceptionType(std::string_view name) const {
  if (IsBuiltinException(name)) {
    return true;
  }
  // A user class is an exception type if its base chain reaches a builtin
  // exception.
  const ClassDecl* cls = FindClass(name);
  std::unordered_set<const ClassDecl*> visited;
  while (cls != nullptr && visited.insert(cls).second) {
    if (IsBuiltinException(cls->base_name)) {
      return true;
    }
    cls = cls->base_name.empty() ? nullptr : FindClass(cls->base_name);
  }
  return false;
}

std::string_view ProgramIndex::ParentOf(std::string_view type) const {
  auto it = BuiltinExceptionMap().find(type);
  if (it != BuiltinExceptionMap().end()) {
    return it->second->parent;
  }
  const ClassDecl* cls = FindClass(type);
  if (cls != nullptr) {
    return cls->base_name;
  }
  return {};
}

bool ProgramIndex::IsSubtype(std::string_view sub, std::string_view super) const {
  std::string_view current = sub;
  // Bounded walk defends against accidental extends-cycles in corpus source.
  for (int depth = 0; depth < 64 && !current.empty(); ++depth) {
    if (current == super) {
      return true;
    }
    current = ParentOf(current);
  }
  return false;
}

const std::vector<std::string>& ProgramIndex::DeclaredThrows(const MethodDecl& method) const {
  if (method.throws.empty()) {
    return kNoThrows;
  }
  return method.throws;
}

std::vector<std::string> ProgramIndex::PotentialThrows(const MethodDecl& method) const {
  std::vector<std::string> result = method.throws;
  std::unordered_set<std::string> seen(result.begin(), result.end());
  if (method.body != nullptr) {
    WalkStmts(
        method.body,
        [&](const Stmt& stmt) {
          if (stmt.kind != AstKind::kThrow) {
            return;
          }
          const Expr* value = static_cast<const ThrowStmt&>(stmt).value;
          if (value != nullptr && value->kind == AstKind::kNew) {
            const std::string& name = static_cast<const NewExpr*>(value)->class_name;
            if (seen.insert(name).second) {
              result.push_back(name);
            }
          }
        },
        [](const Expr&) {});
  }
  return result;
}

}  // namespace mj
