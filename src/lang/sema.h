// Program-level semantic index for mj.
//
// A Program is a set of compilation units (one per file) that together form an
// application. The ProgramIndex provides the name-based lookups every later
// stage needs: class and method resolution, the exception type hierarchy
// (builtin Java-like exceptions plus user classes extending them), and
// callee-signature exception inference ("which exceptions could method M
// throw"), which is how the paper's CodeQL queries find retry triggers.

#ifndef WASABI_SRC_LANG_SEMA_H_
#define WASABI_SRC_LANG_SEMA_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/resolve.h"
#include "src/lang/symtab.h"

namespace mj {

// Transparent hasher so string_view lookups hit string-keyed maps without
// materializing a std::string per query (hot on the interpreter's slow paths).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const { return std::hash<std::string_view>{}(text); }
};

// A value built at most once, lazily and thread-safely, then shared by every
// reader. Type-erased so an index can own an artifact of a layer above
// src/lang; that layer reads it through one typed accessor.
class OnceSlot {
 public:
  // Runs `build` on the first call (concurrent first callers wait for it) and
  // returns its result to every caller. `T` is the type `build` returns.
  template <typename T, typename Build>
  std::shared_ptr<const T> Get(Build&& build) {
    std::call_once(once_, [&] { value_ = std::forward<Build>(build)(); });
    return std::static_pointer_cast<const T>(value_);
  }

 private:
  std::once_flag once_;
  std::shared_ptr<const void> value_;
};

// A whole application: owns its compilation units.
class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  CompilationUnit* AddUnit(std::unique_ptr<CompilationUnit> unit);
  // Puts `unit` at position `index` and returns the unit it displaces.
  std::unique_ptr<CompilationUnit> ReplaceUnit(size_t index, std::unique_ptr<CompilationUnit> unit);

  const std::vector<std::unique_ptr<CompilationUnit>>& units() const { return units_; }

 private:
  std::vector<std::unique_ptr<CompilationUnit>> units_;
};

// One entry of the builtin exception hierarchy.
struct BuiltinException {
  std::string_view name;
  std::string_view parent;  // Empty for the root ("Exception").
  // True when production systems typically consider this error transient, i.e.
  // a sensible retry trigger. Used by corpus generation and ground truth, not
  // by the detectors themselves (the paper's point is that systems must decide
  // this, and often get it wrong).
  bool typically_transient;
};

// The preloaded exception hierarchy: Java-like names used across the corpus,
// mirroring the exception types that appear in the paper's studied bugs.
const std::vector<BuiltinException>& BuiltinExceptions();

// True if `name` is one of the builtin exception type names.
bool IsBuiltinException(std::string_view name);

// Name-based program index. Construction never fails; unresolved names simply
// yield null lookups (mj is dynamically checked, like the paper's subject
// systems are to the analyses that only see one file at a time).
class ProgramIndex {
 public:
  // `diag` may be null; when provided, duplicate class definitions are reported.
  explicit ProgramIndex(const Program& program, DiagnosticEngine* diag = nullptr);

  const ClassDecl* FindClass(std::string_view name) const;
  const CompilationUnit* UnitOf(const ClassDecl& cls) const;
  const CompilationUnit* UnitOfMethod(const MethodDecl& method) const;

  // Resolves `name` against `cls` and its base chain; null if absent.
  const MethodDecl* ResolveMethod(const ClassDecl& cls, std::string_view name) const;

  // Finds a method by qualified name "Class.method"; null if absent.
  const MethodDecl* FindQualified(std::string_view qualified_name) const;

  // All methods with simple name `name` across the program (best-effort call
  // resolution when the receiver's class is unknown).
  std::vector<const MethodDecl*> MethodsNamed(std::string_view name) const;

  // True for builtin exceptions, and for user classes that (transitively)
  // extend an exception type.
  bool IsExceptionType(std::string_view name) const;

  // Subtype test across user classes and builtin exceptions. A type is a
  // subtype of itself.
  bool IsSubtype(std::string_view sub, std::string_view super) const;

  // Immediate supertype name, or empty for roots/unknown types.
  std::string_view ParentOf(std::string_view type) const;

  // Exceptions the method's signature declares (the paper's "prototype" view).
  const std::vector<std::string>& DeclaredThrows(const MethodDecl& method) const;

  // Declared throws plus exception types directly constructed by `throw new E(...)`
  // statements in the body. This approximates interprocedural may-throw without
  // whole-program dataflow, which is exactly the precision CodeQL-style checks
  // in the paper work at.
  std::vector<std::string> PotentialThrows(const MethodDecl& method) const;

  const std::vector<const ClassDecl*>& all_classes() const { return all_classes_; }
  const std::vector<const MethodDecl*>& all_methods() const { return all_methods_; }

  // --- Resolution-pass output (the interpreter's fast path) ----------------
  // Construction runs ResolveProgram over the (shared, immutable) program;
  // see src/lang/resolve.h and docs/PERFORMANCE.md.

  const SymbolTable& symbols() const { return resolution_.symbols; }

  // Flat field layout of `cls` (present for every class of this program).
  const FieldLayout& field_layout(const ClassDecl& cls) const {
    return resolution_.field_layouts.at(&cls);
  }

  // Fallback slots behind NameExpr::fallback_chain.
  const std::vector<SlotIndex>& name_chain(uint32_t chain) const {
    return resolution_.name_chains[chain];
  }

  // Number of CallExpr sites in the program; sizes dispatch caches.
  uint32_t call_site_count() const { return resolution_.call_site_count; }

  // Number of methods annotated by the resolution pass; sizes per-method side
  // tables (MethodDecl::method_index is dense in [0, method_count)).
  uint32_t method_count() const { return resolution_.method_count; }

  // The program's bytecode (vm::CompiledProgram), compiled on first use and
  // shared by every interpreter on this index. Read it only through
  // vm::CompiledFor (src/vm/bytecode.h). The slot lives and dies with the
  // index, so a rebuilt index — repair's patched program — compiles its own.
  OnceSlot& compiled_program_slot() const { return compiled_program_; }

 private:
  std::unordered_map<std::string, const ClassDecl*, StringHash, std::equal_to<>> classes_by_name_;
  std::unordered_map<const ClassDecl*, const CompilationUnit*> unit_of_class_;
  std::unordered_map<std::string, std::vector<const MethodDecl*>, StringHash, std::equal_to<>>
      methods_by_name_;
  std::unordered_map<std::string, const MethodDecl*, StringHash, std::equal_to<>>
      methods_by_qualified_name_;
  std::vector<const ClassDecl*> all_classes_;
  std::vector<const MethodDecl*> all_methods_;
  ResolveResult resolution_;
  mutable OnceSlot compiled_program_;
  static const std::vector<std::string> kNoThrows;
};

}  // namespace mj

#endif  // WASABI_SRC_LANG_SEMA_H_
