// Program-level digest composition (docs/CACHING.md): per-file content
// digests (src/lang/digest.h), a rollup over them, and a declaration-shape
// digest that leaves every method body out.
//
// Whole-program results key on the rollup; per-file results (SimLLM memos)
// key on the individual file digest. Execution results (coverage runs,
// injected runs, storm probes) key on the shape digest plus the digests of
// the files the execution actually ran code from (CodeDependencies), so an
// edit invalidates exactly the executions that could observe it.

#ifndef WASABI_SRC_CACHE_PROGRAM_DIGEST_H_
#define WASABI_SRC_CACHE_PROGRAM_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lang/sema.h"

namespace wasabi {

struct FileDigest {
  std::string file;  // CompilationUnit file name.
  uint64_t digest = 0;
  uint64_t pair = 0;  // Digest of (file, digest): one file at one content.
};

struct ProgramDigest {
  uint64_t digest = 0;            // Rollup over (name, digest) pairs, unit order.
  uint64_t shape = 0;             // Declaration shape (DigestDeclarationShape).
  std::vector<FileDigest> files;  // Parallel to program.units().
  std::vector<uint64_t> sorted_pairs;  // Every file's `pair`, ascending.
};

ProgramDigest DigestProgram(const mj::Program& program);

// Digest of everything execution resolves across files: file names, classes
// and their superclasses, fields (type and name), and method signatures
// (static flag, return type, name, parameters, declared throws), in
// declaration order. Method bodies, field initializers and source positions
// are left out; code inside them is covered by the per-file digests of the
// units an execution touched.
uint64_t DigestDeclarationShape(const mj::Program& program);

// The code one execution depended on: the program's declaration shape plus
// the (file, content) pair digest of every unit it ran code from.
struct CodeDependencies {
  uint64_t shape = 0;
  std::vector<uint64_t> units;  // FileDigest::pair values, ascending.

  bool operator==(const CodeDependencies&) const = default;
};

// Pair digests of the given unit indices (ascending, deduplicated).
CodeDependencies DependenciesOf(const ProgramDigest& program,
                                const std::vector<uint32_t>& unit_indices);

// True when `deps` still describes `program`: the same declaration shape, and
// every recorded file is present with the content it had when recorded.
bool DependenciesCurrent(const CodeDependencies& deps, const ProgramDigest& program);

}  // namespace wasabi

#endif  // WASABI_SRC_CACHE_PROGRAM_DIGEST_H_
