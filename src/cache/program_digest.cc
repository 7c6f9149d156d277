#include "src/cache/program_digest.h"

#include <algorithm>

#include "src/lang/digest.h"

namespace wasabi {

namespace {

// Length-delimited, so adjacent names cannot alias ("ab"+"c" vs "a"+"bc").
uint64_t MixString(std::string_view text, uint64_t hash) {
  return mj::Fnv1a64Mix(text.size(), mj::Fnv1a64(text, hash));
}

}  // namespace

ProgramDigest DigestProgram(const mj::Program& program) {
  ProgramDigest result;
  uint64_t rollup = mj::kFnvOffsetBasis;
  for (const auto& unit : program.units()) {
    FileDigest file;
    file.file = unit->file().name();
    file.digest = mj::SourceContentDigest(unit->file());
    file.pair = mj::Fnv1a64Mix(file.digest, MixString(file.file, mj::kFnvOffsetBasis));
    rollup = mj::Fnv1a64(file.file, rollup);
    rollup = mj::Fnv1a64Mix(file.digest, rollup);
    result.sorted_pairs.push_back(file.pair);
    result.files.push_back(std::move(file));
  }
  result.digest = rollup;
  result.shape = DigestDeclarationShape(program);
  std::sort(result.sorted_pairs.begin(), result.sorted_pairs.end());
  return result;
}

uint64_t DigestDeclarationShape(const mj::Program& program) {
  uint64_t hash = mj::kFnvOffsetBasis;
  for (const auto& unit : program.units()) {
    hash = MixString(unit->file().name(), hash);
    hash = mj::Fnv1a64Mix(unit->classes().size(), hash);
    for (const mj::ClassDecl* cls : unit->classes()) {
      hash = MixString(cls->name, hash);
      hash = MixString(cls->base_name, hash);
      hash = mj::Fnv1a64Mix(cls->fields.size(), hash);
      for (const mj::FieldDecl* field : cls->fields) {
        hash = MixString(field->type_name, hash);
        hash = MixString(field->name, hash);
      }
      hash = mj::Fnv1a64Mix(cls->methods.size(), hash);
      for (const mj::MethodDecl* method : cls->methods) {
        hash = mj::Fnv1a64Mix(method->is_static ? 1u : 0u, hash);
        hash = mj::Fnv1a64Mix(method->body != nullptr ? 1u : 0u, hash);
        hash = MixString(method->return_type, hash);
        hash = MixString(method->name, hash);
        hash = mj::Fnv1a64Mix(method->params.size(), hash);
        for (const mj::ParamDecl* param : method->params) {
          hash = MixString(param->type_name, hash);
          hash = MixString(param->name, hash);
        }
        hash = mj::Fnv1a64Mix(method->throws.size(), hash);
        for (const std::string& thrown : method->throws) {
          hash = MixString(thrown, hash);
        }
      }
    }
  }
  return hash;
}

CodeDependencies DependenciesOf(const ProgramDigest& program,
                                const std::vector<uint32_t>& unit_indices) {
  CodeDependencies deps;
  deps.shape = program.shape;
  deps.units.reserve(unit_indices.size());
  for (uint32_t unit : unit_indices) {
    deps.units.push_back(program.files[unit].pair);
  }
  std::sort(deps.units.begin(), deps.units.end());
  deps.units.erase(std::unique(deps.units.begin(), deps.units.end()), deps.units.end());
  return deps;
}

bool DependenciesCurrent(const CodeDependencies& deps, const ProgramDigest& program) {
  if (deps.shape != program.shape) {
    return false;
  }
  for (uint64_t pair : deps.units) {
    if (!std::binary_search(program.sorted_pairs.begin(), program.sorted_pairs.end(), pair)) {
      return false;
    }
  }
  return true;
}

}  // namespace wasabi
