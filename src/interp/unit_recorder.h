// Dependency recording for execution memos (docs/CACHING.md).
//
// A UnitRecorder attached to a run (RunPerturbation::unit_recorder) collects
// the compilation units the run executed code from: the unit of every method
// it entered and, for every object it instantiated, the units of the class
// and its superclasses (whose field initializers ran). Together with the
// program's declaration-shape digest, those units' contents determine the
// run's outcome, so a memoized outcome stays valid while they are unchanged.
//
// Recording is opt-in per run: with no recorder attached the interpreter pays
// one null-pointer test per call and per instantiation, nothing else.

#ifndef WASABI_SRC_INTERP_UNIT_RECORDER_H_
#define WASABI_SRC_INTERP_UNIT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/lang/sema.h"

namespace wasabi {

// Per-program lookup tables, built once per ProgramIndex and shared
// read-only by every recorder on it.
class UnitMap {
 public:
  UnitMap(const mj::Program& program, const mj::ProgramIndex& index);

  size_t unit_count() const { return unit_count_; }
  uint32_t UnitOfMethod(const mj::MethodDecl& method) const {
    return method_unit_[method.method_index];
  }
  // The units of `cls` and its user-class ancestors.
  const std::vector<uint32_t>& UnitsOfClass(const mj::ClassDecl& cls) const;
  // The unit holding `file`, or -1 when no unit does.
  int64_t UnitOfFile(std::string_view file) const;

 private:
  size_t unit_count_ = 0;
  std::vector<uint32_t> method_unit_;  // By MethodDecl::method_index.
  std::unordered_map<const mj::ClassDecl*, std::vector<uint32_t>> class_units_;
  std::unordered_map<std::string_view, uint32_t> file_unit_;
};

class UnitRecorder {
 public:
  UnitRecorder() = default;
  explicit UnitRecorder(const UnitMap& map) : map_(&map), touched_(map.unit_count(), 0) {}

  void OnMethod(const mj::MethodDecl& method) { touched_[map_->UnitOfMethod(method)] = 1; }
  void OnClass(const mj::ClassDecl& cls);
  void AddUnit(uint32_t unit) { touched_[unit] = 1; }
  void Merge(const UnitRecorder& other);

  // Touched unit indices, ascending.
  std::vector<uint32_t> units() const;

 private:
  const UnitMap* map_ = nullptr;
  std::vector<uint8_t> touched_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_INTERP_UNIT_RECORDER_H_
