#include "src/interp/unit_recorder.h"

namespace wasabi {

UnitMap::UnitMap(const mj::Program& program, const mj::ProgramIndex& index)
    : unit_count_(program.units().size()), method_unit_(index.method_count(), 0) {
  std::unordered_map<const mj::ClassDecl*, uint32_t> unit_of_class;
  for (uint32_t u = 0; u < program.units().size(); ++u) {
    const mj::CompilationUnit& unit = *program.units()[u];
    file_unit_.emplace(unit.file().name(), u);
    for (const mj::ClassDecl* cls : unit.classes()) {
      unit_of_class.emplace(cls, u);
      for (const mj::MethodDecl* method : cls->methods) {
        method_unit_[method->method_index] = u;
      }
    }
  }
  for (const auto& [cls, unit] : unit_of_class) {
    std::vector<uint32_t>& units = class_units_[cls];
    units.push_back(unit);
    // Bounded walk, like ProgramIndex::ResolveMethod, so a base cycle cannot
    // hang construction.
    const mj::ClassDecl* base = index.FindClass(cls->base_name);
    for (int depth = 0; base != nullptr && depth < 64; ++depth) {
      auto it = unit_of_class.find(base);
      if (it != unit_of_class.end()) {
        units.push_back(it->second);
      }
      base = base->base_name.empty() ? nullptr : index.FindClass(base->base_name);
    }
  }
}

const std::vector<uint32_t>& UnitMap::UnitsOfClass(const mj::ClassDecl& cls) const {
  static const std::vector<uint32_t> kNone;
  auto it = class_units_.find(&cls);
  return it == class_units_.end() ? kNone : it->second;
}

int64_t UnitMap::UnitOfFile(std::string_view file) const {
  auto it = file_unit_.find(file);
  return it == file_unit_.end() ? -1 : static_cast<int64_t>(it->second);
}

void UnitRecorder::OnClass(const mj::ClassDecl& cls) {
  for (uint32_t unit : map_->UnitsOfClass(cls)) {
    touched_[unit] = 1;
  }
}

void UnitRecorder::Merge(const UnitRecorder& other) {
  if (touched_.size() < other.touched_.size()) {
    touched_.resize(other.touched_.size(), 0);
  }
  for (size_t u = 0; u < other.touched_.size(); ++u) {
    touched_[u] |= other.touched_[u];
  }
}

std::vector<uint32_t> UnitRecorder::units() const {
  std::vector<uint32_t> units;
  for (size_t u = 0; u < touched_.size(); ++u) {
    if (touched_[u] != 0) {
      units.push_back(static_cast<uint32_t>(u));
    }
  }
  return units;
}

}  // namespace wasabi
