#include "src/core/report_json.h"

#include <sstream>

namespace wasabi {

std::string BugReportsToJson(const std::vector<BugReport>& bugs) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < bugs.size(); ++i) {
    const BugReport& bug = bugs[i];
    if (i > 0) {
      out << ",";
    }
    out << "\n  {"
        << "\"type\": \"" << JsonEscape(BugTypeName(bug.type)) << "\", "
        << "\"technique\": \"" << JsonEscape(DetectionTechniqueName(bug.technique)) << "\", "
        << "\"app\": \"" << JsonEscape(bug.app) << "\", "
        << "\"file\": \"" << JsonEscape(bug.file) << "\", "
        << "\"line\": " << bug.location.line << ", "
        << "\"coordinator\": \"" << JsonEscape(bug.coordinator) << "\", "
        << "\"exception\": \"" << JsonEscape(bug.exception) << "\", "
        << "\"detail\": \"" << JsonEscape(bug.detail) << "\"";
    // Stability keys appear ONLY for probed reports: an un-probed analysis
    // emits the exact legacy bytes (golden-equivalence contract).
    if (bug.probed) {
      out << ", \"stability\": \"" << JsonEscape(VerdictStabilityName(bug.stability))
          << "\"";
      if (!bug.flaky_cause.empty()) {
        out << ", \"flaky_cause\": \"" << JsonEscape(bug.flaky_cause) << "\"";
      }
    }
    out << "}";
  }
  out << "\n]\n";
  return out.str();
}

std::string AnalysisReportToJson(const std::vector<BugReport>& bugs,
                                 const ReportHealth& health) {
  if (health.clean()) {
    // Default-off guarantee: a healthy analysis emits the exact legacy array,
    // so consumers that never asked for robustness see nothing new.
    return BugReportsToJson(bugs);
  }
  std::string bugs_json = BugReportsToJson(bugs);
  if (!bugs_json.empty() && bugs_json.back() == '\n') {
    bugs_json.pop_back();
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"degraded\": true,\n"
      << "  \"bugs\": " << bugs_json << ",\n"
      << "  \"skipped_files\": [";
  for (size_t i = 0; i < health.skipped_files.size(); ++i) {
    const SkippedFile& file = health.skipped_files[i];
    out << (i > 0 ? "," : "") << "\n    {\"path\": \"" << JsonEscape(file.path)
        << "\", \"reason\": \"" << JsonEscape(file.reason) << "\"}";
  }
  out << "\n  ],\n  \"quarantined\": [";
  for (size_t i = 0; i < health.quarantined.size(); ++i) {
    const RunFailure& failure = health.quarantined[i];
    out << (i > 0 ? "," : "") << "\n    {\"run_id\": " << failure.run_id << ", \"test\": \""
        << JsonEscape(failure.test) << "\", \"location\": \"" << JsonEscape(failure.location)
        << "\", \"kind\": \"" << RunFailureKindName(failure.kind) << "\", \"detail\": \""
        << JsonEscape(failure.detail) << "\", \"attempts\": " << failure.attempts
        << ", \"chaos\": " << (failure.chaos ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace wasabi
