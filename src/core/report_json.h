// JSON serialization of bug reports, for machine consumption of CLI output
// (CI integration, dashboards). Hand-rolled emitter — no third-party JSON
// dependency — with full string escaping.

#ifndef WASABI_SRC_CORE_REPORT_JSON_H_
#define WASABI_SRC_CORE_REPORT_JSON_H_

#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/obs/json.h"  // JsonEscape, re-exported for report emitters.
#include "src/robust/failure.h"

namespace wasabi {

// Renders bug reports as a JSON array of objects with keys:
// type, technique, app, file, line, coordinator, exception, detail.
std::string BugReportsToJson(const std::vector<BugReport>& bugs);

// A source file the degraded-mode loader skipped instead of aborting the
// whole analysis (docs/ROBUSTNESS.md).
struct SkippedFile {
  std::string path;
  std::string reason;
};

// How trustworthy an analysis output is: which input files were skipped and
// which runs the campaign quarantined. clean() means "nothing went wrong".
struct ReportHealth {
  std::vector<SkippedFile> skipped_files;
  std::vector<RunFailure> quarantined;
  bool degraded() const { return !skipped_files.empty() || !quarantined.empty(); }
  bool clean() const { return !degraded(); }
};

// Renders the full analysis report. When `health.clean()` the output is
// byte-identical to BugReportsToJson(bugs) — the default-off guarantee for
// downstream consumers. Otherwise it is an object
//   {"degraded": true, "bugs": [...], "skipped_files": [...],
//    "quarantined": [...]}
// whose "bugs" value is the same array.
std::string AnalysisReportToJson(const std::vector<BugReport>& bugs,
                                 const ReportHealth& health);

}  // namespace wasabi

#endif  // WASABI_SRC_CORE_REPORT_JSON_H_
