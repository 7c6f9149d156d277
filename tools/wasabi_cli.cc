// wasabi — command-line driver for the retry-bug detection toolkit.
//
// Usage:
//   wasabi dump-corpus <dir>          write the 8 evaluation applications' mj
//                                     sources (and MANIFEST.txt) under <dir>
//   wasabi identify <dir>             retry-structure inventory for the mj
//                                     sources under <dir> (recursive)
//   wasabi static <dir>               static workflow: LLM WHEN bugs + IF
//                                     retry-ratio outliers
//   wasabi test <dir>                 dynamic workflow: repurposed unit tests
//                                     with fault injection and oracles
//   wasabi analyze <dir>              alias for `test`
//   wasabi storm <dir>                deterministic retry-storm simulation of
//                                     the app's extracted retry policies
//                                     (docs/STORM.md)
//   wasabi repair <dir>               automated repair loop: synthesize a
//                                     template patch for every confirmed
//                                     WHEN/storm verdict and validate it by a
//                                     cache-sliced re-campaign (docs/REPAIR.md)
//   wasabi study                      print the §2 issue-study summary
//   wasabi report --journal=FILE --out=FILE [--metrics=FILE] [--trace=FILE]
//                 [--repair=FILE]     render a journal (plus optional sibling
//                                     artifacts, including a repair report)
//                                     into one self-contained HTML dashboard —
//                                     no analysis is run
//
// Options:
//   --json                            machine-readable bug reports
//   --jobs N                          worker threads for the injection
//                                     campaign (for repair: the per-candidate
//                                     validations), 1 <= N <= 1024 (default:
//                                     all hardware threads; output is
//                                     identical for any N)
//   --trace-out=FILE                  write a Chrome trace-event JSON of the
//                                     run (open in chrome://tracing/Perfetto)
//   --metrics-out=FILE                write the metrics snapshot
//   --metrics-format=json|openmetrics metrics-out encoding (default json);
//                                     openmetrics is Prometheus-scrapeable
//   --engine=vm|tree                  mj execution engine: the bytecode VM
//                                     (default) or the reference tree-walker
//                                     (docs/PERFORMANCE.md); output is
//                                     byte-identical for either, and the
//                                     choice is part of the cache/record
//                                     config digest
//   --journal-out=FILE                write the retry-behavior journal JSON
//                                     (docs/OBSERVABILITY.md); byte-identical
//                                     at any --jobs N
//   --report-out=FILE                 render the HTML retry dashboard for this
//                                     run (implies journaling)
//   --progress                        periodic campaign progress on stderr
//   --fail-fast                       stop scheduling runs after the first
//                                     quarantined one
//   --max-quarantined N               abort the campaign once more than N
//                                     runs are quarantined
//   --chaos SEED:RATE[:ENV_RATE]      self-chaos: deterministically fail RATE
//                                     of runs at the host level (containment
//                                     drill, docs/ROBUSTNESS.md); ENV_RATE of
//                                     runs additionally execute in the seeded
//                                     degraded-environment mode; SEED is
//                                     decimal digits only, below 2^64
//   --repetitions N                   flakiness prober: rerun each failing
//                                     campaign verdict N times under clock
//                                     perturbation and classify it {stable,
//                                     flaky, chaos-induced} (docs/FLAKINESS.md)
//   --record DIR                      record every campaign run's decision
//                                     stream (chaos/backoff/injection/dispatch
//                                     events) into DIR; output-neutral
//   --replay ID                       test/analyze only: replay the single
//                                     recorded run ID from --record DIR in
//                                     isolation and compare the decision
//                                     stream and verdict byte-for-byte (pass
//                                     the same flags as the recording run)
//   --cache-dir=DIR                   memoize per-file analysis, coverage, and
//                                     campaign verdicts under DIR keyed by
//                                     content digests (docs/CACHING.md);
//                                     reports are byte-identical with the
//                                     cache on, off, warm, or damaged
//   --scale N                         dump-corpus only: emit N seeded variants
//                                     of each application (default 1)
//   --app NAME                        dump-corpus only: emit a single known
//                                     app (including the on-demand labs
//                                     "flakylab", "stormlab", and "repairlab");
//                                     unknown names are rejected with exit
//                                     code 2
//   --storm                           test/analyze only: also run the storm
//                                     simulation, output-neutral — results go
//                                     to the obs sinks (journal/metrics/trace/
//                                     report) only
//   --storm-seed N                    storm RNG seed (non-negative; default 1)
//   --storm-duration MS               simulated duration (1..600000; default
//                                     30000)
//   --storm-fault START:END           transient backend fault window in
//                                     simulated ms (0 <= START < END <=
//                                     duration; default 5000:10000)
//   --storm-out=FILE                  write the storm report JSON
//                                     ("wasabi-storm-v1"; byte-identical at
//                                     any --jobs N)
//   --repair-out=FILE                 repair only: write the repair report
//                                     JSON ("wasabi-repair-v1"; byte-identical
//                                     at any --jobs N and any cache state)
//
// Malformed .mj files no longer abort an analysis: they are skipped with a
// diagnostic on stderr and the report is marked degraded (JSON gains
// "degraded": true plus skipped_files/quarantined sections; exit stays 0).
//
// Instrumentation never touches stdout: reports are byte-identical with and
// without --trace-out/--metrics-out/--progress. Unknown options, options the
// command does not take, missing values and out-of-range integers (none
// saturates) are rejected with exit code 2.
//
// Directory layout convention: every *.mj file is part of the application;
// classes whose names end in "Test" are unit tests. The directory's base name
// is used as the application name in reports.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/lang/parser.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/report_html.h"
#include "src/obs/retry_stats.h"
#include "src/obs/trace.h"
#include "src/repair/repair.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"
#include "src/study/study.h"

namespace fs = std::filesystem;

namespace {

using namespace wasabi;

// Parsed command-line options. Each subcommand reads only the fields its
// handler needs, and the flag table scopes every flag to exactly those
// subcommands; the report command reads only the five artifact paths, which
// name the files to read (--journal/--metrics/--trace/--repair) and the HTML
// to write (--out).
struct CliOptions {
  bool json = false;
  bool progress = false;
  int jobs = 0;  // 0 = all hardware threads (DefaultJobCount).
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";  // "json" | "openmetrics".
  std::string engine = "vm";            // "vm" | "tree" (docs/PERFORMANCE.md).
  std::string journal_out;  // Empty = retry journal off.
  std::string report_out;   // Empty = no HTML report; non-empty implies journaling.
  bool fail_fast = false;
  int64_t max_quarantined = -1;  // < 0 = unlimited.
  ChaosConfig chaos;
  std::string cache_dir;  // Empty = cache off (the default code path).
  int scale = 1;          // dump-corpus variant multiplier.
  int repetitions = 0;    // Flakiness-prober repetitions; 0 = prober off.
  std::string record_dir;     // Empty = record mode off.
  int64_t replay_run_id = -1;  // < 0 = no replay requested.
  std::string corpus_app;  // --app: dump-corpus single-app selection.
  bool storm = false;      // --storm: output-neutral storm phase on test/analyze.
  StormOptions storm_options;  // Defaults unless --storm-* flags override.
  std::string storm_out;       // --storm-out: write the storm report JSON.
  std::string repair_out;      // --repair-out: write the repair report JSON.
};

// Subcommands, as bits of a flag's scope. `analyze` is an alias of `test`.
enum Command : unsigned {
  kDumpCorpus = 1, kIdentify = 2, kStatic = 4, kTest = 8, kStorm = 16, kRepair = 32, kStudy = 64,
  kReport = 128
};
// The commands that take a directory argument before their flags.
constexpr unsigned kAnalysis = kDumpCorpus | kIdentify | kStatic | kTest | kStorm | kRepair;
// The commands that print a report (--json) and feed the observability sinks.
constexpr unsigned kReporting = kStatic | kTest | kStorm | kRepair;
// The commands that run the injection campaign (DynamicOptionsFor).
constexpr unsigned kCampaign = kTest | kRepair;

unsigned CommandBit(std::string_view name) {
  static const std::pair<std::string_view, unsigned> kCommands[] = {
      {"dump-corpus", kDumpCorpus}, {"identify", kIdentify}, {"static", kStatic},
      {"test", kTest},   {"analyze", kTest}, {"storm", kStorm}, {"repair", kRepair},
      {"study", kStudy}, {"report", kReport}};
  auto it = std::find_if(std::begin(kCommands), std::end(kCommands),
                         [&](const auto& command) { return command.first == name; });
  return it == std::end(kCommands) ? 0 : it->second;
}

// --jobs upper bound. Fixed rather than derived from the host, so the set of
// accepted inputs is the same everywhere; far above any useful worker count.
constexpr int64_t kMaxJobs = 1024;

// --storm-duration upper bound, in simulated ms. The simulator's run time is
// linear in the simulated duration (about 1 ms of host time per simulated
// second on stormlab), so ten simulated minutes caps a storm run at about
// 0.6 s instead of letting an INT64_MAX duration run until it is killed.
constexpr int64_t kMaxStormDurationMs = 600000;

// What a flag's value must be: none (a switch), a decimal integer in
// [lo, hi], any string, a non-empty string, one of the `|`-separated choices
// after the usage fragment's '=', or whatever the row's own parser accepts.
enum class Kind { kSwitch, kInt, kText, kPath, kChoice, kCustom };

struct FlagValue {
  std::string text;    // As given; empty for a switch.
  int64_t number = 0;  // kInt: the range-checked integer.
};

// One row of the flag table: everything the parser, the scoping check and
// the usage line know about a flag.
struct Flag {
  const char* name;
  const char* usage = "";  // Usage-line fragment after the name.
  Kind kind = Kind::kSwitch;
  unsigned commands = 0;          // The Command bits whose handler reads the flag.
  bool required = false;          // Must be given (and is unbracketed in the usage).
  int64_t lo = 0, hi = INT64_MAX;  // kInt: the accepted range.
  void (*set)(CliOptions&, const FlagValue&) = nullptr;  // All kinds but kCustom.
  // kCustom: parses and sets the value; returns an error, empty on success.
  std::string (*parse)(const std::string&, CliOptions&) = nullptr;
};

// Reads a decimal integer in [lo, hi]. An overflowing value (ERANGE) is
// rejected rather than saturated at LLONG_MAX.
bool ReadInt(const std::string& text, int64_t lo, int64_t hi, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || parsed < lo || parsed > hi) {
    return false;
  }
  *out = parsed;
  return true;
}

// --storm-fault START:END. Whether the window ends within --storm-duration
// is a cross-flag rule (CheckFlagRules).
std::string ParseStormFault(const std::string& text, CliOptions& cli) {
  const size_t colon = text.find(':');
  int64_t start = 0;
  int64_t stop = 0;
  if (colon == std::string::npos || !ReadInt(text.substr(0, colon), 0, INT64_MAX, &start) ||
      !ReadInt(text.substr(colon + 1), 0, INT64_MAX, &stop) || stop <= start) {
    return "expected START:END with 0 <= START < END";
  }
  cli.storm_options.fault_start_ms = start;
  cli.storm_options.fault_end_ms = stop;
  return "";
}

// The flag table, in usage-line order.
const Flag kFlags[] = {
    {.name = "--json", .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue&) { c.json = true; }},
    {.name = "--jobs", .usage = " N", .kind = Kind::kInt, .commands = kTest | kStorm | kRepair,
     .lo = 1, .hi = kMaxJobs,
     .set = [](CliOptions& c, const FlagValue& v) { c.jobs = static_cast<int>(v.number); }},
    {.name = "--trace-out", .usage = "=FILE", .kind = Kind::kText, .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue& v) { c.trace_out = v.text; }},
    {.name = "--metrics-out", .usage = "=FILE", .kind = Kind::kText, .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue& v) { c.metrics_out = v.text; }},
    {.name = "--metrics-format", .usage = "=json|openmetrics", .kind = Kind::kChoice,
     .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue& v) { c.metrics_format = v.text; }},
    {.name = "--journal-out", .usage = "=FILE", .kind = Kind::kPath, .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue& v) { c.journal_out = v.text; }},
    {.name = "--report-out", .usage = "=FILE", .kind = Kind::kPath, .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue& v) { c.report_out = v.text; }},
    {.name = "--progress", .commands = kReporting,
     .set = [](CliOptions& c, const FlagValue&) { c.progress = true; }},
    {.name = "--engine", .usage = "=vm|tree", .kind = Kind::kChoice, .commands = kCampaign,
     .set = [](CliOptions& c, const FlagValue& v) { c.engine = v.text; }},
    {.name = "--fail-fast", .commands = kCampaign,
     .set = [](CliOptions& c, const FlagValue&) { c.fail_fast = true; }},
    {.name = "--max-quarantined", .usage = " N", .kind = Kind::kInt, .commands = kCampaign,
     .set = [](CliOptions& c, const FlagValue& v) { c.max_quarantined = v.number; }},
    {.name = "--chaos", .usage = " SEED:RATE[:ENV_RATE]", .kind = Kind::kCustom,
     .commands = kCampaign,
     .parse = [](const std::string& text, CliOptions& c) {
       std::string error;
       ParseChaosSpec(text, &c.chaos, &error);  // Fills `error` exactly when it fails.
       return error;
     }},
    {.name = "--cache-dir", .usage = "=DIR", .kind = Kind::kPath,
     .commands = kIdentify | kStatic | kTest | kRepair,
     .set = [](CliOptions& c, const FlagValue& v) { c.cache_dir = v.text; }},
    {.name = "--scale", .usage = " N", .kind = Kind::kInt, .commands = kDumpCorpus,
     .lo = 1, .hi = INT_MAX,
     .set = [](CliOptions& c, const FlagValue& v) { c.scale = static_cast<int>(v.number); }},
    {.name = "--app", .usage = " NAME", .kind = Kind::kPath, .commands = kDumpCorpus,
     .set = [](CliOptions& c, const FlagValue& v) { c.corpus_app = v.text; }},
    {.name = "--repetitions", .usage = " N", .kind = Kind::kInt, .commands = kCampaign,
     .lo = 1, .hi = INT_MAX,
     .set = [](CliOptions& c, const FlagValue& v) { c.repetitions = static_cast<int>(v.number); }},
    {.name = "--record", .usage = " DIR", .kind = Kind::kPath, .commands = kTest,
     .set = [](CliOptions& c, const FlagValue& v) { c.record_dir = v.text; }},
    {.name = "--replay", .usage = " ID", .kind = Kind::kInt, .commands = kTest,
     .set = [](CliOptions& c, const FlagValue& v) { c.replay_run_id = v.number; }},
    {.name = "--storm", .commands = kTest,
     .set = [](CliOptions& c, const FlagValue&) { c.storm = true; }},
    // The --storm-* rows need --storm on test/analyze (CheckFlagRules).
    {.name = "--storm-seed", .usage = " N", .kind = Kind::kInt,
     .commands = kTest | kStorm | kRepair,
     .set = [](CliOptions& c, const FlagValue& v) { c.storm_options.seed = v.number; }},
    {.name = "--storm-duration", .usage = " MS", .kind = Kind::kInt,
     .commands = kTest | kStorm | kRepair, .lo = 1, .hi = kMaxStormDurationMs,
     .set = [](CliOptions& c, const FlagValue& v) { c.storm_options.duration_ms = v.number; }},
    {.name = "--storm-fault", .usage = " START:END", .kind = Kind::kCustom,
     .commands = kTest | kStorm | kRepair, .parse = ParseStormFault},
    {.name = "--storm-out", .usage = "=FILE", .kind = Kind::kPath, .commands = kTest | kStorm,
     .set = [](CliOptions& c, const FlagValue& v) { c.storm_out = v.text; }},
    {.name = "--repair-out", .usage = "=FILE", .kind = Kind::kPath, .commands = kRepair,
     .set = [](CliOptions& c, const FlagValue& v) { c.repair_out = v.text; }},
    {.name = "--journal", .usage = "=FILE", .kind = Kind::kPath, .commands = kReport,
     .required = true, .set = [](CliOptions& c, const FlagValue& v) { c.journal_out = v.text; }},
    {.name = "--out", .usage = "=FILE", .kind = Kind::kPath, .commands = kReport,
     .required = true, .set = [](CliOptions& c, const FlagValue& v) { c.report_out = v.text; }},
    {.name = "--metrics", .usage = "=FILE", .kind = Kind::kPath, .commands = kReport,
     .set = [](CliOptions& c, const FlagValue& v) { c.metrics_out = v.text; }},
    {.name = "--trace", .usage = "=FILE", .kind = Kind::kPath, .commands = kReport,
     .set = [](CliOptions& c, const FlagValue& v) { c.trace_out = v.text; }},
    {.name = "--repair", .usage = "=FILE", .kind = Kind::kPath, .commands = kReport,
     .set = [](CliOptions& c, const FlagValue& v) { c.repair_out = v.text; }},
};

const Flag* FindFlag(std::string_view name) {
  auto it = std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag& flag) { return name == flag.name; });
  return it == std::end(kFlags) ? nullptr : it;
}

int Usage() {
  auto fragments = [](unsigned commands) {
    std::string text;
    for (const Flag& flag : kFlags) {
      if ((flag.commands & commands) != 0) {
        text += std::string(flag.required ? " " : " [") + flag.name + flag.usage +
                (flag.required ? "" : "]");
      }
    }
    return text;
  };
  std::cerr << "usage: wasabi <dump-corpus|identify|static|test|analyze|storm|repair|study>"
               " [dir]"
            << fragments(kAnalysis) << "\n       wasabi report" << fragments(kReport) << "\n";
  return 2;
}

bool Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  Usage();
  return false;
}

// Rules between flags, checked once every flag is parsed. `given` holds one
// entry per kFlags row: whether the row appeared on the command line.
bool CheckFlagRules(unsigned command, const CliOptions& cli, const std::vector<bool>& given) {
  auto seen = [&](std::string_view name) { return given[FindFlag(name) - kFlags]; };
  for (const Flag& flag : kFlags) {
    if (flag.required && (flag.commands & command) != 0 && !seen(flag.name)) {
      return Fail(std::string("missing required option ") + flag.name + flag.usage);
    }
    if (command == kTest && !cli.storm && seen(flag.name) &&
        std::string_view(flag.name).starts_with("--storm-")) {
      return Fail(std::string("option ") + flag.name + " on test/analyze requires --storm");
    }
  }
  if (seen("--metrics-format") && cli.metrics_out.empty()) {
    return Fail("option --metrics-format requires --metrics-out=FILE");
  }
  if (seen("--storm-fault") &&
      cli.storm_options.fault_end_ms > cli.storm_options.duration_ms) {
    return Fail("option --storm-fault window must end within --storm-duration");
  }
  if (seen("--replay") && !seen("--record")) {
    return Fail("option --replay requires --record DIR (the record to replay from)");
  }
  if (seen("--app") && cli.scale != 1) {
    return Fail("option --scale does not combine with --app");
  }
  return true;
}

// The one flag parser. Every `--name=value` / `--name value` must match a
// kFlags row that accepts `command`, and its value must be of the row's kind
// — a typo like --trace-ot=t.json fails loudly instead of silently running an
// uninstrumented campaign. Returns false after printing the usage line.
bool ParseFlags(int argc, char** argv, int first, unsigned command, CliOptions* cli) {
  std::vector<bool> given(std::size(kFlags));
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.starts_with("--") ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    const Flag* flag = FindFlag(name);
    if (flag == nullptr) {
      return Fail("unknown option '" + arg + "'");
    }
    if ((flag->commands & command) == 0) {
      return Fail("option " + name + " does not apply to the " + argv[1] + " command");
    }
    const bool is_switch = flag->kind == Kind::kSwitch;
    if (is_switch ? eq != std::string::npos : eq == std::string::npos && i + 1 == argc) {
      return Fail("option " + name + (is_switch ? " does not take a value" : " requires a value"));
    }
    FlagValue value;
    if (!is_switch) {
      value.text = eq != std::string::npos ? arg.substr(eq + 1) : argv[++i];
    }
    std::string error;
    if (flag->kind == Kind::kInt && !ReadInt(value.text, flag->lo, flag->hi, &value.number)) {
      error = "needs an integer in [" + std::to_string(flag->lo) + ", " +
              std::to_string(flag->hi) + "]";
    } else if (flag->kind == Kind::kPath && value.text.empty()) {
      error = "needs a non-empty value";
    } else if (flag->kind == Kind::kChoice &&
               ("|" + std::string(flag->usage + 1) + "|").find("|" + value.text + "|") ==
                   std::string::npos) {
      error = std::string("must be one of ") + (flag->usage + 1);
    } else if (flag->kind == Kind::kCustom) {
      error = flag->parse(value.text, *cli);
    } else {
      flag->set(*cli, value);
    }
    if (!error.empty()) {
      return Fail("option " + name + ": " + error + ", got '" + value.text + "'");
    }
    given[flag - kFlags] = true;
  }
  return CheckFlagRules(command, *cli, given);
}

bool WriteFileOrComplain(const std::string& path, const std::string& bytes, const char* what) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) {
    std::cerr << "error: cannot write " << what << " to " << path << "\n";
    return false;
  }
  return true;
}

// Opens the --cache-dir store. A store that cannot be opened (filesystem-level
// failure) only warns on stderr and runs the analysis cold: the cache is an
// accelerator, never a correctness dependency. Returns null when the flag is
// absent, which keeps every cache code path disabled.
std::unique_ptr<CacheStore> OpenCliCache(const CliOptions& cli) {
  if (cli.cache_dir.empty()) {
    return nullptr;
  }
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(cli.cache_dir, &error);
  if (store == nullptr) {
    std::cerr << "warning: cache disabled: " << error << "\n";
  }
  return store;
}

// Persists new cache entries and exports the store's health counters into the
// metrics registry (robust.* — corruption can only cost recomputation, and
// these gauges prove when it did). Call before ExportObservability.
void FinishCliCache(CacheStore* store, MetricsRegistry* metrics) {
  if (store == nullptr) {
    return;
  }
  if (metrics != nullptr) {
    CacheStats stats = store->stats();
    metrics->SetGauge("cache.loaded_entries", static_cast<double>(stats.loaded_entries));
    metrics->SetGauge("cache.puts", static_cast<double>(stats.puts));
    metrics->SetGauge("robust.cache_corrupt_entries",
                      static_cast<double>(stats.corrupt_entries));
    metrics->SetGauge("robust.cache_version_mismatches",
                      static_cast<double>(stats.version_mismatches));
  }
  std::string error;
  if (!store->Flush(&error)) {
    std::cerr << "warning: cache flush failed: " << error << "\n";
  }
}

// Loads every .mj file under `root` (recursively) into a program. Paths are
// recorded relative to `root` so reports are readable.
//
// Degraded-mode containment (docs/ROBUSTNESS.md): each file parses against
// its own DiagnosticEngine, so a malformed or unreadable file is reported on
// stderr, recorded in `skipped`, and left out of the program instead of
// aborting the whole analysis. Only "no file loaded at all" is fatal.
bool LoadProgram(const fs::path& root, mj::Program& program,
                 std::vector<SkippedFile>* skipped) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end && !ec;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".mj") {
      files.push_back(it->path());
    }
  }
  if (ec) {
    std::cerr << "error: cannot read " << root << ": " << ec.message() << "\n";
    return false;
  }
  if (files.empty()) {
    std::cerr << "error: no .mj files under " << root << "\n";
    return false;
  }
  std::sort(files.begin(), files.end());
  size_t loaded = 0;
  for (const fs::path& file : files) {
    std::string name = fs::relative(file, root, ec).generic_string();
    std::ifstream in(file);
    if (!in) {
      std::cerr << "warning: skipping unreadable file " << name << "\n";
      if (skipped != nullptr) {
        skipped->push_back({name, "unreadable"});
      }
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    mj::DiagnosticEngine diag;
    auto unit = mj::ParseSource(name, text.str(), diag);
    if (diag.has_errors()) {
      std::cerr << diag.FormatAll(nullptr);
      std::cerr << "warning: skipping " << name << " (" << diag.error_count()
                << " parse error(s))\n";
      if (skipped != nullptr) {
        skipped->push_back({name, std::to_string(diag.error_count()) + " parse error(s)"});
      }
      continue;
    }
    program.AddUnit(std::move(unit));
    ++loaded;
  }
  if (loaded == 0) {
    std::cerr << "error: no loadable .mj files under " << root << "\n";
    return false;
  }
  return true;
}

void WriteCorpusApp(const fs::path& root, const CorpusApp& app) {
  std::ostringstream manifest;
  manifest << "# Seeded bugs for " << app.display_name << "\n";
  for (const SeededBug& bug : app.bugs) {
    manifest << bug.id << "\t" << BugTypeName(bug.type) << "\t" << bug.coordinator << "\t"
             << bug.note << "\n";
  }
  for (const auto& unit : app.program.units()) {
    fs::path out_path = root / unit->file().name();
    std::error_code ec;
    fs::create_directories(out_path.parent_path(), ec);
    std::ofstream out(out_path);
    out << unit->file().text();
  }
  fs::path manifest_path = root / app.name / "MANIFEST.txt";
  std::ofstream out(manifest_path);
  out << manifest.str();
  std::cout << "wrote " << app.source_files << " files + manifest under "
            << (root / app.name).generic_string() << "\n";
}

int DumpCorpus(const fs::path& root, const CliOptions& cli) {
  if (!cli.corpus_app.empty()) {
    // Single-app dumps reach the on-demand labs (flakylab, stormlab) that are
    // deliberately outside the eight-app goldens; unknown names are a usage
    // error, not an abort.
    if (!IsKnownCorpusApp(cli.corpus_app)) {
      std::cerr << "error: unknown corpus app '" << cli.corpus_app << "'\n";
      return Usage();
    }
    WriteCorpusApp(root, BuildCorpusApp(cli.corpus_app));
    return 0;
  }
  for (const std::string& name : ScaledCorpusAppNames(cli.scale)) {
    WriteCorpusApp(root, BuildScaledCorpusApp(name));
  }
  return 0;
}

WasabiOptions OptionsFor(const fs::path& root) {
  WasabiOptions options;
  options.app_name = root.filename().generic_string();
  if (options.app_name.empty()) {
    options.app_name = "app";
  }
  return options;
}

int Identify(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  Wasabi tool(program, index, OptionsFor(root));
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  IdentificationResult result = tool.IdentifyRetryStructures();
  FinishCliCache(cache.get(), nullptr);
  std::cout << result.structures.size() << " retry structures ("
            << result.candidate_loops_without_keyword_filter
            << " candidate loops before keyword filtering):\n";
  for (const RetryStructure& structure : result.structures) {
    std::cout << "  " << structure.file << ":" << structure.location.line << "\t"
              << structure.coordinator << "\t" << RetryMechanismName(structure.mechanism)
              << "\t"
              << (structure.found_by.both()    ? "codeql+llm"
                  : structure.found_by.codeql ? "codeql"
                                              : "llm")
              << "\t" << structure.locations.size() << " location(s)\n";
  }
  return 0;
}

// Sinks backing the --trace-out/--metrics-out/--journal-out/--report-out/
// --progress flags. The pointers are null unless the matching flag was given,
// so an unflagged run takes the exact uninstrumented code paths. --report-out
// implies journaling: the dashboard is rendered from this run's journal.
struct ObsSinks {
  explicit ObsSinks(const CliOptions& cli)
      : progress_meter(&std::cerr),
        tracer_ptr(cli.trace_out.empty() ? nullptr : &tracer),
        metrics_ptr(cli.metrics_out.empty() ? nullptr : &metrics),
        progress_ptr(cli.progress ? &progress_meter : nullptr),
        journal_ptr(cli.journal_out.empty() && cli.report_out.empty() ? nullptr : &journal) {}

  Tracer tracer;
  MetricsRegistry metrics;
  ProgressMeter progress_meter;
  RetryJournal journal;
  Tracer* tracer_ptr;
  MetricsRegistry* metrics_ptr;
  ProgressMeter* progress_ptr;
  RetryJournal* journal_ptr;
};

// Exports every requested observability artifact after a workflow: trace,
// metrics (JSON or OpenMetrics), journal, and the in-process HTML report
// (rendered from this run's journal, embedding whatever sibling artifacts
// were also requested). Returns false when a file cannot be written.
bool ExportObservability(const CliOptions& cli, const std::string& app, ObsSinks& obs,
                         const std::string& repair_json = std::string()) {
  if (!cli.trace_out.empty() &&
      !WriteFileOrComplain(cli.trace_out, obs.tracer.ToChromeJson(), "trace")) {
    return false;
  }
  if (!cli.metrics_out.empty() &&
      !WriteFileOrComplain(cli.metrics_out,
                           cli.metrics_format == "openmetrics" ? obs.metrics.ToOpenMetrics()
                                                               : obs.metrics.ToJson(),
                           "metrics")) {
    return false;
  }
  if (!cli.journal_out.empty() &&
      !WriteFileOrComplain(cli.journal_out, obs.journal.ToJson(app), "journal")) {
    return false;
  }
  if (!cli.report_out.empty()) {
    std::vector<JournalEvent> events = obs.journal.Collect();
    RetryStatsReport stats = ComputeRetryStats(events);
    std::string html = RenderHtmlReport(
        app, events, stats, obs.metrics_ptr != nullptr ? obs.metrics.ToJson() : std::string(),
        obs.tracer_ptr != nullptr ? obs.tracer.ToChromeJson() : std::string(), repair_json);
    if (!WriteFileOrComplain(cli.report_out, html, "report")) {
      return false;
    }
  }
  return true;
}

int StaticWorkflow(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  Wasabi tool(program, index, OptionsFor(root));
  ObsSinks obs(cli);
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  StaticResult result = tool.RunStaticWorkflow();
  FinishCliCache(cache.get(), obs.metrics_ptr);
  if (!ExportObservability(cli, tool.options().app_name, obs)) {
    return 1;
  }
  ReportHealth health;
  health.skipped_files = skipped;
  if (cli.json) {
    std::vector<BugReport> all = result.when_bugs;
    all.insert(all.end(), result.if_bugs.begin(), result.if_bugs.end());
    std::cout << AnalysisReportToJson(all, health);
    return 0;
  }
  std::cout << result.when_bugs.size() << " WHEN report(s):\n";
  for (const BugReport& bug : result.when_bugs) {
    std::cout << "  " << bug.file << ":" << bug.location.line << "\t" << BugTypeName(bug.type)
              << "\t" << bug.coordinator << "\n";
  }
  std::cout << result.if_bugs.size() << " IF report(s):\n";
  for (const BugReport& bug : result.if_bugs) {
    std::cout << "  " << bug.file << ":" << bug.location.line << "\t" << bug.exception << "\t"
              << bug.detail << "\n";
  }
  std::cout << "LLM usage: " << result.llm_usage.calls << " calls, ~"
            << result.llm_usage.prompt_tokens << " tokens\n";
  if (health.degraded()) {
    std::cout << "DEGRADED: " << health.skipped_files.size() << " file(s) skipped\n";
  }
  return 0;
}

// Shared option plumbing for the dynamic workflow and replay: both must build
// the exact same WasabiOptions or the record's config digest will not match.
WasabiOptions DynamicOptionsFor(const fs::path& root, const CliOptions& cli) {
  WasabiOptions options = OptionsFor(root);
  options.jobs = cli.jobs;
  options.robust.fail_fast = cli.fail_fast;
  options.robust.max_quarantined = cli.max_quarantined;
  options.robust.chaos = cli.chaos;
  options.prober.repetitions = cli.repetitions;
  options.interp.engine =
      cli.engine == "tree" ? EngineKind::kTree : EngineKind::kVm;
  return options;
}

// Replays one recorded run in isolation (docs/FLAKINESS.md). Exit 0 when the
// replayed decision stream and verdict are byte-identical to the record, 1 on
// any divergence or load failure.
int Replay(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  Wasabi tool(program, index, DynamicOptionsFor(root, cli));
  ObsSinks obs(cli);
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  ReplayOutcome outcome = tool.ReplayRun(cli.record_dir,
                                         static_cast<uint64_t>(cli.replay_run_id));
  if (!ExportObservability(cli, tool.options().app_name, obs)) {
    return 1;
  }
  if (!outcome.ok) {
    std::cerr << "error: replay failed: " << outcome.error << "\n";
    return 1;
  }
  if (!outcome.executed) {
    std::cout << "run " << cli.replay_run_id
              << " was admission-skipped during the recorded campaign; recorded verdict \""
              << outcome.recorded_verdict << "\" stands\n";
    return 0;
  }
  std::cout << "replayed run " << cli.replay_run_id << ": verdict \""
            << outcome.replayed_verdict << "\" (recorded \"" << outcome.recorded_verdict
            << "\")\n";
  if (outcome.stream_identical && outcome.verdict_identical) {
    std::cout << "decision stream: identical (" << outcome.recorded.events.size()
              << " events)\n";
    return 0;
  }
  if (!outcome.stream_identical) {
    std::cout << "decision stream: DIVERGED at " << outcome.divergence << "\n";
  }
  if (!outcome.verdict_identical) {
    std::cout << "verdict: DIVERGED\n";
  }
  return 1;
}

int DynamicWorkflow(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  WasabiOptions options = DynamicOptionsFor(root, cli);
  options.record_dir = cli.record_dir;
  Wasabi tool(program, index, options);
  ObsSinks obs(cli);
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  DynamicResult result = tool.RunDynamicWorkflow();
  FinishCliCache(cache.get(), obs.metrics_ptr);
  if (!result.record_error.empty()) {
    std::cerr << "warning: recording failed: " << result.record_error << "\n";
  }
  ReportHealth health;
  health.skipped_files = skipped;
  health.quarantined = result.quarantined;
  {
    // Report formatting gets its own span so a trace accounts for the whole
    // wall clock, not just the analysis phases.
    ScopedSpan report_span(obs.tracer_ptr, "phase.report");
    if (cli.json) {
      std::cout << AnalysisReportToJson(result.bugs, health);
    } else {
      std::cout << result.total_tests << " unit tests, " << result.tests_covering_retry
                << " cover retry; " << result.planned_runs << " injected runs (naive: "
                << result.naive_runs << ") on " << result.jobs_used << " worker(s)\n";
      if (result.probed_runs > 0) {
        std::cout << "flakiness prober: " << result.probed_runs << " failing run(s) probed — "
                  << result.stable_runs << " stable, " << result.flaky_runs << " flaky, "
                  << result.chaos_induced_runs << " chaos-induced\n";
      }
      std::cout << result.bugs.size() << " bug report(s):\n";
      for (const BugReport& bug : result.bugs) {
        std::cout << "  " << bug.file << ":" << bug.location.line << "\t"
                  << BugTypeName(bug.type) << "\t" << bug.coordinator;
        if (bug.probed) {
          std::cout << "\t[" << VerdictStabilityName(bug.stability)
                    << (bug.flaky_cause.empty() ? "" : ": " + bug.flaky_cause) << "]";
        }
        std::cout << "\n\t" << bug.detail << "\n";
      }
      if (health.degraded()) {
        std::cout << "DEGRADED: " << health.skipped_files.size() << " file(s) skipped, "
                  << health.quarantined.size() << " run(s) quarantined";
        if (result.robustness.recovered > 0) {
          std::cout << " (" << result.robustness.recovered << " recovered by retry)";
        }
        std::cout << "\n";
        for (const SkippedFile& file : health.skipped_files) {
          std::cout << "  skipped " << file.path << ": " << file.reason << "\n";
        }
        for (const RunFailure& failure : health.quarantined) {
          std::cout << "  quarantined run " << failure.run_id << " ["
                    << RunFailureKindName(failure.kind) << "] " << failure.test << " @ "
                    << failure.location << ": " << failure.detail << "\n";
        }
      }
    }
  }
  if (cli.storm) {
    // Output-neutral storm phase: the simulation runs after the campaign and
    // feeds only the obs sinks (journal/metrics/trace, and --storm-out), so
    // stdout is byte-identical with and without --storm.
    std::vector<EdgeRetryProfile> profiles = ExtractRetryProfiles(program, index, cli.jobs);
    StormReport storm = RunStormSim(options.app_name, profiles, cli.storm_options,
                                    obs.journal_ptr);
    ExportStormStats(storm, obs.metrics_ptr, obs.tracer_ptr);
    if (!cli.storm_out.empty() &&
        !WriteFileOrComplain(cli.storm_out, StormReportToJson(storm), "storm report")) {
      return 1;
    }
  }
  if (!ExportObservability(cli, options.app_name, obs)) {
    return 1;
  }
  if (result.robustness.aborted) {
    std::cerr << "error: campaign aborted: quarantine limit (--max-quarantined "
              << cli.max_quarantined << ") exceeded\n";
    return 1;
  }
  return 0;
}

// `wasabi storm`: extracts every service's retry policy by probing (src/storm/
// profile.h) and replays them against a shared backend in the deterministic
// discrete-event simulation (docs/STORM.md). The report (JSON with --json,
// summary text otherwise) and the kStorm journal stream are byte-identical at
// any --jobs N and across repeated same-seed runs.
int StormCommand(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  const std::string app = OptionsFor(root).app_name;
  ObsSinks obs(cli);
  std::vector<EdgeRetryProfile> profiles = ExtractRetryProfiles(program, index, cli.jobs);
  if (profiles.empty()) {
    std::cerr << "error: no storm-profilable services (zero-arg handle() plus send()) under "
              << root << "\n";
    return 1;
  }
  StormReport report = RunStormSim(app, profiles, cli.storm_options, obs.journal_ptr);
  ExportStormStats(report, obs.metrics_ptr, obs.tracer_ptr);
  std::string json = StormReportToJson(report);
  if (!cli.storm_out.empty() && !WriteFileOrComplain(cli.storm_out, json, "storm report")) {
    return 1;
  }
  if (cli.json) {
    std::cout << json;
  } else {
    std::cout << StormReportToText(report);
  }
  if (!ExportObservability(cli, app, obs)) {
    return 1;
  }
  return 0;
}

// `wasabi repair`: the automated repair loop (docs/REPAIR.md). Runs the full
// detection pipeline, synthesizes a template patch for every confirmed WHEN/
// storm verdict, and validates each patch with a cache-sliced re-campaign.
// The report (JSON with --json, summary text otherwise) is byte-identical at
// any --jobs N, with the cache off/cold/warm, and under either --engine.
int RepairCommand(const fs::path& root, const CliOptions& cli) {
  mj::Program program;
  std::vector<SkippedFile> skipped;
  if (!LoadProgram(root, program, &skipped)) {
    return 1;
  }
  mj::ProgramIndex index(program);
  ObsSinks obs(cli);
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  RepairOptions options;
  options.wasabi = DynamicOptionsFor(root, cli);
  // Sinks and the cache ride on the baseline options; RunRepair detaches the
  // sinks (but keeps the cache — that is the sliced re-campaign) for every
  // nested validation run.
  options.wasabi.tracer = obs.tracer_ptr;
  options.wasabi.metrics = obs.metrics_ptr;
  options.wasabi.progress = obs.progress_ptr;
  options.wasabi.journal = obs.journal_ptr;
  options.wasabi.cache = cache.get();
  options.storm = cli.storm_options;
  RepairReport report = RunRepair(program, index, options);
  ExportRepairStats(report, obs.metrics_ptr);
  FinishCliCache(cache.get(), obs.metrics_ptr);
  std::string json = RepairReportToJson(report);
  if (!cli.repair_out.empty() && !WriteFileOrComplain(cli.repair_out, json, "repair report")) {
    return 1;
  }
  if (cli.json) {
    std::cout << json;
  } else {
    std::cout << RepairReportToText(report);
  }
  if (!ExportObservability(cli, options.wasabi.app_name, obs, json)) {
    return 1;
  }
  return 0;
}

// `wasabi report`: offline renderer. Consumes a journal JSON written by
// --journal-out (plus optional --metrics/--trace artifacts from the same run)
// and writes the self-contained HTML dashboard. No analysis is executed, so
// the output is a pure function of the input files.
int ReportCommand(const CliOptions& cli) {
  // Reads `path` into `text`; an optional artifact left out reads as empty.
  auto read = [](const std::string& path, const char* what, std::string* text) {
    if (path.empty()) {
      return true;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "error: cannot read " << what << " " << path << "\n";
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *text = buffer.str();
    return true;
  };
  std::string journal_text;
  std::string metrics_text;
  std::string trace_text;
  std::string repair_text;
  if (!read(cli.journal_out, "journal", &journal_text) ||
      !read(cli.metrics_out, "metrics", &metrics_text) ||
      !read(cli.trace_out, "trace", &trace_text) ||
      !read(cli.repair_out, "repair report", &repair_text)) {
    return 1;
  }
  std::vector<JournalEvent> events;
  std::string app;
  std::string parse_error;
  if (!RetryJournal::ParseJson(journal_text, &events, &app, &parse_error)) {
    std::cerr << "error: malformed journal " << cli.journal_out << ": " << parse_error << "\n";
    return 1;
  }
  RetryStatsReport stats = ComputeRetryStats(events);
  std::string html =
      RenderHtmlReport(app, events, stats, metrics_text, trace_text, repair_text);
  if (!WriteFileOrComplain(cli.report_out, html, "report")) {
    return 1;
  }
  std::cout << "wrote retry report for " << app << " (" << events.size() << " events, "
            << html.size() << " bytes) to " << cli.report_out << "\n";
  return 0;
}

int Study() {
  std::cout << "70 studied retry issues across 6 applications.\n\nBy root cause:\n";
  for (auto [cause, count] : StudyCountByRootCause()) {
    std::cout << "  " << StudyRootCauseName(cause) << ": " << count << "\n";
  }
  std::cout << "\nBy mechanism:\n";
  for (auto [mechanism, count] : StudyCountByMechanism()) {
    std::cout << "  " << RetryMechanismName(mechanism) << ": " << count << "\n";
  }
  std::cout << "\nNamed issues:\n";
  for (const StudyIssue& issue : StudyDataset()) {
    if (issue.pinned) {
      std::cout << "  " << issue.id << " — " << issue.summary << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned command = argc < 2 ? 0 : CommandBit(argv[1]);
  // The analysis commands take the corpus directory before their flags.
  const int first = (command & kAnalysis) != 0 ? 3 : 2;
  if (command == 0 || argc < first) {
    return Usage();
  }
  CliOptions cli;
  if (!ParseFlags(argc, argv, first, command, &cli)) {
    return 2;
  }
  switch (command) {
    case kStudy:
      return Study();
    case kReport:
      return ReportCommand(cli);  // No corpus directory: renders existing artifacts.
    case kDumpCorpus:
      return DumpCorpus(argv[2], cli);
    case kIdentify:
      return Identify(argv[2], cli);
    case kStatic:
      return StaticWorkflow(argv[2], cli);
    case kStorm:
      return StormCommand(argv[2], cli);
    case kRepair:
      return RepairCommand(argv[2], cli);
    default:
      return cli.replay_run_id >= 0 ? Replay(argv[2], cli) : DynamicWorkflow(argv[2], cli);
  }
}
