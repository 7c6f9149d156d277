// perfbench_tool — the in-process half of the end-to-end benchmark (see
// README.md in this directory).
//
//   perfbench_tool info
//       one JSON line of build context: hardware_concurrency, the VM dispatch
//       kind, and whether this binary was compiled with optimisation.
//   perfbench_tool gen <corpus-dir> <truth-dir> <app>...
//       writes each app's mj sources under <corpus-dir>/<app>/ through the
//       public src/corpus API, and its seeded-bug manifest to
//       <truth-dir>/<app>.tsv (id, type, file relative to the app, coordinator).
//   perfbench_tool item <scan|repair|incremental> <corpus-dir> <app> <out> <label>
//                       <jobs> [<cache-dir> <file> <comment>]
//       one traced item: the public calls the workload's CLI subcommands make,
//       each wrapped in a span (name, start, end, parent, item label).
//       incremental first appends "// <comment>" to <app>/<file> and uses
//       <cache-dir>; repair uses a fresh store at <out>.cache.
//   perfbench_tool probe <corpus-dir> <app> <out> <label> <jobs> <exec|baseline|repair>...
//       layer probes outside any item (see ProbeExec / ProbeBaseline).
//
// Spans stay in memory and are written at exit to <out>.spans.tsv (id,
// parent, name, label, start ns, end ns), with per-call counts in
// <out>.counters.tsv and each command's report in <out>.<command>.json. One
// process per item keeps a hang confined to its item, as with the CLI.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/interp/interpreter.h"
#include "src/lang/parser.h"
#include "src/repair/repair.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"
#include "src/testing/runner.h"
#include "src/vm/bytecode.h"

namespace fs = std::filesystem;

namespace {

using namespace wasabi;
using Clock = std::chrono::steady_clock;

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::string item;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Counter {
  std::string item;
  std::string name;
  double value = 0.0;
};

// Single-threaded recorder: the tool makes one call at a time, so the open
// span stack is the parent chain.
class Recorder {
 public:
  int Begin(const std::string& name) {
    spans_.push_back({name, item_, stack_.empty() ? -1 : stack_.back(), Now(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end_ns = Now();
    stack_.pop_back();
  }
  void Count(const std::string& name, double value) { counters_.push_back({item_, name, value}); }
  void set_item(std::string item) { item_ = std::move(item); }

  bool Write(const fs::path& out) const {
    std::ofstream spans(out.string() + ".spans.tsv");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      spans << i << "\t" << s.parent << "\t" << s.name << "\t" << s.item << "\t" << s.start_ns
            << "\t" << s.end_ns << "\n";
    }
    std::ofstream counters(out.string() + ".counters.tsv");
    counters << std::setprecision(15);
    for (const Counter& c : counters_) {
      counters << c.item << "\t" << c.name << "\t" << c.value << "\n";
    }
    return static_cast<bool>(spans) && static_cast<bool>(counters);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<int> stack_;
  std::string item_;
};

class Scoped {
 public:
  Scoped(Recorder& rec, const std::string& name) : rec_(rec), id_(rec.Begin(name)) {}
  ~Scoped() { rec_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

// --- The CLI's calls, spanned ----------------------------------------------

// One loaded application, as the CLI's LoadProgram builds it: every *.mj file
// under the root, sorted, named relative to the root, parsed one by one.
struct LoadedApp {
  std::string name;
  mj::Program program;
  std::unique_ptr<mj::ProgramIndex> index;
};

std::unique_ptr<LoadedApp> Load(Recorder& rec, const fs::path& root) {
  auto app = std::make_unique<LoadedApp>();
  app->name = root.filename().generic_string();
  std::vector<std::pair<std::string, std::string>> sources;
  size_t bytes = 0;
  {
    Scoped span(rec, "lang.read");
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() && entry.path().extension() == ".mj") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file);
      std::ostringstream text;
      text << in.rdbuf();
      sources.emplace_back(fs::relative(file, root).generic_string(), text.str());
      bytes += sources.back().second.size();
    }
  }
  {
    Scoped span(rec, "lang.parse");
    for (auto& [name, text] : sources) {
      mj::DiagnosticEngine diag;
      auto unit = mj::ParseSource(name, std::move(text), diag);
      if (!diag.has_errors()) {
        app->program.AddUnit(std::move(unit));
      }
    }
  }
  {
    Scoped span(rec, "lang.index");
    app->index = std::make_unique<mj::ProgramIndex>(app->program);
  }
  rec.Count("lang.files", static_cast<double>(sources.size()));
  rec.Count("lang.bytes", static_cast<double>(bytes));
  return app;
}

WasabiOptions OptionsFor(const LoadedApp& app, int jobs) {
  WasabiOptions options;
  options.app_name = app.name;
  options.jobs = jobs;
  return options;
}

std::unique_ptr<CacheStore> OpenCache(Recorder& rec, const fs::path& dir) {
  if (dir.empty()) {
    return nullptr;
  }
  Scoped span(rec, "cache.open");
  std::string error;
  return CacheStore::Open(dir.string(), &error);
}

void FlushCache(Recorder& rec, CacheStore* store) {
  if (store == nullptr) {
    return;
  }
  {
    Scoped span(rec, "cache.flush");
    std::string error;
    store->Flush(&error);
  }
  CacheStats stats = store->stats();
  rec.Count("cache.loaded_entries", static_cast<double>(stats.loaded_entries));
  std::error_code ec;
  uintmax_t size = fs::file_size(fs::path(store->dir()) / "entries.tsv", ec);
  rec.Count("cache.store_bytes", ec ? 0.0 : static_cast<double>(size));
  for (const auto& [ns, hits] : stats.hits_by_namespace) {
    rec.Count("cache.hits." + ns, static_cast<double>(hits));
  }
  for (const auto& [ns, misses] : stats.misses_by_namespace) {
    rec.Count("cache.misses." + ns, static_cast<double>(misses));
  }
}

IdentificationResult Identify(Recorder& rec, Wasabi& tool) {
  Scoped span(rec, "identify");
  IdentificationResult result = tool.IdentifyRetryStructures();
  rec.Count("identify.structures", static_cast<double>(result.structures.size()));
  rec.Count("identify.llm_tokens", static_cast<double>(result.llm_usage.prompt_tokens));
  return result;
}

DynamicResult Dynamic(Recorder& rec, Wasabi& tool, const char* span_name = "dynamic") {
  DynamicResult result;
  {
    Scoped span(rec, span_name);
    result = tool.RunDynamicWorkflow();
  }
  rec.Count("dynamic.coverage_ms", result.coverage_seconds * 1e3);
  rec.Count("dynamic.campaign_ms", result.injection_seconds * 1e3);
  rec.Count("dynamic.tests", static_cast<double>(result.total_tests));
  rec.Count("campaign.planned_runs", static_cast<double>(result.planned_runs));
  rec.Count("campaign.naive_runs", static_cast<double>(result.naive_runs));
  rec.Count("campaign.quarantined", static_cast<double>(result.quarantined.size()));
  rec.Count("campaign.bugs", static_cast<double>(result.bugs.size()));
  return result;
}

StaticResult Static(Recorder& rec, Wasabi& tool) {
  Scoped span(rec, "static");
  StaticResult result = tool.RunStaticWorkflow();
  rec.Count("static.when_bugs", static_cast<double>(result.when_bugs.size()));
  rec.Count("static.if_bugs", static_cast<double>(result.if_bugs.size()));
  return result;
}

std::string Report(Recorder& rec, const std::vector<BugReport>& bugs, const ReportHealth& health) {
  std::string json;
  {
    Scoped span(rec, "report.json");
    json = AnalysisReportToJson(bugs, health);
  }
  rec.Count("report.bytes", static_cast<double>(json.size()));
  return json;
}

// `wasabi test <app> --json --jobs N [--cache-dir=DIR]`.
// Frees one command's program, facade and store, as the CLI does on return.
template <typename... Owned>
void Teardown(Recorder& rec, Owned&... owned) {
  Scoped span(rec, "teardown");
  (owned.reset(), ...);
}

std::string TestCommand(Recorder& rec, const fs::path& root, int jobs, const fs::path& cache_dir) {
  Scoped command(rec, "cmd.test");
  std::unique_ptr<LoadedApp> app = Load(rec, root);
  auto tool = std::make_unique<Wasabi>(app->program, *app->index, OptionsFor(*app, jobs));
  std::unique_ptr<CacheStore> cache = OpenCache(rec, cache_dir);
  tool->set_cache(cache.get());
  Identify(rec, *tool);
  auto result = std::make_unique<DynamicResult>(Dynamic(rec, *tool));
  FlushCache(rec, cache.get());
  ReportHealth health;
  health.quarantined = result->quarantined;
  std::string json = Report(rec, result->bugs, health);
  Teardown(rec, result, tool, cache, app);
  return json;
}

// `wasabi static <app> --json [--cache-dir=DIR]` (the CLI leaves static at the
// facade's default of one job).
std::string StaticCommand(Recorder& rec, const fs::path& root, const fs::path& cache_dir) {
  Scoped command(rec, "cmd.static");
  std::unique_ptr<LoadedApp> app = Load(rec, root);
  auto tool = std::make_unique<Wasabi>(app->program, *app->index, OptionsFor(*app, 1));
  std::unique_ptr<CacheStore> cache = OpenCache(rec, cache_dir);
  tool->set_cache(cache.get());
  Identify(rec, *tool);
  auto result = std::make_unique<StaticResult>(Static(rec, *tool));
  FlushCache(rec, cache.get());
  std::vector<BugReport> all = result->when_bugs;
  all.insert(all.end(), result->if_bugs.begin(), result->if_bugs.end());
  std::string json = Report(rec, all, ReportHealth{});
  Teardown(rec, result, tool, cache, app);
  return json;
}

RepairReport Repair(Recorder& rec, const LoadedApp& app, int jobs, CacheStore* cache) {
  RepairOptions options;
  options.wasabi = OptionsFor(app, jobs);
  options.wasabi.cache = cache;
  RepairReport report;
  {
    Scoped span(rec, "repair");
    report = RunRepair(app.program, *app.index, options);
  }
  const CacheStats& delta = report.validation_cache_delta;
  rec.Count("repair.confirmed", report.totals.confirmed);
  rec.Count("repair.fixed", report.totals.fixed);
  rec.Count("repair.validation_hits", static_cast<double>(delta.hits));
  rec.Count("repair.validation_misses", static_cast<double>(delta.misses));
  return report;
}

// `wasabi repair <app> --json --jobs N --cache-dir=<fresh empty dir>`.
std::string RepairCommand(Recorder& rec, const fs::path& root, int jobs,
                          const fs::path& cache_dir) {
  Scoped command(rec, "cmd.repair");
  std::unique_ptr<LoadedApp> app = Load(rec, root);
  std::unique_ptr<CacheStore> cache = OpenCache(rec, cache_dir);
  RepairReport report = Repair(rec, *app, jobs, cache.get());
  FlushCache(rec, cache.get());
  std::string json;
  {
    Scoped span(rec, "report.json");
    json = RepairReportToJson(report);
  }
  rec.Count("report.bytes", static_cast<double>(json.size()));
  Teardown(rec, cache, app);
  return json;
}

void Storm(Recorder& rec, const LoadedApp& app, int jobs) {
  std::vector<EdgeRetryProfile> profiles;
  {
    Scoped span(rec, "storm.profile");
    profiles = ExtractRetryProfiles(app.program, *app.index, jobs);
  }
  StormReport report;
  {
    Scoped span(rec, "storm.sim");
    report = RunStormSim(app.name, profiles, StormOptions{});
  }
  rec.Count("storm.edges", static_cast<double>(profiles.size()));
  rec.Count("storm.attempts", static_cast<double>(report.total_attempts));
}

// --- Layer probes (outside every item span) ---------------------------------

// Execution layers the campaign reaches only through warm arenas: one VM
// compile, one interpreter per engine, the clean suite with a fresh
// interpreter per test (as repair validation runs it), and the dynamic
// workflow at one worker against N.
void ProbeExec(Recorder& rec, const LoadedApp& app, int jobs) {
  {
    Scoped span(rec, "vm.compile");
    vm::Compile(app.program, *app.index);
  }
  for (EngineKind engine : {EngineKind::kVm, EngineKind::kTree}) {
    const std::string suffix = engine == EngineKind::kVm ? ".vm" : ".tree";
    InterpOptions interp;
    interp.engine = engine;
    {
      Scoped span(rec, "interp.construct" + suffix);
      Interpreter construct(app.program, *app.index, interp);
    }
    RunnerOptions runner_options;
    runner_options.interp = interp;
    TestRunner runner(app.program, *app.index, runner_options);
    Scoped span(rec, "testing.clean_suite" + suffix);
    for (const TestCase& test : runner.DiscoverTests()) {
      runner.RunTest(test);
    }
  }
  Wasabi tool(app.program, *app.index, OptionsFor(app, 1));
  tool.IdentifyRetryStructures();
  Dynamic(rec, tool, "dynamic.j1");
  tool.set_jobs(jobs);
  Dynamic(rec, tool, "dynamic.jN");
}

// What `wasabi repair` runs before validation: identify, dynamic, static and
// storm on a fresh instance without a cache. repair.validation_ms is derived
// against it.
void ProbeBaseline(Recorder& rec, const LoadedApp& app, int jobs) {
  Wasabi tool(app.program, *app.index, OptionsFor(app, jobs));
  Identify(rec, tool);
  Dynamic(rec, tool);
  Static(rec, tool);
  Storm(rec, app, jobs);
}

// --- Item and probe drivers -------------------------------------------------

int Item(const std::vector<std::string>& args) {
  const std::string& workload = args[0];
  const fs::path corpus = args[1];
  const std::string& app = args[2];
  const fs::path out = args[3];
  const int jobs = std::stoi(args[5]);
  const fs::path root = corpus / app;
  const bool incremental = workload == "incremental";
  if (!(workload == "scan" || workload == "repair" || incremental) ||
      args.size() != (incremental ? 9u : 6u)) {
    std::cerr << "error: bad item arguments\n";
    return 2;
  }
  Recorder rec;
  rec.set_item(args[4]);
  std::vector<std::pair<std::string, std::string>> reports;  // (command, JSON)
  {
    Scoped item(rec, "item");
    if (incremental) {
      Scoped span(rec, "edit");
      std::ofstream(root / args[7], std::ios::app) << "// " << args[8] << "\n";
    }
    if (workload == "repair") {
      reports.emplace_back("repair", RepairCommand(rec, root, jobs, out.string() + ".cache"));
    } else {
      const fs::path cache_dir = incremental ? fs::path(args[6]) : fs::path();
      reports.emplace_back("test", TestCommand(rec, root, jobs, cache_dir));
      reports.emplace_back("static", StaticCommand(rec, root, cache_dir));
    }
  }
  for (const auto& [command, json] : reports) {
    std::ofstream(out.string() + "." + command + ".json", std::ios::binary) << json;
  }
  return rec.Write(out) ? 0 : 1;
}

int Probe(const std::vector<std::string>& args) {
  const fs::path corpus = args[0];
  const fs::path out = args[2];
  const int jobs = std::stoi(args[4]);
  std::unique_ptr<LoadedApp> app;
  {
    Recorder untraced;  // Loading for a probe is not a layer sample.
    app = Load(untraced, corpus / args[1]);
  }
  Recorder rec;
  rec.set_item(args[3]);
  {
    Scoped probe(rec, "probe");
    for (size_t i = 5; i < args.size(); ++i) {
      if (args[i] == "exec") {
        ProbeExec(rec, *app, jobs);
      } else if (args[i] == "baseline") {
        ProbeBaseline(rec, *app, jobs);
      } else if (args[i] == "repair") {
        std::unique_ptr<CacheStore> cache = OpenCache(rec, out.string() + ".cache");
        Repair(rec, *app, jobs, cache.get());
        FlushCache(rec, cache.get());
      } else {
        std::cerr << "error: unknown probe kind '" << args[i] << "'\n";
        return 2;
      }
    }
  }
  return rec.Write(out) ? 0 : 1;
}

// --- gen / info ------------------------------------------------------------

int Gen(const fs::path& corpus, const fs::path& truth, const std::vector<std::string>& apps) {
  fs::create_directories(truth);
  for (const std::string& name : apps) {
    if (!IsKnownCorpusApp(name) && !IsKnownCorpusApp(name.substr(0, name.rfind("_v")))) {
      std::cerr << "error: unknown corpus app '" << name << "'\n";
      return 2;
    }
    CorpusApp app = BuildScaledCorpusApp(name);
    for (const auto& unit : app.program.units()) {
      fs::path path = corpus / unit->file().name();
      fs::create_directories(path.parent_path());
      std::ofstream(path, std::ios::binary) << unit->file().text();
    }
    // Reports name files relative to the app root; the manifest's names carry
    // the "<app>/" prefix.
    std::ofstream manifest(truth / (app.name + ".tsv"));
    const std::string prefix = app.name + "/";
    for (const SeededBug& bug : app.bugs) {
      std::string file = bug.file.rfind(prefix, 0) == 0 ? bug.file.substr(prefix.size()) : bug.file;
      manifest << bug.id << "\t" << BugTypeName(bug.type) << "\t" << file << "\t"
               << bug.coordinator << "\n";
    }
    if (!manifest) {
      std::cerr << "error: cannot write " << (truth / (app.name + ".tsv")) << "\n";
      return 1;
    }
  }
  return 0;
}

int Info() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
            << ", \"dispatch\": \"" << vm::DispatchKindName()
            << "\", \"optimized\": " << (optimized ? "true" : "false") << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "info") {
    return Info();
  }
  if (args.size() >= 4 && args[0] == "gen") {
    return Gen(args[1], args[2], {args.begin() + 3, args.end()});
  }
  if (args.size() >= 7 && args[0] == "item") {
    return Item({args.begin() + 1, args.end()});
  }
  if (args.size() >= 7 && args[0] == "probe") {
    return Probe({args.begin() + 1, args.end()});
  }
  std::cerr << "usage: perfbench_tool info | gen <corpus-dir> <truth-dir> <app>... |"
               " item <workload> <corpus-dir> <app> <out> <label> <jobs>"
               " [<cache-dir> <file> <comment>] |"
               " probe <corpus-dir> <app> <out> <label> <jobs> <kind>...\n";
  return 2;
}
