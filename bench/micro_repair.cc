// Repair-loop cost benchmark (docs/REPAIR.md): the full detect -> synthesize
// -> validate loop over every corpus app plus the repairlab ground-truth app,
// run two ways:
//
//   cold    — no cache: every validation re-campaign recomputes the whole
//             pipeline from scratch for every patch,
//   sliced  — a fresh per-app CacheStore: the baseline populates the per-file
//             q1/when namespaces and the run memo once, and each validation
//             re-campaign then reuses the unpatched slice: the SimLLM entries
//             of every other file, and every coverage run and campaign
//             attempt whose recorded code does not include the patched file.
//
// The committed BENCH_repair.json records per-app seconds for both passes,
// the validation-phase cache traffic (the hits/misses split is the slicing
// signature), and the byte-identity verdict — the sliced report must equal
// the cold report byte for byte, which is the whole point of slicing: same
// answer, less work.
//
// Usage: micro_repair [out.json] [cache-dir-root]

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/store.h"
#include "src/repair/repair.h"

namespace wasabi {
namespace {

using Clock = std::chrono::steady_clock;

struct AppRecord {
  std::string app;
  int confirmed = 0;
  int fixed = 0;
  double cold_seconds = 0;
  double sliced_seconds = 0;
  uint64_t validation_hits = 0;
  uint64_t validation_misses = 0;
  bool byte_identical = false;
};

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

AppRecord MeasureApp(const std::string& name, const std::string& cache_root) {
  CorpusApp app = BuildCorpusApp(name);
  AppRecord record;
  record.app = name;

  RepairOptions cold_options;
  cold_options.wasabi = DefaultOptionsFor(app);
  Clock::time_point cold_begin = Clock::now();
  RepairReport cold = RunRepair(app.program, *app.index, cold_options);
  record.cold_seconds = Seconds(cold_begin, Clock::now());

  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(cache_root + "/" + name, &error);
  if (store == nullptr) {
    std::cerr << "cache disabled for " << name << ": " << error << "\n";
  }
  RepairOptions sliced_options;
  sliced_options.wasabi = DefaultOptionsFor(app);
  sliced_options.wasabi.cache = store.get();
  Clock::time_point sliced_begin = Clock::now();
  RepairReport sliced = RunRepair(app.program, *app.index, sliced_options);
  record.sliced_seconds = Seconds(sliced_begin, Clock::now());

  record.confirmed = cold.totals.confirmed;
  record.fixed = cold.totals.fixed;
  record.validation_hits = sliced.validation_cache_delta.hits;
  record.validation_misses = sliced.validation_cache_delta.misses;
  record.byte_identical = RepairReportToJson(cold) == RepairReportToJson(sliced);
  return record;
}

}  // namespace
}  // namespace wasabi

int main(int argc, char** argv) {
  using namespace wasabi;
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_repair.json";
  const std::string cache_root = argc > 2 ? argv[2] : ".micro-repair-cache";

  PrintHeading("Repair-loop cost: cold vs cache-sliced validation", "docs/REPAIR.md");
  std::cout << "hardware threads available: " << DefaultJobCount() << "\n\n";

  std::vector<std::string> names = CorpusAppNames();
  names.push_back("repairlab");

  std::filesystem::remove_all(cache_root);
  TablePrinter table({"app", "confirmed", "fixed", "cold (ms)", "sliced (ms)",
                      "val hits", "val misses", "byte-identical"});
  std::vector<AppRecord> records;
  bool all_identical = true;
  bool any_hits = false;
  double total_cold = 0;
  double total_sliced = 0;
  for (const std::string& name : names) {
    AppRecord record = MeasureApp(name, cache_root);
    auto ms = [](double seconds) {
      std::ostringstream out;
      out << std::fixed << std::setprecision(1) << seconds * 1000.0;
      return out.str();
    };
    table.AddRow({record.app, std::to_string(record.confirmed), std::to_string(record.fixed),
                  ms(record.cold_seconds), ms(record.sliced_seconds),
                  std::to_string(record.validation_hits),
                  std::to_string(record.validation_misses),
                  record.byte_identical ? "yes" : "NO"});
    all_identical = all_identical && record.byte_identical;
    any_hits = any_hits || record.validation_hits > 0;
    total_cold += record.cold_seconds;
    total_sliced += record.sliced_seconds;
    records.push_back(record);
  }
  table.Print();
  std::filesystem::remove_all(cache_root);

  std::cout << "\ncorpus total: cold " << std::fixed << std::setprecision(1)
            << total_cold * 1000.0 << " ms, sliced " << total_sliced * 1000.0 << " ms\n";
  if (!all_identical) {
    std::cerr << "FAIL: a sliced repair report differs from its cold reference\n";
  }
  if (!any_hits) {
    std::cerr << "FAIL: no validation re-campaign hit the unpatched cache slice\n";
  }

  std::ofstream out(json_path);
  out << "{\"bench\":\"micro_repair\",\"hardware_concurrency\":" << DefaultJobCount()
      << ",\"byte_identical\":" << (all_identical ? "true" : "false") << ",\"apps\":[";
  bool first = true;
  for (const AppRecord& record : records) {
    if (!first) out << ",";
    first = false;
    out << "{\"app\":\"" << record.app << "\",\"confirmed\":" << record.confirmed
        << ",\"fixed\":" << record.fixed << ",\"cold_seconds\":" << record.cold_seconds
        << ",\"sliced_seconds\":" << record.sliced_seconds
        << ",\"validation_hits\":" << record.validation_hits
        << ",\"validation_misses\":" << record.validation_misses << "}";
  }
  out << "]}\n";
  std::cout << "record: " << json_path << "\n";

  return all_identical && any_hits ? 0 : 1;
}
