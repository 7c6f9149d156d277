// Microbenchmark for the fault-containment layer (docs/ROBUSTNESS.md): the
// full dynamic workflow over the corpus with the self-chaos harness killing a
// growing fraction of run attempts. Reports, per chaos rate, the wall-clock
// cost of containment (retry waves + quarantine bookkeeping) and the
// resilience counters — how much was retried, recovered, and given up — plus
// the determinism check: every rate must produce byte-identical output at 2
// and 4 workers.
//
// The 0% row doubles as the overhead probe: with nothing failing, containment
// costs one admission/reduce pass over the specs on top of the runs.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/report_json.h"
#include "src/exec/task_pool.h"

int main(int argc, char** argv) {
  using namespace wasabi;
  using Clock = std::chrono::steady_clock;
  const std::string json_path = argc > 1 ? argv[1] : "micro_robust.json";

  PrintHeading("Fault-containment overhead and recovery under self-chaos",
               "docs/ROBUSTNESS.md");
  std::cout << "hardware threads available: " << DefaultJobCount() << "\n\n";

  std::vector<CorpusApp> apps = BuildFullCorpus();

  struct Sample {
    double rate = 0;
    double seconds = 0;
    int64_t retries = 0;
    int64_t recovered = 0;
    int64_t quarantined = 0;
    int64_t chaos_faults = 0;
    bool deterministic = true;
  };

  auto run_all = [&](double rate, int jobs, Sample* sample) {
    std::ostringstream fingerprint;
    for (CorpusApp& app : apps) {
      WasabiOptions options = DefaultOptionsFor(app);
      options.jobs = jobs;
      if (rate > 0) {
        options.robust.chaos.enabled = true;
        options.robust.chaos.seed = 42;
        options.robust.chaos.rate = rate;
      }
      Wasabi tool(app.program, *app.index, options);
      DynamicResult result = tool.RunDynamicWorkflow();
      fingerprint << BugReportsToJson(result.bugs);
      fingerprint << "quarantined=" << result.quarantined.size() << "\n";
      if (sample != nullptr) {
        sample->retries += result.robustness.retries;
        sample->recovered += result.robustness.recovered;
        sample->quarantined += result.robustness.quarantined;
        sample->chaos_faults += result.robustness.chaos_faults;
      }
    }
    return fingerprint.str();
  };

  run_all(0.0, 1, nullptr);  // Warmup: touches every code path once.

  const double kRates[] = {0.0, 0.05, 0.1, 0.25};
  std::vector<Sample> samples;
  for (double rate : kRates) {
    Sample sample;
    sample.rate = rate;
    Clock::time_point start = Clock::now();
    std::string four_workers = run_all(rate, 4, &sample);
    sample.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    sample.deterministic = run_all(rate, 2, nullptr) == four_workers;
    samples.push_back(sample);
  }

  TablePrinter table({"Chaos rate", "Seconds (4 workers)", "Retries", "Recovered",
                      "Quarantined", "Chaos faults", "Deterministic"});
  bool all_deterministic = true;
  for (const Sample& sample : samples) {
    std::ostringstream rate;
    rate << std::fixed << std::setprecision(2) << sample.rate;
    std::ostringstream sec;
    sec << std::fixed << std::setprecision(3) << sample.seconds;
    table.AddRow({rate.str(), sec.str(), std::to_string(sample.retries),
                  std::to_string(sample.recovered), std::to_string(sample.quarantined),
                  std::to_string(sample.chaos_faults),
                  sample.deterministic ? "yes" : "NO"});
    all_deterministic = all_deterministic && sample.deterministic;
  }
  table.Print();
  std::cout << "\nAll chaos rates byte-identical across 2 and 4 workers: "
            << (all_deterministic ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ofstream out(json_path);
  out << "{\"bench\":\"micro_robust\",\"deterministic\":"
      << (all_deterministic ? "true" : "false") << ",\"rates\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples[i];
    out << (i > 0 ? "," : "") << "{\"rate\":" << sample.rate << ",\"seconds\":"
        << sample.seconds << ",\"retries\":" << sample.retries << ",\"recovered\":"
        << sample.recovered << ",\"quarantined\":" << sample.quarantined
        << ",\"chaos_faults\":" << sample.chaos_faults << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return all_deterministic ? 0 : 1;
}
