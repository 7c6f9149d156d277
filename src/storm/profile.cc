#include "src/storm/profile.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/exec/task_pool.h"
#include "src/interp/exec_log.h"
#include "src/interp/interpreter.h"
#include "src/interp/unit_recorder.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// Caps keeping probe results tidy when the loop under probe never gives up.
constexpr int kMaxRecordedAttempts = 64;
constexpr size_t kMaxRecordedBackoffs = 8;

// Small budgets: a probe only needs to see the loop give up or prove it
// won't. An unbounded loop with sleeps trips the virtual-time budget; one
// without sleeps trips the step budget. Either abort reason means unbounded.
InterpOptions ProbeOptions() {
  InterpOptions options;
  options.step_budget = 300'000;
  options.virtual_time_budget_ms = 20'000;
  return options;
}

// Forces every call to `callee` to throw `exception` (empty = count only,
// never throw). Fire count is the attempt count of the probe.
class SendProbe : public CallInterceptor {
 public:
  SendProbe(std::string callee, std::string exception)
      : callee_(std::move(callee)), exception_(std::move(exception)) {}

  void OnCall(const CallEvent& event, Interpreter& interp) override {
    if (event.callee != callee_) {
      return;
    }
    ++fires_;
    if (!exception_.empty()) {
      throw ThrownException{interp.MakeException(exception_, "storm probe")};
    }
  }

  int64_t fires() const { return fires_; }

 private:
  std::string callee_;
  std::string exception_;
  int64_t fires_ = 0;
};

struct ProbeResult {
  int64_t send_fires = 0;
  bool completed = false;  // handle() returned or threw an mj exception.
  bool aborted = false;    // Step/virtual-time budget: the loop never gives up.
  std::vector<int64_t> sleeps_ms;
};

ProbeResult RunProbe(const mj::Program& program, const mj::ProgramIndex& index,
                     InterpreterArena& arena, UnitRecorder& units, const std::string& service,
                     const std::string& exception, int64_t request_id) {
  ProbeResult result;
  Interpreter& interp = arena.Acquire(program, index, ProbeOptions());
  interp.set_unit_recorder(&units);
  interp.SetConfig("storm.request.id", Value{request_id});
  SendProbe probe(service + ".send", exception);
  interp.AddInterceptor(&probe);
  try {
    interp.Invoke(service + ".handle");
    result.completed = true;
  } catch (ThrownException&) {
    result.completed = true;  // Gave up by (re)throwing: still a bounded policy.
  } catch (const ExecutionAborted&) {
    result.aborted = true;
  }
  result.send_fires = probe.fires();
  for (const LogEntry& entry : interp.log().entries()) {
    if (entry.kind == LogEntryKind::kSleep && result.sleeps_ms.size() < kMaxRecordedBackoffs) {
      result.sleeps_ms.push_back(entry.amount);
    }
  }
  return result;
}

EdgeRetryProfile ProbeService(const mj::Program& program, const mj::ProgramIndex& index,
                              const UnitMap& unit_map, const ProgramDigest& digest,
                              const mj::ClassDecl& cls, const mj::MethodDecl& handle) {
  EdgeRetryProfile profile;
  profile.service = cls.name;
  profile.coordinator = cls.name + ".handle";
  profile.location = handle.location;
  // The profile's identity fields come from the class's own unit.
  UnitRecorder units(unit_map);
  units.OnClass(cls);
  if (const mj::CompilationUnit* unit = index.UnitOf(cls); unit != nullptr) {
    profile.file = unit->file().name();
  }

  // The four probes run back to back on one warm interpreter.
  InterpreterArena arena;

  // Probe 0 (clean): fan-out = sends per successful request.
  ProbeResult clean =
      RunProbe(program, index, arena, units, cls.name, /*exception=*/"", /*request_id=*/0);
  profile.fanout = static_cast<int>(std::max<int64_t>(1, clean.send_fires));

  // Probe 1 (persistent transport failure): attempts + backoff schedule.
  ProbeResult transport =
      RunProbe(program, index, arena, units, cls.name, "ServiceUnavailableException",
               /*request_id=*/0);
  profile.bounded = !transport.aborted;
  profile.attempts = static_cast<int>(
      std::clamp<int64_t>(transport.send_fires, 1, kMaxRecordedAttempts));
  profile.backoff_ms = transport.sleeps_ms;

  // Probe 2 (same failure, different request identity): a backoff schedule
  // that depends on which request is retrying is jittered.
  ProbeResult shifted =
      RunProbe(program, index, arena, units, cls.name, "ServiceUnavailableException",
               /*request_id=*/1);
  const size_t compare = std::min(transport.sleeps_ms.size(), shifted.sleeps_ms.size());
  for (size_t i = 0; i < compare; ++i) {
    if (transport.sleeps_ms[i] != shifted.sleeps_ms[i]) {
      profile.jittered = true;
      break;
    }
  }

  // Probe 3 (overload push-back): a frontend that sends again after
  // ResourceExhaustedException retries on overload instead of shedding.
  ProbeResult overload =
      RunProbe(program, index, arena, units, cls.name, "ResourceExhaustedException",
               /*request_id=*/0);
  profile.retries_on_overload = overload.send_fires >= 2;
  if (profile.retries_on_overload && !overload.sleeps_ms.empty()) {
    profile.overload_backoff_ms = overload.sleeps_ms.front();
  }
  profile.dependencies = DependenciesOf(digest, units.units());
  return profile;
}

const EdgeRetryProfile* FindProfile(const std::vector<EdgeRetryProfile>& profiles,
                                    const std::string& service) {
  auto it = std::lower_bound(
      profiles.begin(), profiles.end(), service,
      [](const EdgeRetryProfile& profile, const std::string& name) { return profile.service < name; });
  return it != profiles.end() && it->service == service ? &*it : nullptr;
}

}  // namespace

std::vector<EdgeRetryProfile> ExtractRetryProfiles(const mj::Program& program,
                                                   const mj::ProgramIndex& index, int jobs) {
  return ExtractRetryProfiles(program, index, DigestProgram(program), UnitMap(program, index),
                              jobs, nullptr);
}

std::vector<EdgeRetryProfile> ExtractRetryProfiles(
    const mj::Program& program, const mj::ProgramIndex& index, const ProgramDigest& digest,
    const UnitMap& unit_map, int jobs, const std::vector<EdgeRetryProfile>* earlier) {
  struct Service {
    const mj::ClassDecl* cls = nullptr;
    const mj::MethodDecl* handle = nullptr;
  };
  std::vector<Service> services;
  for (const mj::ClassDecl* cls : index.all_classes()) {
    const mj::MethodDecl* handle = index.ResolveMethod(*cls, "handle");
    const mj::MethodDecl* send = index.ResolveMethod(*cls, "send");
    if (handle == nullptr || send == nullptr || handle->body == nullptr ||
        !handle->params.empty()) {
      continue;
    }
    services.push_back(Service{cls, handle});
  }
  std::sort(services.begin(), services.end(),
            [](const Service& a, const Service& b) { return a.cls->name < b.cls->name; });

  // Index-addressed results: the reduce order is the sorted service order, so
  // the profile list is byte-identical at any worker count.
  std::vector<EdgeRetryProfile> profiles(services.size());
  if (services.empty()) {
    return profiles;
  }
  TaskPool pool(jobs);
  pool.ParallelFor(services.size(), [&](size_t i) {
    const EdgeRetryProfile* reusable =
        earlier != nullptr ? FindProfile(*earlier, services[i].cls->name) : nullptr;
    if (reusable != nullptr && DependenciesCurrent(reusable->dependencies, digest)) {
      profiles[i] = *reusable;
      return;
    }
    profiles[i] =
        ProbeService(program, index, unit_map, digest, *services[i].cls, *services[i].handle);
  });
  return profiles;
}

}  // namespace wasabi
