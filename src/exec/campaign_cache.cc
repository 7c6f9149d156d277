#include "src/exec/campaign_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/lang/digest.h"

namespace wasabi {

namespace {

// Payload framing: records separated by '\x1e', fields by '\x1f'. String
// fields escape both separators (and the escape char) so arbitrary detail
// text round-trips; a bad escape fails the decode, which is just a miss.
constexpr char kRecordSep = '\x1e';
constexpr char kFieldSep = '\x1f';

std::string EscapePayload(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case kRecordSep: out += "\\R"; break;
      case kFieldSep: out += "\\F"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

bool UnescapePayload(std::string_view escaped, std::string* out) {
  out->clear();
  for (size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= escaped.size()) {
      return false;
    }
    switch (escaped[i]) {
      case '\\': out->push_back('\\'); break;
      case 'R': out->push_back(kRecordSep); break;
      case 'F': out->push_back(kFieldSep); break;
      default: return false;
    }
  }
  return true;
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseInt(std::string_view field, int64_t* out) {
  if (field.empty()) {
    return false;
  }
  std::string buffer(field);
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (end != buffer.c_str() + buffer.size()) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseBool(std::string_view field, bool* out) {
  if (field == "0") {
    *out = false;
    return true;
  }
  if (field == "1") {
    *out = true;
    return true;
  }
  return false;
}

void AppendField(std::string& out, std::string_view field, bool escape = false) {
  if (!out.empty() && out.back() != kRecordSep) {
    out.push_back(kFieldSep);
  }
  out.append(escape ? EscapePayload(field) : std::string(field));
}

bool ParseFailureKind(std::string_view field, RunFailureKind* out) {
  int64_t kind = 0;
  if (!ParseInt(field, &kind) || kind < 0 ||
      kind > static_cast<int64_t>(RunFailureKind::kChaos)) {
    return false;
  }
  *out = static_cast<RunFailureKind>(kind);
  return true;
}


std::string Hex(uint64_t value) { return mj::DigestHex(value); }

bool ParseHex(std::string_view field, uint64_t* out) {
  if (field.size() != 16) {
    return false;
  }
  auto [end, ec] = std::from_chars(field.data(), field.data() + field.size(), *out, 16);
  return ec == std::errc() && end == field.data() + field.size();
}

// A variant's leading record: shape digest, kind-specific digest, then the
// pair digest of every unit the run executed.
std::string EncodeHeader(uint64_t shape, uint64_t extra, const CodeDependencies& deps) {
  std::string out = Hex(shape);
  out.push_back(kFieldSep);
  out += Hex(extra);
  for (uint64_t pair : deps.units) {
    out.push_back(kFieldSep);
    out += Hex(pair);
  }
  return out;
}

bool ParseRunOutcomeHeader(std::string_view record, bool* completed, RunFailure* failure) {
  std::vector<std::string_view> fields = Split(record, kFieldSep);
  return fields.size() == 4 && ParseBool(fields[0], completed) &&
         ParseFailureKind(fields[1], &failure->kind) &&
         UnescapePayload(fields[2], &failure->detail) && ParseBool(fields[3], &failure->chaos);
}

}  // namespace

RunMemo::RunMemo(CacheStore* store, std::string prefix, const ProgramDigest& digest,
                 const UnitMap& units, const std::vector<RetryLocation>& locations, bool chaos,
                 bool campaign_lookups)
    : store_(store),
      prefix_(std::move(prefix)),
      digest_(digest),
      locations_(locations),
      chaos_(chaos),
      campaign_lookups_(campaign_lookups),
      units_(units) {
  for (uint32_t u = 0; u < digest.files.size(); ++u) {
    unit_of_pair_.emplace(digest.files[u].pair, u);
  }
  location_unit_.reserve(locations.size());
  for (size_t l = 0; l < locations.size(); ++l) {
    location_index_.emplace(locations[l].Key(), l);
    location_unit_.push_back(units_.UnitOfFile(locations[l].file));
  }
}

std::string RunMemo::CoverageKey(const TestCase& test, size_t index) const {
  std::string key = prefix_ + test.qualified_name;
  if (chaos_) {
    key += "|i=" + std::to_string(index);
  }
  return key;
}

std::string RunMemo::AttemptKey(const CampaignRunSpec& spec, int attempt) const {
  std::string key = prefix_ + spec.test.qualified_name + "|" +
                    locations_[spec.location_index].Key() + "|k=" + std::to_string(spec.k) +
                    "|a=" + std::to_string(attempt);
  if (chaos_) {
    key += "|id=" + std::to_string(spec.id);
  }
  return key;
}

uint64_t RunMemo::LocationsDigest(const std::vector<uint32_t>& units) const {
  uint64_t hash = mj::kFnvOffsetBasis;
  for (size_t l = 0; l < locations_.size(); ++l) {
    const int64_t unit = location_unit_[l];
    if (unit >= 0 && std::binary_search(units.begin(), units.end(), static_cast<uint32_t>(unit))) {
      const std::string key = locations_[l].Key();
      hash = mj::Fnv1a64Mix(key.size(), mj::Fnv1a64(key, hash));
    }
  }
  return hash;
}

bool RunMemo::CurrentHeader(std::string_view variant, uint64_t* extra,
                            std::vector<uint32_t>* units, std::string_view* body) const {
  const size_t header_end = variant.find(kRecordSep);
  if (header_end == std::string_view::npos) {
    return false;
  }
  std::vector<std::string_view> fields = Split(variant.substr(0, header_end), kFieldSep);
  uint64_t shape = 0;
  if (fields.size() < 2 || !ParseHex(fields[0], &shape) || shape != digest_.shape ||
      !ParseHex(fields[1], extra)) {
    return false;
  }
  units->clear();
  for (size_t f = 2; f < fields.size(); ++f) {
    uint64_t pair = 0;
    if (!ParseHex(fields[f], &pair)) {
      return false;
    }
    auto it = unit_of_pair_.find(pair);
    if (it == unit_of_pair_.end()) {
      return false;  // That file is gone or its content changed.
    }
    units->push_back(it->second);
  }
  std::sort(units->begin(), units->end());
  *body = variant.substr(header_end + 1);
  return true;
}

bool RunMemo::LookupCoverage(const TestCase& test, size_t index, CoverageRunOutcome* out) const {
  std::vector<uint32_t> units;
  std::optional<std::string> hit = store_->FindVariant(
      kCacheNsCoverage, CoverageKey(test, index), [&](std::string_view variant) {
        uint64_t locations_digest = 0;
        std::string_view body;
        if (!CurrentHeader(variant, &locations_digest, &units, &body) ||
            locations_digest != LocationsDigest(units)) {
          return false;
        }
        std::vector<std::string_view> records = Split(body, kRecordSep);
        std::vector<std::string_view> fields = Split(records[0], kFieldSep);
        if (records.size() > 2 || fields.size() != 9) {
          return false;
        }
        CoverageRunOutcome decoded;
        int64_t attempts = 0;
        if (!ParseBool(fields[0], &decoded.quarantined) || !ParseInt(fields[1], &attempts) ||
            !ParseInt(fields[2], &decoded.retries) || !ParseBool(fields[3], &decoded.recovered) ||
            !ParseInt(fields[4], &decoded.chaos_faults) ||
            !ParseInt(fields[5], &decoded.backoff_virtual_ms) ||
            !ParseFailureKind(fields[6], &decoded.failure_kind) ||
            !UnescapePayload(fields[7], &decoded.failure_detail) ||
            !ParseBool(fields[8], &decoded.failure_chaos)) {
          return false;
        }
        decoded.attempts = static_cast<int>(attempts);
        if (records.size() == 2) {
          for (std::string_view field : Split(records[1], kFieldSep)) {
            std::string key;
            if (!UnescapePayload(field, &key)) {
              return false;
            }
            auto it = location_index_.find(key);
            if (it == location_index_.end()) {
              return false;  // A location this program no longer identifies.
            }
            decoded.hits.push_back(it->second);
          }
        }
        if (decoded.quarantined && !decoded.hits.empty()) {
          return false;  // Quarantined runs cover nothing, by construction.
        }
        *out = std::move(decoded);
        return true;
      });
  return hit.has_value();
}

void RunMemo::StoreCoverage(const TestCase& test, size_t index,
                            const CoverageRunOutcome& outcome) const {
  const int64_t failed_attempts = outcome.attempts - (outcome.quarantined ? 0 : 1);
  if (failed_attempts != outcome.chaos_faults) {
    return;
  }
  std::string variant =
      EncodeHeader(digest_.shape, LocationsDigest(outcome.units),
                   DependenciesOf(digest_, outcome.units));
  variant.push_back(kRecordSep);
  std::string record;
  AppendField(record, outcome.quarantined ? "1" : "0");
  AppendField(record, std::to_string(outcome.attempts));
  AppendField(record, std::to_string(outcome.retries));
  AppendField(record, outcome.recovered ? "1" : "0");
  AppendField(record, std::to_string(outcome.chaos_faults));
  AppendField(record, std::to_string(outcome.backoff_virtual_ms));
  AppendField(record, std::to_string(static_cast<int>(outcome.failure_kind)));
  AppendField(record, outcome.failure_detail, /*escape=*/true);
  AppendField(record, outcome.failure_chaos ? "1" : "0");
  variant += record;
  if (!outcome.hits.empty()) {
    std::string hits;
    for (size_t hit : outcome.hits) {
      AppendField(hits, locations_[hit].Key(), /*escape=*/true);
    }
    variant.push_back(kRecordSep);
    variant += hits;
  }
  store_->AddVariant(kCacheNsCoverage, CoverageKey(test, index), variant);
}

bool RunMemo::LookupAttempt(const CampaignRunSpec& spec, int attempt,
                            MemoizedAttempt* out) const {
  std::vector<uint32_t> units;
  std::optional<std::string> hit = store_->FindVariant(
      kCacheNsRun, AttemptKey(spec, attempt), [&](std::string_view variant) {
        uint64_t extra = 0;
        std::string_view body;
        if (!CurrentHeader(variant, &extra, &units, &body)) {
          return false;
        }
        std::vector<std::string_view> records = Split(body, kRecordSep);
        MemoizedAttempt decoded;
        if (!ParseRunOutcomeHeader(records[0], &decoded.completed, &decoded.failure)) {
          return false;
        }
        const RetryLocation& location = locations_[spec.location_index];
        for (size_t r = 1; r < records.size(); ++r) {
          std::vector<std::string_view> fields = Split(records[r], kFieldSep);
          if (fields.size() != 6) {
            return false;
          }
          OracleReport report;
          int64_t kind = 0;
          int64_t stability = 0;
          if (!ParseInt(fields[0], &kind) || kind < 0 ||
              kind > static_cast<int64_t>(OracleKind::kDifferentException) ||
              !UnescapePayload(fields[1], &report.detail) ||
              !UnescapePayload(fields[2], &report.group_key) ||
              !ParseBool(fields[3], &report.probed) || !ParseInt(fields[4], &stability) ||
              stability < 0 || stability > static_cast<int64_t>(VerdictStability::kChaosInduced) ||
              !UnescapePayload(fields[5], &report.flaky_cause)) {
            return false;
          }
          report.kind = static_cast<OracleKind>(kind);
          report.stability = static_cast<VerdictStability>(stability);
          report.test = spec.test.qualified_name;
          report.location = location;
          decoded.reports.push_back(std::move(report));
        }
        if (!decoded.completed && !decoded.reports.empty()) {
          return false;  // Host failures produce no reports.
        }
        *out = std::move(decoded);
        return true;
      });
  return hit.has_value();
}

void RunMemo::StoreAttempt(const CampaignRunSpec& spec, int attempt, const UnitRecorder& units,
                           const MemoizedAttempt& outcome) const {
  // The injected location's file always counts: oracle details and the
  // prober's cause judgment read it even when the run never reached it.
  std::vector<uint32_t> touched = units.units();
  const int64_t location_unit = location_unit_[spec.location_index];
  if (location_unit >= 0) {
    touched.push_back(static_cast<uint32_t>(location_unit));
  }
  std::string variant = EncodeHeader(digest_.shape, 0, DependenciesOf(digest_, touched));
  variant.push_back(kRecordSep);
  std::string record;
  AppendField(record, outcome.completed ? "1" : "0");
  AppendField(record, std::to_string(static_cast<int>(outcome.failure.kind)));
  AppendField(record, outcome.failure.detail, /*escape=*/true);
  AppendField(record, outcome.failure.chaos ? "1" : "0");
  variant += record;
  for (const OracleReport& report : outcome.reports) {
    record.clear();
    AppendField(record, std::to_string(static_cast<int>(report.kind)));
    AppendField(record, report.detail, /*escape=*/true);
    AppendField(record, report.group_key, /*escape=*/true);
    AppendField(record, report.probed ? "1" : "0");
    AppendField(record, std::to_string(static_cast<int>(report.stability)));
    AppendField(record, report.flaky_cause, /*escape=*/true);
    variant.push_back(kRecordSep);
    variant += record;
  }
  store_->AddVariant(kCacheNsRun, AttemptKey(spec, attempt), variant);
}

bool RunMemo::LookupClean(const TestCase& test, TestStatus* out) const {
  std::vector<uint32_t> units;
  std::optional<std::string> hit = store_->FindVariant(
      kCacheNsClean, prefix_ + test.qualified_name, [&](std::string_view variant) {
        uint64_t extra = 0;
        std::string_view body;
        int64_t status = 0;
        if (!CurrentHeader(variant, &extra, &units, &body) || !ParseInt(body, &status) ||
            status < 0 || status > static_cast<int64_t>(TestStatus::kTimeout)) {
          return false;
        }
        *out = static_cast<TestStatus>(status);
        return true;
      });
  return hit.has_value();
}

void RunMemo::StoreClean(const TestCase& test, const UnitRecorder& units,
                         TestStatus status) const {
  std::string variant = EncodeHeader(digest_.shape, 0, DependenciesOf(digest_, units.units()));
  variant.push_back(kRecordSep);
  variant += std::to_string(static_cast<int>(status));
  store_->AddVariant(kCacheNsClean, prefix_ + test.qualified_name, variant);
}

void ExportMemoLookups(const CampaignObs& obs, const char* ns, int64_t hits, int64_t misses) {
  if (obs.metrics != nullptr) {
    obs.metrics->Increment(std::string("cache.hits.") + ns, hits);
    obs.metrics->Increment(std::string("cache.misses.") + ns, misses);
  }
  if (obs.tracer != nullptr) {
    obs.tracer->Counter("cache.hits", ns, hits);
    obs.tracer->Counter("cache.misses", ns, misses);
  }
  if (obs.journal != nullptr) {
    obs.journal->CacheLookup(ns, /*hit=*/true, hits);
    obs.journal->CacheLookup(ns, /*hit=*/false, misses);
  }
}

CoverageOutcome MapCoverageCached(const TestRunner& runner, const std::vector<TestCase>& tests,
                                  const std::vector<RetryLocation>& locations, TaskPool& pool,
                                  const RobustnessOptions& options, const CampaignObs& obs,
                                  const RunMemo* memo) {
  if (memo == nullptr) {
    return MapCoverageRobust(runner, tests, locations, pool, options, obs);
  }
  std::vector<CoverageRunOutcome> per_test(tests.size());
  std::vector<TestCase> missing;
  std::vector<size_t> missing_indices;
  for (size_t i = 0; i < tests.size(); ++i) {
    if (!memo->LookupCoverage(tests[i], i, &per_test[i])) {
      missing.push_back(tests[i]);
      missing_indices.push_back(i);
    }
  }
  if (!missing.empty()) {
    std::vector<CoverageRunOutcome> executed = ExecuteCoverageRuns(
        runner, missing, locations, pool, options, obs, missing_indices, memo);
    for (size_t m = 0; m < missing.size(); ++m) {
      memo->StoreCoverage(missing[m], missing_indices[m], executed[m]);
      per_test[missing_indices[m]] = std::move(executed[m]);
    }
  }
  ExportMemoLookups(obs, kCacheNsCoverage, static_cast<int64_t>(tests.size() - missing.size()),
                    static_cast<int64_t>(missing.size()));
  return ReduceCoverageOutcomes(tests, std::move(per_test), obs);
}

}  // namespace wasabi
