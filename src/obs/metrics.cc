#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/obs/json.h"

namespace wasabi {

namespace {

// Bucket 0 holds exact zeros (and negatives, which the pipeline never
// produces); bucket i in [1, kBuckets-2] holds samples with |value| in
// (2^(i-2), 2^(i-1)]; the last bucket is the overflow.
constexpr size_t kBuckets = 48;

size_t BucketIndex(double value) {
  if (!(value > 0)) {
    return 0;
  }
  double bound = 1.0;
  for (size_t i = 1; i + 1 < kBuckets; ++i) {
    if (value <= bound) {
      return i;
    }
    bound *= 2.0;
  }
  return kBuckets - 1;
}

double BucketUpperBound(size_t index) {
  if (index == 0) {
    return 0.0;
  }
  double bound = 1.0;
  for (size_t i = 1; i < index; ++i) {
    bound *= 2.0;
  }
  return bound;
}

// JSON-safe number rendering: integral values print without a fraction,
// non-finite values (which no metric should produce) degrade to 0.
std::string NumberJson(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// OpenMetrics metric names are limited to [a-zA-Z0-9_:] and must not start
// with a digit; the registry's dotted names map onto that with '_'.
std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // 0-based fractional rank of the requested quantile among `count` samples.
  const double rank = q * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double upper = buckets[i].first;
    const uint64_t in_bucket = buckets[i].second;
    const bool last = i + 1 == buckets.size();
    if (!last && rank >= static_cast<double>(seen + in_bucket)) {
      seen += in_bucket;
      continue;
    }
    // Bucket bounds tightened by the observed extremes; the overflow bucket
    // has no real upper bound, so `max` stands in for it.
    const double lower = upper > 1.0 ? upper / 2.0 : 0.0;
    const double lo = std::max(lower, min);
    double hi = last ? max : std::min(upper, max);
    if (hi < lo) {
      hi = lo;
    }
    const double within =
        (rank - static_cast<double>(seen) + 1.0) / static_cast<double>(in_bucket);
    const double estimate = lo + (hi - lo) * std::min(within, 1.0);
    return std::clamp(estimate, min, max);
  }
  return max;
}

void MetricsRegistry::Increment(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram& histogram = histograms_[name];
  if (histogram.bucket_counts.empty()) {
    histogram.bucket_counts.assign(kBuckets, 0);
  }
  if (histogram.count == 0 || value < histogram.min) {
    histogram.min = value;
  }
  if (histogram.count == 0 || value > histogram.max) {
    histogram.max = value;
  }
  ++histogram.count;
  histogram.sum += value;
  ++histogram.bucket_counts[BucketIndex(value)];
}

void MetricsRegistry::AppendSeries(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_[name].push_back(value);
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot MetricsRegistry::HistogramFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snapshot;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return snapshot;
  }
  const Histogram& histogram = it->second;
  snapshot.count = histogram.count;
  snapshot.sum = histogram.sum;
  snapshot.min = histogram.min;
  snapshot.max = histogram.max;
  for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
    if (histogram.bucket_counts[i] > 0) {
      snapshot.buckets.emplace_back(BucketUpperBound(i), histogram.bucket_counts[i]);
    }
  }
  return snapshot;
}

std::vector<double> MetricsRegistry::SeriesFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << NumberJson(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {\"count\": "
        << histogram.count << ", \"sum\": " << NumberJson(histogram.sum)
        << ", \"min\": " << NumberJson(histogram.min)
        << ", \"max\": " << NumberJson(histogram.max) << ", \"mean\": "
        << NumberJson(histogram.count == 0 ? 0.0
                                           : histogram.sum / static_cast<double>(histogram.count))
        << ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      if (histogram.bucket_counts[i] == 0) {
        continue;
      }
      out << (first_bucket ? "" : ", ") << "{\"le\": " << NumberJson(BucketUpperBound(i))
          << ", \"count\": " << histogram.bucket_counts[i] << "}";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"series\": {";
  first = true;
  for (const auto& [name, values] : series_) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i > 0 ? ", " : "") << NumberJson(values[i]);
    }
    out << "]";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::ToOpenMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, value] : counters_) {
    std::string family = SanitizeMetricName(name);
    // Counter sample names carry a mandatory _total suffix; avoid doubling it
    // for registry names that already end that way.
    constexpr std::string_view kTotal = "_total";
    if (family.size() > kTotal.size() &&
        family.compare(family.size() - kTotal.size(), kTotal.size(), kTotal) == 0) {
      family.resize(family.size() - kTotal.size());
    }
    out << "# TYPE " << family << " counter\n" << family << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    const std::string family = SanitizeMetricName(name);
    out << "# TYPE " << family << " gauge\n" << family << " " << NumberJson(value) << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string family = SanitizeMetricName(name);
    out << "# TYPE " << family << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      if (histogram.bucket_counts[i] == 0) {
        continue;
      }
      cumulative += histogram.bucket_counts[i];
      out << family << "_bucket{le=\"" << NumberJson(BucketUpperBound(i)) << "\"} " << cumulative
          << "\n";
    }
    out << family << "_bucket{le=\"+Inf\"} " << histogram.count << "\n";
    out << family << "_sum " << NumberJson(histogram.sum) << "\n";
    out << family << "_count " << histogram.count << "\n";
  }
  out << "# EOF\n";
  return out.str();
}

}  // namespace wasabi
