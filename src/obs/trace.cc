#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "src/obs/json.h"

namespace wasabi {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

// Every thread caches the buffers it registered, keyed by process-unique
// tracer id. Ids are never reused, so a stale entry for a destroyed tracer
// can never alias a live one; it is simply never looked up again.
struct CachedBuffer {
  uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local std::vector<CachedBuffer> t_buffer_cache;

void AppendArgsJson(std::ostringstream& out, const TraceEvent& event) {
  out << "\"args\":{";
  bool first = true;
  for (const auto& [key, value] : event.int_args) {
    out << (first ? "" : ",") << "\"" << JsonEscape(key) << "\":" << value;
    first = false;
  }
  for (const auto& [key, value] : event.string_args) {
    out << (first ? "" : ",") << "\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
    first = false;
  }
  out << "}";
}

}  // namespace

Tracer::Tracer()
    : tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               epoch_)
      .count();
}

Tracer::Buffer& Tracer::ThisThreadBuffer() {
  for (const CachedBuffer& cached : t_buffer_cache) {
    if (cached.tracer_id == tracer_id_) {
      return *static_cast<Buffer*>(cached.buffer);
    }
  }
  std::lock_guard<std::mutex> lock(register_mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer& buffer = *buffers_.back();
  buffer.tid = static_cast<int>(buffers_.size()) - 1;
  t_buffer_cache.push_back(CachedBuffer{tracer_id_, &buffer});
  return buffer;
}

void Tracer::Record(TraceEvent event) {
  Buffer& buffer = ThisThreadBuffer();
  event.tid = buffer.tid;
  if (event.phase != 'X' && event.start_us == 0) {
    event.start_us = NowUs();
  }
  buffer.events.push_back(std::move(event));
}

void Tracer::Instant(std::string name,
                     std::vector<std::pair<std::string, std::string>> string_args,
                     std::vector<std::pair<std::string, int64_t>> int_args) {
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'i';
  event.string_args = std::move(string_args);
  event.int_args = std::move(int_args);
  Record(std::move(event));
}

void Tracer::Counter(std::string name, std::string key, int64_t value) {
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'C';
  event.int_args.emplace_back(std::move(key), value);
  Record(std::move(event));
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> merged;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    size_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->events.size();
    }
    merged.reserve(total);
    for (const auto& buffer : buffers_) {
      merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.tid < b.tid;
  });
  return merged;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->events.size();
  }
  return total;
}

std::string Tracer::ToChromeJson() const {
  std::vector<TraceEvent> events = Collect();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out << (i > 0 ? ",\n" : "\n");
    out << "{\"name\":\"" << JsonEscape(event.name) << "\",\"ph\":\"" << event.phase
        << "\",\"pid\":1,\"tid\":" << event.tid << ",\"ts\":" << event.start_us;
    if (event.phase == 'X') {
      out << ",\"dur\":" << event.duration_us;
    }
    if (event.phase == 'i') {
      out << ",\"s\":\"t\"";  // Thread-scoped instant.
    }
    out << ",";
    AppendArgsJson(out, event);
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  event_.name = std::move(name);
  event_.phase = 'X';
  event_.start_us = tracer_->NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  event_.duration_us = tracer_->NowUs() - event_.start_us;
  tracer_->Record(std::move(event_));
}

void ScopedSpan::AddArg(std::string key, std::string value) {
  if (tracer_ != nullptr) {
    event_.string_args.emplace_back(std::move(key), std::move(value));
  }
}

void ScopedSpan::AddArg(std::string key, int64_t value) {
  if (tracer_ != nullptr) {
    event_.int_args.emplace_back(std::move(key), value);
  }
}

}  // namespace wasabi
