#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace swbpbc::telemetry {

namespace {

// The installed request context. Plain thread_local (not inherited by
// spawned threads): job-carrying layers re-install it per work item.
thread_local std::uint64_t t_trace_context = 0;

}  // namespace

std::uint64_t current_trace_context() { return t_trace_context; }

ScopedTraceContext::ScopedTraceContext(std::uint64_t trace_id)
    : saved_(t_trace_context) {
  t_trace_context = trace_id;
}

ScopedTraceContext::~ScopedTraceContext() { t_trace_context = saved_; }

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void Tracer::record(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[recorded_ % capacity_] = e;
  }
  ++recorded_;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->note(e.name, FlightRecorder::kSpan,
                           static_cast<std::int32_t>(e.track),
                           static_cast<std::int64_t>(e.dur_us),
                           static_cast<std::int64_t>(e.trace_id));
  }
}

void Tracer::set_flight_recorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mutex_);
  flight_recorder_ = recorder;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = ring_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = std::move(name);
      return;
    }
  }
  track_names_.emplace_back(track, std::move(name));
}

std::vector<std::pair<std::uint32_t, std::string>> Tracer::track_names()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return track_names_;
}

std::string Tracer::chrome_trace_json() const {
  std::vector<std::pair<std::uint32_t, std::string>> tracks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracks = track_names_;
  }
  const std::vector<TraceEvent> sorted = events();

  // Serialized by hand rather than through a json::Value tree: a full ring
  // is 64Ki events, and one map-of-values per event made export the single
  // most expensive thing the tracer did.
  std::string out;
  out.reserve(64 + 96 * (tracks.size() + sorted.size()));
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : tracks) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(track);
    out += ",\"args\":{\"name\":\"";
    json::escape(name, out);
    out += "\"}}";
  }
  for (const TraceEvent& e : sorted) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json::escape(e.name, out);
    out += "\",\"cat\":\"";
    json::escape(e.cat, out);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"ts\":";
    out += std::to_string(e.ts_us);
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
    if (e.arg_names[0] != nullptr || e.trace_id != 0) {
      out += ",\"args\":{";
      bool first_arg = true;
      if (e.trace_id != 0) {
        // Hex string rather than a JSON number: 64-bit ids do not survive
        // a double round trip, and the string greps cleanly.
        char buf[24];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(e.trace_id));
        out += "\"trace_id\":\"";
        out += buf;
        out += '"';
        first_arg = false;
      }
      for (std::size_t i = 0; i < kSpanArgSlots; ++i) {
        if (e.arg_names[i] == nullptr) break;
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        json::escape(e.arg_names[i], out);
        out += "\":";
        out += std::to_string(e.arg_values[i]);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"";
  if (const std::uint64_t d = dropped(); d != 0) {
    out += ",\"swbpbc_dropped_events\":";
    out += std::to_string(d);
  }
  out += '}';
  return out;
}

util::Status Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::internal("cannot open trace file " + path);
  out << chrome_trace_json();
  out.flush();
  if (!out) return util::Status::internal("short write to trace file " + path);
  return {};
}

}  // namespace swbpbc::telemetry
