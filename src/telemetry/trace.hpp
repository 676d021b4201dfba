// Span tracing for the screening stack.
//
// A Tracer keeps a fixed-capacity ring of completed spans and exports them
// as Chrome trace_event JSON ("X" complete events), loadable in
// chrome://tracing and Perfetto, so one sw::screen or bench run renders as
// a timeline: device stages (H2G/W2B/SWA/B2W/G2H), chunk iterations,
// quarantine/retry episodes, thread-pool task chunks, checkpoint writes.
//
// Timestamps come from the process-wide monotonic clock
// (util::monotonic_us), so spans recorded by different threads and layers
// share one time domain. When the ring is full the oldest events are
// overwritten and the loss is counted — a long run degrades to "most
// recent window" instead of growing without bound.
//
// The disabled fast path is a null Tracer*: Span tests the pointer at
// construction and destruction, records nothing, and allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"
#include "util/timer.hpp"

namespace swbpbc::telemetry {

/// Track (Chrome "tid") conventions used by the built-in instrumentation.
/// Tracks keep the screen loop, the device pipeline, and the pool workers
/// on separate timeline rows.
inline constexpr std::uint32_t kTrackScreen = 0;
inline constexpr std::uint32_t kTrackDevice = 1;
inline constexpr std::uint32_t kTrackPoolBase = 16;  // + worker index
// Client-side spans of a screen_client run, so a merged client+server
// export keeps the request round trip on its own row.
inline constexpr std::uint32_t kTrackClient = 24;
// Per-tenant serving rows (queue-wait / batch spans) in screen_serve.
inline constexpr std::uint32_t kTrackTenantBase = 32;  // + tenant index

/// Request-scoped trace correlation. A nonzero id installed with
/// ScopedTraceContext stamps every Span recorded on this thread until the
/// scope unwinds; exported events carry it as a "trace_id" arg, so one
/// Perfetto query (or grep) pulls a single request's spans out of a trace
/// that interleaves many tenants. The context is thread_local: worker
/// threads that pick up a job re-install the job's id themselves (see
/// device::PipelineEngine), it does not flow across std::thread.
[[nodiscard]] std::uint64_t current_trace_context();

class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t trace_id);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t saved_;
};

/// Numeric argument slots per span: enough for the screen span's batch
/// shape (pairs, chunks), the engine it dispatched to and both engines'
/// predicted cost.
inline constexpr std::size_t kSpanArgSlots = 5;

/// One completed span. `name`/`cat`/arg keys must be string literals (or
/// otherwise outlive the tracer): the ring stores the pointers, not
/// copies, to keep recording allocation-free.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  std::uint64_t ts_us = 0;   // start, process monotonic clock
  std::uint64_t dur_us = 0;
  std::uint32_t track = 0;   // rendered as the Chrome "tid"
  // Request correlation id; 0 means "not request-scoped". Exported as a
  // "trace_id" hex-string arg without consuming a numeric slot.
  std::uint64_t trace_id = 0;
  // Filled in order; the first null name ends the list.
  const char* arg_names[kSpanArgSlots] = {};
  std::int64_t arg_values[kSpanArgSlots] = {};
};

class FlightRecorder;

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(const TraceEvent& e);

  /// Mirrors every recorded span into `recorder` (crash post-mortems keep
  /// the most recent spans even after the exporter is gone). Null detaches.
  void set_flight_recorder(FlightRecorder* recorder);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Events lost to ring overwrite.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Retained events in timestamp order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Names a track ("tid") in the exported trace via metadata events.
  void set_track_name(std::uint32_t track, std::string name);

  /// The (track, name) pairs registered so far — what a trace dump ships
  /// alongside the events so the receiving side reproduces the rows.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>>
  track_names() const;

  /// Chrome trace_event JSON: {"traceEvents": [...]} with one "X"
  /// (complete) event per span, ts/dur in microseconds, plus
  /// "thread_name" metadata for named tracks.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path` (kInternal on I/O failure).
  [[nodiscard]] util::Status write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;  // events ever recorded
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  FlightRecorder* flight_recorder_ = nullptr;
};

/// RAII span: stamps the start at construction, records a complete event
/// at destruction (or at an explicit finish()). With a null tracer every
/// member is a no-op costing one pointer test.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* cat,
       std::uint32_t track = kTrackScreen)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      event_.name = name;
      event_.cat = cat;
      event_.track = track;
      event_.trace_id = current_trace_context();
      event_.ts_us = util::monotonic_us();
    }
  }

  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument (the first kSpanArgSlots calls stick;
  /// `key` must be a string literal).
  void arg(const char* key, std::int64_t value) {
    if (tracer_ == nullptr) return;
    for (std::size_t i = 0; i < kSpanArgSlots; ++i) {
      if (event_.arg_names[i] != nullptr) continue;
      event_.arg_names[i] = key;
      event_.arg_values[i] = value;
      return;
    }
  }

  /// Completes the span now; the destructor becomes a no-op.
  void finish() {
    if (tracer_ == nullptr) return;
    event_.dur_us = util::monotonic_us() - event_.ts_us;
    tracer_->record(event_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  TraceEvent event_;
};

}  // namespace swbpbc::telemetry
