// Unified telemetry session: one object bundling the span tracer and the
// metrics registry, wired behind a TelemetryConfig.
//
// Ownership model: the caller owns a Telemetry session for the duration
// of a run and hands `session.sink()` — `this` when enabled, nullptr when
// disabled — to ScreenConfig / EngineOptions / bench::RunOptions. Every
// instrumented layer holds a `Telemetry*` and tests that single pointer
// on its paths (the BlockRecorder::sink() idiom), so a disabled session
// costs a branch and allocates nothing anywhere in the stack.
//
//   telemetry::Telemetry session({.enabled = true});
//   cfg.telemetry = session.sink();
//   sw::screen(xs, ys, cfg);
//   session.tracer()->write_chrome_trace("screen.trace.json");
#pragma once

#include <cstddef>
#include <memory>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc::telemetry {

struct TelemetryConfig {
  // Master switch: false leaves the whole session inert (sink() == null).
  bool enabled = false;
  // Span ring capacity; the oldest spans are overwritten beyond it.
  std::size_t trace_capacity = 1 << 16;
  // Install a process-wide ThreadPool observer for the session's lifetime
  // so pool task chunks appear as spans on per-worker tracks. Off by
  // default: the observer is global, so only one session should opt in.
  bool pool_spans = false;
};

class Telemetry {
 public:
  /// Disabled session (sink() == nullptr). Defined out of line: the
  /// defaulted members need the complete PoolSpanAdapter type.
  Telemetry();
  explicit Telemetry(const TelemetryConfig& config);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] bool enabled() const { return tracer_ != nullptr; }

  /// The pointer instrumented layers should hold: `this` when the session
  /// is enabled, nullptr otherwise — one branch decides everything.
  [[nodiscard]] Telemetry* sink() { return enabled() ? this : nullptr; }

  /// Valid iff enabled().
  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }
  /// Valid iff enabled(); undefined behaviour on a disabled session
  /// (callers reach here only through a non-null sink()).
  [[nodiscard]] MetricsRegistry& registry() { return *registry_; }

  /// Registry snapshot with the session's trace-health folded in as
  /// `telemetry.trace.dropped` / `telemetry.trace.recorded` counters —
  /// the RunReport exporters call this instead of registry().snapshot()
  /// so silent ring overwrite shows up in every artifact (and
  /// check_run_report.py flags nonzero drops). Valid iff enabled().
  [[nodiscard]] MetricsRegistry::Snapshot snapshot() const;

 private:
  class PoolSpanAdapter;

  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<PoolSpanAdapter> pool_adapter_;
};

}  // namespace swbpbc::telemetry
