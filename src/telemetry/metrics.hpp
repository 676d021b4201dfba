// Named metrics for the screening stack: counters, gauges, and
// fixed-bucket histograms with percentile summaries, collected in a
// registry that the RunReport exporter snapshots.
//
// Counters and gauges are lock-free atomics; histograms take a short
// mutex per observation (observations are per-chunk / per-callback, not
// per-cell, so this is far off the hot path). Registration returns stable
// references: metric objects live as long as the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace swbpbc::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (throughput, queue depth, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples x with
/// bounds[i-1] < x <= bounds[i]; a final overflow bucket catches
/// everything above the last bound. Percentiles are estimated by linear
/// interpolation inside the containing bucket, clamped to the observed
/// [min, max] so single-sample and edge-bucket queries stay exact.
class Histogram {
 public:
  /// `bounds` must be non-empty, strictly ascending upper bounds (the
  /// overflow bucket is implicit); throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries

    /// p in [0, 100]. Empty snapshot yields 0.
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// `count` bounds starting at `start`, each `factor` times the last —
  /// the default layout for millisecond-scale durations.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> metric map. Lookups take a mutex; the returned references stay
/// valid for the registry's lifetime, so callers on a loop should hoist
/// the lookup out of it.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket layout; later calls with the
  /// same name return the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_ms_bounds());

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// Process-unique id of this registry instance. Callers that absorb
  /// metrics on a hot path can cache the references a lookup returned and
  /// use the id to detect that a different registry (a new session, or a
  /// new allocation at a recycled address) has arrived.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// 0.001 ms .. ~4 s in x2 steps — covers a kernel phase through a
  /// full-batch chunk on the simulator.
  static std::vector<double> default_ms_bounds() {
    return Histogram::exponential_bounds(0.001, 2.0, 22);
  }

 private:
  static std::uint64_t next_id();

  const std::uint64_t id_ = next_id();
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace swbpbc::telemetry
