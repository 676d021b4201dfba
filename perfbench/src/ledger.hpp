// Shared pieces of the performance ledger: run arguments, sample
// statistics, the result line, and the correctness gate's bookkeeping.
//
// Every workload returns a Result whose metrics are either the
// end-to-end set (--trace 0) or the per-layer set (--trace 1); main()
// prints it as the last stdout line. Times are taken on
// util::monotonic_us / steady_clock, the clock the program's own spans
// use, so benchmark spans and program spans share one timeline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "encoding/dna.hpp"
#include "telemetry/trace.hpp"

namespace ledger {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke-test hook: flips a reference score after it is computed (one per
  // request body on serve-dna), so the correctness gate must fail the run.
  bool corrupt_expected = false;
  // Scratch directory for stores, journals and sockets (relative to the
  // working directory, which is the checkout root).
  std::string dir;
};

/// Sample quantile with linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);

// Per-run figures are taken over short windows of the run and lean to
// the slower windows. The host alternates between a faster and a slower
// state for seconds at a time (the same serial operation took 7.5 or
// 12 ms), the slower one shows up in nearly every run, and a figure over
// the whole run moves with the share of time each state held.

/// Smallest window, in samples or operations.
inline constexpr std::size_t kMinWindow = 100;
/// Where in the spread of per-window figures a run's figure is read:
/// latencies at this quantile, rates at one minus it.
inline constexpr double kSlowerState = 0.75;

/// Latency percentile q of a run: the samples, in the order taken, are
/// cut into windows of max(kMinWindow, 10 / (1 - q)) samples, so each
/// window keeps ten samples beyond q, and the kSlowerState quantile of
/// the windows' percentiles is returned.
double windowed_quantile(const std::vector<double>& values, double q);

/// Work per second of a closed loop: per window of kMinWindow operations,
/// the sum of `work` over the sum of `busy_ms` (in seconds); returns the
/// 1 - kSlowerState quantile of the windows' rates.
double windowed_rate(const std::vector<double>& work,
                     const std::vector<double>& busy_ms);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Requests sent / succeeded / failed in one phase of a workload.
struct Phase {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

/// Prints one "phase" line per entry and folds the counts into `result`.
void report_phases(const std::vector<Phase>& phases, Result& result);

/// W2B cost of a DNA batch: median over repeats of
/// encoding::try_transpose_strings at 64 lanes, per sequence, in ns.
double dna_w2b_ns_per_pair(const std::vector<swbpbc::encoding::Sequence>& seqs);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Sets every per-layer metric to 0 with its unit. A workload overwrites
/// the layers it exercises; 0 means the layer did no work in this run.
void declare_per_layer(Result& result);

/// Records one complete benchmark-side span into `tracer` (null: no-op).
void bench_span(swbpbc::telemetry::Tracer* tracer, const char* name,
                std::uint64_t ts_us, std::uint64_t end_us,
                std::uint64_t trace_id = 0);

/// Track of the benchmark's own spans in the exported trace.
inline constexpr std::uint32_t kTrackBench = swbpbc::telemetry::kTrackClient;

/// Trace ring size for traced runs: large enough that nothing a run
/// records is overwritten (telemetry.trace_dropped must stay 0).
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

Result run_serve_dna(const Args& args);
Result run_scan_dna_db(const Args& args);
Result run_protein_search(const Args& args);

}  // namespace ledger
