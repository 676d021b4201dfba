// Shared machinery for the Table IV / Table V harnesses: workload
// generation and one-row measurement of each implementation
// (CPU bitwise-32/64, CPU wordwise, simulated-GPU bitwise-32/64,
// simulated-GPU wordwise).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/sw_kernels.hpp"
#include "encoding/dna.hpp"
#include "sw/scoring.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"

namespace swbpbc::bench {

struct Workload {
  std::vector<encoding::Sequence> xs;  // patterns, length m
  std::vector<encoding::Sequence> ys;  // texts, length n
  std::size_t pairs = 0;
  std::size_t m = 0;
  std::size_t n = 0;
};

Workload make_workload(std::size_t pairs, std::size_t m, std::size_t n,
                       std::uint64_t seed);

/// One Table IV row: per-phase wall-clock milliseconds. Phases that an
/// implementation does not have (e.g. W2B for wordwise) stay negative and
/// render as "-".
struct RowTimes {
  double h2g = -1.0;
  double w2b = -1.0;
  double swa = -1.0;
  double b2w = -1.0;
  double g2h = -1.0;
  double integrity = -1.0;  // in-band stage checks (device impls, opt-in)
  double total = 0.0;
  // Stage-keyed memory traffic, filled when RunOptions::record_metrics is
  // set and the implementation runs on the device simulator.
  bool has_metrics = false;
  device::StageMetrics metrics;
};

enum class Impl {
  kCpuBitwise32,
  kCpuBitwise64,
  kCpuBitwise128,         // bitsim::simd_word<128>
  kCpuBitwise256,         // bitsim::simd_word<256>
  kCpuBitwise512,         // bitsim::simd_word<512>
  kCpuBitwiseScalarWide,  // 256 lanes on the no-SIMD array fallback
  kCpuWordwise,
  kGpuBitwise32,
  kGpuBitwise64,
  kGpuBitwise256,
  kGpuWordwise,
};

std::string impl_name(Impl impl);

/// Optional measurement knobs. `integrity` turns the device pipeline's
/// in-band stage checks on (H2G/G2H checksums, sampled W2B/B2W round
/// trips, SWA canary lanes) so their overhead lands in RowTimes::integrity
/// and RowTimes::total; CPU implementations ignore it.
struct RunOptions {
  bool integrity = false;
  std::size_t integrity_sample_every = 16;
  // Record device memory-traffic counters into RowTimes::metrics (the
  // per-stage transaction counts the --json report exports).
  bool record_metrics = false;
  // Telemetry sink (telemetry::Telemetry::sink(); nullptr = disabled)
  // threaded into the device pipeline: stage spans on the device track
  // plus per-stage timing histograms in the session registry.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Runs one implementation over the workload and checks the scores against
/// the scalar reference on a small prefix (fail fast on miscomputation).
/// The wordwise rows need a linear-uniform scheme (the paper's triple).
RowTimes run_impl(Impl impl, const Workload& w,
                  const sw::ScoringScheme& scheme,
                  const RunOptions& run = {});

/// Billion cell updates per second for a measured row (pairs * m * n DP
/// cells over the row's total time).
double gcups(const Workload& w, const RowTimes& row);

/// Converts one measured row into a RunReport row: stage wall times (only
/// stages the implementation has), total, GCUPS, and — when the run
/// recorded metrics — the stage-keyed memory-traffic counters.
telemetry::RunReportRow report_row(Impl impl, const Workload& w,
                                   const RowTimes& row);

}  // namespace swbpbc::bench
