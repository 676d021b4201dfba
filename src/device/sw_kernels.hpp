// The paper's §V GPU pipeline, executed on the device simulator:
//
//   Step 1 (H2G): copy wordwise input strings to device global memory.
//   Step 2 (W2B): kernel — bit-transpose the inputs (Table I plans).
//   Step 3 (SWA): kernel — BPBC wavefront DP, one block per group of W
//                 pairs, one thread per pattern row, cell handoff through
//                 shared memory (Fig. 2), pipelined running-max reduction.
//   Step 4 (B2W): kernel — bit-untranspose the per-lane max scores.
//   Step 5 (G2H): copy wordwise scores back to the host.
//
// The stage kernels live in sw_stage_kernels.hpp and the five steps are
// sequenced in exactly one place, the PipelineEngine core (engine.cpp).
// This header holds what a device run reports: GpuRunResult, returned by
// PipelineEngine::run_stages (the BPBC rows of Table IV) and
// PipelineEngine::run_wordwise (the "Wordwise 32-bits" GPU baseline: one
// block per pair, plain integer cells), and the integrity checks that
// fill it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "device/metrics.hpp"
#include "sw/reliability.hpp"
#include "telemetry/telemetry.hpp"
#include "util/status.hpp"

namespace swbpbc::device {

struct GpuTimings {
  double h2g_ms = 0.0;
  double w2b_ms = 0.0;
  double swa_ms = 0.0;
  double b2w_ms = 0.0;
  double g2h_ms = 0.0;
  [[nodiscard]] double total_ms() const {
    return h2g_ms + w2b_ms + swa_ms + b2w_ms + g2h_ms;
  }
};

/// In-band stage integrity checks for the 5-step pipeline. All checks run
/// on the host between launches (no kernel change) and attribute what they
/// find to a (stage, block) in GpuRunResult::integrity_faults:
///   - FNV checksums across the H2G and G2H copies;
///   - a sampled transpose round-trip invariant after W2B (device bit
///     planes vs a host re-transpose of the device wordwise input) and
///     after B2W (device wordwise scores vs a host re-untranspose of the
///     device score slices);
///   - duplicated canary lanes: instances of the last group are replicated
///     into its spare lanes and their bit-sliced scores compared after SWA
///     — a disagreement means the SWA kernel corrupted the group.
/// Watchdog-killed SWA blocks are kSWA faults whether or not the checks
/// are enabled: the kill itself is the finding.
struct IntegrityConfig {
  bool enabled = false;
  // Sample every k-th string position in the W2B round-trip check (1 =
  // every position). The B2W check is per group and always full.
  std::size_t sample_every = 16;
};

/// Memory-traffic totals keyed by pipeline stage. The kernel stages
/// (W2B/SWA/B2W) carry launch() block traces; the copy stages (H2G/G2H)
/// carry synthetic transfer traffic — one word access per copied word,
/// transactions at coalescing-segment (kSegmentBytes) granularity — so
/// Table V's "global memory transactions" can be reported per stage.
struct StageMetrics {
  std::array<MetricTotals, sw::kNumPipelineStages> by_stage{};

  MetricTotals& operator[](sw::PipelineStage stage) {
    return by_stage[static_cast<std::size_t>(stage)];
  }
  const MetricTotals& operator[](sw::PipelineStage stage) const {
    return by_stage[static_cast<std::size_t>(stage)];
  }

  [[nodiscard]] MetricTotals total() const {
    MetricTotals t;
    for (const MetricTotals& m : by_stage) t.add(m);
    return t;
  }
};

struct GpuRunResult {
  std::vector<std::uint32_t> scores;
  GpuTimings timings;
  // Per-stage traffic (populated when EngineOptions::record_metrics).
  StageMetrics stage_metrics;
  // Ok unless the watchdog killed blocks this run (kKernelTimeout); the
  // scores of killed blocks are whatever the launch-time buffers held.
  util::Status status;
  // Stage-integrity findings: the watchdog's kills always, the checks'
  // findings when EngineOptions::integrity.enabled. StageFault::chunk is
  // 0 here — the chunked screen layer fills it in.
  std::vector<sw::StageFault> integrity_faults;
  std::uint64_t integrity_checks = 0;  // comparisons evaluated
  double integrity_ms = 0.0;           // host time spent checking

  [[nodiscard]] MetricTotals metrics() const { return stage_metrics.total(); }
};

/// Folds one device run into a telemetry registry: per-stage duration
/// histograms ("device.<stage>.ms"), per-stage traffic counters
/// ("device.<stage>.global_read_transactions", ...), and the integrity
/// check/fault totals. No-op when `telemetry` is null. PipelineEngine
/// calls it once per run when EngineOptions::telemetry is set.
void absorb_device_run(telemetry::Telemetry* telemetry,
                       const GpuRunResult& run);

}  // namespace swbpbc::device
