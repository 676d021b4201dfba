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
// gpu_bpbc_max_scores below is that core's synchronous path for one batch;
// PipelineEngine (engine.hpp) adds persistent arenas and overlapped
// streams on top of it.
//
// A wordwise wavefront kernel (one block per pair, plain integer cells) is
// provided as the GPU baseline of Table IV's "Wordwise 32-bits" rows.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "device/fault.hpp"
#include "device/metrics.hpp"
#include "encoding/dna.hpp"
#include "sw/lane.hpp"
#include "sw/params.hpp"
#include "sw/reliability.hpp"
#include "sw/scoring.hpp"
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
///     — a disagreement means the SWA kernel corrupted the group;
///   - watchdog-killed SWA blocks reported as kSWA faults.
struct IntegrityConfig {
  bool enabled = false;
  // Sample every k-th string position in the W2B round-trip check (1 =
  // every position). The B2W check is per group and always full.
  std::size_t sample_every = 16;
  bool canary_lanes = true;
  bool checksum_copies = true;
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

struct GpuRunOptions {
  bool record_metrics = false;  // trace coalescing / bank conflicts
  bulk::Mode mode = bulk::Mode::kParallel;  // blocks across the host pool
  unsigned w2b_block_dim = 256;  // threads per block for the W2B kernel
  // Optional fault model (device/fault.hpp): attached to every kernel
  // launch of the run; each run advances the injector's campaign.
  FaultInjector* faults = nullptr;
  // Watchdog deadline (phases) applied to the SWA wavefront launch; 0
  // disables it. With an injector, stalled blocks are killed and logged;
  // without one, exceeding the deadline throws kKernelTimeout.
  std::size_t watchdog_phases = 0;
  // In-band stage integrity (off by default: the fault-free hot path pays
  // nothing for it).
  IntegrityConfig integrity;
  // Cooperative stop, polled at phase boundaries of every launch. A
  // triggered stop aborts the run with a typed StatusError.
  const util::StopCondition* stop = nullptr;
  // Telemetry sink (Telemetry::sink(); nullptr = disabled). Each pipeline
  // stage is recorded as a span on the device track, and the run's stage
  // timings/traffic are folded into the session's metrics registry.
  telemetry::Telemetry* telemetry = nullptr;
};

struct GpuRunResult {
  std::vector<std::uint32_t> scores;
  GpuTimings timings;
  // Per-stage traffic (populated when options.record_metrics).
  StageMetrics stage_metrics;
  // Ok unless the watchdog killed blocks this run (kKernelTimeout); the
  // scores of killed blocks are whatever the launch-time buffers held.
  util::Status status;
  // Stage-integrity findings (populated when options.integrity.enabled).
  // StageFault::chunk is 0 here — the chunked screen layer fills it in.
  std::vector<sw::StageFault> integrity_faults;
  std::uint64_t integrity_checks = 0;  // comparisons evaluated
  double integrity_ms = 0.0;           // host time spent checking

  [[nodiscard]] MetricTotals metrics() const { return stage_metrics.total(); }
};

/// Folds one device run into a telemetry registry: per-stage duration
/// histograms ("device.<stage>.ms"), per-stage traffic counters
/// ("device.<stage>.global_read_transactions", ...), and the integrity
/// check/fault totals. No-op when `telemetry` is null. Called by the run
/// drivers themselves when GpuRunOptions::telemetry is set.
void absorb_device_run(telemetry::Telemetry* telemetry,
                       const GpuRunResult& run);

/// Full BPBC pipeline on the simulated device: one synchronous run of the
/// PipelineEngine core on a fresh arena. All xs share one length m, all ys
/// one length n (the bit-transpose batch requirement). `scheme` follows
/// EngineOptions::scheme's rules (uniform, linear or affine; anything else
/// throws a kInvalidInput StatusError). With an injector in
/// `options.faults`, each call draws one fault campaign in call order
/// (FaultInjector::begin_run), so a retry observes a fresh pattern.
GpuRunResult gpu_bpbc_max_scores(std::span<const encoding::Sequence> xs,
                                 std::span<const encoding::Sequence> ys,
                                 const sw::ScoringScheme& scheme,
                                 sw::LaneWidth width,
                                 const GpuRunOptions& options = {});

/// Wordwise wavefront baseline on the simulated device (no W2B/B2W; one
/// block per pair, integer cells handed off through shared memory).
GpuRunResult gpu_wordwise_max_scores(std::span<const encoding::Sequence> xs,
                                     std::span<const encoding::Sequence> ys,
                                     const sw::ScoreParams& params,
                                     const GpuRunOptions& options = {});

}  // namespace swbpbc::device
