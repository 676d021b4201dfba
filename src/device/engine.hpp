// The execution engine of the §V pipeline — the one place H2G, W2B, SWA,
// B2W and G2H are sequenced.
//
// run() executes the five stages one after another, as the paper's
// Table IV does, on one persistent device arena (allocated on first use
// and reused across chunks) with the shape-dependent transpose plans and
// constant slices cached until the batch shape changes. Kernel launches
// fan their blocks out over the shared host thread pool; the engine
// starts no thread of its own. The engine is the simulator's only entry:
// run_stages() returns the per-stage timings, traffic and watchdog
// status behind Table IV/V's "GPU bitwise" rows, run_wordwise() the
// "GPU wordwise" baseline row on the same scheme and options, and run()
// folds run_stages() into an sw::ChunkResult.
//
// Determinism: every device run takes its fault campaign from the job's
// (chunk, attempt) tag, never from call order, so a chunk scores the
// same — including under fault injection — whichever chunks the engine
// ran before it; a retry is a new attempt and draws a fresh pattern.
// With faults enabled the arena is zero-filled per job, so a dropped
// store or watchdog-killed block observes the same launch-time buffer
// contents a fresh allocation would.
//
// The engine is an sw::Backend that polls ChunkJob::stop at every phase
// boundary: plug it into ScreenConfig::backend and sw::try_screen runs
// every chunk attempt through run(). One caller at a time.
#pragma once

#include <memory>

#include "bulk/executor.hpp"
#include "device/fault.hpp"
#include "device/sw_kernels.hpp"
#include "sw/backend.hpp"
#include "sw/lane.hpp"
#include "sw/scoring.hpp"

namespace swbpbc::device {

struct EngineOptions {
  // Scoring model. The device pipeline packs 2-bit DNA characters, so
  // uniform schemes only: a linear scheme runs the Theorem 6 cell, an
  // affine one the Gotoh three-state cell, and a matrix or otherwise
  // invalid scheme is rejected with a typed kInvalidInput at
  // construction (protein batches screen through sw::try_screen on a
  // host engine). Jobs are checked like every front end's batch
  // (sw::validate_batch), and a code outside the 2-bit DNA alphabet is
  // a typed kInvalidInput, never scored.
  sw::ScoringScheme scheme;
  // Lane width of the BPBC core: any concrete width or kAuto. Resolved
  // once at engine construction (kAuto probe + SWBPBC_FORCE_LANE_WIDTH
  // override, sw/lane.hpp); caps().lane_width reports the result.
  sw::LaneWidth width = sw::LaneWidth::k32;
  bool record_metrics = false;  // trace coalescing / bank conflicts
  bulk::Mode mode = bulk::Mode::kParallel;  // blocks across the host pool
  // Optional fault model; campaigns derive from (chunk, attempt).
  FaultInjector* faults = nullptr;
  // Watchdog deadline (phases) for the SWA launch; 0 disables it. With an
  // injector, stalled blocks are killed and reported (status
  // kKernelTimeout plus one kSWA StageFault per block, integrity on or
  // off); without one, exceeding the deadline throws kKernelTimeout.
  std::size_t watchdog_phases = 0;
  // In-band stage integrity (sw_kernels.hpp); findings surface in
  // ChunkResult::faults for the screen layer's quarantine/retry.
  IntegrityConfig integrity;
  // Telemetry sink: stage spans land on telemetry::kTrackDevice, stamped
  // with the job's trace id.
  telemetry::Telemetry* telemetry = nullptr;
};

class PipelineEngine final : public sw::Backend {
 public:
  explicit PipelineEngine(const EngineOptions& options);
  ~PipelineEngine() override;

  [[nodiscard]] sw::BackendCaps caps() const override;

  /// run_stages() folded into the screen layer's ChunkResult.
  sw::ChunkResult run(const sw::ChunkJob& job) override;

  /// Scores one job through the five stages, throwing the error (stop,
  /// watchdog without an injector, ...) a stage raised, if any. Jobs are
  /// checked like every front end's batch (kInvalidInput) and may change
  /// the batch shape (m, n) from one call to the next.
  GpuRunResult run_stages(const sw::ChunkJob& job);

  /// Table IV's wordwise device row: H2G, one SWA block per pair with
  /// plain integer cells, G2H — no W2B/B2W and no integrity checks. Runs
  /// the engine's scheme, which must be params-expressible (linear and
  /// uniform); any other scheme is a typed kInvalidInput.
  GpuRunResult run_wordwise(const sw::ChunkJob& job);

  [[nodiscard]] const EngineOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swbpbc::device
