// The execution engine of the §V pipeline — the one place H2G, W2B, SWA,
// B2W and G2H are sequenced.
//
// run() executes the five stages one after another, as the paper's
// Table IV does, on one persistent device arena (allocated on first use
// and reused across chunks) with the shape-dependent transpose plans and
// constant slices cached until the batch shape changes. Kernel launches
// fan their blocks out over the shared host thread pool; the engine
// starts no thread of its own. The one-shot gpu_bpbc_max_scores
// (sw_kernels.hpp) is the same path on a fresh engine core.
//
// Determinism: the fault campaign of a job is derived from its (chunk,
// attempt) tag, never from call order, so a chunk scores the same —
// including under fault injection — whichever chunks the engine ran
// before it. With faults enabled the arena is zero-filled per job, so a
// dropped store or watchdog-killed block observes the same launch-time
// buffer contents a fresh allocation would.
//
// The engine is an sw::Backend (caps: integrity, stop polling): plug it
// into ScreenConfig::backend and sw::try_screen runs every chunk attempt
// through run(). One caller at a time.
#pragma once

#include <memory>

#include "device/sw_kernels.hpp"
#include "sw/backend.hpp"

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
  unsigned w2b_block_dim = 256;  // threads per block for the W2B kernel
  // Optional fault model; campaigns derive from (chunk, attempt).
  FaultInjector* faults = nullptr;
  // Watchdog deadline (phases) for the SWA launch; 0 disables it.
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

  /// Scores one job through the five stages, throwing the error (stop,
  /// watchdog, ...) a stage raised, if any. Jobs may change the batch
  /// shape (m, n) from one call to the next.
  sw::ChunkResult run(const sw::ChunkJob& job) override;

  [[nodiscard]] const EngineOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swbpbc::device
