// The execution engine of the §V pipeline — the one place H2G, W2B, SWA,
// B2W and G2H are sequenced.
//
// run() executes the five stages synchronously on a dedicated arena; the
// one-shot gpu_bpbc_max_scores (sw_kernels.hpp) is that same path on a
// fresh engine core. For chunked screens, PipelineEngine keeps a ring of
// `overlap_depth` persistent device arenas (allocated once, reused across
// chunks) and three device::Stream queues — copy-in, compute, copy-out —
// chained per chunk with events:
//
//   copy-in : [wait slot free] H2G + W2B (+ copy/transpose checks)
//   compute : [wait prep done] SWA (+ canary / watchdog checks)
//   copy-out: [wait SWA done]  B2W + G2H (+ untranspose / copy checks)
//
// so chunk k+1's H2G/W2B overlaps chunk k's SWA while chunk k-1's B2W/G2H
// drains — the classic CUDA double-buffered screener structure (cf.
// CUDASW++). Kernel launches issued from the stream workers fan their
// blocks out over the shared host thread pool exactly as synchronous runs
// do. The streams start with the first submit(), so synchronous use
// spawns no threads.
//
// Determinism: the fault campaign of a job is derived from its (chunk,
// attempt) tag, never from submission or completion order, so an
// overlapped run is bit-identical to a serial run of the same screen —
// including under fault injection. With faults enabled the arenas are
// zero-filled per job, so a dropped store or watchdog-killed block
// observes the same launch-time buffer contents a fresh allocation would.
//
// The engine is an sw::Backend (caps: integrity, stop polling, streams):
// plug it into ScreenConfig::backend with overlap_depth >= 2 and
// sw::try_screen runs its chunk loop as a software pipeline over it.
// Host-side use is single-threaded (one submitter/collector), matching
// the screen loop; run() may interleave with in-flight submissions (the
// quarantine-rescore path does) and uses a dedicated arena.
#pragma once

#include <memory>
#include <optional>

#include "device/sw_kernels.hpp"
#include "sw/backend.hpp"

namespace swbpbc::device {

struct EngineOptions {
  sw::ScoreParams params;
  // Full scoring model; outranks `params` when set. The device pipeline
  // packs 2-bit DNA characters, so uniform schemes only: an expressible
  // scheme lowers onto `params` at construction (bit-identical to setting
  // them directly), an affine scheme runs the Gotoh wavefront kernel, and
  // a matrix scheme is rejected with a typed kInvalidInput (protein
  // batches screen through sw::try_scheme_max_scores).
  std::optional<sw::ScoringScheme> scheme;
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
  // Telemetry sink: stage spans land on per-stream tracks
  // (telemetry::kTrackStreamBase + {0: copy-in, 1: compute, 2: copy-out})
  // so the chunk overlap is visible in the exported Chrome trace.
  telemetry::Telemetry* telemetry = nullptr;
  // Arena slots / maximum in-flight chunks. 2 double-buffers; 3 (default)
  // also decouples copy-in from copy-out. Clamped to [1, 8].
  std::size_t overlap_depth = 3;
};

class PipelineEngine final : public sw::Backend {
 public:
  explicit PipelineEngine(const EngineOptions& options);
  ~PipelineEngine() override;

  [[nodiscard]] sw::BackendCaps caps() const override;

  /// Synchronous scoring on the dedicated arena (also the quarantine-
  /// rescore path). Safe to call between submit() and collect().
  sw::ChunkResult run(const sw::ChunkJob& job) override;

  /// Enqueues a job across the three streams. Returns immediately; at
  /// most overlap_depth jobs make progress concurrently (later ones queue
  /// behind their arena slot). Jobs must share the batch shape (m, n) of
  /// any job still in flight.
  void submit(const sw::ChunkJob& job) override;

  /// Blocks for and returns the oldest submitted job's result, rethrowing
  /// the error (stop, watchdog, ...) its stages captured, if any.
  sw::ChunkResult collect() override;

  [[nodiscard]] const EngineOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swbpbc::device
