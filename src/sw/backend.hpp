// The v2 unified screening backend interface.
//
// v1 accreted two std::function backend shapes on ScreenConfig — a bare
// ScoreBackend and an integrity-aware ChunkBackend — plus implicit
// conventions about which one the loop prefers and how its wall time is
// attributed. Backend collapses them into one interface: a backend scores
// one ChunkJob (a pair range tagged with its chunk index and retry
// attempt) into a ChunkResult, declares its capabilities, and may
// optionally accept overlapped submit()/collect() execution (the device
// engine does; see device/engine.hpp).
//
// The (chunk, attempt) tag exists for determinism: a backend that injects
// faults derives its fault campaign from the tag, never from call order,
// so serial and overlapped execution of the same screen are bit-identical.
//
// Legacy call sites keep compiling: adapt_score_backend() and
// adapt_chunk_backend() wrap the v1 function types, and the loop in
// sw::try_screen still accepts the v1 ScreenConfig fields (it adapts them
// internally through these same wrappers).
#pragma once

#include <deque>
#include <memory>
#include <span>

#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"

namespace swbpbc::sw {

/// What a backend can do; the screen loop adapts its behaviour to these.
struct BackendCaps {
  // Reports in-band integrity findings (ChunkResult::faults); the loop
  // runs its quarantine/retry policy on them.
  bool integrity = false;
  // Polls ChunkJob::stop mid-chunk (throws the stop's StatusError), so a
  // cancellation interrupts a chunk instead of waiting it out.
  bool stop_polling = false;
  // Supports overlapped submit()/collect() execution on device streams;
  // unlocks ScreenConfig::overlap_depth >= 2.
  bool streams = false;
  // Concrete lane width the backend scores with (kAuto and the
  // SWBPBC_FORCE_LANE_WIDTH override already resolved). Informational:
  // scores are bit-identical across widths, so callers may log it but must
  // not branch on it for correctness.
  LaneWidth lane_width = LaneWidth::k64;
};

/// One unit of backend work: score pairs (xs[k], ys[k]) for every k.
/// `chunk` and `attempt` identify the work deterministically (fault
/// campaigns, diagnostics); `attempt` counts whole-chunk retries and,
/// above the retry limit, quarantine rescores. The spans must stay valid
/// until the job's result has been returned (run) or collected (submit).
struct ChunkJob {
  /// first_pair value meaning "this job is a synthesized subset" —
  /// quarantine rescores re-batch arbitrary lanes, so their position in
  /// the original batch is not representable.
  static constexpr std::size_t kUnknownPair = ~std::size_t{0};

  std::size_t chunk = 0;
  unsigned attempt = 0;
  std::span<const encoding::Sequence> xs;
  std::span<const encoding::Sequence> ys;
  // Global index of pair (xs[0], ys[0]) in the screened batch, or
  // kUnknownPair. Position-aware backends (the database store) use it to
  // map the job onto their own layout; position-free backends ignore it.
  std::size_t first_pair = kUnknownPair;
  const util::StopCondition* stop = nullptr;
  // Request-scoped correlation id (telemetry::current_trace_context() at
  // submission). Backends that run stage work on their own threads — the
  // overlapped PipelineEngine — re-install it around the job's spans so a
  // served request's H2G..G2H stages correlate in the exported trace; 0
  // means unscoped and costs nothing.
  std::uint64_t trace_id = 0;
};

/// Unified scoring backend (v2). Implementations must accept any
/// uniform-length subset of the batch: the quarantine-retry path
/// re-submits subsets as fresh jobs.
class Backend {
 public:
  virtual ~Backend();

  [[nodiscard]] virtual BackendCaps caps() const = 0;

  /// Scores one job synchronously.
  virtual ChunkResult run(const ChunkJob& job) = 0;

  /// Overlapped execution: enqueue a job now, collect results strictly in
  /// submission order later. The base implementation degrades to a
  /// deferred run() (no overlap), so every backend supports the calling
  /// convention; stream-capable backends override both and do real
  /// asynchronous work between submit and collect.
  virtual void submit(const ChunkJob& job);
  virtual ChunkResult collect();

 private:
  std::deque<ChunkJob> deferred_;  // base-class submit/collect queue
};

/// Wraps a v1 ScoreBackend. caps() are all false: no integrity findings,
/// no stop polling, no streams — exactly the v1 contract.
std::unique_ptr<Backend> adapt_score_backend(ScoreBackend backend);

/// Wraps a v1 ChunkBackend (integrity + stop polling, no streams).
std::unique_ptr<Backend> adapt_chunk_backend(ChunkBackend backend);

/// The host BPBC path as a Backend — what screen() runs when no backend
/// is configured: the bit-sliced kernel (SchemeBpbcAligner) over DNA
/// groups at the resolved lane width, reporting per-phase timings.
/// Defined with the DNA batch front end in bpbc.cpp.
std::unique_ptr<Backend> make_host_backend(
    const ScoreParams& params, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method);

/// The same host backend under a full scheme: linear or affine gaps,
/// uniform substitution. The scheme must be uniform over DNA — matrix
/// schemes screen protein batches through try_scheme_max_scores, not the
/// DNA pipeline — and should have passed validate_scheme().
std::unique_ptr<Backend> make_host_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method);

}  // namespace swbpbc::sw
