// The screening backend interface.
//
// A backend scores one ChunkJob (a pair range tagged with its chunk index
// and retry attempt) into a ChunkResult, declares its capabilities, and
// may accept overlapped submit()/collect() execution (the device engine
// does; see device/engine.hpp). sw::try_screen runs every chunk — first
// attempts, whole-chunk retries and quarantine rescores — through this one
// interface, whichever engine it resolves: an explicit
// ScreenConfig::backend, the database store, or the host engine picked by
// backend_choice.
//
// The (chunk, attempt) tag exists for determinism: a backend that injects
// faults derives its fault campaign from the tag, never from call order,
// so serial and overlapped execution of the same screen are bit-identical.
#pragma once

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

/// Scoring backend. Implementations must accept any uniform-length subset
/// of the batch: the quarantine-retry path re-submits subsets as fresh
/// jobs.
class Backend {
 public:
  virtual ~Backend();

  [[nodiscard]] virtual BackendCaps caps() const = 0;

  /// Scores one job synchronously.
  virtual ChunkResult run(const ChunkJob& job) = 0;

  /// Overlapped execution: enqueue a job now, collect results strictly in
  /// submission order later. Only backends that declare caps().streams
  /// implement it (try_screen calls it on no other); the base versions
  /// throw a typed kInternal StatusError.
  virtual void submit(const ChunkJob& job);
  virtual ChunkResult collect();
};

/// The host BPBC path as a Backend — what screen() runs when it picks the
/// bpbc engine: the bit-sliced kernel (SchemeBpbcAligner) over DNA groups
/// at the resolved lane width, reporting per-phase timings. Linear or
/// affine gaps, uniform substitution: the scheme must be uniform over DNA
/// — matrix schemes screen protein batches through try_scheme_max_scores,
/// not the DNA pipeline — and should have passed validate_scheme().
/// Defined with the batch front ends in bpbc.cpp.
std::unique_ptr<Backend> make_host_backend(const ScoringScheme& scheme,
                                           LaneWidth width, bulk::Mode mode);

}  // namespace swbpbc::sw
