// The screening backend interface.
//
// A backend scores one ChunkJob (a pair range tagged with its chunk index
// and retry attempt) synchronously into a ChunkResult and declares its
// capabilities. sw::try_screen runs every chunk — first attempts,
// whole-chunk retries and quarantine rescores — through run(), whichever
// engine it resolves: an explicit ScreenConfig::backend (e.g. the device
// engine, device/engine.hpp), the database store, or the host engine
// picked by backend_choice.
//
// The (chunk, attempt) tag exists for determinism: a backend that injects
// faults derives its fault campaign from the tag, never from call order,
// so a chunk's result does not depend on which chunks ran before it.
#pragma once

#include <memory>
#include <span>

#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"

namespace swbpbc::sw {

/// What a backend reports about itself; the screen loop records it in the
/// ScreenReport.
struct BackendCaps {
  // Concrete lane width the backend scores with (kAuto and the
  // SWBPBC_FORCE_LANE_WIDTH override already resolved). Informational:
  // scores are bit-identical across widths, so callers may log it but must
  // not branch on it for correctness. The kernel build that runs it is
  // sw::kernel_isa(lane_width, sw::host_cpu_features()).
  LaneWidth lane_width = LaneWidth::k64;
};

/// One unit of backend work: score pairs (xs[k], ys[k]) for every k.
/// `chunk` and `attempt` identify the work deterministically (fault
/// campaigns, diagnostics); `attempt` counts whole-chunk retries and,
/// above the retry limit, quarantine rescores. The spans must stay valid
/// until run() returns.
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
  // Request-scoped correlation id (telemetry::current_trace_context() when
  // the job is built). The PipelineEngine installs it around the job's
  // stage spans so a served request's H2G..G2H stages correlate in the
  // exported trace; 0 means unscoped and costs nothing.
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
};

/// The host BPBC path as a Backend — what screen() runs when it picks the
/// bpbc engine: the bit-sliced kernel (SchemeBpbcAligner) over groups of
/// scheme.alphabet_bits() planes at the resolved lane width, reporting
/// per-phase timings. Any valid scheme, DNA or protein; the jobs' codes
/// must belong to scheme.alphabet() (try_screen checks them at entry).
/// Defined with the batch front end in bpbc.cpp.
std::unique_ptr<Backend> make_host_backend(const ScoringScheme& scheme,
                                           LaneWidth width, bulk::Mode mode);

}  // namespace swbpbc::sw
