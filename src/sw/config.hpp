// v2 config decomposition for the screening boundaries.
//
// ScreenConfig (v1) grew into one flat bag of fields spanning three
// concerns. The v2 spec splits it along those seams —
//
//   ScoringConfig       what to score and on which engine
//   SurvivalConfig      chunking, retries, checkpoints, stop conditions
//   ObservabilityConfig progress callbacks and telemetry sinks
//
// — and puts a validating builder in front: build() cross-checks the
// fields that v1 silently accepted in inconsistent combinations (a resume
// path without chunking, an overlap window with nothing to overlap, ...)
// and returns util::Expected with a typed kInvalidInput instead of
// misbehaving at screen time. The flat ScreenConfig remains the type the
// pipeline consumes; flatten()/build() produce one, so v1 call sites and
// v2 call sites converge before try_screen.
//
// ScanConfig gets the same treatment via ScanSpec/ScanSpecBuilder.
#pragma once

#include <string>

#include "sw/pipeline.hpp"
#include "sw/scan.hpp"

namespace swbpbc::sw {

/// What to score and how: scoring scheme, screening threshold, engine
/// selection. Nothing here affects when a run stops or what it reports.
struct ScoringConfig {
  ScoreParams params;
  // Full scoring model; outranks `params` when set (see
  // ScreenConfig::scheme). The builder validates it with
  // validate_scheme() and rejects matrix schemes — the DNA pipelines
  // cannot consume them; protein batches screen through
  // try_scheme_max_scores / try_scheme_db_max_scores.
  std::optional<ScoringScheme> scheme;
  std::uint32_t threshold = 0;  // tau: select pairs with max score >= tau
  // Lane width of the scoring engine: k32/k64, the wide SIMD widths
  // k128/k256/k512, kScalarWide, or kAuto (widest profitable width for
  // this CPU; see sw/lane.hpp). Scores are bit-identical across widths —
  // this is purely a throughput knob, and SWBPBC_FORCE_LANE_WIDTH
  // overrides it.
  LaneWidth width = LaneWidth::k64;
  bulk::Mode mode = bulk::Mode::kSerial;
  encoding::TransposeMethod method = encoding::TransposeMethod::kPlanned;
  bool traceback = true;  // run the detailed CPU alignment on hits
  // Host engine when no explicit backend (and no database) is set: BPBC,
  // the striped-SIMD rival, the naive wordwise reference, or (default)
  // the measured cost-model auto-dispatch — see sw/dispatch.hpp. Scores
  // are bit-identical whichever engine runs; SWBPBC_FORCE_BACKEND
  // outranks this field at screen time.
  BackendChoice backend_choice = BackendChoice::kAuto;
  // CLI-facing spelling of backend_choice ("bpbc" | "striped" |
  // "wordwise-naive" | "auto"); when non-empty it outranks the enum, and
  // the builders reject unknown names with a typed kInvalidInput instead
  // of silently defaulting.
  std::string backend_name;
  // Engine selection, same precedence as ScreenConfig: an explicit
  // backend (not owned, must outlive the run) over the database store over
  // the backend_choice host path.
  Backend* backend = nullptr;
  // Pre-transposed database store serving the ys side (not owned; must
  // outlive the run). The builder rejects combining it with an explicit
  // backend, and requires chunk_pairs to be shard-aligned (a multiple of
  // 64) so every chunk maps onto whole shards.
  db::Reader* database = nullptr;
  bool db_verify_content = true;
};

/// Long-run survivability: chunk geometry, retry budget, the overlap
/// window, checkpoint streams, and cooperative stop conditions.
struct SurvivalConfig {
  SelfCheckConfig check;  // verify-quarantine-retry; disabled by default
  std::size_t chunk_pairs = 0;   // 0 = whole batch as one chunk
  unsigned chunk_retry_limit = 2;
  std::size_t overlap_depth = 1;  // >= 2 enables the software pipeline
  const util::CancellationToken* cancel = nullptr;
  util::Deadline deadline;
  std::string checkpoint_path;
  std::string resume_path;
  // Accept a resume stream with a torn (crash-truncated) final record:
  // completed records resume, the tail is recomputed. Other defects still
  // reject. Requires resume_path.
  bool resume_salvage_torn_tail = false;
};

/// How the run reports on itself; never changes what it computes.
struct ObservabilityConfig {
  std::function<void(const ChunkProgress&)> progress;
  telemetry::Telemetry* telemetry = nullptr;
};

/// The decomposed form of ScreenConfig. Aggregate-initializable; validate
/// through ScreenSpecBuilder::build(), or flatten() directly when the
/// combination is known-good.
struct ScreenSpec {
  ScoringConfig scoring;
  SurvivalConfig survival;
  ObservabilityConfig observability;

  /// The flat v1 config the pipeline consumes. No validation.
  [[nodiscard]] ScreenConfig flatten() const;
};

/// Cross-field validation shared by the builders; kOk when `spec` is
/// coherent, a typed kInvalidInput naming the offending fields otherwise.
[[nodiscard]] util::Status validate(const ScreenSpec& spec);

/// Fluent assembler for ScreenSpec. Each setter replaces that section;
/// build() validates the combination and returns the flat ScreenConfig.
///
///   auto cfg = ScreenSpecBuilder()
///                  .scoring({.params = p, .threshold = 40})
///                  .survival({.chunk_pairs = 256, .overlap_depth = 3})
///                  .build();
///   if (!cfg) return cfg.status();
class ScreenSpecBuilder {
 public:
  ScreenSpecBuilder& scoring(ScoringConfig s) {
    spec_.scoring = std::move(s);
    return *this;
  }
  ScreenSpecBuilder& survival(SurvivalConfig s) {
    spec_.survival = std::move(s);
    return *this;
  }
  ScreenSpecBuilder& observability(ObservabilityConfig o) {
    spec_.observability = std::move(o);
    return *this;
  }

  [[nodiscard]] const ScreenSpec& spec() const { return spec_; }

  /// Validates and flattens. Errors are typed kInvalidInput Statuses; the
  /// builder stays usable (fix the section and build again).
  [[nodiscard]] util::Expected<ScreenConfig> build() const;

 private:
  ScreenSpec spec_;
};

/// ScanConfig's mirror of the decomposition: the scoring fields reuse
/// ScoringConfig (backends and transpose method are ignored by scan), the
/// window geometry is scan-specific, and survivability keeps the same
/// shape minus checkpoints.
struct ScanWindowConfig {
  std::size_t window = 4096;  // window length (must be > overlap)
  std::size_t overlap = 0;    // 0 = default 2 * query length
  std::size_t chunk_windows = 0;  // windows per scored batch; 0 = all
};

struct ScanSpec {
  // Note ScoringConfig defaults traceback = true (screen's default); a
  // spec-built scan aligns hits in detail unless traceback is cleared,
  // where a default ScanConfig does not.
  ScoringConfig scoring;
  ScanWindowConfig windows;
  const util::CancellationToken* cancel = nullptr;
  util::Deadline deadline;
  telemetry::Telemetry* telemetry = nullptr;

  [[nodiscard]] ScanConfig flatten() const;
};

[[nodiscard]] util::Status validate(const ScanSpec& spec);

class ScanSpecBuilder {
 public:
  ScanSpecBuilder& scoring(ScoringConfig s) {
    spec_.scoring = std::move(s);
    return *this;
  }
  ScanSpecBuilder& windows(ScanWindowConfig w) {
    spec_.windows = w;
    return *this;
  }
  ScanSpecBuilder& stop(const util::CancellationToken* cancel,
                        util::Deadline deadline = {}) {
    spec_.cancel = cancel;
    spec_.deadline = deadline;
    return *this;
  }
  ScanSpecBuilder& telemetry(telemetry::Telemetry* t) {
    spec_.telemetry = t;
    return *this;
  }

  [[nodiscard]] const ScanSpec& spec() const { return spec_; }

  [[nodiscard]] util::Expected<ScanConfig> build() const;

 private:
  ScanSpec spec_;
};

}  // namespace swbpbc::sw
