#include "sw/config.hpp"

#include <string>
#include <utility>

namespace swbpbc::sw {

namespace {

// backend_name (when set) outranks the enum; flatten() falls back to the
// enum on an unknown name, which validate() has already rejected.
BackendChoice resolved_backend(const ScoringConfig& s) {
  if (!s.backend_name.empty())
    if (const auto parsed = parse_backend_choice(s.backend_name))
      return *parsed;
  return s.backend_choice;
}

}  // namespace

ScreenConfig ScreenSpec::flatten() const {
  ScreenConfig cfg;
  cfg.params = scoring.params;
  cfg.scheme = scoring.scheme;
  cfg.threshold = scoring.threshold;
  cfg.width = scoring.width;
  cfg.mode = scoring.mode;
  cfg.method = scoring.method;
  cfg.traceback = scoring.traceback;
  cfg.backend_choice = resolved_backend(scoring);
  cfg.backend = scoring.backend;
  cfg.database = scoring.database;
  cfg.db_verify_content = scoring.db_verify_content;
  cfg.check = survival.check;
  cfg.chunk_pairs = survival.chunk_pairs;
  cfg.chunk_retry_limit = survival.chunk_retry_limit;
  cfg.overlap_depth = survival.overlap_depth;
  cfg.cancel = survival.cancel;
  cfg.deadline = survival.deadline;
  cfg.checkpoint_path = survival.checkpoint_path;
  cfg.resume_path = survival.resume_path;
  cfg.resume_salvage_torn_tail = survival.resume_salvage_torn_tail;
  cfg.progress = observability.progress;
  cfg.telemetry = observability.telemetry;
  return cfg;
}

namespace {

util::Status invalid(std::string what) {
  return util::Status::invalid_input(std::move(what));
}

util::Status validate_scoring(const ScoringConfig& s) {
  if (!s.backend_name.empty() && !parse_backend_choice(s.backend_name))
    return invalid("scoring.backend_name \"" + s.backend_name +
                   "\" is not a host engine (expected "
                   "bpbc|striped|wordwise-naive|auto)");
  if (s.scheme.has_value()) {
    if (util::Status st = validate_scheme(*s.scheme, "scoring.scheme");
        !st.ok())
      return st;
    if (s.scheme->matrix != nullptr)
      return invalid(
          "scoring.scheme.matrix scores an epsilon-bit protein alphabet; "
          "the DNA screen/scan pipelines cannot consume it — screen such "
          "batches through try_scheme_max_scores or "
          "try_scheme_db_max_scores");
    return {};  // scheme outranks params; the legacy fields are ignored
  }
  if (s.params.match == 0)
    return invalid("scoring.params.match must be positive (a zero match "
                   "reward scores every alignment 0)");
  if (s.params.gap == 0)
    return invalid("scoring.params.gap must be positive (the BPBC "
                   "recurrence requires a gap penalty)");
  return {};
}

}  // namespace

util::Status validate(const ScreenSpec& spec) {
  const SurvivalConfig& sv = spec.survival;
  if (util::Status s = validate_scoring(spec.scoring); !s.ok()) return s;
  const BackendChoice host_choice = resolved_backend(spec.scoring);
  if (host_choice == BackendChoice::kWordwiseNaive &&
      spec.scoring.scheme.has_value() &&
      !spec.scoring.scheme->params_expressible())
    return invalid("scoring backend wordwise-naive scores "
                   "ScoreParams-expressible schemes only (linear gaps, "
                   "uniform substitution); pick bpbc, striped, or auto for "
                   "this scheme");
  if (spec.scoring.database != nullptr) {
    if (host_choice == BackendChoice::kStriped ||
        host_choice == BackendChoice::kWordwiseNaive)
      return invalid("scoring.database serves chunks through the BPBC "
                     "kernels; requesting the striped or wordwise-naive "
                     "host engine conflicts — clear one (auto and bpbc "
                     "defer to the store)");
    if (spec.scoring.backend != nullptr)
      return invalid("scoring.database is unused when an explicit backend "
                     "is set (backends outrank the store); clear one");
    if (spec.scoring.scheme.has_value() &&
        !spec.scoring.scheme->params_expressible())
      return invalid("scoring.database serves the linear DNA kernels; an "
                     "affine scoring.scheme screens a store through "
                     "try_scheme_db_max_scores instead");
    if (sv.chunk_pairs % 64 != 0)
      return invalid("scoring.database requires shard-aligned chunks: "
                     "survival.chunk_pairs must be a multiple of 64 "
                     "(misaligned chunks fall back to in-memory scoring)");
  }
  if (sv.resume_salvage_torn_tail && sv.resume_path.empty())
    return invalid("survival.resume_salvage_torn_tail requires a "
                   "survival.resume_path to salvage");
  if (sv.chunk_pairs == 0) {
    if (!sv.checkpoint_path.empty())
      return invalid("survival.checkpoint_path requires chunk_pairs > 0 "
                     "(checkpoints are written per completed chunk)");
    if (!sv.resume_path.empty())
      return invalid("survival.resume_path requires chunk_pairs > 0 "
                     "(a resume stream is keyed by chunk geometry)");
  }
  if (sv.overlap_depth == 0)
    return invalid("survival.overlap_depth must be >= 1 (1 = serial)");
  if (sv.overlap_depth > 8)
    return invalid("survival.overlap_depth > 8 exceeds the engine's arena "
                   "ring (device::EngineOptions clamps at 8)");
  if (sv.overlap_depth >= 2) {
    if (sv.chunk_pairs == 0)
      return invalid("survival.overlap_depth >= 2 requires chunk_pairs > 0 "
                     "(overlap needs at least two chunks in flight)");
    if (spec.scoring.backend == nullptr)
      return invalid("survival.overlap_depth >= 2 requires a stream-capable "
                     "scoring.backend (the host engines run serially)");
  }
  if (sv.check.enabled && sv.check.backoff_base_ms < 0.0)
    return invalid("survival.check.backoff_base_ms must be >= 0");
  return {};
}

util::Expected<ScreenConfig> ScreenSpecBuilder::build() const {
  if (util::Status s = validate(spec_); !s.ok()) return s;
  return spec_.flatten();
}

ScanConfig ScanSpec::flatten() const {
  ScanConfig cfg;
  // ScanConfig predates ScoringScheme; an expressible scheme lowers onto
  // the params fields (validate() rejects anything else).
  cfg.params = scoring.scheme.has_value() && scoring.scheme->to_params()
                   ? *scoring.scheme->to_params()
                   : scoring.params;
  cfg.threshold = scoring.threshold;
  cfg.width = scoring.width;
  cfg.mode = scoring.mode;
  cfg.backend = resolved_backend(scoring);
  cfg.traceback = scoring.traceback;
  cfg.window = windows.window;
  cfg.overlap = windows.overlap;
  cfg.chunk_windows = windows.chunk_windows;
  cfg.cancel = cancel;
  cfg.deadline = deadline;
  cfg.telemetry = telemetry;
  return cfg;
}

util::Status validate(const ScanSpec& spec) {
  if (util::Status s = validate_scoring(spec.scoring); !s.ok()) return s;
  if (spec.scoring.scheme.has_value() &&
      !spec.scoring.scheme->params_expressible())
    return invalid("scan supports ScoreParams-expressible schemes only "
                   "(linear gaps, uniform substitution); ScanConfig has no "
                   "affine path");
  if (spec.scoring.backend != nullptr)
    return invalid("scan ignores scoring.backend (it always runs the host "
                   "engines); clear it rather than relying on that");
  if (spec.windows.window == 0)
    return invalid("windows.window must be positive");
  if (spec.windows.overlap != 0 && spec.windows.window <= spec.windows.overlap)
    return invalid("windows.window must exceed windows.overlap (every "
                   "window advances by window - overlap characters)");
  return {};
}

util::Expected<ScanConfig> ScanSpecBuilder::build() const {
  if (util::Status s = validate(spec_); !s.ok()) return s;
  return spec_.flatten();
}

}  // namespace swbpbc::sw
