#include "sw/dispatch.hpp"

#include <cstdlib>
#include <memory>
#include <string>

#include "sw/backend.hpp"
#include "sw/striped.hpp"
#include "sw/wordwise.hpp"

namespace swbpbc::sw {

const char* backend_choice_name(BackendChoice choice) {
  switch (choice) {
    case BackendChoice::kAuto: return "auto";
    case BackendChoice::kBpbc: return "bpbc";
    case BackendChoice::kStriped: return "striped";
    case BackendChoice::kWordwiseNaive: return "wordwise-naive";
  }
  return "?";
}

bool backend_choice_serves(BackendChoice choice,
                           const ScoringScheme& scheme) {
  return choice != BackendChoice::kWordwiseNaive ||
         scheme.params_expressible();
}

std::optional<BackendChoice> parse_backend_choice(std::string_view s) {
  if (s == "auto") return BackendChoice::kAuto;
  if (s == "bpbc") return BackendChoice::kBpbc;
  if (s == "striped") return BackendChoice::kStriped;
  if (s == "wordwise-naive") return BackendChoice::kWordwiseNaive;
  return std::nullopt;
}

util::Expected<std::optional<BackendChoice>> parse_forced_backend(
    const char* value) {
  if (value == nullptr || *value == '\0')
    return std::optional<BackendChoice>{};
  const std::optional<BackendChoice> parsed = parse_backend_choice(value);
  if (!parsed) {
    return util::Status::invalid_input(
        std::string("SWBPBC_FORCE_BACKEND: unknown backend \"") + value +
        "\" (expected bpbc|striped|wordwise-naive|auto)");
  }
  return std::optional<BackendChoice>(parsed);
}

std::optional<BackendChoice> forced_backend_choice() {
  // Read and validated once: a screen resolves its engine per run, and a
  // mid-run env change must not flip it (the lane-width override rule).
  static const std::optional<BackendChoice> cached =
      parse_forced_backend(std::getenv("SWBPBC_FORCE_BACKEND")).value();
  return cached;
}

DispatchWorkload DispatchWorkload::from(const ScoringScheme& scheme,
                                        std::size_t pairs, std::size_t m,
                                        std::size_t n,
                                        LaneWidth resolved_width) {
  DispatchWorkload w;
  w.pairs = pairs;
  w.m = m;
  w.n = n;
  w.slices = scheme_required_slices(scheme, m, n);
  w.alphabet_bits = scheme.alphabet_bits();
  w.lane_bits = lane_width_bits(resolved_width);
  w.affine = scheme.affine();
  w.matrix = !scheme.uniform();
  const std::uint64_t bound =
      static_cast<std::uint64_t>(scheme.max_positive()) * m +
      scheme.max_positive();
  w.wide_cells = bound > 0xFFFFull;
  return w;
}

double CostModel::bpbc_cost_ns(const DispatchWorkload& w) const {
  // The batch is packed one instance per lane, so the word ops cost the
  // same whether a word's lanes are full or mostly padding: price
  // ceil(pairs / lane_bits) full words. This under-fill term dominates
  // the crossover for small batches.
  const std::size_t lanes = w.lane_bits > 0 ? w.lane_bits : 64;
  const double padded_pairs =
      static_cast<double>((w.pairs + lanes - 1) / lanes) *
      static_cast<double>(lanes);
  const double cells =
      padded_pairs * static_cast<double>(w.m) * static_cast<double>(w.n);
  double per_cell = bpbc_base_ns + bpbc_slice_ns * w.slices;
  if (w.affine) per_cell *= bpbc_affine_mul;
  if (w.matrix)
    per_cell += bpbc_matrix_ns * static_cast<double>(1u << w.alphabet_bits);
  // Lanes share every gate op; the wide words are not perfectly linear
  // in width (limb decomposition, memory), but the bench-fitted base
  // coefficient absorbs that at 64 and the ratio is close enough above.
  return cells * per_cell * 64.0 / static_cast<double>(lanes);
}

double CostModel::striped_cost_ns(const DispatchWorkload& w) const {
  const double cells = static_cast<double>(w.pairs) *
                       static_cast<double>(w.m) * static_cast<double>(w.n);
  const double per_cell =
      striped_cell_ns * (w.wide_cells ? striped_wide_mul : 1.0);
  // Each text column pays a fixed lazy-F / loop overhead regardless of
  // the segment count — the term that prices short queries out.
  const double columns =
      static_cast<double>(w.pairs) * static_cast<double>(w.n);
  // One profile per distinct query; the screen front ends broadcast one
  // query across the batch, so charge a single build (the cache makes
  // repeats free anyway).
  const double profile =
      striped_profile_ns * static_cast<double>(1u << w.alphabet_bits) *
      static_cast<double>(w.m);
  return cells * per_cell + columns * striped_column_ns + profile;
}

const CostModel& CostModel::measured() {
  static const CostModel model;  // bench-fitted defaults (see dispatch.hpp)
  return model;
}

BackendChoice resolve_backend_choice(BackendChoice requested,
                                     const DispatchWorkload& workload,
                                     const CostModel& model) {
  const BackendChoice effective = forced_backend_choice().value_or(requested);
  if (effective != BackendChoice::kAuto) return effective;
  return model.striped_cost_ns(workload) < model.bpbc_cost_ns(workload)
             ? BackendChoice::kStriped
             : BackendChoice::kBpbc;
}

namespace {

// The naive wordwise reference as a screening backend: no integrity
// findings, no stop polling, no phase split (the screen loop books its
// wall time on SWA).
class WordwiseBackend final : public Backend {
 public:
  WordwiseBackend(const ScoreParams& params, bulk::Mode mode)
      : params_(params), mode_(mode) {}

  [[nodiscard]] BackendCaps caps() const override { return {}; }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    r.scores = wordwise_max_scores(job.xs, job.ys, params_, mode_);
    return r;
  }

 private:
  ScoreParams params_;
  bulk::Mode mode_;
};

}  // namespace

util::Expected<DispatchedBackend> make_dispatch_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method, BackendChoice requested,
    const DispatchWorkload& workload) {
  DispatchedBackend out;
  out.choice = resolve_backend_choice(requested, workload);
  switch (out.choice) {
    case BackendChoice::kBpbc:
      out.backend = make_host_backend(scheme, width, mode, method);
      break;
    case BackendChoice::kStriped:
      out.backend = make_striped_backend(scheme, mode);
      break;
    case BackendChoice::kWordwiseNaive: {
      const auto params = scheme.to_params();
      if (!params)
        return util::Status::invalid_input(
            "backend wordwise-naive scores ScoreParams-expressible schemes "
            "only (linear gaps, uniform substitution); use bpbc, striped, "
            "or auto for this scheme");
      out.backend = std::make_unique<WordwiseBackend>(*params, mode);
      break;
    }
    case BackendChoice::kAuto:
      return util::Status::internal(
          "resolve_backend_choice returned kAuto");  // unreachable
  }
  return out;
}

}  // namespace swbpbc::sw
