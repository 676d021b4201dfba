// The DNA front ends of the bit-sliced kernel: try_bpbc_max_scores and
// the host screening backend (make_host_backend, declared in
// backend.hpp). Both transpose DNA directly into hi/lo groups and hand
// them to SchemeBpbcAligner as character planes 1/0.
#include "sw/bpbc.hpp"

#include <string>
#include <utility>
#include <vector>

#include "sw/backend.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

namespace {

// Typed shape check shared by both front ends: equal counts, one
// non-zero length per side.
util::Status validate_dna_batch(std::span<const encoding::Sequence> xs,
                                std::span<const encoding::Sequence> ys) {
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "pattern/text count mismatch: " + std::to_string(xs.size()) +
        " patterns vs " + std::to_string(ys.size()) + " texts");
  if (xs.empty()) return {};
  const std::size_t m = xs.front().size();
  const std::size_t n = ys.front().size();
  if (m == 0 || n == 0)
    return util::Status::invalid_input("sequences must be non-empty");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].size() != m)
      return util::Status::invalid_input(
          "non-uniform batch: xs[" + std::to_string(k) + "] has length " +
          std::to_string(xs[k].size()) + ", batch requires " +
          std::to_string(m));
    if (ys[k].size() != n)
      return util::Status::invalid_input(
          "non-uniform batch: ys[" + std::to_string(k) + "] has length " +
          std::to_string(ys[k].size()) + ", batch requires " +
          std::to_string(n));
  }
  return {};
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> run_dna(std::span<const encoding::Sequence> xs,
                                   std::span<const encoding::Sequence> ys,
                                   const ScoringScheme& scheme,
                                   bulk::Mode mode,
                                   encoding::TransposeMethod method,
                                   PhaseTimings* timings) {
  util::WallTimer timer;
  const auto bx = encoding::transpose_strings<W>(xs, method);
  const auto by = encoding::transpose_strings<W>(ys, method);
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    xv.push_back(encoding::PlanarGenericView<W>::from(bx.groups[g]));
    yv.push_back(encoding::PlanarGenericView<W>::from(by.groups[g]));
  }
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme, bx.length, by.length);
  return aligner.score_groups(xv, yv, xs.size(), mode, method, timings);
}

// Scores a validated DNA batch under a uniform scheme.
std::vector<std::uint32_t> score_dna(std::span<const encoding::Sequence> xs,
                                     std::span<const encoding::Sequence> ys,
                                     const ScoringScheme& scheme,
                                     LaneWidth width, bulk::Mode mode,
                                     encoding::TransposeMethod method,
                                     PhaseTimings* timings) {
  switch (resolve_lane_width(width)) {
    case LaneWidth::k32:
      return run_dna<std::uint32_t>(xs, ys, scheme, mode, method, timings);
    case LaneWidth::k64:
      break;
    case LaneWidth::k128:
      return run_dna<bitsim::simd_word<128>>(xs, ys, scheme, mode, method,
                                             timings);
    case LaneWidth::k256:
      return run_dna<bitsim::simd_word<256>>(xs, ys, scheme, mode, method,
                                             timings);
    case LaneWidth::k512:
      return run_dna<bitsim::simd_word<512>>(xs, ys, scheme, mode, method,
                                             timings);
    case LaneWidth::kScalarWide:
      return run_dna<bitsim::wide_word<256, false>>(xs, ys, scheme, mode,
                                                    method, timings);
    case LaneWidth::kAuto:
      break;  // resolve_lane_width never returns kAuto
  }
  return run_dna<std::uint64_t>(xs, ys, scheme, mode, method, timings);
}

class HostBackend final : public Backend {
 public:
  // The width resolves once at construction (kAuto probe + env override),
  // so every chunk of a screen runs at the same width and caps() reports
  // what will actually execute.
  HostBackend(const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
              encoding::TransposeMethod method)
      : scheme_(scheme),
        width_(resolve_lane_width(width)),
        mode_(mode),
        method_(method) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    if (util::Status s = validate_dna_batch(job.xs, job.ys); !s.ok())
      throw util::StatusError(std::move(s));
    ChunkResult r;
    r.scores = score_dna(job.xs, job.ys, scheme_, width_, mode_, method_,
                         &r.timings);
    r.has_phase_timings = true;
    return r;
  }

 private:
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
  encoding::TransposeMethod method_;
};

}  // namespace

util::Expected<std::vector<std::uint32_t>> try_bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  if (util::Status s = validate_dna_batch(xs, ys); !s.ok()) return s;
  if (xs.empty()) return std::vector<std::uint32_t>{};
  return score_dna(xs, ys, ScoringScheme::from_params(params), width, mode,
                   method, timings);
}

std::vector<std::uint32_t> bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  return try_bpbc_max_scores(xs, ys, params, width, mode, method, timings)
      .value();
}

std::unique_ptr<Backend> make_host_backend(
    const ScoreParams& params, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method) {
  return make_host_backend(ScoringScheme::from_params(params), width, mode,
                           method);
}

std::unique_ptr<Backend> make_host_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method) {
  return std::make_unique<HostBackend>(scheme, width, mode, method);
}

}  // namespace swbpbc::sw
