// The host batch front ends of the bit-sliced kernel: try_bpbc_max_scores
// (DNA), try_scheme_max_scores (any alphabet; declared in
// scheme_aligner.hpp) and the host screening backend (make_host_backend,
// declared in backend.hpp). DNA is the epsilon = 2 alphabet, so all three
// run one routine: a shape check, then W2B of both sides into plane-major
// groups, SchemeBpbcAligner::score_groups (SWA + B2W) at the resolved lane
// width.
#include "sw/bpbc.hpp"

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "encoding/generic_batch.hpp"
#include "sw/backend.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

namespace {

// Typed shape check: equal counts, one non-zero length per side.
template <class Seq>
util::Status validate_batch(std::span<const Seq> xs,
                            std::span<const Seq> ys) {
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

// W2B of one side: a DNA batch is the 2-plane instance.
template <bitsim::LaneWord W, class Seq>
encoding::PlanarGenericBatch<W> transpose(std::span<const Seq> seqs,
                                          const ScoringScheme& scheme,
                                          encoding::TransposeMethod method) {
  if constexpr (std::is_same_v<Seq, encoding::Sequence>)
    return encoding::transpose_strings<W>(seqs, method);
  else
    return encoding::transpose_generic_planar<W>(
        seqs, scheme.alphabet_bits(), method);
}

template <bitsim::LaneWord W, class Seq>
std::vector<std::uint32_t> run(std::span<const Seq> xs,
                               std::span<const Seq> ys,
                               const ScoringScheme& scheme, bulk::Mode mode,
                               encoding::TransposeMethod method,
                               PhaseTimings* timings) {
  util::WallTimer timer;
  const auto bx = transpose<W>(xs, scheme, method);
  const auto by = transpose<W>(ys, scheme, method);
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    xv.push_back(bx.groups[g].view());
    yv.push_back(by.groups[g].view());
  }
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme, bx.length, by.length);
  return aligner.score_groups(xv, yv, xs.size(), mode, timings);
}

// Scores a validated batch at `width` (resolved here).
template <class Seq>
std::vector<std::uint32_t> score_batch(std::span<const Seq> xs,
                                       std::span<const Seq> ys,
                                       const ScoringScheme& scheme,
                                       LaneWidth width, bulk::Mode mode,
                                       encoding::TransposeMethod method,
                                       PhaseTimings* timings) {
  return with_lane_word(
      resolve_lane_width(width), [&]<class W>(std::type_identity<W>) {
        return run<W>(xs, ys, scheme, mode, method, timings);
      });
}

class HostBackend final : public Backend {
 public:
  // The width resolves once at construction (kAuto probe + env override),
  // so every chunk of a screen runs at the same width and caps() reports
  // what will actually execute.
  HostBackend(const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode)
      : scheme_(scheme), width_(resolve_lane_width(width)), mode_(mode) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    if (util::Status s = validate_batch(job.xs, job.ys); !s.ok())
      throw util::StatusError(std::move(s));
    ChunkResult r;
    r.scores = score_batch(job.xs, job.ys, scheme_, width_, mode_,
                           encoding::TransposeMethod::kPlanned, &r.timings);
    r.has_phase_timings = true;
    return r;
  }

 private:
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
};

}  // namespace

util::Expected<std::vector<std::uint32_t>> try_bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoringScheme& scheme,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  if (util::Status s = validate_scheme(scheme); !s.ok()) return s;
  if (scheme.matrix != nullptr)
    return util::Status::invalid_input(
        "scoring.scheme.matrix scores an epsilon-bit protein alphabet; the "
        "DNA front end packs 2-bit characters — score protein batches "
        "through try_scheme_max_scores");
  if (util::Status s = validate_batch(xs, ys); !s.ok()) return s;
  if (xs.empty()) return std::vector<std::uint32_t>{};
  return score_batch(xs, ys, scheme, width, mode, method, timings);
}

std::vector<std::uint32_t> bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoringScheme& scheme,
    LaneWidth width, bulk::Mode mode, encoding::TransposeMethod method,
    PhaseTimings* timings) {
  return try_bpbc_max_scores(xs, ys, scheme, width, mode, method, timings)
      .value();
}

util::Expected<std::vector<std::uint32_t>> try_scheme_max_scores(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method, PhaseTimings* timings) {
  if (util::Status s = validate_scheme(scheme); !s.ok()) return s;
  if (util::Status s = validate_batch(xs, ys); !s.ok()) return s;
  if (xs.empty()) return std::vector<std::uint32_t>{};
  if (util::Status s = validate_codes(xs, scheme, "xs"); !s.ok()) return s;
  if (util::Status s = validate_codes(ys, scheme, "ys"); !s.ok()) return s;
  return score_batch(xs, ys, scheme, width, mode, method, timings);
}

std::unique_ptr<Backend> make_host_backend(const ScoringScheme& scheme,
                                           LaneWidth width,
                                           bulk::Mode mode) {
  return std::make_unique<HostBackend>(scheme, width, mode);
}

}  // namespace swbpbc::sw
