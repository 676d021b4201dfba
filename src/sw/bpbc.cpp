// The host batch front end of the bit-sliced kernel,
// try_scheme_max_scores (declared in scheme_aligner.hpp), and the host
// screening backend (make_host_backend, declared in backend.hpp). Both
// run one routine for every alphabet: a shape check, then W2B of both
// sides into plane-major groups, SchemeBpbcAligner::score_groups (SWA +
// B2W) at the resolved lane width — kernel::run_batch (kernel.hpp),
// which runs the AVX2/AVX-512 build at 256/512 lanes when the CPU has
// it.
#include "sw/bpbc.hpp"

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sw/backend.hpp"
#include "sw/kernel.hpp"
#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {

namespace {

// Scores a validated batch at `width` (resolved here).
std::vector<std::uint32_t> score_batch(std::span<const encoding::Sequence> xs,
                                       std::span<const encoding::Sequence> ys,
                                       const ScoringScheme& scheme,
                                       LaneWidth width, bulk::Mode mode,
                                       encoding::TransposeMethod method,
                                       PhaseTimings* timings) {
  return with_lane_word<LaneWords::kNative>(
      resolve_lane_width(width), [&]<class W>(std::type_identity<W>) {
        return kernel::run_batch<W>(xs, ys, scheme, mode, method, timings);
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

util::Status validate_batch(std::span<const encoding::Sequence> xs,
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

util::Expected<std::vector<std::uint32_t>> try_scheme_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys,
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
