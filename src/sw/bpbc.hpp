// The BPBC Smith-Waterman batch front end for DNA (paper §IV.B) — the
// library's core contribution.
//
// `bpbc_max_scores` performs W2B (bit transpose of both sides), the bulk
// DP over all groups (serially or on the thread pool) with the one
// bit-sliced kernel, SchemeBpbcAligner (scheme_aligner.hpp), and B2W (bit
// untranspose) — the exact Step 2/3/4 structure of the paper's GPU
// pipeline, with per-phase timings for the Table IV harness. Each group's
// hi/lo planes reach the kernel as character planes 1/0 without a copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/batch.hpp"
#include "encoding/dna.hpp"
#include "sw/lane.hpp"
#include "sw/params.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

/// Phase timings in milliseconds (Table IV columns).
struct PhaseTimings {
  double w2b_ms = 0.0;
  double swa_ms = 0.0;
  double b2w_ms = 0.0;
  [[nodiscard]] double total_ms() const { return w2b_ms + swa_ms + b2w_ms; }
};

/// Scores all pairs (xs[k], ys[k]) with the BPBC technique. All xs must
/// share one length m and all ys one length n; violations are reported as
/// kInvalidInput (with the offending index) instead of failing mid-batch.
/// An empty batch scores to an empty vector. `timings`, when non-null,
/// receives per-phase wall times.
util::Expected<std::vector<std::uint32_t>> try_bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width = LaneWidth::k64, bulk::Mode mode = bulk::Mode::kSerial,
    encoding::TransposeMethod method = encoding::TransposeMethod::kPlanned,
    PhaseTimings* timings = nullptr);

/// Throwing convenience wrapper around try_bpbc_max_scores (StatusError).
std::vector<std::uint32_t> bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    LaneWidth width = LaneWidth::k64, bulk::Mode mode = bulk::Mode::kSerial,
    encoding::TransposeMethod method = encoding::TransposeMethod::kPlanned,
    PhaseTimings* timings = nullptr);

}  // namespace swbpbc::sw
