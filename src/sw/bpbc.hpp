// The BPBC Smith-Waterman batch boundary (paper §IV.B): the phase
// timings every front end reports and the one batch shape check they
// all run.
//
// try_scheme_max_scores (scheme_aligner.hpp) performs W2B (bit transpose
// of both sides), the bulk DP over all groups (serially or on the thread
// pool) with the one bit-sliced kernel, SchemeBpbcAligner, and B2W (bit
// untranspose) — the exact Step 2/3/4 structure of the paper's GPU
// pipeline, with per-phase timings for the Table IV harness. DNA is the
// epsilon = 2 alphabet: its batches transpose into 2-plane groups and run
// the same routine as protein (bpbc.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/batch.hpp"
#include "encoding/dna.hpp"
#include "sw/lane.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

/// Phase timings in milliseconds (Table IV columns).
struct PhaseTimings {
  double w2b_ms = 0.0;
  double swa_ms = 0.0;
  double b2w_ms = 0.0;
  [[nodiscard]] double total_ms() const { return w2b_ms + swa_ms + b2w_ms; }
};

/// Typed kInvalidInput unless the pair batch (xs[k], ys[k]) has equal
/// counts, one non-zero length m for every xs and one n for every ys
/// (the BPBC batch requirement). An empty batch passes; callers that
/// need pairs reject it themselves.
[[nodiscard]] util::Status validate_batch(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys);

}  // namespace swbpbc::sw
